"""Command-line front end.

Sequence emitters share one output layer: b-file ("index value" per line,
1-based), csv, json or plain text, written to stdout or --output. Integer
arrays are formatted as decimal text in numpy, one block of `walk._CHUNK`
rows at a time, and each block is written as soon as it is made (json
included: its items are the same rows joined by ", "); lists of
Python ints (huge recurrence terms, short record and zero lists) take the
str() path, which the array kernel is tested against. A block is one
zero-padded grid of digit columns, squeezed into text, and 10^6 b-file lines
of `walk --emit sums` take ~35 ms to format (~90 ms with a scatter per digit
pass, 2-vCPU host). Exit codes: 0 success, 1 a verification check failed,
2 usage error (an unwritable output included). A reader that closes stdout
early ends the output quietly.

numpy, the walk engine and `verify` load only in the commands that use them,
so encode, decode, dfa, recur and subst start without numpy. The commands
that load it first ask OpenBLAS for no worker threads (`_one_blas_thread`),
which takes `import numpy` from ~205 to ~130 ms. The walk names the commands
call are module globals, bound on first use by `_load_walk`. The CLI writes
no walk array itself: `walk --emit sums` prints `discrepancy` at h/k = 1/2
(S_n = 2*D_n) and `--emit signs` prints `walk._steps`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain

from . import automata, recurrences, substitution
from .numeration import alphabet_size, decode, encode, format_digits, parse_digits
from .qarith import cf_expand, parse_surd

# brute_walk is not called here, but the benchmark's traced `cli` run looks
# up and patches every one of these names.
_WALK_NAMES = (
    "walk_spec",
    "brute_walk",
    "records",
    "zeros",
    "ab_sequences",
    "ab_terms",
    "discrepancy",
)

# the choices of verify --suite and --scale, in verify's key order; kept here
# so that --help and usage errors need no verify import (a test pins them)
_SUITES = ("walk", "automata", "substitution", "recurrences")
_SCALES = ("quick", "full")


def _one_blas_thread() -> None:
    """Ask OpenBLAS for no worker threads, unless the caller chose a count,
    before this process first imports numpy.

    numpy's OpenBLAS starts its thread pool at import, and on a 2-vCPU host
    that costs ~75 ms of a ~205 ms `import numpy` (a bare interpreter takes
    ~50 ms). No walklab module calls a BLAS routine (a test in
    tests/test_source_guards.py keeps it so), so the pool would only sit
    idle. Once numpy is loaded, the variable changes nothing.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _load_walk() -> None:
    """Bind the walk engine's names as module globals. A name already bound
    (say, a tracer's wrapper) is kept."""
    from . import walk

    for name in _WALK_NAMES:
        globals().setdefault(name, getattr(walk, name))


def __getattr__(name: str):
    if name in _WALK_NAMES:
        _load_walk()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int_rows(columns, sep: str) -> Iterator[str]:
    """Decimal text of equal-length integer arrays or ranges: one line per
    row, the row's values joined by sep. Yields one str per block of _CHUNK
    rows; a range column becomes an array one block at a time.

    A block is laid out as one zero-filled (rows, width) uint8 grid, each
    field right-aligned in as many columns as its longest value needs, sign
    included. Each digit pass fills one grid column, least significant
    first: the digit's ASCII code while the value still has that digit, 0
    past its leading digit. A negative value's "-" goes just before its
    leading digit; separators and the newline are whole columns. Dropping
    the 0 bytes leaves the text. The passes divide in uint32 when a field's
    magnitudes fit it, else in uint64, which holds |-2^63| exactly.
    """
    import numpy as np

    from .walk import _CHUNK

    for lo in range(0, len(columns[0]), _CHUNK):
        fields, width = [], 0
        for col in columns:
            part = col[lo : lo + _CHUNK]
            if isinstance(part, range):  # an index column, made one block at a time
                v = np.arange(part.start, part.stop, dtype=np.int64)
            else:
                v = np.asarray(part, dtype=np.int64)
            mag = np.abs(v).view(np.uint64)
            top = int(mag.max())
            neg = np.flatnonzero(v < 0)
            passes = len(str(top))
            width += passes + (len(neg) > 0)
            fields.append((width, passes, mag if top >> 32 else mag.astype(np.uint32), neg))
            width += 1  # the separator or the newline
        rows = len(v)
        grid = np.zeros((rows, width), dtype=np.uint8)
        flat = grid.reshape(-1)
        digit = np.empty(rows, dtype=np.uint8)
        for end, passes, mag, neg in fields:
            grid[:, end] = ord(sep)
            # a "-" goes one column left of the leading digit, which stands
            # digits - 1 columns left of the last
            m = mag[neg]
            signs = neg * width + (end - 2) - sum(m >= 10**p for p in range(1, passes))
            quot, rest = np.empty_like(mag), np.empty_like(mag)
            for p in range(passes):
                np.floor_divide(mag, 10, out=quot)
                np.subtract(mag, np.multiply(quot, 10, out=rest), out=rest)
                np.add(rest, ord("0"), out=digit, casting="unsafe")
                if p:  # mag is 0 past the leading digit
                    digit *= mag != 0
                grid[:, end - 1 - p] = digit
                mag, quot = quot, mag
            flat[signs] = ord("-")
        grid[:, -1] = ord("\n")
        yield grid.tobytes().replace(b"\0", b"").decode("ascii")


def _emit(chunks: str | Iterable[str], path: str | None) -> None:
    """Write a text, or each of its chunks as it is made, to the -o file or
    to sys.stdout (any text stream, with or without a .buffer)."""
    if isinstance(chunks, str):
        chunks = [chunks]
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_text(name: str, **series) -> Iterator[str]:
    """Chunks of the line json.dumps({"name": name, **series}) prints, for
    integer sequences. An array's items are its _int_rows blocks with each
    newline made ", ", so neither a list of Python ints nor the whole text
    is ever built; a list of Python ints goes through json.dumps."""
    yield json.dumps({"name": name})[:-1]
    for key, values in series.items():
        yield f", {json.dumps(key)}: "
        if isinstance(values, list):
            yield json.dumps([int(v) for v in values])
            continue
        yield "["
        lead = ""
        for block in _int_rows([values], " "):
            yield lead + block[:-1].replace("\n", ", ")
            lead = ", "
        yield "]"
    yield "}\n"


def _series_text(values, fmt: str, name: str) -> Iterable[str]:
    """Text chunks of one sequence: arrays through _int_rows, lists of
    Python ints through one f-string join or json.dumps."""
    if fmt == "json":
        return _json_text(name, values=values)
    head = ["n,value\n"] if fmt == "csv" else []
    sep = "," if fmt == "csv" else " "
    if isinstance(values, list):
        if fmt == "plain":
            return ["".join(f"{v}\n" for v in values)]
        return head + ["".join(f"{i}{sep}{v}\n" for i, v in enumerate(values, start=1))]
    columns = [values] if fmt == "plain" else [range(1, len(values) + 1), values]
    return chain(head, _int_rows(columns, sep))


def _pair_text(a, b, fmt: str, name: str) -> Iterable[str]:
    """a and b as json, else as csv: `_run_walk` admits no other format."""
    if fmt == "json":
        return _json_text(name, a=a, b=b)
    rows = min(len(a), len(b))  # a row per index that has both terms
    return chain(["n,a,b\n"], _int_rows([range(1, rows + 1), a[:rows], b[:rows]], ","))


def _surd_arg(text: str):
    try:
        return parse_surd(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_arg(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_format(parser):
    parser.add_argument("--format", default="bfile", choices=("bfile", "csv", "json", "plain"))
    parser.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="deterministic random walks of quadratic irrationals: "
        "sequences, digit automata, substitutions, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="step-index sequences a(n) / b(n)")
    p.add_argument("--theta", type=_surd_arg, required=True)
    p.add_argument("--which", choices=("a", "b"), required=True)
    p.add_argument("--n", type=int, required=True, help="number of terms")
    _add_format(p)

    p = sub.add_parser("walk", help="walk emissions over the first n steps")
    p.add_argument("--theta", type=_surd_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--emit",
        choices=("sums", "signs", "records", "zeros", "ab", "diff"),
        default="sums",
    )
    _add_format(p)

    # records and zeros are walk --emit records|zeros under their own names
    for emit, what in (("records", "record"), ("zeros", "zero")):
        p = sub.add_parser(emit, help=f"{what} indices up to step n")
        p.add_argument("--theta", type=_surd_arg, required=True)
        p.add_argument("--n", type=int, required=True)
        _add_format(p)
        p.set_defaults(emit=emit)

    p = sub.add_parser("encode", help="integer -> digit word")
    p.add_argument("--base", type=_surd_arg, required=True)
    p.add_argument("--lsd", action="store_true", help="print least significant digit first")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("decode", help="digit word -> integer")
    p.add_argument("--base", type=_surd_arg, required=True)
    p.add_argument("--lsd", action="store_true", help="word is least significant digit first")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("dfa", help="digit automata")
    dfa_sub = p.add_subparsers(dest="dfa_command", required=True)
    b = dfa_sub.add_parser("build", help="build a zero/record automaton for a BR base")
    b.add_argument("--kind", choices=("zeros", "records"), required=True)
    b.add_argument("--base", type=_surd_arg, required=True)
    b.add_argument("--out", choices=("dot", "table"), default="dot")
    b.add_argument("-o", "--output", default=None)

    p = sub.add_parser("subst", help="noble-mean substitutions")
    p.add_argument("--m", type=int, required=True, help="noble index (1 = golden form)")
    p.add_argument("--emit", choices=("sigma", "fixedpoint", "coded"), default="sigma")
    p.add_argument("--len", type=int, default=100, dest="length")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("recur", help="record recurrence generators")
    p.add_argument("--name", choices=sorted(recurrences.RECURRENCES), required=True)
    last = "last index n (terms from each row's first index through n)"
    p.add_argument("--n", type=int, required=True, help=last)
    _add_format(p)

    p = sub.add_parser("discrepancy", help="scaled interval discrepancy k*D_n")
    p.add_argument("--xi", type=_surd_arg, required=True, help="rotation in (0,1)")
    p.add_argument("--endpoint", type=_fraction_arg, default=Fraction(1, 2), help="h/k in (0,1)")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    p.add_argument("--scale", choices=_SCALES, default="quick")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("-o", "--output", default=None)

    return parser


def _run_walk(args) -> Iterable[str]:
    spec = walk_spec(args.theta)
    emit = args.emit
    if emit == "ab":
        if args.format not in ("csv", "json"):
            raise ValueError("a/b emission needs --format csv or json")
        seqs = ab_sequences(spec, args.n)
        return _pair_text(seqs.a, seqs.b, args.format, "ab")
    if emit == "diff":
        seqs = ab_terms(spec, args.n)
        return _series_text(seqs.b - seqs.a, args.format, "diff")
    if emit == "records":
        return _series_text(records(spec, args.n), args.format, "records")
    if emit == "zeros":
        return _series_text(zeros(spec, args.n), args.format, "zeros")
    if emit == "sums":  # S_n = 2*D_n over [0, 1/2) of the rotation
        return _series_text(discrepancy(spec.rotation, Fraction(1, 2), args.n), args.format, emit)
    from .walk import _steps

    return _series_text(_steps(spec, args.n), args.format, emit)


def _run_dfa(args) -> str:
    base = cf_expand(args.base)
    build = automata.build_zero_dfa if args.kind == "zeros" else automata.build_record_dfa
    dfa = build(base)
    if args.out == "dot":
        return automata.to_dot(dfa)
    lines = [
        f"states {dfa.n_states} alphabet {dfa.alphabet} direction lsd",
        f"start 0 dead {dfa.dead} accepting {sorted(dfa.accepting)}",
    ]
    for state, row in enumerate(dfa.transitions):
        lines.append(f"{state}: " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _run_subst(args) -> str:
    if args.m == 1:
        sub = substitution.golden_substitution()
    else:
        sub = substitution.noble_substitution(args.m)
    if args.emit == "sigma":
        word_lines = [f"{ch} -> {sub.words[ch]}" for ch in "abc"]
        code_line = "coding " + " ".join(f"{ch}->{sub.coding[ch]}" for ch in "abc")
        return "\n".join(word_lines + [code_line]) + "\n"
    word = substitution.fixed_point(sub, "a", args.length)
    return (word if args.emit == "fixedpoint" else sub.code(word)) + "\n"


def _run_verify(args) -> tuple[str, int]:
    from . import verify

    results = verify.run_suite(args.suite, args.scale)
    failed = [r for r in results if not r.ok and not r.conjectural]
    if args.format == "json":
        payload = [
            {"name": r.name, "status": r.status(), "conjectural": r.conjectural, "detail": r.detail}
            for r in results
        ]
        text = json.dumps({"scale": args.scale, "checks": payload}, indent=2) + "\n"
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{r.status():<18} {r.name:<{width}}  {r.detail}" for r in results]
        summary = f"{len(results)} checks, {len(failed)} failed (scale={args.scale})"
        if failed:
            summary += "; first failure: " + failed[0].name
        text = "\n".join(lines + [summary]) + "\n"
    return text, 1 if failed else 0


def main(argv=None) -> int:
    """Run one walklab command; returns the exit status."""
    # CPython 3.11+ caps int <-> str conversion at 4300 digits, but the
    # library takes integers of any size: lift the cap for this command only
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 0
    if args.command in ("seq", "walk", "records", "zeros", "discrepancy", "verify"):
        _one_blas_thread()
        _load_walk()  # verify imports the walk engine as well
    try:
        if args.command == "seq":
            counts = (args.n, 0) if args.which == "a" else (0, args.n)
            seqs = ab_terms(walk_spec(args.theta), *counts)  # the printed sequence alone
            text = _series_text(getattr(seqs, args.which), args.format, args.which)
        elif args.command in ("walk", "records", "zeros"):
            text = _run_walk(args)
        elif args.command == "encode":
            base = cf_expand(args.base)
            word = encode(args.n, base)
            text = format_digits(word.digits, msd=not args.lsd, alphabet=alphabet_size(base)) + "\n"
        elif args.command == "decode":
            base = cf_expand(args.base)
            digits = parse_digits(args.word, msd=not args.lsd, alphabet=alphabet_size(base))
            text = str(decode(digits, base)) + "\n"
        elif args.command == "dfa":
            text = _run_dfa(args)
        elif args.command == "subst":
            text = _run_subst(args)
        elif args.command == "recur":
            text = _series_text(recurrences.generate(args.name, args.n), args.format, args.name)
        elif args.command == "discrepancy":
            values = discrepancy(args.xi, args.endpoint, args.n)
            text = _series_text(values, args.format, "k*D_n")
        elif args.command == "verify":
            text, status = _run_verify(args)
        else:  # unreachable: argparse enforces the choices
            parser.error(f"unknown command {args.command}")
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    try:
        _emit(text, args.output)
    except BrokenPipeError as exc:
        if args.output:
            parser.error(f"cannot write output: {exc}")
        # the reader of stdout stopped early, which is not an error; point
        # stdout at devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        parser.error(f"cannot write output: {exc}")
    return status


if __name__ == "__main__":
    sys.exit(main())
