"""Command-line front end.

Sequence emitters share one output layer: b-file ("index value" per line,
1-based), csv, json or plain text, written to stdout or --output. Integer
arrays are formatted as decimal text in numpy, one block of `walk._CHUNK`
rows at a time, and each block is written as soon as it is made; lists of
Python ints (huge recurrence terms, short record and zero lists) take the
str() path, which the array kernel is tested against. Exit codes: 0 success,
1 a verification check failed, 2 usage error (an unwritable output included).
A reader that closes stdout early ends the output quietly.

numpy, the walk engine and `verify` load only in the commands that use them,
so encode, decode, dfa, recur and subst start without numpy. The walk names
the commands call are module globals, bound on first use by `_load_walk`.
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


def _decimal_digits(mag):
    """ASCII digits of uint64 values, least significant first, as a
    (passes, len) uint8 array ("0" past a value's leading digit), and each
    value's digit count: one plus its nonzero quotients by 10."""
    import numpy as np

    passes = len(str(int(mag.max())))
    digits = np.empty((passes, len(mag)), dtype=np.uint8)
    count = np.ones(len(mag), dtype=np.uint8)
    quot = np.empty_like(mag)
    for p in range(passes):
        np.floor_divide(mag, 10, out=quot)
        digits[p] = mag - 10 * quot
        count += quot != 0
        mag, quot = quot, mag
    digits += 48
    return digits, count


def _int_rows(columns, sep: str) -> Iterator[str]:
    """Decimal text of equal-length integer arrays or ranges: one line per
    row, the row's values joined by sep. Yields one str per block of _CHUNK
    rows; a range column becomes an array one block at a time.

    A block is laid out in one uint8 buffer whose byte 0 is a sink. Line ends
    come from one cumsum of the field widths, and each field is filled from
    the right, one digit per pass. A pass past a field's leading digit writes
    its "0" to the byte just before the field: the sink, or the sign,
    separator or newline that is written after it.
    """
    import numpy as np

    from .walk import _CHUNK

    for lo in range(0, len(columns[0]), _CHUNK):
        fields = []
        line = np.int64(len(columns))  # k - 1 separators and a newline
        for col in columns:
            part = col[lo : lo + _CHUNK]
            if isinstance(part, range):  # an index column, made one block at a time
                v = np.arange(part.start, part.stop, dtype=np.int64)
            else:
                v = np.asarray(part, dtype=np.int64)
            neg = v < 0
            digits, count = _decimal_digits(np.abs(v).view(np.uint64))  # exact for -2^63
            fields.append((neg, digits, count))
            line = line + count + neg
        ends = np.cumsum(line)
        buf = np.empty(int(ends[-1]) + 1, dtype=np.uint8)
        end = ends
        for k in reversed(range(len(fields))):
            neg, digits, count = fields[k]
            before = end - count - 1
            for p, row in enumerate(digits):
                buf[before + (np.maximum(count, p) - p)] = row
            if neg.any():
                buf[before] = ord("-")
            end = before - neg
            if k:
                buf[end] = ord(sep)
        buf[ends] = ord("\n")
        yield str(memoryview(buf)[1:], "ascii")


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


def _json_ints(values) -> list[int]:
    """Python ints for json: int() per item of a list, one tolist() for an array."""
    return [int(v) for v in values] if isinstance(values, list) else values.tolist()


def _series_text(values, fmt: str, name: str) -> Iterable[str]:
    """Text chunks of one sequence: arrays through _int_rows, lists of
    Python ints through one f-string join."""
    if fmt == "json":
        return [json.dumps({"name": name, "values": _json_ints(values)}) + "\n"]
    head = ["n,value\n"] if fmt == "csv" else []
    sep = "," if fmt == "csv" else " "
    if isinstance(values, list):
        if fmt == "plain":
            return ["".join(f"{v}\n" for v in values)]
        return head + ["".join(f"{i}{sep}{v}\n" for i, v in enumerate(values, start=1))]
    columns = [values] if fmt == "plain" else [range(1, len(values) + 1), values]
    return chain(head, _int_rows(columns, sep))


def _pair_text(a, b, fmt: str, name: str) -> Iterable[str]:
    if fmt == "csv":
        rows = min(len(a), len(b))  # a row per index that has both terms
        return chain(["n,a,b\n"], _int_rows([range(1, rows + 1), a[:rows], b[:rows]], ","))
    if fmt == "json":
        return [json.dumps({"name": name, "a": _json_ints(a), "b": _json_ints(b)}) + "\n"]
    raise ValueError("a/b emission needs --format csv or json")


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


def _add_format(parser, default="bfile", choices=("bfile", "csv", "json", "plain")):
    parser.add_argument("--format", default=default, choices=choices)
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
        seqs = ab_sequences(spec, args.n)
        return _pair_text(seqs.a, seqs.b, args.format, "ab")
    if emit == "diff":
        seqs = ab_terms(spec, args.n)
        return _series_text(seqs.b - seqs.a, args.format, "diff")
    if emit == "records":
        return _series_text(records(spec, args.n), args.format, "records")
    if emit == "zeros":
        return _series_text(zeros(spec, args.n), args.format, "zeros")
    trace = brute_walk(spec, args.n)
    return _series_text(trace.sums if emit == "sums" else trace.signs, args.format, emit)


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
    if args.command in ("seq", "walk", "records", "zeros", "discrepancy"):
        _load_walk()
    try:
        if args.command == "seq":
            seqs = ab_terms(walk_spec(args.theta), args.n)
            text = _series_text(seqs.a if args.which == "a" else seqs.b, args.format, args.which)
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
