"""Command-line front end.

Sequence emitters share one output layer: b-file ("index value" per line,
1-based), csv, json or plain text, written to stdout or --output. Exit codes:
0 success, 1 a verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import automata, recurrences, substitution, verify
from .numeration import alphabet_size, decode, encode, format_digits, parse_digits
from .qarith import cf_expand, parse_surd
from .walk import (
    ab_sequences,
    ab_terms,
    brute_walk,
    discrepancy,
    records,
    walk_spec,
    zeros,
)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_ints(values) -> list[int]:
    """Python ints for json: one tolist() for an array, int() per item otherwise."""
    return values.tolist() if isinstance(values, np.ndarray) else [int(v) for v in values]


def _series_text(values, fmt: str, name: str) -> str:
    if fmt == "bfile":
        return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))
    if fmt == "csv":
        return "n,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values, start=1))
    if fmt == "json":
        return json.dumps({"name": name, "values": _json_ints(values)}) + "\n"
    return "".join(f"{v}\n" for v in values)


def _pair_text(a, b, fmt: str, name: str) -> str:
    if fmt == "csv":
        return "n,a,b\n" + "".join(
            f"{i},{x},{y}\n" for i, (x, y) in enumerate(zip(a, b), start=1)
        )
    if fmt == "json":
        return json.dumps({"name": name, "a": _json_ints(a), "b": _json_ints(b)}) + "\n"
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

    p = sub.add_parser("records", help="record indices up to step n")
    p.add_argument("--theta", type=_surd_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("zeros", help="zero indices up to step n")
    p.add_argument("--theta", type=_surd_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

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
    p.add_argument("--name", choices=sorted(recurrences.GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True, help="number of terms")
    _add_format(p)

    p = sub.add_parser("discrepancy", help="scaled interval discrepancy k*D_n")
    p.add_argument("--xi", type=_surd_arg, required=True, help="rotation in (0,1)")
    p.add_argument("--endpoint", type=_fraction_arg, default=Fraction(1, 2), help="h/k in (0,1)")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=("all", *verify.SUITES), default="all")
    p.add_argument("--scale", choices=tuple(verify.SCALES), default="quick")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--inject-failure", default=None, help=argparse.SUPPRESS)

    return parser


def _run_walk(args) -> str:
    spec = walk_spec(args.theta)
    emit = args.emit
    if emit == "ab":
        seqs = ab_sequences(spec, args.n)
        return _pair_text(seqs.a, seqs.b, args.format, "ab")
    if emit == "diff":
        seqs = ab_terms(spec, args.n)
        return _series_text((seqs.b - seqs.a).tolist(), args.format, "diff")
    if emit == "records":
        return _series_text(records(spec, args.n), args.format, "records")
    if emit == "zeros":
        return _series_text(zeros(spec, args.n), args.format, "zeros")
    trace = brute_walk(spec, args.n)
    values = trace.sums.tolist() if emit == "sums" else trace.signs.tolist()
    return _series_text(values, args.format, emit)


def _run_dfa(args) -> str:
    base = cf_expand(args.base)
    build = automata.build_zero_dfa if args.kind == "zeros" else automata.build_record_dfa
    dfa = build(base)
    if args.out == "dot":
        return automata.to_dot(dfa)
    lines = [
        f"states {dfa.n_states} alphabet {dfa.alphabet} direction {dfa.direction}",
        f"start {dfa.start} dead {dfa.dead} accepting {sorted(dfa.accepting)}",
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
    results = verify.run_suite(args.suite, args.scale, inject_failure=args.inject_failure)
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
    try:
        if args.command == "seq":
            seqs = ab_terms(walk_spec(args.theta), args.n)
            values = (seqs.a if args.which == "a" else seqs.b).tolist()
            text = _series_text(values, args.format, args.which)
        elif args.command == "walk":
            text = _run_walk(args)
        elif args.command == "records":
            text = _series_text(records(walk_spec(args.theta), args.n), args.format, "records")
        elif args.command == "zeros":
            text = _series_text(zeros(walk_spec(args.theta), args.n), args.format, "zeros")
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
            text = _series_text(values.tolist(), args.format, "k*D_n")
        elif args.command == "verify":
            text, status = _run_verify(args)
        else:  # unreachable: argparse enforces the choices
            parser.error(f"unknown command {args.command}")
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    _emit(text, args.output)
    return status


if __name__ == "__main__":
    sys.exit(main())
