"""Program side of the benchmark: set up, run the timed loop, report answers.

Reads a request as JSON on stdin and writes a report as JSON on stdout. It
drives walklab only through public functions and the CLI entry point, and
never sees the expected answers: the harness checks them afterwards. One
client, no threads: each op starts when the previous one has ended.

Modes: "setup" builds the workload's one-time objects and exits (the harness
times it from a fresh interpreter); "run" times rounds of ops for the given
seconds; "trace" alternates untraced and traced rounds of one workload, then
runs one traced round of every other workload, and reports per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

from common import CLI_LAUNCHER, digest, int_digest, stdout_digest
from tracing import Tracer, patched

from walklab import automata, numeration, qarith, walk

VERDICT = {automata.ACCEPT: 1, automata.REJECT: 0, automata.INVALID: 2}


def rules_value(engine, n: int) -> int:
    """One warm rules-engine value; a global so that tracing can wrap it
    without wrapping the engine's own recursive calls."""
    return engine.value(n)


def rules_cold(spec, n: int) -> int:
    """A fresh rules engine answering a single index."""
    return walk.RuleEngine(spec).value(n)


def cold_denominators(cf, bound: int) -> list[int]:
    return cf.denominators_up_to(bound)


def _ms_since(t0: int) -> float:
    return (perf_counter_ns() - t0) / 1e6


def attempt(ops: list, key: str, items: int, answer, fn, *args):
    """Time one library call; record its answer, or the exception it raised."""
    t0 = perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing op is data, not the end of the run
        ops.append({"key": key, "ms": _ms_since(t0), "items": items, "error": type(exc).__name__})
        return None
    ms = _ms_since(t0)
    try:
        got = answer(out)
    except Exception as exc:  # output of the wrong shape
        ops.append({"key": key, "ms": ms, "items": items, "error": f"BadOutput:{type(exc).__name__}"})
        return None
    ops.append({"key": key, "ms": ms, "items": items, "answer": got})
    return out


def _n_arg(_x, n, *_rest, **_kw):
    return n


# --- sweep: bulk prefixes ------------------------------------------------------


class Sweep:
    """brute_walk at n = 1e7 on a BR and a non-BR angle, the derived sequences
    on each trace, and the discrepancy at a twin and a non-twin endpoint."""

    def __init__(self, inp: dict):
        self.n = inp["n"]
        self.prefix = inp["prefix"]
        self.sample = np.array(inp["sample"], dtype=np.int64) - 1
        self.specs = [(name, walk.walk_spec(qarith.parse_surd(name))) for name in inp["angles"]]
        self.xi = qarith.parse_surd(inp["xi"])
        self.endpoints = [(text, Fraction(text)) for text in inp["endpoints"]]
        self.trace_bytes: list[float] = []

    def round(self, traced: bool) -> list[dict]:
        n, p, ops = self.n, self.prefix, []
        for name, spec in self.specs:
            trace = attempt(
                ops,
                f"brute:{name}",
                n,
                lambda t: {
                    "sums": digest(t.sums),
                    "prefix": digest(t.sums[:p]),
                    "signs_at": t.signs[self.sample].tolist(),
                },
                walk.brute_walk,
                spec,
                n,
            )
            if trace is None:
                for op in ("records", "zeros", "ab"):
                    ops.append({"key": f"{op}:{name}", "ms": 0.0, "items": n, "error": "NotRun"})
                continue
            if traced:  # computed from the array sizes, not measured
                self.trace_bytes.append((trace.sums.nbytes + trace.signs.nbytes) / trace.n)
            attempt(ops, f"records:{name}", n, lambda r: {"records": [int(x) for x in r]},
                    walk.records, trace, n)
            attempt(ops, f"zeros:{name}", n, lambda z: {"count": len(z), "zeros": digest(z)},
                    walk.zeros, trace, n)
            attempt(ops, f"ab:{name}", n, lambda s: {"a": digest(s.a), "b": digest(s.b)},
                    walk.ab_sequences, trace, n)
            del trace
        for text, endpoint in self.endpoints:
            attempt(ops, f"disc:{text}", n, lambda d: {"values": digest(d), "prefix": digest(d[:p])},
                    walk.discrepancy, self.xi, endpoint, n)
        return ops

    @staticmethod
    def targets(worker_module) -> list:
        def disc_name(_xi, endpoint, _n, *_a, **_k):
            e = Fraction(endpoint)
            return f"walk.discrepancy.h{e.numerator}k{e.denominator}"

        return [
            (walk, "cf_expand", "qarith.cf_expand", None, None),
            (walk, "brute_walk", "walk.brute_walk", _n_arg, None),
            (walk, "records", "walk.records", _n_arg, None),
            (walk, "zeros", "walk.zeros", _n_arg, None),
            (walk, "ab_sequences", "walk.ab_sequences", _n_arg, None),
            (walk, "discrepancy", disc_name, lambda _xi, _e, n, *a, **k: n, None),
        ]

    def layers(self, s: dict) -> dict:
        def per_step(name):
            return s[name]["self_ns"] / s[name]["work"]

        return {
            "walk.brute_walk_ns_per_step": per_step("walk.brute_walk"),
            "walk.trace_bytes_per_step": statistics.median(self.trace_bytes),
            "walk.records_ns_per_step": per_step("walk.records"),
            "walk.zeros_ns_per_step": per_step("walk.zeros"),
            "walk.ab_sequences_ns_per_step": per_step("walk.ab_sequences"),
            "walk.discrepancy_ns_per_step.h1k2": per_step("walk.discrepancy.h1k2"),
            "walk.discrepancy_ns_per_step.h1k3": per_step("walk.discrepancy.h1k3"),
        }


# --- classify: whole ranges ----------------------------------------------------


class Classify:
    """Blocks of consecutive integers: Ostrowski encode, zero and record
    automata, decode, on two BR bases, plus four warm rules-engine values per
    integer over a consecutive index range.

    A round classifies the whole range, block by block, with a fresh engine.
    So every round is the same mix of ops, however many rounds a run fits,
    and the peak of the engine's memo does not grow with the run length.
    """

    def __init__(self, inp: dict):
        self.block = inp["block"]
        self.blocks = inp["blocks"]
        self.per_int = inp["rules_per_int"]
        self.r0 = inp["rules_start"]
        self.bases = []
        for name in inp["bases"]:
            cf = qarith.cf_expand(qarith.parse_surd(name))
            self.bases.append(
                (name, cf, automata.build_zero_dfa(cf), automata.build_record_dfa(cf))
            )
        self.rules_spec = walk.walk_spec(qarith.parse_surd(inp["rules_theta"]))

    def round(self, traced: bool) -> list[dict]:
        engine = walk.RuleEngine(self.rules_spec)
        return [self._block(engine, b) for b in range(self.blocks)]

    def _block(self, engine, b: int) -> dict:
        start, stop = b * self.block, (b + 1) * self.block
        lo = self.r0 + self.per_int * start
        hi = lo + self.per_int * self.block
        op = {"key": f"block:{b}", "items": self.block, "tag": "block"}
        t0 = perf_counter_ns()
        try:
            got = []
            for name, cf, zdfa, rdfa in self.bases:
                zero, rec, dec = [], [], []
                for m in range(start, stop):
                    word = numeration.encode(m, cf)
                    zero.append(VERDICT[automata.run(zdfa, word)])
                    rec.append(VERDICT[automata.run(rdfa, word)])
                    dec.append(numeration.decode(word))
                got.append((name, zero, rec, dec))
            rules = [rules_value(engine, m) for m in range(lo, hi)]
        except Exception as exc:  # a failing op is data
            op.update(ms=_ms_since(t0), error=type(exc).__name__)
            return op
        op["ms"] = _ms_since(t0)
        answer = {"rules": digest(rules)}
        for name, zero, rec, dec in got:
            answer[f"zero:{name}"] = digest(zero)
            answer[f"record:{name}"] = digest(rec)
            answer[f"decode:{name}"] = digest(dec)
        op["answer"] = answer
        return op

    @staticmethod
    def targets(worker_module) -> list:
        return [
            (qarith, "cf_expand", "qarith.cf_expand", None, None),
            (walk, "cf_expand", "qarith.cf_expand", None, None),
            (automata, "build_zero_dfa", "automata.build", None, None),
            (automata, "build_record_dfa", "automata.build", None, None),
            (numeration, "encode", "numeration.encode", None, None),
            (numeration, "decode", "numeration.decode", None, None),
            (automata, "run", "automata.run", None, None),
            (worker_module, "rules_value", "walk.rules_warm", None, None),
        ]

    def layers(self, s: dict) -> dict:
        def mean(name, scale):
            return s[name]["total_ns"] / s[name]["count"] / scale

        return {
            "walk.rules_warm_ns_per_index": mean("walk.rules_warm", 1),
            "numeration.encode_us_per_int": mean("numeration.encode", 1e3),
            "numeration.decode_us_per_int": mean("numeration.decode", 1e3),
            "automata.build_ms": s["automata.build"]["total_ns"] / 1e6,
            "automata.run_us_per_word": mean("automata.run", 1e3),
        }


# --- deep: single huge indices ---------------------------------------------------


def bucket_of(n: int) -> str:
    """Magnitude bucket of an index (by its bit length)."""
    bits = n.bit_length()
    if bits < 400:
        return "e12"
    if bits < 2000:
        return "e300"
    if bits < 8000:
        return "e1000"
    return "e5000"


class Deep:
    """Cold single-index queries: a fresh RuleEngine's value(n), then
    encode/decode of the same n, at magnitudes 1e12 .. 1e5000."""

    def __init__(self, inp: dict):
        self.specs = {f: walk.walk_spec(qarith.parse_surd(f) * 2) for f in inp["fixtures"]}
        self.queries = [(q["fixture"], q["bucket"], int(q["n"], 16)) for q in inp["queries"]]
        self.round_len = inp["round_len"]
        self.next = 0

    def round(self, traced: bool) -> list[dict]:
        ops = []
        for _ in range(self.round_len):
            i = self.next % len(self.queries)
            self.next += 1
            fixture, bucket, n = self.queries[i]
            spec = self.specs[fixture]
            error = None
            t0 = perf_counter_ns()
            try:
                value = rules_cold(spec, n)
            except Exception as exc:  # recorded per bucket; encode/decode still run
                error = type(exc).__name__
            try:
                decoded = numeration.decode(numeration.encode(n, spec.cf))
            except Exception as exc:
                error = error or type(exc).__name__
            op = {"key": str(i), "ms": _ms_since(t0), "items": 1, "tag": bucket}
            if error:
                op["error"] = error
            else:
                op["answer"] = {"value": value, "decoded": int_digest(decoded)}
            ops.append(op)
        if traced:  # a fresh CF per fixture, so the denominators are computed cold
            for spec in self.specs.values():
                cold_denominators(qarith.cf_expand(spec.rotation), 10**1000)
        return ops

    @staticmethod
    def targets(worker_module) -> list:
        return [
            (walk, "cf_expand", "qarith.cf_expand", None, None),
            (worker_module, "rules_cold", lambda _s, n: f"walk.rules_cold.{bucket_of(n)}", None, None),
            (numeration, "encode", lambda n, _cf: f"numeration.encode.{bucket_of(n)}", None, None),
            (worker_module, "cold_denominators", "qarith.denominators_up_to.e1000", None, None),
        ]

    def layers(self, s: dict) -> dict:
        out = {}
        for b in ("e12", "e300", "e1000", "e5000"):
            out[f"walk.rules_cold_us.{b}"] = s[f"walk.rules_cold.{b}"]["median_ns"] / 1e3
        for b in ("e1000", "e5000"):  # a share, so it does not grow with the rounds run
            span = s[f"walk.rules_cold.{b}"]
            out[f"walk.rules_failed.{b}"] = span["failed"] / span["count"]
        out["numeration.encode_us.e1000"] = s["numeration.encode.e1000"]["median_ns"] / 1e3
        out["qarith.denominators_us.e1000"] = s["qarith.denominators_up_to.e1000"]["median_ns"] / 1e3
        return out


# --- cli: a scripted session ------------------------------------------------------


def _points(_m, points=100, *_a, **_k):
    return points if isinstance(points, int) else len(points)


def _length(_sub, _seed="a", length=0, *_a, **_k):
    return length


class Cli:
    """A session of sequential walklab commands. Untraced, each command is
    its own interpreter; traced, walklab.cli.main runs in this process."""

    def __init__(self, inp: dict):
        self.commands = inp["commands"]
        self.lines = 0

    def round(self, traced: bool, in_process: bool = False) -> list[dict]:
        ops = []
        for c in self.commands:
            t0 = perf_counter_ns()
            if in_process:
                code, out = self._main(c["argv"])
            else:
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_LAUNCHER, *c["argv"]],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    check=False,
                )
                code, out = proc.returncode, proc.stdout
            ms = _ms_since(t0)
            if traced:
                self.lines += out.count(b"\n")
            ops.append({
                "key": c["key"],
                "ms": ms,
                "items": 1,
                "answer": {"exit": code, "stdout": stdout_digest(out, c["mask_times"])},
            })
        return ops

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, bytes]:
        from walklab import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue().encode()

    @staticmethod
    def targets(worker_module) -> list:
        from walklab import cli, substitution, verify

        out = [(cli, "main", "cli.main", None, None)]
        for fn in ("walk_spec", "brute_walk", "records", "zeros", "ab_sequences", "ab_terms",
                   "discrepancy", "encode", "decode", "cf_expand"):
            layer = getattr(cli, fn).__module__.rsplit(".", 1)[-1]
            work = _n_arg if fn in ("brute_walk", "records", "zeros", "ab_sequences") else None
            out.append((cli, fn, f"{layer}.{fn}", work, None))
        for fn in ("build_zero_dfa", "build_record_dfa", "to_dot"):
            out.append((automata, fn, f"automata.{fn}", None, None))
        out.append((verify, "run_suite", "verify.run_suite", None, None))
        for suite in verify.SUITES.values():
            for i in range(len(suite)):
                out.append((suite, i, "verify.check", None,
                            lambda r: f"verify.check_ms.{r.name}"))
        for fn in ("walk_spec", "brute_walk", "records", "zeros", "ab_sequences",
                   "discrepancy", "lemma_checks", "encode", "decode", "cf_expand"):
            layer = getattr(verify, fn).__module__.rsplit(".", 1)[-1]
            out.append((verify, fn, f"{layer}.{fn}", None, None))
        out += [
            (walk, "brute_walk", "walk.brute_walk", _n_arg, None),
            (walk, "ab_sequences", "walk.ab_sequences", _n_arg, None),
            (walk, "cf_expand", "qarith.cf_expand", None, None),
            (substitution, "fixed_point", "substitution.fixed_point", _length, None),
            (substitution, "return_map_empirical", "substitution.return_map", _points, None),
        ]
        return out

    def layers(self, s: dict) -> dict:
        out = {
            "substitution.return_map_ms_per_sample":
                s["substitution.return_map"]["total_ns"] / 1e6 / s["substitution.return_map"]["work"],
            "substitution.fixed_point_ns_per_letter":
                s["substitution.fixed_point"]["total_ns"] / s["substitution.fixed_point"]["work"],
            "cli.format_write_ns_per_line": s["cli.main"]["self_ns"] / self.lines,
        }
        for name in sorted(s):
            if name.startswith("verify.check_ms."):
                out[name] = s[name]["median_ns"] / 1e6
        bare = _median_wall([sys.executable, "-c", "pass"])
        imported = _median_wall([sys.executable, "-c", "import walklab"])
        out["cli.interp_start_s"] = bare
        out["cli.import_s"] = imported - bare
        return out


def _median_wall(argv: list[str], reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


WORKLOADS = {"sweep": Sweep, "classify": Classify, "deep": Deep, "cli": Cli}


# --- modes -----------------------------------------------------------------------


def _tag(ops: list[dict], workload: str) -> list[dict]:
    for op in ops:
        op["workload"] = workload
    return ops


def host_probe() -> float:
    """ms for a fixed pure-Python loop: how fast the host runs right now.

    Shared hosts drift by tens of percent over minutes; the probe lets a
    comparison tell such drift from a change in walklab.
    """
    t0 = perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i
    return _ms_since(t0)


def run_loop(workload: str, inp: dict, seconds: float) -> dict:
    body = WORKLOADS[workload](inp)
    ops, probes = [], []
    t_end = time.perf_counter() + seconds
    next_probe = 0.0
    while True:
        if time.perf_counter() >= next_probe:  # about once a second, between rounds
            probes.append(host_probe())
            next_probe = time.perf_counter() + 1.0
        ops += body.round(traced=False)
        if time.perf_counter() >= t_end:
            break
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "ops": _tag(ops, workload),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "host_probe_ms": statistics.median(probes),
    }


def trace_loop(primary: str, inputs: dict, seconds: float) -> dict:
    me = sys.modules[__name__]
    ops, layers = [], {}
    overhead = None
    for workload in [primary] + [w for w in inputs if w != primary]:
        cls = WORKLOADS[workload]
        tracer = Tracer()
        targets = cls.targets(me)
        with patched(tracer, targets):
            body = cls(inputs[workload])
        kwargs = {"in_process": True} if workload == "cli" else {}
        if workload == primary:
            # a warm-up round, then untraced and traced rounds in turn; the
            # op times of the two kinds give the tracing overhead
            ops += _tag(body.round(traced=False, **kwargs), workload)
            plain = traced = 0.0
            t_end = time.perf_counter() + seconds
            while True:
                got = body.round(traced=False, **kwargs)
                plain += sum(op["ms"] for op in got)
                ops += _tag(got, workload)
                with patched(tracer, targets):
                    got = body.round(traced=True, **kwargs)
                traced += sum(op["ms"] for op in got)
                ops += _tag(got, workload)
                if time.perf_counter() >= t_end:
                    break
            overhead = 100.0 * (traced / plain - 1.0)
        else:
            with patched(tracer, targets):
                ops += _tag(body.round(traced=True, **kwargs), workload)
        summary = tracer.summary()
        layers.update(body.layers(summary))
        if workload == primary:
            cf = summary["qarith.cf_expand"]
            layers["qarith.cf_expand_us"] = cf["total_ns"] / cf["count"] / 1e3
        del body, tracer
    layers["trace.overhead_pct"] = overhead
    return {"ops": ops, "layers": layers}


def main() -> int:
    req = json.load(sys.stdin)
    mode, workload = req["mode"], req["workload"]
    if mode == "setup":
        if workload == "cli":
            import walklab.cli  # noqa: F401
        else:
            WORKLOADS[workload](req["inputs"][workload])
        return 0
    if mode == "run":
        report = run_loop(workload, req["inputs"][workload], req["seconds"])
    else:
        report = trace_loop(workload, req["inputs"], req["seconds"])
    report["numpy"] = np.__version__
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
