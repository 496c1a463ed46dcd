"""walklab benchmark: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 16 --trace 0

Run it from the root of a walklab checkout (the directory holding
src/walklab); nothing needs installing or building. Four processes take part,
one after another: the oracle (oracle.py) draws the inputs from the seed and
computes the answers they must give; with --trace 0 the harness then times a
few fresh interpreters that only set the workload up (setup_s), before and
after the worker; the worker (worker.py) runs the timed closed loop and
reports its answers; the harness checks every answer and prints the
metrics. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details: environment, percentiles, failures by kind, per-kind latencies.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. The
workload names and the metrics' names and units come from BENCHMARK.json at
the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
# set-ups timed per run, half before the worker and half after it: the host
# switches between a fast and a slow state within seconds, and set-ups taken
# back to back all land in one state
SETUP_REPS = 10
DEADLINE_S = 170

# The op count of a run that fits the fewest whole rounds at run_seconds =
# 16 on the 2-vCPU host this was written on (cli: 3 rounds of 13 commands;
# sweep: 7 rounds of 10 calls; deep: 50 rounds of 18 queries; classify: 4
# rounds of 32 blocks). op_tail_ms is the latency at the percentile that leaves ten of
# these ops beyond it. That percentile is the same in every run, however many
# rounds fit, so two runs measure the same rank in the same mix of ops.
TAIL_OPS = {"sweep": 70, "classify": 128, "deep": 900, "cli": 39}


def load_benchmark(root: str) -> dict:
    """BENCHMARK.json: the workloads, and the metrics with their units."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def call_json(script: str, request: dict, env: dict, timeout: float):
    """Run a benchmark script with a JSON request on stdin; parse its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script)],
        input=json.dumps(request).encode(),
        stdout=subprocess.PIPE,
        env=env,
        timeout=max(timeout, 1),
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def time_setup(workload: str, inputs: dict, env: dict, timeout: float) -> float:
    """Wall time of a fresh interpreter that imports walklab and builds the
    workload's one-time objects, then exits."""
    t0 = time.perf_counter()
    # stdout is a pipe so that the wait ends at the child's exit: with a
    # timeout and no pipe, subprocess polls in steps of up to 50 ms
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps({"mode": "setup", "workload": workload, "inputs": inputs}).encode(),
        stdout=subprocess.PIPE,
        env=env,
        timeout=max(timeout, 1),
        check=False,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"setup of {workload} exited with {proc.returncode}")
    return elapsed


# --- checking and metrics -----------------------------------------------------------


def check(ops: list[dict], expected: dict) -> None:
    """Mark each op ok, or failed; a failed op that returned an answer is wrong."""
    for op in ops:
        want = expected[op["workload"]].get(op["key"])
        if "error" in op:
            op["ok"], op["wrong"] = False, False
        elif want is None or any(op["answer"].get(f) != v for f, v in want.items()):
            op["ok"], op["wrong"] = False, True
        else:
            op["ok"], op["wrong"] = True, False


def ranked_latencies(ops: list[dict]) -> list[float]:
    """Latencies with every failed op ranked after every success."""
    return [op["ms"] for op in sorted(ops, key=lambda op: (not op["ok"], op["ms"]))]


def ranked_op_means(ops: list[dict]) -> list[float]:
    """Each distinct op's mean latency over its repeats in the run, ranked,
    with every op that failed in some repeat after every success.

    Every workload repeats a fixed list of ops round after round. The host
    switches between a fast and a slow state every second or so; one short
    op falls in one state, so the median of single latencies lands on the
    fast or the slow mode depending on the run. An op's mean over repeats
    spread through the run averages the two states instead.
    """
    runs: dict[str, list[dict]] = {}
    for op in ops:
        runs.setdefault(op["key"], []).append(op)
    ranked = sorted(
        (not all(op["ok"] for op in reps), statistics.fmean(op["ms"] for op in reps))
        for reps in runs.values()
    )
    return [ms for _failed, ms in ranked]


def median_rank(values: list[float]) -> float:
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def tail_rank(values: list[float], tail_ops: int) -> tuple[float, int]:
    """Nearest-rank latency at the percentile 100 * (tail_ops - 10) / tail_ops,
    and how many ops lie beyond it (ten when there are tail_ops ops)."""
    n = len(values)
    i = max(-(-(tail_ops - 10) * n // tail_ops) - 1, 0)  # exact ceiling, no float rounding
    return values[i], n - 1 - i


def end_to_end(ops: list[dict], peak_rss_mb: float, setup: list[float],
               tail_ops: int) -> tuple[dict, dict]:
    tail, beyond = tail_rank(ranked_latencies(ops), tail_ops)
    means = ranked_op_means(ops)
    wall_s = sum(op["ms"] for op in ops) / 1e3
    values = {
        "items_per_s": sum(op["items"] for op in ops if op["ok"]) / wall_s,
        "op_p50_ms": median_rank(means),
        "op_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
        "setup_s": statistics.median(setup),
    }
    extra = {
        "distinct_ops": len(means),
        "op_tail_percentile": 100.0 * (tail_ops - 10) / tail_ops,
        "ops_beyond_tail": beyond,
        "timed_wall_s": wall_s,
        "fail_frac": 1.0 - values["ok_frac"],
        "setup_samples_s": setup,
    }
    return values, extra


def kind(op: dict) -> str:
    return op.get("tag") or op["key"]


def describe(ops: list[dict]) -> dict:
    """Per-kind op counts, failures and median latency, for the detail line."""
    kinds: dict[str, list] = {}
    for op in ops:
        kinds.setdefault(f"{op['workload']}.{kind(op)}", []).append(op)
    failures = Counter(
        f"{op['workload']}.{kind(op)}:{op.get('error', 'WrongAnswer')}" for op in ops if not op["ok"]
    )
    return {
        "op_ms_median": {k: statistics.median(op["ms"] for op in v) for k, v in sorted(kinds.items())},
        "op_count": {k: len(v) for k, v in sorted(kinds.items())},
        "failures": dict(sorted(failures.items())),
    }


def evaluate(bench: dict, workload: str, trace: bool, report: dict, expected: dict,
             setup: list[float]) -> tuple[dict, dict]:
    """Check a worker report; return (final result, details)."""
    ops = report["ops"]
    if not ops:
        raise BenchError("the worker attempted no op")
    check(ops, expected)
    detail = describe(ops)
    if trace:
        values = report["layers"]
        listed = bench["per_layer"]
    else:
        values, extra = end_to_end(ops, report["peak_rss_mb"], setup, TAIL_OPS[workload])
        detail.update(extra, host_probe_ms=report["host_probe_ms"])
        listed = bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    final = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
    }
    return final, detail


# --- environment stamp ----------------------------------------------------------


def _git(root: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root: str, seed: int, trace: bool, numpy_version: str) -> dict:
    rev = dirty = None
    if _git(root, "rev-parse", "--show-toplevel") == os.path.realpath(root):
        rev = _git(root, "rev-parse", "HEAD")
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        ctype = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level and size:
            caches[f"L{level}{'' if ctype == 'Unified' else (ctype or '')[:1].lower()}"] = size
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "seed": seed,
        "mode": "traced" if trace else "untraced",
    }


# --- one run ----------------------------------------------------------------------


def measure(root: str, bench: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Oracle, set-up timing and worker for one run; returns (final, detail)."""
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env(root)
    names = [w["name"] for w in bench["workloads"]] if trace else [workload]
    prepared = call_json("oracle.py", {"workloads": names, "seed": seed}, env, timeout=90)
    inputs = {w: prepared[w]["inputs"] for w in names}
    expected = {w: prepared[w]["expected"] for w in names}
    reps = 0 if trace else SETUP_REPS // 2
    setup = [time_setup(workload, inputs, env, deadline - time.perf_counter()) for _ in range(reps)]
    request = {"mode": "trace" if trace else "run", "workload": workload, "inputs": inputs,
               "seconds": seconds}
    report = call_json("worker.py", request, env, deadline - time.perf_counter())
    setup += [time_setup(workload, inputs, env, deadline - time.perf_counter()) for _ in range(reps)]
    final, detail = evaluate(bench, workload, trace, report, expected, setup)
    if trace:
        detail["trace_overhead_pct"] = report["layers"]["trace.overhead_pct"]
    detail = {
        "workload": workload,
        "seconds": seconds,
        "env": environment(root, seed, trace, report["numpy"]),
        **detail,
    }
    return final, detail


def main(argv=None) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "walklab", "__init__.py")):
        print("run.py: no src/walklab here; run from the root of a walklab checkout", file=sys.stderr)
        return 2
    bench = load_benchmark(root)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        final, detail = measure(root, bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
