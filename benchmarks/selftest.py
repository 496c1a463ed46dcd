"""Self-test of the benchmark's checker: no vacuous pass.

    python3 benchmarks/selftest.py      (from the root of a walklab checkout)

For each workload it runs the oracle and one short round of the worker,
checks that every answer passes, then corrupts one answer and expects the
checker to count exactly one more failed op, in `failed` and in ok_frac, and
to report the run as incorrect. Takes about half a minute.
"""

from __future__ import annotations

import copy
import os
import sys

import run


def corrupt(answer: dict) -> dict:
    """The same answer with its first field (by name) changed."""
    bad = dict(answer)
    field = sorted(bad)[0]
    value = bad[field]
    if isinstance(value, bool) or not isinstance(value, (int, str, list)):
        raise TypeError(f"cannot corrupt field {field!r} of type {type(value).__name__}")
    if isinstance(value, int):
        bad[field] = value + 1
    elif isinstance(value, str):
        bad[field] = ("0" if value[:1] != "0" else "1") + value[1:]
    else:
        bad[field] = [value[0] + 1] + value[1:]
    return bad


def main() -> int:
    root = os.getcwd()
    env = run.child_env(root)
    bench = run.load_benchmark(root)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        prepared = run.call_json("oracle.py", {"workloads": [workload], "seed": 0}, env, 120)
        inputs = {workload: prepared[workload]["inputs"]}
        expected = {workload: prepared[workload]["expected"]}
        request = {"mode": "run", "workload": workload, "inputs": inputs, "seconds": 0.1}
        report = run.call_json("worker.py", request, env, 120)
        clean, _ = run.evaluate(bench, workload, False, copy.deepcopy(report), expected, [1.0])
        target = next((op for op in report["ops"] if "answer" in op), None)
        if not clean["correct"] or target is None:
            problems.append(f"{workload}: the clean run is not correct")
            continue
        target["answer"] = corrupt(target["answer"])
        bad, _ = run.evaluate(bench, workload, False, report, expected, [1.0])
        n = bad["attempted"]
        want_ok = (n - clean["failed"] - 1) / n
        if bad["correct"] or bad["failed"] != clean["failed"] + 1:
            problems.append(f"{workload}: the corrupted answer was not counted")
        elif abs(bad["metrics"]["ok_frac"]["value"] - want_ok) > 1e-12:
            problems.append(f"{workload}: ok_frac does not count the corrupted answer")
        print(f"{workload}: {n} ops, {clean['failed']} failed clean, "
              f"{bad['failed']} with one corrupted answer")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
