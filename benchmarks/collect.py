"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/collect.py --out runs.json --seeds 1-10

Run it from the root of a walklab checkout. It calls run.py for every
workload in BENCHMARK.json, once per seed (seeds outermost, so slow drift
spreads over every workload) with BENCHMARK.json's run_seconds, then once
traced per workload with the first seed, and writes every result with a
summary: per workload and end-to-end metric, the median, the quartiles from
statistics.quantiles(n=4) and their distance as a share of the median. The
output is what compare.py reads, and what a trajectory point records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"collect: run.py failed for {workload} seed {seed} trace {trace}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"],
            "seed": seed, "trace": trace}


def summarise(runs: list[dict], workloads: list[str], metrics: list[str]) -> dict:
    out = {}
    for w in workloads:
        mine = [r for r in runs if r["detail"]["workload"] == w and not r["trace"]]
        out[w] = {}
        for m in metrics:
            values = [r["result"]["metrics"][m]["value"] for r in mine]
            if not values:
                continue
            med = statistics.median(values)
            row = {"median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            out[w][m] = row
    return out


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, e.g. 1-10")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        for w in workloads:
            runs.append(one_run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()),
                file=sys.stderr)
    for w in workloads:
        runs.append(one_run(w, seeds(args.seeds)[0], seconds, 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = summarise(runs, workloads, list(bounds))
    for w, rows in summary.items():
        for m, row in rows.items():
            spread = row.get("spread")
            flag = "" if spread is None or spread < bounds[m] / 3 else "  <-- above bound/3"
            print(f"{w:9s} {m:12s} median {row['median']:12.5g}  spread "
                  f"{'-' if spread is None else f'{spread:.3f}'} (bound {bounds[m]}){flag}")
    notes = {w["name"]: w["why"] for w in bench["workloads"]}
    with open(args.out, "w") as fh:
        json.dump({"benchmark": bench, "notes": notes, "summary": summary, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
