"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/compare.py parent.json change.json

Both files are collect.py outputs made with the same benchmark code; sets
with different run lengths are refused. For every workload and end-to-end
metric it prints each side's median and quartiles, the share of seed-matched
pairs the change wins (ties count for neither) and a verdict, using the
bound and direction each metric has in the parent's BENCHMARK.json:

  improved    the change wins at least 9/10 of at least 10 pairs, and the
              medians differ by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the bound (unless every change run beats every parent run)
  unresolved  a side's quartile distance is wider than the bound, unless
              every change run beats every parent run
  no worse    otherwise
  host drift  the metric is a time or a rate, and the two sides' host probes
              (a fixed pure-Python loop timed during every run) have medians
              further apart than the metric's bound: the host changed speed
              between the sets, so no verdict is given

It also prints each side's failed ops and host-probe median. The exit code
is 1 if some verdict is worse, else 2 if some verdict was refused for host
drift, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, bound: float, higher: bool) -> tuple[str, float | None]:
    """Compare {seed: value} maps for one metric; return (verdict, win share),
    the share being None when no seed ran on both sides."""
    def better(a, b):
        return a > b if higher else a < b

    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    win_frac = wins / len(seeds) if seeds else None
    p, c = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    all_better = all(better(x, y) for x in c for y in p)
    worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
    if len(seeds) >= 10 and win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", win_frac
    if all_better:
        return "no worse", win_frac
    if worse_by > bound:
        return "worse", win_frac
    if (p3 - p1) / pm > bound or (c3 - c1) / cm > bound:
        return "unresolved", win_frac
    return "no worse", win_frac


def timed(unit: str) -> bool:
    """Whether a metric of this unit moves with the host's speed."""
    return unit in ("s", "ms") or unit.endswith("/s")


def plain_runs(data: dict) -> list[dict]:
    return [r for r in data["runs"] if not r["trace"]]


def by_seed(data: dict, workload: str, metric: str) -> dict:
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in plain_runs(data)
        if r["detail"]["workload"] == workload
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    metrics = parent["benchmark"]["end_to_end"]
    workloads = [w["name"] for w in parent["benchmark"]["workloads"]]
    lengths = {r["detail"]["seconds"] for d in (parent, change) for r in d["runs"]}
    if len(lengths) != 1:
        print(f"compare: the runs have different lengths {sorted(lengths)}; no verdict", file=sys.stderr)
        return 2
    probe = {}
    for side, data in (("parent", parent), ("change", change)):
        plain = plain_runs(data)
        failed = sum(r["result"]["failed"] for r in plain)
        tried = sum(r["result"]["attempted"] for r in plain)
        probe[side] = statistics.median(r["detail"]["host_probe_ms"] for r in plain)
        print(f"{side}: {failed} of {tried} ops failed; host probe median {probe[side]:.3f} ms")
    drift = abs(probe["change"] - probe["parent"]) / probe["parent"]
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
    worse = refused = False
    for w in workloads:
        for m in metrics:
            p, c = by_seed(parent, w, m["name"]), by_seed(change, w, m["name"])
            if not p or not c:
                continue
            v, win = verdict(p, c, m["bound"], m["better"] == "higher")
            if timed(m["unit"]) and drift > m["bound"]:
                v = "host drift"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"{w:9s} {m['name']:12s} {pq[1]:12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f" {cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {'-' if win is None else f'{win:.2f}':>5s}  {v}")
            worse |= v == "worse"
            refused |= v == "host drift"
    if refused:
        print(f"The host probes differ by {drift:.1%}: rerun both sides, alternating, "
              "until they agree.")
    return 1 if worse else 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
