"""Reference side of the benchmark: the seeded inputs and the answers they must give.

Runs in its own process, so its time and memory stay out of every metric.
Answers come from the scalar exact paths (`brute_walk(exact=True)`,
`floor_scaled`), the record recurrences, an iterative form of the walk's
denominator rules checked here against the exact walk, and digests pinned
in reference.json by pin.py from the exact paths.

    echo '{"workloads": ["sweep"], "seed": 1}' | PYTHONPATH=src python3 benchmarks/oracle.py

prints {"sweep": {"inputs": {...}, "expected": {key: {field: value}}}}.
"""

from __future__ import annotations

import json
import random
import sys
from bisect import bisect_right

import numpy as np

from common import CLI_SESSION, digest, int_digest, load_reference, stdout_digest
from walklab import (
    brute_walk,
    floor_scaled,
    half_pell,
    parse_surd,
    walk_spec,
)


# --- sweep -------------------------------------------------------------------


def exact_discrepancy(xi, h: int, k: int, n: int) -> np.ndarray:
    """k*D_m for m = 1..n from exact floors: {j xi} < h/k."""
    ind = np.fromiter(
        (floor_scaled(k * j, xi) - k * floor_scaled(j, xi) < h for j in range(1, n + 1)),
        dtype=np.int64,
        count=n,
    )
    return k * np.cumsum(ind) - h * np.arange(1, n + 1, dtype=np.int64)


def sweep(rng: random.Random, ref: dict) -> tuple[dict, dict]:
    n = ref["n"]
    angles = sorted(ref["walks"])
    endpoints = sorted(ref["discrepancy"])
    rng.shuffle(angles)
    rng.shuffle(endpoints)
    prefix = 1 << 15
    sample = sorted(rng.sample(range(1, n + 1), 256))
    inputs = {
        "n": n,
        "angles": angles,
        "xi": ref["xi"],
        "endpoints": endpoints,
        "prefix": prefix,
        "sample": sample,
    }
    expected = {}
    for name in angles:
        pinned = ref["walks"][name]
        theta = parse_surd(name)
        exact = brute_walk(walk_spec(theta), prefix, exact=True)
        expected[f"brute:{name}"] = {
            "sums": pinned["sums"],
            "prefix": digest(exact.sums),
            "signs_at": [1 - 2 * (floor_scaled(j, theta) & 1) for j in sample],
        }
        records = pinned["records"]
        if name == "2sqrt2":
            # records of the 2*sqrt(2) walk are 0 and the half-Pell numbers
            records = [0] + [h for h in half_pell(40) if h <= n]
        expected[f"records:{name}"] = {"records": records}
        expected[f"zeros:{name}"] = {"count": pinned["zeros_count"], "zeros": pinned["zeros"]}
        expected[f"ab:{name}"] = {"a": pinned["a"], "b": pinned["b"]}
    xi = parse_surd(ref["xi"])
    for text in endpoints:
        h, k = (int(x) for x in text.split("/"))
        expected[f"disc:{text}"] = {
            "values": ref["discrepancy"][text],
            "prefix": digest(exact_discrepancy(xi, h, k, prefix)),
        }
    return inputs, expected


# --- classify ------------------------------------------------------------------


def record_flags(sums: np.ndarray) -> np.ndarray:
    """1 where S_m is a new maximum or minimum of S_0..S_m (S_0 = 0 counts)."""
    flags = [1] + [0] * len(sums)
    hi = lo = 0
    for m, v in enumerate(sums.tolist(), start=1):
        if v > hi:
            hi = v
            flags[m] = 1
        elif v < lo:
            lo = v
            flags[m] = 1
    return np.array(flags, dtype=np.int64)


def classify(rng: random.Random, ref: dict) -> tuple[dict, dict]:
    # a block of 2048 integers takes about 0.1 s, long enough to average over
    # a shared host's switches between a fast and a slow state; a round is
    # the whole range 0..65535, so every round does the same work
    block, blocks, per_int = 2048, 32, 4
    bases = [("sqrt2m1", "2sqrt2"), ("sqrt2m1over2", "sqrt2m1")]
    rng.shuffle(bases)
    rules_theta = "2sqrt2"
    # rules indices 4n+1..4n+4 go with integer n: the memo's size depends on
    # where the range starts, so the start is fixed
    r0 = 1
    inputs = {
        "bases": [b for b, _ in bases],
        "rules_theta": rules_theta,
        "block": block,
        "blocks": blocks,
        "rules_per_int": per_int,
        "rules_start": r0,
    }
    top = block * blocks
    flags = {}
    exact_rules = None
    for base, theta in bases:
        sums = brute_walk(walk_spec(parse_surd(theta)), top, exact=True).sums
        zero = np.concatenate([[1], (sums == 0).astype(np.int64)])
        flags[base] = (zero, record_flags(sums))
        if theta == rules_theta:
            exact_rules = sums
    # the rules range runs past the exact prefix: take the certified brute
    # walk there, after checking it against the exact one on the overlap
    rules_sums = brute_walk(walk_spec(parse_surd(rules_theta)), r0 + per_int * top).sums
    if not np.array_equal(rules_sums[:top], exact_rules):
        raise SystemExit("oracle: certified brute walk disagrees with the exact walk")
    expected = {}
    for b in range(blocks):
        start, stop = b * block, (b + 1) * block
        want = {}
        for base, _ in bases:
            zero, rec = flags[base]
            want[f"zero:{base}"] = digest(zero[start:stop])
            want[f"record:{base}"] = digest(rec[start:stop])
            want[f"decode:{base}"] = digest(np.arange(start, stop))
        lo = r0 + per_int * start
        want["rules"] = digest(rules_sums[lo - 1 : lo - 1 + per_int * block])
        expected[f"block:{b}"] = want
    return inputs, expected


# --- deep ---------------------------------------------------------------------

DEEP_FIXTURES = ("sqrt2m1", "sqrt2m1over2", "xi4")  # BR rotations; the angle is twice each
DEEP_BUCKETS = {"e12": 12, "e300": 300, "e1000": 1000, "e5000": 5000}
DEEP_MIX = ("e12", "e12", "e300", "e300", "e1000", "e5000")
# few distinct rounds, so that each query repeats about a dozen times in a run
DEEP_ROUNDS = 4
DEEP_K = 1 << 16


def rules_value(dens: list[int], n: int) -> int:
    """S_n by the denominator rules, as a loop (Rule A ends it, B and C fold)."""
    acc = 0
    while n:
        i = bisect_right(dens, n) - 1
        if dens[i] == n:
            return acc + (n & 1)
        q, qp = dens[i + 1], dens[i]
        acc += qp & 1
        n = n - qp if 2 * n < q else q - n - 1
    return acc


def deep(rng: random.Random, ref: dict) -> tuple[dict, dict]:
    queries, expected = [], {}
    plan = []
    for name in DEEP_FIXTURES:
        spec = walk_spec(parse_surd(name) * 2)
        dens = spec.cf.denominators_up_to(10 ** (max(DEEP_BUCKETS.values()) + 10))
        sums = brute_walk(spec, DEEP_K, exact=True).sums
        s = np.concatenate([[0], sums]).tolist()
        # the loop form must agree with the exact walk where both reach
        for m in range(1, 1 << 12):
            if rules_value(dens, m) != s[m]:
                raise SystemExit(f"oracle: rules loop disagrees with the walk at {name} n={m}")
        evens = [q for q in dens if q % 2 == 0]
        for q in evens:
            half = q // 2
            if q > DEEP_K:
                break
            for k in range(0, min(half, DEEP_K - half) + 1):
                if s[half + k] != s[half] - s[k]:
                    raise SystemExit(f"oracle: reflection fails at {name} q={q} k={k}")
        choices = {
            b: [q for q in evens if q // 2 >= 10**e][:3] for b, e in DEEP_BUCKETS.items()
        }
        halves = {q: rules_value(dens, q // 2) for qs in choices.values() for q in qs}
        plan.append((name, choices, halves, s))
    for _ in range(DEEP_ROUNDS):
        for name, choices, halves, s in plan:
            for bucket in DEEP_MIX:
                q = rng.choice(choices[bucket])
                k = rng.randint(1, DEEP_K)
                n = q // 2 + k
                # reflection around the even denominator q: S_{q/2+k} = S_{q/2} - S_k
                expected[str(len(queries))] = {"value": halves[q] - s[k], "decoded": int_digest(n)}
                queries.append({"fixture": name, "bucket": bucket, "n": hex(n)})
    inputs = {
        "fixtures": list(DEEP_FIXTURES),
        "round_len": len(DEEP_FIXTURES) * len(DEEP_MIX),
        "queries": queries,
    }
    return inputs, expected


# --- cli ------------------------------------------------------------------------


def pell_word(n: int) -> str:
    """Greedy Ostrowski digits of n over the Pell base sqrt(2)-1, msd first."""
    dens = [1, 2]
    while dens[-1] <= n:
        dens.append(2 * dens[-1] + dens[-2])
    digits = []
    for q in reversed(dens[:-1]):
        b, n = divmod(n, q)
        digits.append(str(b))
    return "".join(digits).lstrip("0")


def cli(rng: random.Random, ref: dict) -> tuple[dict, dict]:
    seeded = {}
    n = rng.randrange(10**11, 10**12)
    seeded["encode"] = (["encode", "--base", "sqrt2m1", str(n)], pell_word(n) + "\n")
    n = rng.randrange(10**11, 10**12)
    seeded["decode"] = (["decode", "--base", "sqrt2m1", pell_word(n)], f"{n}\n")
    commands, expected = [], {}
    for key, argv, mask in CLI_SESSION:
        if key in seeded:
            argv, text = seeded[key]
            expected[key] = {"exit": 0, "stdout": stdout_digest(text.encode(), mask)}
        else:
            expected[key] = ref[key]
        commands.append({"key": key, "argv": argv, "mask_times": mask})
    return {"commands": commands}, expected


BUILDERS = {"sweep": sweep, "classify": classify, "deep": deep, "cli": cli}


def build(workload: str, seed: int, ref: dict) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    inputs, expected = BUILDERS[workload](rng, ref.get(workload, {}))
    return {"inputs": inputs, "expected": expected}


def main() -> int:
    req = json.load(sys.stdin)
    ref = load_reference()
    out = {w: build(w, req["seed"], ref) for w in req["workloads"]}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
