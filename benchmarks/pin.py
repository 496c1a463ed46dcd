"""Pin the reference data that the oracle cannot afford to recompute per run.

    PYTHONPATH=src python3 benchmarks/pin.py

Writes benchmarks/reference.json: digests of the full sweep outputs at
n = 1e7, and the exit code and stdout digest of each fixed command of the
CLI session. The sweep digests and the sequence outputs come from the exact
scalar paths (one exact floor per step), the record recurrence and formatting
written here; only the automaton drawing and the verify reports are taken
from the CLI as it stands. Every pinned value is also checked against what
the library and the CLI produce now, so pinning fails loudly on a
disagreement. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np

from common import CLI_LAUNCHER, CLI_SESSION, REFERENCE_PATH, digest, stdout_digest
from oracle import exact_discrepancy, record_flags
from walklab import (
    ab_sequences,
    brute_walk,
    discrepancy,
    floor_scaled,
    lune_records,
    noble_mean_adjusted,
    parse_surd,
    records,
    walk_spec,
    zeros,
)

N = 10**7
ANGLES = ("2sqrt2", "sqrt3")
XI = "sqrt2m1"
ENDPOINTS = ("1/2", "1/3")


def bfile(values) -> str:
    return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))


def half_even_pell(count: int) -> list[int]:
    """q/2 for the first `count` even convergent denominators of sqrt(2)-1."""
    dens, out = [1, 2], []
    while len(out) < count:
        if dens[-1] % 2 == 0:
            out.append(dens[-1] // 2)
        dens.append(2 * dens[-1] + dens[-2])
    return out


def half_indicator(xi, j: int) -> int:
    """1 if {j xi} < 1/2, from two exact floors."""
    return int(floor_scaled(2 * j, xi) == 2 * floor_scaled(j, xi)) if j else 1


def main() -> int:
    walks, exact = {}, {}
    for name in ANGLES:
        spec = walk_spec(parse_surd(name))
        trace = brute_walk(spec, N, exact=True)
        sums, signs = trace.sums, trace.signs
        exact[name] = (sums, signs)
        rec = np.flatnonzero(record_flags(sums)).tolist()
        zero = [0] + (np.flatnonzero(sums == 0) + 1).tolist()
        a, b = np.flatnonzero(signs > 0) + 1, np.flatnonzero(signs < 0) + 1
        fast = brute_walk(spec, N)
        seqs = ab_sequences(fast, N)
        if not (
            np.array_equal(fast.sums, sums)
            and records(fast, N) == rec
            and zeros(fast, N) == zero
            and np.array_equal(seqs.a, a)
            and np.array_equal(seqs.b, b)
        ):
            raise SystemExit(f"pin: library disagrees with the exact walk on {name}")
        walks[name] = {
            "sums": digest(sums),
            "records": rec,
            "zeros_count": len(zero),
            "zeros": digest(zero),
            "a": digest(a),
            "b": digest(b),
        }
        print(f"pinned walk {name}", file=sys.stderr)
    xi = parse_surd(XI)
    disc, exact_disc = {}, {}
    for text in ENDPOINTS:
        h, k = (int(x) for x in text.split("/"))
        values = exact_discrepancy(xi, h, k, N)
        if not np.array_equal(discrepancy(xi, Fraction(h, k), N), values):
            raise SystemExit(f"pin: library discrepancy disagrees with the exact one at {text}")
        disc[text] = digest(values)
        exact_disc[text] = values
        print(f"pinned discrepancy {text}", file=sys.stderr)
    # S_n = 2 D_n over [0, 1/2) for the rotation {theta/2}: the twins must agree
    if disc["1/2"] != walks["2sqrt2"]["sums"]:
        raise SystemExit("pin: the walk and its discrepancy twin disagree")

    sums, signs = exact["2sqrt2"]
    a_all = np.flatnonzero(signs > 0) + 1
    m = 200_000
    a_m, b_m = np.flatnonzero(signs[:m] > 0) + 1, np.flatnonzero(signs[:m] < 0) + 1
    texts = {
        "walk_sums": bfile(sums[:1_000_000].tolist()),
        "seq_a": bfile(a_all[:1_000_000].tolist()),
        "walk_ab_json": json.dumps({"name": "ab", "a": a_m.tolist(), "b": b_m.tolist()}) + "\n",
        "discrepancy_csv": "n,value\n" + "".join(
            f"{i},{v}\n" for i, v in enumerate(exact_disc["1/2"][:1_000_000].tolist(), start=1)
        ),
        "records": bfile([r for r in lune_records(40) if r <= N]),
        "recur_halfpell": bfile(half_even_pell(30)),
        "subst_coded": "".join(str(half_indicator(noble_mean_adjusted(2), j)) for j in range(2000)) + "\n",
    }
    cli = {}
    for key, argv, mask in CLI_SESSION:
        if argv is None:
            continue  # drawn from the seed by the oracle
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER, *argv], stdout=subprocess.PIPE, check=False
        )
        got = stdout_digest(proc.stdout, mask)
        if key in texts and (proc.returncode != 0 or got != stdout_digest(texts[key].encode(), mask)):
            raise SystemExit(f"pin: `walklab {' '.join(argv)}` disagrees with the exact output")
        if proc.returncode != 0:
            raise SystemExit(f"pin: `walklab {' '.join(argv)}` exited with {proc.returncode}")
        cli[key] = {"exit": 0, "stdout": got}
        print(f"pinned cli {key}", file=sys.stderr)

    reference = {
        "sweep": {"n": N, "xi": XI, "walks": walks, "discrepancy": disc},
        "cli": cli,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
