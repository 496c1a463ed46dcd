"""Helpers shared by the harness, the oracle and the worker.

Nothing here imports walklab, so the harness can load it from a directory
that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the walklab console script, for a checkout where the package is not installed
CLI_LAUNCHER = "import sys; from walklab.cli import main; sys.exit(main(sys.argv[1:]))"

# verify prints a few wall-clock timings (e.g. "1e12 query 93 us"); they are
# masked before hashing so that the digest pins the checks, not the clock
_TIMING = re.compile(rb"\b\d+(?:\.\d+)? ?(?:ns|us|ms|s)\b")


def digest(values) -> str:
    """SHA-256 of the values as little-endian int64.

    Hashing a canonical dtype keeps a digest valid when a layer changes the
    integer width it returns.
    """
    arr = np.ascontiguousarray(values, dtype="<i8")
    return hashlib.sha256(arr.data).hexdigest()


def int_digest(value: int) -> str:
    """SHA-256 of a (possibly huge) integer's hex form."""
    return hashlib.sha256(hex(value).encode()).hexdigest()


def stdout_digest(data: bytes, mask_times: bool) -> str:
    if mask_times:
        data = _TIMING.sub(b"<time>", data)
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# The scripted CLI session: (key, argv, mask_times). argv None marks a
# command whose argument the oracle draws from the seed. Six commands take
# well under walk_ab_json's time and six well over it, so the median op is
# walk_ab_json's latency, not whichever command sits at a cluster edge.
CLI_SESSION = (
    ("walk_sums", ["walk", "--theta", "2sqrt2", "--emit", "sums", "--n", "1000000"], False),
    ("seq_a", ["seq", "--theta", "2sqrt2", "--which", "a", "--n", "1000000"], False),
    ("walk_ab_json", ["walk", "--theta", "2sqrt2", "--emit", "ab", "--format", "json", "--n", "200000"], False),
    ("discrepancy_csv", ["discrepancy", "--xi", "sqrt2m1", "--n", "1000000", "--format", "csv"], False),
    ("records", ["records", "--theta", "sqrt2", "--n", "10000000"], False),
    ("encode", None, False),
    ("decode", None, False),
    ("dfa_records", ["dfa", "build", "--kind", "records", "--base", "sqrt2m1"], False),
    ("recur_halfpell", ["recur", "--name", "halfpell", "--n", "30"], False),
    ("subst_coded", ["subst", "--m", "2", "--emit", "coded", "--len", "2000"], False),
    ("verify_walk", ["verify", "--suite", "walk", "--scale", "quick"], True),
    ("verify_substitution", ["verify", "--suite", "substitution", "--scale", "quick"], True),
    ("verify_recurrences", ["verify", "--suite", "recurrences", "--scale", "quick"], True),
)
