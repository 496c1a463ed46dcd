"""Deterministic random walks of quadratic irrationals, exactly.

The pieces: exact surd arithmetic and continued fractions (`qarith`),
Ostrowski digit expansions (`numeration`), the walk engines and their
derived sequences (`walk`), record recurrences (`recurrences`), digit
automata for zero and record sets (`automata`), and the substitution
self-similarity of noble-mean rotations (`substitution`). The `verify`
module re-checks every claimed identity against the brute-force walk.
"""

from .qarith import (
    CheckFailed,
    ContinuedFraction,
    MixedRadicand,
    NotBrNumber,
    NotIrrational,
    QuadraticSurd,
    cf_expand,
    floor_scaled,
    is_br,
    noble_mean_adjusted,
    parse_surd,
)
from .numeration import InvalidDigits, OstrowskiWord, decode, encode, pell_number, validate
from .recurrences import half_pell, kotesovec, lune_records, sqrt3_records
from .automata import (
    AlphabetMismatch,
    DigitDfa,
    UnknownFixture,
    build_record_dfa,
    build_zero_dfa,
    equiv_oracle,
    hardcoded_fixture,
    run,
    to_dot,
)
from .substitution import (
    NoReturn,
    NotProlongable,
    OddM,
    ReturnMapReport,
    Substitution,
    fixed_point,
    golden_substitution,
    noble_substitution,
    return_map_empirical,
    running_sum_extrema,
)

__version__ = "0.1.0"

# the walk engine imports numpy, so its names load on first access (PEP 562):
# `import walklab` and the digit-level commands stay free of numpy
_WALK_NAMES = (
    "AbSequences",
    "RuleEngine",
    "WalkSpec",
    "WalkTrace",
    "ab_sequences",
    "ab_terms",
    "brute_walk",
    "diff_hits",
    "discrepancy",
    "lemma_checks",
    "records",
    "walk_spec",
    "zeros",
)


def __getattr__(name: str):
    if name in _WALK_NAMES:
        from . import walk

        return getattr(walk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_WALK_NAMES])
