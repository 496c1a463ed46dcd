import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.qarith import (
    ContinuedFraction,
    MixedRadicand,
    NotIrrational,
    QuadraticSurd,
    cf_expand,
    floor_scaled,
    is_br,
    noble_mean_adjusted,
    parse_surd,
)

SQRT2 = parse_surd("sqrt2")
TWO_SQRT2 = parse_surd("2sqrt2")
SQRT2_M1 = parse_surd("sqrt2m1")

FIXTURES = [
    SQRT2,
    TWO_SQRT2,
    SQRT2_M1,
    parse_surd("sqrt2m1over2"),
    parse_surd("sqrt3over2"),
    parse_surd("golden"),
    noble_mean_adjusted(4),
    QuadraticSurd(7, -2, 3, 5),
]


# --- construction and normalization ---------------------------------------


def test_normalization_extracts_square_factors():
    assert QuadraticSurd(0, 1, 8, 1) == QuadraticSurd(0, 2, 2, 1)
    assert QuadraticSurd(0, 1, 12, 2) == QuadraticSurd(0, 1, 3, 1)


def test_common_factor_and_sign_normalization():
    assert QuadraticSurd(2, 2, 2, 2) == QuadraticSurd(1, 1, 2, 1)
    assert QuadraticSurd(-1, -1, 2, -1) == QuadraticSurd(1, 1, 2, 1)


def test_rationals_rejected():
    with pytest.raises(NotIrrational):
        QuadraticSurd(3, 0, 2, 1)
    with pytest.raises(NotIrrational):
        QuadraticSurd(0, 1, 4, 1)  # sqrt(4) = 2


def test_surd_times_itself_collapses():
    assert SQRT2 * SQRT2 == 2


def test_translation_and_halving():
    # 2*sqrt(2) - 2, halved, lands on sqrt(2) - 1
    assert (TWO_SQRT2 - 2) / 2 == SQRT2_M1
    assert QuadraticSurd(2, 2, 2, 2) == 1 + SQRT2


def test_division_and_inverse():
    x = QuadraticSurd(3, 1, 2, 4)
    assert x / x == 1
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicand):
        SQRT2 + parse_surd("sqrt3")


def test_rational_results_become_rationals():
    half = SQRT2 / (2 * SQRT2)
    assert isinstance(half, Fraction) and half == Fraction(1, 2)
    assert isinstance(SQRT2 * SQRT2, int)
    assert isinstance(SQRT2 / SQRT2, int)


def test_comparisons():
    assert SQRT2_M1 < Fraction(1, 2)
    assert SQRT2_M1 > Fraction(2, 5)
    assert 0 < SQRT2_M1 < 1
    assert QuadraticSurd(7, -2, 3, 5) > 0  # (7 - 2*sqrt(3))/5 ~ 0.707


# --- floors -----------------------------------------------------------------


def test_floor_scaled_small():
    assert floor_scaled(1, TWO_SQRT2) == 2


def test_floor_scaled_isqrt_oracle():
    # floor(2 * 2*sqrt(2)) = isqrt(32)
    assert math.isqrt(32) == 5
    assert floor_scaled(2, TWO_SQRT2) == 5


def test_floor_scaled_69_is_odd():
    # floor(69 * 2*sqrt(2)) = isqrt(69^2 * 8) = isqrt(38088)
    assert math.isqrt(38088) == 195
    assert floor_scaled(69, TWO_SQRT2) == 195
    assert floor_scaled(69, TWO_SQRT2) % 2 == 1


def test_floor_negative_b():
    assert QuadraticSurd(0, -1, 2, 1).floor() == -2
    assert QuadraticSurd(-1, 1, 2, 1).floor() == 0


def _floor_via_enclosure(j: int, xi: QuadraticSurd):
    """Certified 256-bit interval floor; None when the interval straddles
    an integer."""
    s = 1 << 256
    r = math.isqrt(xi.b * xi.b * xi.d * s * s)
    lo_num, hi_num = (r, r + 1) if xi.b > 0 else (-r - 1, -r)
    lo = (j * (xi.a * s + lo_num)) // (xi.c * s)
    hi = (j * (xi.a * s + hi_num)) // (xi.c * s)
    return lo if lo == hi else None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.sampled_from(range(len(FIXTURES))))
def test_floor_scaled_matches_enclosure(j, which):
    xi = FIXTURES[which]
    certified = _floor_via_enclosure(j, xi)
    assert certified is not None, "256-bit enclosure should essentially never straddle"
    assert floor_scaled(j, xi) == certified


# --- continued fractions -----------------------------------------------------


def test_cf_sqrt2_minus_one():
    cf = cf_expand(SQRT2_M1)
    assert cf.preperiod == (0,) and cf.period == (2,)
    assert [q for _, q in cf.convergents(6)] == [1, 2, 5, 12, 29, 70, 169]


def test_cf_sqrt2_minus_one_over_two():
    cf = cf_expand(parse_surd("sqrt2m1over2"))
    assert cf.preperiod == (0,) and cf.period == (4, 1)


def test_cf_sqrt3_over_two():
    cf = cf_expand(parse_surd("sqrt3over2"))
    assert cf.preperiod == (0, 1) and cf.period == (6, 2)
    assert [q for _, q in cf.convergents(4)] == [1, 1, 7, 15, 97]


def test_cf_golden_gives_fibonacci():
    cf = cf_expand((parse_surd("sqrt5") - 1) / 2)
    assert [q for _, q in cf.convergents(5)] == [1, 1, 2, 3, 5, 8]


def test_purely_periodic_preperiod_empty():
    assert cf_expand(parse_surd("silver")).preperiod == ()


def test_convergent_recurrence_and_coprimality():
    for xi in FIXTURES:
        cf = cf_expand(xi)
        pq = cf.convergents(12)
        for n in range(2, 13):
            a = cf.quotient(n)
            assert pq[n][0] == a * pq[n - 1][0] + pq[n - 2][0]
            assert pq[n][1] == a * pq[n - 1][1] + pq[n - 2][1]
            assert math.gcd(*pq[n]) == 1


def test_convergents_approximate_value():
    # |xi - p/q| < 1/(q q') checked exactly: |q q' xi - p q'| < 1
    for xi in FIXTURES:
        cf = cf_expand(xi)
        pq = cf.convergents(11)
        for (p, q), (_, q2) in zip(pq[:-1], pq[1:]):
            delta = xi * q * q2 - p * q2
            assert -1 < delta < 1


def test_reexpansion_roundtrip():
    # rebuild the value from one full period of quotients and re-expand
    for xi in FIXTURES:
        cf = cf_expand(xi)
        horizon = len(cf.preperiod) + 2 * len(cf.period)
        pq = cf.convergents(horizon)
        # evaluate the tail as the surd fixed by the periodic part is hard in
        # general; instead check that the quotient stream of xi recomputed
        # from scratch agrees with the object (determinism of expansion)
        again = cf_expand(xi)
        assert again.preperiod == cf.preperiod and again.period == cf.period
        assert again.convergents(horizon) == pq


def test_quotients_of_rotations_are_positive():
    for xi in FIXTURES:
        cf = cf_expand(xi)
        for i in range(1, 12):
            assert cf.quotient(i) >= 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-10, max_value=10).filter(lambda b: b != 0),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    st.integers(min_value=1, max_value=12),
)
def test_cf_expand_random_surds(a, b, d, c):
    xi = QuadraticSurd(a, b, d, c)
    cf = cf_expand(xi)
    pq = cf.convergents(9)
    for (p, q), (_, q2) in zip(pq[:-1], pq[1:]):
        delta = xi * q * q2 - p * q2
        assert -1 < delta < 1


def test_invalid_cf_construction():
    with pytest.raises(ValueError):
        ContinuedFraction([0], [])
    with pytest.raises(ValueError):
        ContinuedFraction([0, 0], [2])  # a_1 must be >= 1


# --- BR predicate -------------------------------------------------------------


def test_is_br_fixtures():
    assert is_br(cf_expand(SQRT2_M1))
    assert is_br(cf_expand(parse_surd("sqrt2m1over2")))
    assert not is_br(cf_expand(parse_surd("sqrt3over2")))  # a_1 = 1 is odd
    assert not is_br(cf_expand((parse_surd("sqrt5") - 1) / 2))
    assert is_br(cf_expand(noble_mean_adjusted(4)))


def test_br_parity_of_denominators_alternates():
    # q_0 = 1 is odd and q_{2n+1} is even for a BR number
    for name in ("sqrt2m1", "sqrt2m1over2", "xi4"):
        cf = cf_expand(parse_surd(name))
        qs = [q for _, q in cf.convergents(14)]
        for n, q in enumerate(qs):
            assert q % 2 == (n + 1) % 2, f"q_{n} = {q} has the wrong parity"


def test_qsom_identity():
    # q_{2j+2} = sum a_{2i+2} q_{2i+1} + 1 over BR bases
    for name in ("sqrt2m1", "sqrt2m1over2", "xi4"):
        cf = cf_expand(parse_surd(name))
        qs = [q for _, q in cf.convergents(14)]
        for j in range(6):
            total = sum(cf.quotient(2 * i + 2) * qs[2 * i + 1] for i in range(j + 1)) + 1
            assert qs[2 * j + 2] == total


# --- parsing -------------------------------------------------------------------


def test_parse_literal():
    assert parse_surd("(0+2*sqrt(2))/1") == TWO_SQRT2
    assert parse_surd("(-1+1*sqrt(2))/1") == SQRT2_M1
    assert parse_surd("( -2 + 2*sqrt(2) ) / 2") == SQRT2_M1


def test_parse_named_and_xi():
    assert parse_surd("xi2") == SQRT2_M1
    assert parse_surd("xi4") == parse_surd("sqrt5") - 2
    assert parse_surd("golden") == (1 + parse_surd("sqrt5")) / 2


def test_parse_garbage():
    with pytest.raises(ValueError):
        parse_surd("sqrt(-1)")
    with pytest.raises(ValueError):
        parse_surd("two")
