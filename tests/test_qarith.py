import math
import operator
import sys
import tracemalloc
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


def test_sign_near_ties():
    # 99 - 70*sqrt(2) = 1/(99 + 70*sqrt(2)) ~ 0.00505063, within 1.3e-7 of 1/198
    near = QuadraticSurd(99, -70, 2)
    assert near.sign() == 1 and (-near).sign() == -1
    assert near > 0 and not near <= 0 and 0 < near
    assert near > Fraction(1, 200) and Fraction(1, 200) < near
    assert Fraction(1, 198) < near < Fraction(1, 197) and not near <= Fraction(1, 198)
    far = QuadraticSurd(-99, 70, 2)
    assert far.sign() == -1
    assert far < 0 and far <= 0 and not far >= 0
    assert far < Fraction(1, 200) and far <= Fraction(1, 200)
    assert Fraction(-1, 197) < far < Fraction(-1, 198) and not far >= Fraction(-1, 198)
    # the next Pell pair: 3363 - 2378*sqrt(2) lies within 4e-12 above 1/6726
    pell = QuadraticSurd(3363, -2378, 2)
    assert pell > 0 > -pell
    assert Fraction(1, 6726) < pell < Fraction(1, 6725)


# --- differential check of the arithmetic against a Fraction-pair reference --


def _ref(x):
    """x as (r, s) with x = r + s*sqrt(d), r and s Fractions."""
    if isinstance(x, QuadraticSurd):
        return Fraction(x.a, x.c), Fraction(x.b, x.c)
    return Fraction(x), Fraction(0)


def _ref_sign(r, s, d):
    # r + s*sqrt(d) against 0: when r and s differ in sign, the larger of
    # r^2 and s^2*d decides
    sr, ss = (r > 0) - (r < 0), (s > 0) - (s < 0)
    if sr == 0 or ss == 0 or sr == ss:
        return sr or ss
    return ss if s * s * d > r * r else sr


def _ref_op(op, x, y, d):
    (r1, s1), (r2, s2) = x, y
    if op == "+":
        return r1 + r2, s1 + s2
    if op == "-":
        return r1 - r2, s1 - s2
    if op == "*":
        return r1 * r2 + s1 * s2 * d, r1 * s2 + s1 * r2
    norm = r2 * r2 - s2 * s2 * d
    if norm == 0:
        raise ZeroDivisionError
    return (r1 * r2 - s1 * s2 * d) / norm, (s1 * r2 - r1 * s2) / norm


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
CMPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
RADICANDS = [2, 3, 5, 7, 13]


def _surds(d):
    return st.builds(
        QuadraticSurd,
        st.integers(-60, 60),
        st.integers(-25, 25).filter(bool),
        st.just(d),
        st.integers(-30, 30).filter(bool),
    )


def _rationals():
    return st.one_of(
        st.integers(-60, 60),
        st.fractions(min_value=-20, max_value=20, max_denominator=40),
    )


def _operands(x):
    # besides independent draws, partners of x that make some results
    # rational: x itself, its negative and conjugate, 1 - x, twice the conjugate
    conj = QuadraticSurd(x.a, -x.b, x.d, x.c)
    return st.one_of(
        _surds(x.d), _rationals(), st.sampled_from([x, -x, conj, 1 - x, 2 * conj])
    )


def _check_value(got, want):
    r, s = want
    if s == 0:
        assert type(got) is (int if r.denominator == 1 else Fraction)
        assert got == r
    else:
        assert type(got) is QuadraticSurd
        assert _ref(got) == (r, s)


SURD_AND_OPERAND = (
    st.sampled_from(RADICANDS)
    .flatmap(_surds)
    .flatmap(lambda x: st.tuples(st.just(x), _operands(x)))
)


@settings(max_examples=400, deadline=None)
@given(SURD_AND_OPERAND)
def test_arithmetic_matches_fraction_reference(pair):
    x, y = pair
    d = x.d
    for left, right in ((x, y), (y, x)):
        for name, op in OPS.items():
            try:
                want = _ref_op(name, _ref(left), _ref(right), d)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            _check_value(op(left, right), want)
        r, s = _ref_op("-", _ref(left), _ref(right), d)
        sign = _ref_sign(r, s, d)
        for name, cmp in CMPS.items():
            assert cmp(left, right) == cmp(sign, 0), (left, name, right)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(RADICANDS), min_size=2, max_size=2, unique=True).flatmap(
        lambda ds: st.tuples(_surds(ds[0]), _surds(ds[1]))
    )
)
def test_mixed_radicands_rejected_everywhere(pair):
    x, y = pair
    for op in (*OPS.values(), *CMPS.values()):
        with pytest.raises(MixedRadicand):
            op(x, y)
        with pytest.raises(MixedRadicand):
            op(y, x)


SQUAREFREE = [2, 3, 5, 6, 7, 13, 1366, 1000001]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(SQUAREFREE),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30).filter(bool),
)
def test_result_equals_full_constructor(d, a, b, c):
    # arithmetic results skip the radicand split, which a squarefree d never
    # needs, and must keep the sign fix, the gcd and the rational branch
    got = QuadraticSurd(0, 1, d)._result(a, b, c)
    if b == 0:
        assert got == Fraction(a, c) and type(got) is (int if a % c == 0 else Fraction)
        return
    want = QuadraticSurd(a, b, d, c)
    assert type(got) is QuadraticSurd
    assert (got.a, got.b, got.d, got.c) == (want.a, want.b, want.d, want.c)
    assert got.c > 0 and math.gcd(got.a, got.b, got.c) == 1
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    neg = -want
    assert (neg.a, neg.b, neg.c) == (-want.a, -want.b, want.c) and neg.d == d


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


def _numerators(a):
    """p_0, p_1, ... of the quotients a, by p_i = a_i p_{i-1} + p_{i-2}."""
    p2, p1, p = 0, 1, []
    for ai in a:
        p1, p2 = ai * p1 + p2, p1
        p.append(p1)
    return p


def _convergents(cf, n):
    """(p_i, q_i) for i = 0..n: q read from the continued fraction's cache,
    p computed here from its quotients."""
    q = cf.denominators_through(n)[: n + 1]
    return list(zip(_numerators(cf.quotients_through(n)[: n + 1]), q))


def test_cf_sqrt2_minus_one():
    cf = cf_expand(SQRT2_M1)
    assert cf.preperiod == (0,) and cf.period == (2,)
    assert cf.denominators_through(6)[:7] == [1, 2, 5, 12, 29, 70, 169]


def test_cf_sqrt2_minus_one_over_two():
    cf = cf_expand(parse_surd("sqrt2m1over2"))
    assert cf.preperiod == (0,) and cf.period == (4, 1)


def test_cf_sqrt3_over_two():
    cf = cf_expand(parse_surd("sqrt3over2"))
    assert cf.preperiod == (0, 1) and cf.period == (6, 2)
    assert cf.denominators_through(4)[:5] == [1, 1, 7, 15, 97]


def test_cf_golden_gives_fibonacci():
    cf = cf_expand((parse_surd("sqrt5") - 1) / 2)
    assert cf.denominators_through(5)[:6] == [1, 1, 2, 3, 5, 8]


def test_purely_periodic_preperiod_empty():
    assert cf_expand(parse_surd("silver")).preperiod == ()


def test_convergent_recurrence_and_coprimality():
    for xi in FIXTURES:
        cf = cf_expand(xi)
        pq = _convergents(cf, 12)
        for n in range(2, 13):
            a = cf.quotient(n)
            assert pq[n][1] == a * pq[n - 1][1] + pq[n - 2][1]
            assert math.gcd(*pq[n]) == 1


def test_cache_same_whatever_the_growth_order():
    # growing the cache index by index, past a bound, or in one call from
    # cold gives the same a and q lists as the textbook recurrence
    for xi in FIXTURES:
        stepwise = cf_expand(xi)
        stepwise.denominators_through(0)
        stepwise.denominators_through(1)
        stepwise.denominators_past(10**40)
        stepwise.quotients_through(150)
        top = len(stepwise.denominators_through(0))
        cold = cf_expand(xi)
        cold.quotients_through(top - 1)
        a = [cold.quotient(i) for i in range(top)]
        q = [1, a[1]]
        for i in range(2, top):
            q.append(a[i] * q[-1] + q[-2])
        # growth past the bound stops at the first q beyond it
        assert top == 151 or q[-2] <= 10**40 < q[-1]
        for cf in (stepwise, cold):
            assert (cf._a, cf._q) == (a, q)
        # a cold cache asked for nothing stays empty
        assert cf_expand(xi).denominators_through(-1) == []


def test_warm_reads_never_reach_extend(monkeypatch):
    # a read the cache already covers returns it without entering _extend,
    # as does decoding a word whose constructor grew the cache
    from walklab import numeration

    cf = cf_expand(SQRT2_M1)
    q, a = cf.denominators_through(40), cf.quotients_through(40)
    word = numeration.encode(10**12, cf)

    def no_growth(*args):
        raise AssertionError("a warm read grew the cache")

    monkeypatch.setattr(ContinuedFraction, "_extend", no_growth)
    for n in (-1, 0, 39, 40):
        assert cf.denominators_through(n) is q
        assert cf.quotients_through(n) is a
    assert cf.denominators_past(q[-2]) is q
    assert numeration.decode(word) == 10**12
    with pytest.raises(AssertionError, match="grew the cache"):
        cf.denominators_through(41)
    with pytest.raises(AssertionError, match="grew the cache"):
        cf.quotients_through(41)


def test_convergents_approximate_value():
    # |xi - p/q| < 1/(q q') checked exactly: |q q' xi - p q'| < 1
    for xi in FIXTURES:
        cf = cf_expand(xi)
        pq = _convergents(cf, 11)
        for (p, q), (_, q2) in zip(pq[:-1], pq[1:]):
            delta = xi * q * q2 - p * q2
            assert -1 < delta < 1


def test_reexpansion_roundtrip():
    # rebuild the value from one full period of quotients and re-expand
    for xi in FIXTURES:
        cf = cf_expand(xi)
        horizon = len(cf.preperiod) + 2 * len(cf.period)
        pq = _convergents(cf, horizon)
        # evaluate the tail as the surd fixed by the periodic part is hard in
        # general; instead check that the quotient stream of xi recomputed
        # from scratch agrees with the object (determinism of expansion)
        again = cf_expand(xi)
        assert again.preperiod == cf.preperiod and again.period == cf.period
        assert _convergents(again, horizon) == pq


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
    pq = _convergents(cf, 9)
    for (p, q), (_, q2) in zip(pq[:-1], pq[1:]):
        delta = xi * q * q2 - p * q2
        assert -1 < delta < 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-12, max_value=12).filter(lambda b: b != 0),
    st.sampled_from([2, 3, 5, 6, 7, 8, 12, 18]),
    st.integers(min_value=-30, max_value=30).filter(lambda c: c != 0),
)
def test_cf_expand_floor_and_alternation(a, b, d, c):
    # the CF state floor((p + sqrt(dd)) / q) runs with q of either sign and
    # dd = b^2 d g^2 far from squarefree; its first quotient is the surd's
    # floor and its convergents p_n/q_n lie below x for even n, above for odd n
    xi = QuadraticSurd(a, b, d, c)
    cf = cf_expand(xi)
    assert cf.quotient(0) == xi.floor()
    for n, (p, q) in enumerate(_convergents(cf, 12)):
        assert (xi * q > p) if n % 2 == 0 else (xi * q < p)


@pytest.mark.parametrize("name", ["sqrt2m1", "xi4"])
def test_cf_growth_holds_little_beyond_its_denominators(name):
    # growing a cold cache past 10^2000 allocates at most a quarter more
    # than the q list it returns: no other big-int list grows alongside
    cf = cf_expand(parse_surd(name))
    bound = 10**2000
    tracemalloc.start()
    try:
        q = cf.denominators_past(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(q) + sum(map(sys.getsizeof, q))
    assert q[-1] > bound
    assert peak <= 1.25 * held, (peak, held)


def test_cycle_fixtures():
    # (start, length): the preperiod's length, and the period's doubled when odd
    assert cf_expand(SQRT2_M1).cycle() == (1, 2)  # [0; (2)*]
    assert cf_expand(parse_surd("sqrt2m1over2")).cycle() == (1, 2)  # [0; (4, 1)*]
    assert cf_expand(parse_surd("sqrt3over2")).cycle() == (2, 2)  # [0; 1, (6, 2)*]
    assert cf_expand(parse_surd("silver")).cycle() == (0, 2)  # [(2)*]
    assert ContinuedFraction([0, 5], [1, 2, 3]).cycle() == (2, 6)


def test_cf_expand_period_past_the_term_bound_is_a_value_error():
    # a legal surd whose period is longer than the 10^5 quotients searched
    with pytest.raises(ValueError, match=r"does not repeat within 100000 terms"):
        cf_expand(parse_surd("(1+1000*sqrt(7))/997"))


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
        qs = cf.denominators_through(14)[:15]
        for n, q in enumerate(qs):
            assert q % 2 == (n + 1) % 2, f"q_{n} = {q} has the wrong parity"


def test_qsom_identity():
    # q_{2j+2} = sum a_{2i+2} q_{2i+1} + 1 over BR bases
    for name in ("sqrt2m1", "sqrt2m1over2", "xi4"):
        cf = cf_expand(parse_surd(name))
        qs = cf.denominators_through(14)[:15]
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
