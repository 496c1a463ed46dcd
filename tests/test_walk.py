import random
from fractions import Fraction

import numpy as np
import pytest

from walklab.qarith import QuadraticSurd, floor_scaled, parse_surd
from walklab import walk
from walklab.walk import (
    _CHUNK,
    CheckFailed,
    NotBrNumber,
    RuleEngine,
    WalkTrace,
    _indicators,
    _signs_exact,
    ab_sequences,
    brute_walk,
    diff_hits,
    discrepancy,
    lemma_checks,
    records,
    walk_spec,
    zeros,
)

TWO_SQRT2 = walk_spec(parse_surd("2sqrt2"))
SQRT2 = walk_spec(parse_surd("sqrt2"))
SQRT3 = walk_spec(parse_surd("sqrt3"))
SQRT2M1_WALK = walk_spec(parse_surd("sqrt2m1"))

# lengths around the bulk paths' block size, where a carry crosses a block
BLOCK_NS = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7)

TABLE1_A = [1, 3, 5, 6, 8, 10, 13, 15, 17, 18, 20, 22, 25, 27, 29, 30, 32, 34]
TABLE1_B = [2, 4, 7, 9, 11, 12, 14, 16, 19, 21, 23, 24, 26, 28, 31, 33, 36, 38]


def test_spec_rotation_and_br():
    assert TWO_SQRT2.rotation == parse_surd("sqrt2m1")
    assert TWO_SQRT2.br
    assert SQRT2M1_WALK.rotation == parse_surd("sqrt2m1over2")
    assert SQRT2M1_WALK.br
    assert not SQRT3.br
    assert 0 < TWO_SQRT2.rotation < 1


def test_spec_even_shift_same_walk():
    # angles differing by an even integer give identical sign sequences
    shifted = walk_spec(parse_surd("2sqrt2") - 2)
    assert np.array_equal(
        brute_walk(shifted, 500).sums, brute_walk(TWO_SQRT2, 500).sums
    )
    assert shifted.rotation == TWO_SQRT2.rotation


def test_walk_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        walk_spec(parse_surd("sqrt2") - 2)


def test_first_step_and_known_values():
    t = brute_walk(TWO_SQRT2, 70)
    assert t.signs[0] == 1  # a(1) = 1
    assert t.sums[68] == 1  # S_69
    assert t.sums[69] == 0  # S_70


def test_step_property():
    t = brute_walk(SQRT3, 2000)
    s = np.concatenate([[0], t.sums])
    assert set(np.abs(np.diff(s)).tolist()) == {1}


def test_certified_engine_equals_exact():
    for spec in (TWO_SQRT2, SQRT2, SQRT3, SQRT2M1_WALK):
        assert np.array_equal(brute_walk(spec, 4000).signs, _signs_exact(spec.theta, 4000))


def test_certified_engine_low_scale_fallback():
    # at 16 bits the ambiguity fallback fires constantly and must stay exact
    flags = _indicators(TWO_SQRT2.rotation, 1, 2, 3000, scale=16)
    assert np.array_equal(2 * flags - 1, _signs_exact(TWO_SQRT2.theta, 3000))
    # a non-twin endpoint, against per-step exact floors
    xi = parse_surd("sqrt3over2")
    flags = _indicators(xi, 1, 3, 3000, scale=16)
    want = [floor_scaled(3 * j, xi) - 3 * floor_scaled(j, xi) < 1 for j in range(1, 3001)]
    assert flags.tolist() == [int(w) for w in want]


def test_certified_engine_low_scale_fallback_across_blocks(monkeypatch):
    # at 20 bits every block past the first falls back often; the flags after
    # each block boundary must still match exact floors
    n = 2 * _CHUNK + 7
    fallbacks = []
    exact_floor = walk.floor_scaled

    def counting_floor(j, xi):
        fallbacks.append(j)
        return exact_floor(j, xi)

    monkeypatch.setattr(walk, "floor_scaled", counting_floor)
    flags = _indicators(TWO_SQRT2.rotation, 1, 2, n, scale=20)
    monkeypatch.undo()
    # one call scales xi, then each fallback step m calls floor(2m xi), floor(m xi)
    steps = fallbacks[2::2]
    assert fallbacks[1::2] == [2 * m for m in steps]
    assert sum(m > _CHUNK for m in steps) > 1000
    assert np.array_equal(2 * flags - 1, _signs_exact(TWO_SQRT2.theta, n))
    xi = parse_surd("sqrt3over2")
    flags = _indicators(xi, 1, 3, n, scale=20)
    assert np.array_equal(flags, exact_flags(xi, 1, 3, n))


def exact_flags(xi, h, k, n):
    """[{j*xi} < h/k] for j = 1..n, one pair of exact floors per step."""
    return np.array(
        [floor_scaled(k * j, xi) - k * floor_scaled(j, xi) < h for j in range(1, n + 1)],
        dtype=np.int8,
    )


@pytest.fixture(scope="module")
def exact_walks():
    n = BLOCK_NS[-1]
    return {spec: brute_walk(spec, n, exact=True).signs for spec in (TWO_SQRT2, SQRT3)}


@pytest.fixture(scope="module")
def exact_sqrt2m1_flags():
    xi = parse_surd("sqrt2m1")
    return {k: exact_flags(xi, 1, k, BLOCK_NS[-1]) for k in (2, 3)}


@pytest.mark.parametrize("n", BLOCK_NS)
def test_brute_walk_across_blocks(n, exact_walks):
    for spec, signs in exact_walks.items():
        t = brute_walk(spec, n)
        assert np.array_equal(t.signs, signs[:n])
        assert np.array_equal(t.sums, np.cumsum(signs[:n], dtype=np.int64))


@pytest.mark.parametrize("n", BLOCK_NS)
def test_discrepancy_across_blocks(n, exact_sqrt2m1_flags):
    xi = parse_surd("sqrt2m1")
    for k, flags in exact_sqrt2m1_flags.items():
        want = np.cumsum(k * flags[:n].astype(np.int64) - 1)
        assert np.array_equal(discrepancy(xi, Fraction(1, k), n), want)


def records_reference(sums) -> list[int]:
    """Plain running max/min scan, S_0 = 0 being the first record."""
    found, hi, lo = [0], 0, 0
    for i, v in enumerate(sums.tolist(), start=1):
        if v > hi or v < lo:
            found.append(i)
            hi, lo = max(hi, v), min(lo, v)
    return found


@pytest.mark.parametrize("n", BLOCK_NS)
def test_records_across_blocks(n, exact_walks):
    for spec in exact_walks:
        t = brute_walk(spec, n)
        assert records(t, n) == records_reference(t.sums)


def boundary_record_trace() -> WalkTrace:
    """A +-1 walk whose records land on the first and last index of blocks.

    It zigzags between two values and breaks out only at indices B, B+1,
    2B+1 and 3B, where B is the block size.
    """
    b = _CHUNK
    zigzag = [1, -1]
    steps = (
        zigzag * ((b - 2) // 2) + [1]  # S_{B-1} = 1
        + [1, 1]  # new maxima at B and B+1
        + [-1, -1, -1] + zigzag * ((b - 4) // 2)  # back to S_{2B} = 0
        + [-1]  # new minimum at 2B+1
        + zigzag * ((b - 2) // 2) + [-1]  # new minimum at 3B
        + [1, -1, 1, -1, 1, -1, 1]
    )
    signs = np.array(steps, dtype=np.int8)
    return WalkTrace(n=len(signs), sums=np.cumsum(signs, dtype=np.int64), signs=signs)


def test_records_on_block_edges():
    b = _CHUNK
    t = boundary_record_trace()
    assert t.n == 3 * b + 7
    assert records(t, t.n) == records_reference(t.sums) == [0, 1, b, b + 1, 2 * b + 1, 3 * b]
    for n in BLOCK_NS + (2 * b, 2 * b + 1, 3 * b):
        assert records(t, n) == records_reference(t.sums[:n])


def test_table1():
    seqs = ab_sequences(TWO_SQRT2, 40)
    assert seqs.a[:18].tolist() == TABLE1_A
    assert seqs.b[:18].tolist() == TABLE1_B


def test_ab_partition():
    n = 5000
    seqs = ab_sequences(SQRT3, n)
    merged = np.sort(np.concatenate([seqs.a, seqs.b]))
    assert np.array_equal(merged, np.arange(1, n + 1))


def test_kimberling_sign_pattern_small():
    seqs = ab_sequences(TWO_SQRT2, 40000)
    count = min(len(seqs.a), len(seqs.b))
    idx = np.arange(1, count + 1)
    assert (seqs.a[:count] - 2 * idx < 0).all()
    assert (seqs.b[:count] - 2 * idx >= 0).all()
    assert (seqs.b[:count] - seqs.a[:count] > 0).all()


def test_records_sqrt2():
    assert records(SQRT2, 1000)[:5] == [0, 1, 3, 8, 20]


def test_records_2sqrt2():
    assert records(TWO_SQRT2, 1000) == [0, 1, 6, 35, 204]


def test_records_sqrt3_printed_values():
    assert records(SQRT3, 3586)[1:] == [
        1, 2, 3, 7, 18, 33, 48, 104, 257, 466, 675, 1455, 3586,
    ]


def test_records_are_first_attainments():
    # independent oracle: scan the sums keeping the set of values seen
    t = brute_walk(SQRT3, 3000)
    seen = {0}
    expected = [0]
    for n, v in enumerate(t.sums.tolist(), start=1):
        if v not in seen:
            expected.append(n)
            seen.add(v)
    assert records(t, 3000) == expected


def test_records_from_trace_matches_spec_route():
    t = brute_walk(TWO_SQRT2, 2000)
    assert records(t, 2000) == records(TWO_SQRT2, 2000)
    with pytest.raises(ValueError):
        records(t, 3000)


def test_zeros_2sqrt2_prefix():
    assert zeros(TWO_SQRT2, 100)[:15] == [
        0, 2, 4, 12, 14, 16, 24, 26, 28, 70, 72, 74, 82, 84, 86,
    ]


def test_zeros_none_in_odd_denominator_gaps():
    # intervals [q', q) with q' odd contain no zeros for a BR walk
    for spec in (TWO_SQRT2, SQRT2M1_WALK):
        zs = set(zeros(spec, 30000))
        qs = spec.cf.denominators_up_to(30000)
        for qp, q in zip(qs, qs[1:]):
            if qp % 2 == 1:
                assert not any(n in zs for n in range(qp, min(q, 30000)))


def test_fast_s_rule_a():
    assert RuleEngine(TWO_SQRT2).value(70) == 0
    assert RuleEngine(TWO_SQRT2).value(169) == 1
    assert RuleEngine(TWO_SQRT2).value(0) == 0


def test_fast_s_matches_brute_sweep():
    for spec in (TWO_SQRT2, SQRT2M1_WALK):
        engine = RuleEngine(spec)
        trace = brute_walk(spec, 20000)
        for n in range(1, 20001):
            assert engine.value(n) == trace.sums[n - 1], f"n={n}"


def test_fast_s_matches_brute_random():
    rng = random.Random(7)
    trace = brute_walk(TWO_SQRT2, 10**6)
    engine = RuleEngine(TWO_SQRT2)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        assert engine.value(n) == trace.sums[n - 1], f"n={n}"


def test_fast_s_rejects_non_br():
    with pytest.raises(NotBrNumber):
        RuleEngine(SQRT3).value(10)


def test_fast_s_deep_query():
    # parity at denominators plus a far-out value, no brute comparison
    engine = RuleEngine(TWO_SQRT2)
    qs = TWO_SQRT2.cf.denominators_up_to(10**12)
    assert all(engine.value(q) == q % 2 for q in qs)
    assert engine.value(10**12) >= 0


BR_WALKS = [walk_spec(2 * parse_surd(name)) for name in ("sqrt2m1", "sqrt2m1over2", "xi4")]


@pytest.mark.parametrize("exponent", [1000, 5000])
def test_rules_engine_huge_index_reflection(exponent):
    # S_{q/2+k} = S_{q/2} - S_k around the first even denominator q with
    # q/2 >= 10^exponent, deep enough that a recursive form of the rules
    # would overflow the interpreter stack
    rng = random.Random(exponent)
    for spec in BR_WALKS:
        q = next(q for q in spec.cf.denominators_up_to(10 ** (exponent + 10))
                 if q % 2 == 0 and q // 2 >= 10**exponent)
        s = [0] + brute_walk(spec, 2000).sums.tolist()
        half = RuleEngine(spec).value(q // 2)
        for k in [1, 2000] + rng.sample(range(3, 2000), 3):
            assert RuleEngine(spec).value(q // 2 + k) == half - s[k], f"k={k}"


def test_rules_values_match_scalar_and_brute():
    rng = random.Random(15)
    for spec in BR_WALKS + [TWO_SQRT2]:
        engine = RuleEngine(spec)
        sweep = np.arange(1, 2 * 10**4 + 1)
        got = engine.values(sweep)
        assert np.array_equal(got, brute_walk(spec, 2 * 10**4).sums)
        assert got.tolist() == [engine.value(n) for n in sweep.tolist()]
        picks = [rng.randint(1, 10**15) for _ in range(500)]
        assert engine.values(picks).tolist() == [engine.value(n) for n in picks]


def test_rules_values_edges():
    engine = RuleEngine(TWO_SQRT2)
    empty = engine.values([])
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert engine.values([0, 70, 0]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        engine.values([5, -1])
    with pytest.raises(ValueError):
        engine.value(-1)
    with pytest.raises(ValueError):  # the next denominator is past int64
        engine.values([2**63 - 1])
    with pytest.raises(ValueError, match="index does not fit int64"):
        engine.values([5, 2**63])
    with pytest.raises(ValueError, match="index does not fit int64"):
        engine.values([-(2**63) - 1])


def test_diff_hits_examples():
    assert 1 in diff_hits(TWO_SQRT2, 1, 50)
    assert 3 in diff_hits(TWO_SQRT2, 2, 50)
    assert 4 in diff_hits(TWO_SQRT2, 3, 50)
    with pytest.raises(ValueError):
        diff_hits(TWO_SQRT2, 0, 10)


def test_diff_hits_values_check_out():
    seqs = ab_sequences(TWO_SQRT2, 200)
    for n in diff_hits(TWO_SQRT2, 2, 60):
        assert seqs.b[n - 1] - seqs.a[n - 1] == 2


def test_discrepancy_trivial_value():
    # {sqrt(2)-1} in [0,1/2), {2(sqrt(2)-1)} not: counts 1 of 2, D_2 = 0
    kd = discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), 2)
    assert kd.tolist() == [1, 0]


def test_discrepancy_equals_walk_for_half():
    # 2*D_n over [0,1/2) is exactly the doubled walk
    kd = discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), 5000)
    assert np.array_equal(kd, brute_walk(TWO_SQRT2, 5000).sums)


def test_discrepancy_nonnegative_br():
    kd = discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), 20000)
    assert kd.min() >= 0


def test_discrepancy_other_interval():
    # exact check against per-step floors for a third-length interval
    xi = parse_surd("sqrt3over2")
    kd = discrepancy(xi, Fraction(1, 3), 300)
    count = 0
    for j in range(1, 301):
        count += 1 if floor_scaled(3 * j, xi) - 3 * floor_scaled(j, xi) < 1 else 0
        assert kd[j - 1] == 3 * count - j


def test_discrepancy_input_validation():
    with pytest.raises(ValueError):
        discrepancy(parse_surd("sqrt2m1"), Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        discrepancy(parse_surd("sqrt2"), Fraction(1, 2), 10)  # not in (0,1)


def test_lemma_checks_smallest_case():
    # q = 2: S_{1+k} = S_1 - S_k for k in {0, 1}
    t = brute_walk(TWO_SQRT2, 2)
    assert t.sums[0] == 1 and t.sums[1] == 0
    report = lemma_checks(TWO_SQRT2, 1)
    assert report.even_denominators == [2]


def test_lemma_checks_surplus_example():
    # m = 2: index (12 + 4)/4 = 4, b(4) - a(4) = 9 - 6 = 3 = a(2)
    seqs = ab_sequences(TWO_SQRT2, 20)
    assert seqs.b[3] - seqs.a[3] == 3 == seqs.a[1]
    report = lemma_checks(TWO_SQRT2, 2)
    assert report.even_denominators == [2, 12]


def test_lemma_checks_depth_five():
    report = lemma_checks(TWO_SQRT2, 5)
    assert report.even_denominators == [2, 12, 70, 408, 2378]
    assert report.identities_checked > 4000


def test_lemma_checks_counterexample_reported():
    # identities specific to 2*sqrt(2) break for another angle with even
    # denominators, and the failure names the first bad index
    other = walk_spec(2 * (parse_surd("sqrt3") - 1))
    with pytest.raises(CheckFailed):
        lemma_checks(other, 3)


def test_lemma_checks_needs_even_denominators():
    with pytest.raises(ValueError):
        lemma_checks(SQRT3, 2)


def test_br_walks_stay_nonnegative():
    for name in ("sqrt2m1", "xi2", "xi4"):
        theta = parse_surd(name) if name == "sqrt2m1" else 2 * parse_surd(name)
        assert brute_walk(walk_spec(theta), 50000).sums.min() >= 0


def test_brute_walk_rejects_bad_length():
    with pytest.raises(ValueError):
        brute_walk(TWO_SQRT2, 0)
