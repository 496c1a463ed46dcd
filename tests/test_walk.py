import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.qarith import QuadraticSurd, floor_scaled, parse_surd
import walklab
from walklab import qarith, walk
from walklab.walk import (
    _CHUNK,
    CheckFailed,
    NotBrNumber,
    RuleEngine,
    WalkTrace,
    _signs_exact,
    _sum_blocks,
    ab_sequences,
    ab_terms,
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


def kernel_flags(xi, h, k, n, scale=walk._SCALE):
    """The kernel's flags for j = 1..n as one array. The kernel reuses one
    buffer for every block, so each block is copied out as it comes."""
    blocks = [flags.copy() for _, flags in walk._indicator_blocks(xi, h, k, n, scale)]
    return np.concatenate([np.zeros(0, dtype=np.int8)] + blocks)


def test_certified_engine_low_scale_fallback():
    # at 16 bits the ambiguity fallback fires constantly and must stay exact
    flags = kernel_flags(TWO_SQRT2.rotation, 1, 2, 3000, scale=16)
    assert np.array_equal(2 * flags - 1, _signs_exact(TWO_SQRT2.theta, 3000))
    # a non-twin endpoint, against per-step exact floors
    xi = parse_surd("sqrt3over2")
    flags = kernel_flags(xi, 1, 3, 3000, scale=16)
    want = [floor_scaled(3 * j, xi) - 3 * floor_scaled(j, xi) < 1 for j in range(1, 3001)]
    assert flags.tolist() == [int(w) for w in want]


def test_step_whose_interval_wraps_past_one():
    # xi = 1/3 + eps with 3 eps < 2^-64: r = 3 floor(xi 2^scale) units is
    # 2^64 - 1 units, at the top of the circle and far from the cut 1/2,
    # while {3 xi} = 3 eps has wrapped to just above 0
    xi = QuadraticSurd(10**20 - 3, 3, 2, 3 * 10**20)
    for scale in (64, 24):
        assert kernel_flags(xi, 1, 2, 3, scale=scale).tolist() == [1, 0, 1]


def fallback_steps(calls, n, scale, k):
    """The steps m that fell back, read off a log of floor_scaled arguments.

    Asserts the anchored call pattern: one call scales xi, then each block
    of _CHUNK steps starting at j0 takes one anchor floor(j0 << scale), and
    each fallback step m of that block one pair floor(k m), floor(m).
    """
    assert calls[0] == 1 << scale
    starts = list(range(1, n + 1, _CHUNK))
    assert len(starts) == -(-n // _CHUNK)
    pos, steps = 1, []
    for j0 in starts:
        assert calls[pos] == j0 << scale  # the block's one anchor
        end = pos + 1
        while end < len(calls) and calls[end] != (j0 + _CHUNK) << scale:
            end += 1
        pairs = calls[pos + 1 : end]
        ms = pairs[1::2]
        assert pairs[::2] == [k * m for m in ms]
        assert ms == sorted(ms) and all(j0 <= m < min(j0 + _CHUNK, n + 1) for m in ms)
        steps += ms
        pos = end
    assert pos == len(calls)
    return steps


def test_certified_engine_low_scale_fallback_across_blocks(monkeypatch):
    # at 20 bits every block falls back often; the flags after each block
    # boundary must still match exact floors
    n = 2 * _CHUNK + 7
    calls = []
    exact_floor = walk.floor_scaled

    def counting_floor(j, xi):
        calls.append(j)
        return exact_floor(j, xi)

    monkeypatch.setattr(walk, "floor_scaled", counting_floor)
    flags = kernel_flags(TWO_SQRT2.rotation, 1, 2, n, scale=20)
    steps = fallback_steps(calls, n, 20, 2)
    assert sum(m > _CHUNK for m in steps) > 1000
    signs = _signs_exact(TWO_SQRT2.theta, n)
    assert np.array_equal(2 * flags - 1, signs)
    xi = parse_surd("sqrt3over2")
    calls.clear()
    flags = kernel_flags(xi, 1, 3, n, scale=20)
    monkeypatch.undo()
    steps = fallback_steps(calls, n, 20, 3)
    assert sum(m > _CHUNK for m in steps) > 1000
    want = exact_flags(xi, 1, 3, n)
    assert np.array_equal(flags, want)
    # the one running sum over the same forced fallbacks, across 3 blocks,
    # into a whole-length output and into a reused block-length one
    cases = ((TWO_SQRT2.rotation, 1, 2, (signs + 1) // 2, np.int32), (xi, 1, 3, want, np.int64))
    for rotation, h, k, exact, dtype in cases:
        sums = np.cumsum(k * exact.astype(np.int64) - h)
        whole = np.empty(n, dtype=dtype)
        for out in (whole, np.empty(_CHUNK, dtype=dtype)):
            starts = []
            for start, block_flags, block_sums in _sum_blocks(rotation, h, k, n, out, scale=20):
                end = start + len(block_flags)
                assert np.array_equal(block_flags, exact[start:end])
                assert np.array_equal(block_sums, sums[start:end])
                starts.append(start)
            assert starts == [0, _CHUNK, 2 * _CHUNK]
        assert np.array_equal(whole, sums)


# lengths on and around the kernel's block edges, up to 3 blocks and 5 steps
EDGE_NS = (0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK + 5)


@st.composite
def unit_surds(draw):
    """The fractional part of a random quadratic irrational: a surd in (0, 1)."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 61, 1009]))
    b = draw(st.integers(-50, 50).filter(bool))
    return QuadraticSurd(draw(st.integers(-1000, 1000)), b, d, draw(st.integers(1, 1000))).fractional()


@settings(max_examples=30, deadline=None)
@given(
    unit_surds(),
    st.integers(2, 10**6).flatmap(lambda k: st.tuples(st.integers(1, k - 1), st.just(k))),
    st.one_of(st.sampled_from(EDGE_NS), st.integers(0, EDGE_NS[-1])),
    st.sampled_from([64, 24, 16]),
    st.randoms(use_true_random=False),
)
def test_indicators_match_exact_floors(xi, endpoint, n, scale, rnd):
    # a small h/k puts the cut within one window of 0, so the window below
    # the cut wraps past 2^64; 16 bits send every step to the fallback
    endpoint = Fraction(*endpoint)
    h, k = endpoint.numerator, endpoint.denominator
    flags = kernel_flags(xi, h, k, n, scale=scale)
    assert flags.dtype == np.int8 and flags.shape == (n,)
    edges = {i for e in range(0, n + _CHUNK, _CHUNK) for i in (e - 1, e) if 0 <= i < n}
    for i in sorted(edges | set(rnd.sample(range(n), min(200, n)))):
        j = i + 1
        assert flags[i] == (floor_scaled(k * j, xi) - k * floor_scaled(j, xi) < h), j
    if scale == walk._SCALE:
        want = np.cumsum(k * flags.astype(np.int64) - h, dtype=np.int64)
        assert np.array_equal(discrepancy(xi, endpoint, n), want)


def test_running_sums_widths_across_a_block():
    n = _CHUNK + 5
    t = brute_walk(SQRT3, n)
    assert t.sums.dtype == np.int32
    assert np.array_equal(t.sums, np.cumsum(t.signs, dtype=np.int64))
    # k*D_m passes 2^31 once k does, so discrepancy keeps int64 sums
    xi, k = parse_surd("sqrt2m1"), 3 * 2**32 + 1
    h = k // 2
    d = discrepancy(xi, Fraction(h, k), n)
    flags = kernel_flags(xi, h, k, n)
    assert d.dtype == np.int64 and np.abs(d).max() > 2**31
    assert np.array_equal(d, np.cumsum(k * flags.astype(np.int64) - h, dtype=np.int64))


def past_the_guard(*args, **kwargs):
    raise LookupError("past the guard")


def fail_past_the_guard(*args, **kwargs):
    pytest.fail("past the guard")


def test_discrepancy_refuses_sums_past_int64(monkeypatch):
    xi = parse_surd("sqrt2m1")
    # 2^61/(2^62+1) over 2000 steps: the int64 sums used to wrap from m = 204
    with pytest.raises(ValueError, match="overflow int64"):
        discrepancy(xi, Fraction(2**61, 2**62 + 1), 2000)
    # k > 2^63 used to raise numpy's OverflowError from the scaling
    with pytest.raises(ValueError, match="overflow int64"):
        discrepancy(xi, Fraction(1, 2**64 + 1), 10)
    # the guard is k*n >= 2^63, checked before any array is made
    monkeypatch.setattr(walk, "_indicator_blocks", fail_past_the_guard)
    monkeypatch.setattr(np, "empty", fail_past_the_guard)
    with pytest.raises(ValueError, match="overflow int64"):
        discrepancy(xi, Fraction(1, 2**53), 2**10)
    monkeypatch.setattr(walk, "_indicator_blocks", past_the_guard)
    monkeypatch.setattr(np, "empty", past_the_guard)
    with pytest.raises(LookupError):
        discrepancy(xi, Fraction(1, 2**53), 2**10 - 1)


def test_discrepancy_large_k_in_range_is_exact():
    xi, n = parse_surd("sqrt2m1"), 2000
    h, k = 2**39 + 7, 2**40 + 1
    counts = np.cumsum(exact_flags(xi, h, k, n), dtype=np.int64).tolist()
    want = [k * c - h * m for m, c in enumerate(counts, start=1)]
    assert max(map(abs, want)) > 2**41
    assert discrepancy(xi, Fraction(h, k), n).tolist() == want


def test_length_bound_checked_before_any_allocation(monkeypatch):
    # the kernel loop, the running sum, the exact path and every numpy
    # buffer: whatever a walk computes or allocates first raises
    for name in ("_indicator_blocks", "_sum_blocks", "_signs_exact"):
        monkeypatch.setattr(walk, name, past_the_guard)
    monkeypatch.setattr(np, "empty", past_the_guard)
    xi = parse_surd("sqrt2m1")
    calls = (
        lambda n: brute_walk(TWO_SQRT2, n),
        lambda n: brute_walk(TWO_SQRT2, n, exact=True),
        lambda n: discrepancy(xi, Fraction(1, 2), n),
        lambda n: records(SQRT2, n),
        lambda n: zeros(TWO_SQRT2, n),
        lambda n: ab_sequences(SQRT3, n),
    )
    for call in calls:
        with pytest.raises(ValueError, match="walk length beyond engine range"):
            call(1 << 30)
        with pytest.raises(LookupError):  # one step shorter passes the guard
            call((1 << 30) - 1)


# (0+1*sqrt(10001))/1 = 100.00499..: floor(j theta) = 100 j + floor(0.00499.. j)
# is even for j < 201, so steps 1..200 all go forward
SQRT10001 = walk_spec(parse_surd("(0+1*sqrt(10001))/1"))


def test_ab_terms_length_bound(monkeypatch):
    monkeypatch.setattr(walk, "_MAX_STEPS", 150)
    # b's first term is step 201, past the 149 steps the bound allows: the
    # stream ends at the bound without filling b
    with pytest.raises(ValueError, match="walk length beyond engine range"):
        ab_terms(SQRT10001, 1)
    # a and b partition the steps, so 75 terms each need 150 steps: refused
    # before the kernel runs, while 74 terms pass the guard
    monkeypatch.setattr(walk, "_indicator_blocks", past_the_guard)
    with pytest.raises(ValueError, match="walk length beyond engine range"):
        ab_terms(SQRT10001, 75)
    with pytest.raises(LookupError):
        ab_terms(SQRT10001, 74)
    # one sequence alone needs at least as many steps as it has terms
    with pytest.raises(ValueError, match="walk length beyond engine range"):
        ab_terms(SQRT10001, 0, 150)
    with pytest.raises(LookupError):
        ab_terms(SQRT10001, 149, 0)


def test_ab_terms_of_one_sequence_walk_only_as_far_as_it_needs(monkeypatch):
    # a's first 10 terms are steps 1..10, inside a 149-step bound that b's
    # first term, step 201, lies past: a alone is found, b alone is not
    monkeypatch.setattr(walk, "_MAX_STEPS", 150)
    got = ab_terms(SQRT10001, 10, 0)
    assert (got.a.tolist(), got.b.tolist()) == (list(range(1, 11)), [])
    with pytest.raises(ValueError, match="walk length beyond engine range"):
        ab_terms(SQRT10001, 0, 1)


def ab_terms_reference(spec, count):
    """The first `count` terms of a and b from whole traces, doubling the
    walk from a first guess of 2*count + 64 steps until both are long enough."""
    steps = 2 * count + 64
    while True:
        seqs = ab_sequences(brute_walk(spec, steps), steps)
        if len(seqs.a) >= count and len(seqs.b) >= count:
            return seqs.a[:count].tolist(), seqs.b[:count].tolist()
        steps *= 2


def test_ab_terms_walks_past_its_first_guess():
    t = brute_walk(SQRT10001, 2000)
    assert (t.signs[:200] == 1).all() and t.signs[200] == -1
    seqs = ab_sequences(t, 2000)
    got = ab_terms(SQRT10001, 10)
    assert got.a.tolist() == seqs.a[:10].tolist() == list(range(1, 11))
    assert got.b.tolist() == seqs.b[:10].tolist() == list(range(201, 211))
    assert (got.a.tolist(), got.b.tolist()) == ab_terms_reference(SQRT10001, 10)


@st.composite
def walk_specs(draw):
    """A random quadratic angle: a BR one, 2 xi with xi = [0; (2k, l)*], or
    a positive surd drawn at random, which is rarely BR."""
    if draw(st.booleans()):
        k, l = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        spec = walk_spec(2 * QuadraticSurd(-k * l, 1, k * l * (k * l + 2), 2 * k))
        assert spec.br
        return spec
    return walk_spec(draw(unit_surds()) + draw(st.integers(0, 3)))


STREAM_NS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7)


@settings(max_examples=30, deadline=None)
@given(walk_specs(), st.one_of(st.sampled_from(STREAM_NS), st.integers(0, STREAM_NS[-1])))
def test_streamed_reducers_match_traces(spec, n):
    # each reducer read straight from the kernel equals the same reducer on
    # the brute trace, and on the exact trace for short walks; plain
    # whole-array scans of the trace are the references
    traces = [brute_walk(spec, n)]
    if n <= 1 << 12:
        traces.append(brute_walk(spec, n, exact=True))
        assert np.array_equal(traces[0].signs, traces[1].signs)
    t = traces[0]
    # the walk is 2*D_n over [0, 1/2) of its rotation: S = 2*D
    assert np.array_equal(discrepancy(spec.rotation, Fraction(1, 2), n), t.sums)
    rec, zs, seqs = records(spec, n), zeros(spec, n), ab_sequences(spec, n)
    assert rec == records_reference(t.sums)
    assert zs == [0] + (np.flatnonzero(t.sums == 0) + 1).tolist()
    assert seqs.a.dtype == seqs.b.dtype == np.int64
    assert np.array_equal(seqs.a, np.flatnonzero(t.signs > 0) + 1)
    assert np.array_equal(seqs.b, np.flatnonzero(t.signs < 0) + 1)
    for trace in traces:
        assert records(trace, n) == rec and zeros(trace, n) == zs
        from_trace = ab_sequences(trace, n)
        assert np.array_equal(seqs.a, from_trace.a) and np.array_equal(seqs.b, from_trace.b)
    count = n // 2
    got = ab_terms(spec, count)
    assert (got.a.tolist(), got.b.tolist()) == ab_terms_reference(spec, count)
    only_a, only_b = ab_terms(spec, count, 0), ab_terms(spec, 0, count)
    assert np.array_equal(only_a.a, got.a) and np.array_equal(only_b.b, got.b)
    assert len(only_a.b) == len(only_b.a) == 0


@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda: records(SQRT2, 2**22), 4 * 2**20),
        (lambda: zeros(TWO_SQRT2, 2**22), 4 * 2**20),
        # its two outputs are 2^20 int64 terms each, 16 MiB together
        (lambda: ab_terms(SQRT2, 2**20), 1.25 * 16 * 2**20),
        # a alone: one 8 MiB output, and no b beside it
        (lambda: ab_terms(SQRT2, 2**20, 0), 1.25 * 8 * 2**20),
        # its int64 output is 32 MiB, with no room for 4 MiB of flags beside it
        (lambda: discrepancy(parse_surd("sqrt2m1"), Fraction(1, 3), 2**22), 8 * 2**22 + 3 * 2**20),
    ],
    ids=["records", "zeros", "ab_terms", "ab_terms_a", "discrepancy"],
)
def test_streamed_reducers_hold_no_trace(call, bound):
    # numpy reports its buffers to tracemalloc; a 2^22-step trace alone
    # would take 20 MiB at 5 B/step
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


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


def reference_rules_value(spec, n):
    """The rules fold with a fresh bisection over the denominators at every fold."""
    dens = spec.cf.denominators_past(n)
    acc = 0
    while n:
        i = bisect_right(dens, n) - 1
        qp = dens[i]
        if qp == n:
            return acc + (n & 1)  # Rule A
        q = dens[i + 1]
        acc += qp & 1
        n = n - qp if 2 * n < q else q - n - 1  # Rule C, else Rule B
    return acc


def test_rules_value_matches_bisect_reference_deep():
    rng = random.Random(1000)
    for spec in BR_WALKS:
        engine = RuleEngine(spec)
        qs = spec.cf.denominators_up_to(10**1000)
        picks = [rng.randint(1, 10**rng.randint(1, 1000)) for _ in range(40)]
        picks += [q + d for q in qs[-3:] for d in (-1, 0, 1)]  # Rule A and both neighbours
        for n in picks:
            assert engine.value(n) == reference_rules_value(spec, n), n


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=20),
    l=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_rules_random_br_rotations(k, l, seed):
    # xi = [0;(2k, l)*] solves 2k xi^2 + 2kl xi - l = 0; the angle 2 xi walks it
    xi = QuadraticSurd(-k * l, 1, k * l * (k * l + 2), 2 * k)
    spec = walk_spec(2 * xi)
    assert spec.rotation == xi and spec.br
    assert [spec.cf.quotient(i) for i in range(5)] == [0, 2 * k, l, 2 * k, l]
    engine = RuleEngine(spec)
    sweep = list(range(1, 2 * 10**4 + 1))
    assert [engine.value(n) for n in sweep] == brute_walk(spec, 2 * 10**4).sums.tolist()
    rng = random.Random(seed)
    # int64 indices whose next denominator still fits int64
    top = spec.cf.denominators_up_to(2**63 - 1)[-1] - 1
    picks = [rng.randint(0, top) for _ in range(200)]
    assert engine.values(picks).tolist() == [engine.value(n) for n in picks]
    for n in picks[:50] + [rng.randint(1, 10**rng.randint(19, 300)) for _ in range(20)]:
        assert engine.value(n) == reference_rules_value(spec, n), n


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
    with pytest.raises(ValueError, match="walk length must be >= 0"):
        discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), -5)
    assert len(discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), 0)) == 0


def test_negative_term_counts_rejected():
    with pytest.raises(ValueError, match="term count must be >= 0"):
        ab_terms(TWO_SQRT2, -3)
    with pytest.raises(ValueError, match="term count must be >= 0"):
        ab_terms(TWO_SQRT2, 3, -1)
    with pytest.raises(ValueError, match="term count must be >= 0"):
        diff_hits(TWO_SQRT2, 1, -3)


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
    with pytest.raises(ValueError, match="walk length must be >= 0"):
        brute_walk(TWO_SQRT2, -1)
    for exact in (False, True):
        t = brute_walk(TWO_SQRT2, 0, exact=exact)
        assert t.n == 0 and t.sums.size == 0 and t.signs.size == 0


@pytest.mark.parametrize("source", ["trace", "spec"])
def test_reducers_share_one_length_rule(source):
    # a trace and a spec obey the same rule: a negative length raises
    # instead of slicing [:n] off the end, and 0 gives the empty walk
    x = brute_walk(TWO_SQRT2, 40) if source == "trace" else TWO_SQRT2
    for reducer in (records, zeros, ab_sequences):
        with pytest.raises(ValueError, match="walk length must be >= 0"):
            reducer(x, -1)
    assert records(x, 0) == [0] and zeros(x, 0) == [0]
    seqs = ab_sequences(x, 0)
    assert seqs.a.size == 0 and seqs.b.size == 0


def test_shared_exceptions_live_in_qarith():
    assert walk.NotBrNumber is qarith.NotBrNumber is walklab.NotBrNumber
    assert walk.CheckFailed is qarith.CheckFailed is walklab.CheckFailed
