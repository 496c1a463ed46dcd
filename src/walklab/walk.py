"""Deterministic random walk engines for quadratic angles.

The walk is S_n = sum_{j<=n} (-1)^floor(j*theta). Two engines compute it:

* a brute engine that evaluates every step, using a certified fixed-point
  indicator kernel (shared with the discrepancy profile) with an exact
  integer-square-root fallback whenever the approximation could straddle
  the cut, and
* a rules engine that folds an index along three identities tied to the
  convergent denominators of the rotation theta/2, valid when that rotation
  is a BR number (all odd-indexed partial quotients even).

The brute engine is the oracle: everything the rules engine, the digit
automata, and the recurrence generators claim is cross-checked against it.

The bulk paths work one block of `_CHUNK` steps at a time, carrying state
from block to block, so their temporaries stay in the L2 cache instead of
streaming whole-length arrays through memory. One stream serves them all:
`_sum_blocks` runs the kernel block by block and carries the running sum of
the steps k*flag - h. Step j of the walk is +1 exactly when
{j*theta/2} < 1/2, so with h/k = 1/2 that sum is S_n = 2*D_n, and with any
other endpoint it is the discrepancy's k*D_n. Each array has one writer:
the sums go in place into the output of `brute_walk` or `discrepancy`,
`_steps` makes the flags +-1 steps, and `_fill_ab` fills a and b. `records`
and `zeros` given a spec reuse one block of sums, and the a/b paths read the
kernel's flags alone: none of them builds a trace, and beyond their outputs
they use O(block) memory. Given a trace, the reducers read it block by block.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qarith import (
    CheckFailed,
    ContinuedFraction,
    NotBrNumber,
    QuadraticSurd,
    cf_expand,
    floor_scaled,
    is_br,
)

_SCALE = 64  # fixed-point bits of the certified step accumulator
# Steps per block of the bulk paths: a block's uint64 temporaries (512 KiB
# each) fit in L2 together. 2^14..2^16 measure alike; 2^21 blocks were 3-5x
# slower. A block is also the span over which the kernel's interval widens
# before the next exact anchor.
_CHUNK = 1 << 16
_MAX_STEPS = 1 << 30  # longest walk; it also keeps |S_n| inside int32


@dataclass(frozen=True)
class WalkSpec:
    """A walk angle theta together with its halved rotation and its CF."""

    theta: QuadraticSurd
    rotation: QuadraticSurd
    cf: ContinuedFraction
    br: bool


def walk_spec(theta: QuadraticSurd) -> WalkSpec:
    """Derive the rotation {theta/2} and its BR status for a positive angle."""
    if theta.sign() <= 0:
        raise ValueError("walk angle must be positive")
    rotation = (theta / 2).fractional()
    cf = cf_expand(rotation)
    return WalkSpec(theta=theta, rotation=rotation, cf=cf, br=is_br(cf))


@dataclass(frozen=True)
class WalkTrace:
    n: int
    sums: np.ndarray  # int32, S_1..S_n
    signs: np.ndarray  # int8, the +-1 steps


@dataclass(frozen=True)
class AbSequences:
    """Indices of forward (a) and backward (b) steps; they partition 1..n.
    Both are int32: every step index is below the length bound 2^30."""

    a: np.ndarray
    b: np.ndarray


# --- certified indicator kernel -------------------------------------------


def _indicator_blocks(xi: QuadraticSurd, h: int, k: int, n: int, scale: int = _SCALE):
    """Yield (start, flags): int8 flags [{j*xi} < h/k] for the block of steps
    j = start + 1 .. start + len(flags), one block of `_CHUNK` steps at a
    time, for j = 1..n, with xi in (0,1). Every block is written into one
    reused buffer, which the next block overwrites.

    The fixed point sits in the top `scale` bits of a uint64, in units of
    2^(64 - scale), so uint64 sums wrap mod 1 by themselves. With
    X = floor(xi * 2^scale) units, the block that starts at step j0 takes
    one exact anchor A = (floor(j0 xi 2^scale) mod 2^scale) units, and step
    j0 + t gets r = A + t*X mod 2^64. As j0 xi 2^scale lies in [F, F + 1)
    and t xi 2^scale in [tX, tX + t), the scaled fractional part of
    (j0 + t) xi lies in [r, r + (t + 1) units) mod 2^64: an interval at most
    w = (_CHUNK + 1) units wide, however large j0 is.

    The flag is r < cut, with cut = floor(h 2^scale / k) units, and it is
    exact unless r lies in [cut - w, cut] mod 2^64 or the interval may wrap
    past 2^64 (r >= 2^64 - w). Those steps are decided by exact floors:
    {j xi} < h/k  <=>  floor(k j xi) - k floor(j xi) < h.
    """
    # constants are Python ints, each converted once: numpy warns when a
    # uint64 scalar overflows, while uint64 array arithmetic wraps silently
    one = 1 << 64
    unit = 1 << (64 - scale)
    width = min((_CHUNK + 1) * unit, one - 1)
    cut = (h << scale) // k * unit
    x = np.uint64(floor_scaled(1 << scale, xi) * unit)
    low, w, top = np.uint64((cut - width) % one), np.uint64(width), np.uint64(one - width)
    cut = np.uint64(cut)
    steps = np.arange(min(n, _CHUNK), dtype=np.uint64) * x  # t*X, wrapping
    r = np.empty_like(steps)
    flags = np.empty(len(steps), dtype=np.int8)
    for start in range(0, n, _CHUNK):
        j0 = start + 1
        size = min(_CHUNK, n - start)
        anchor = np.uint64(floor_scaled(j0 << scale, xi) % (1 << scale) * unit)
        rb = np.add(steps[:size], anchor, out=r[:size])
        block = flags[:size]
        np.less(rb, cut, out=block.view(np.bool_))
        wraps = rb.max() >= top
        # in place, to keep the block's temporaries few: the window
        # [cut - w, cut] becomes [0, w]; the rare fallback rebuilds r
        db = np.subtract(rb, low, out=rb)
        if db.min() <= w or wraps:
            rb = steps[:size] + anchor
            for i in np.flatnonzero((db <= w) | (rb >= top)):
                m = j0 + int(i)
                block[i] = floor_scaled(k * m, xi) - k * floor_scaled(m, xi) < h
        yield start, block


def _sum_blocks(
    xi: QuadraticSurd, h: int, k: int, n: int, out: np.ndarray, scale: int = _SCALE
):
    """Yield (start, flags, sums): the kernel's flags for the block of steps
    j = start + 1 .. start + len(flags), and the running sums through those
    steps of the values k*flag - h, carried from block to block.

    This is the one running sum of the bulk paths: S_m for (1, 2) and k*D_m
    for (h, k). The cumsum writes straight into `out`. A whole-length `out`
    gets each block in place, and the sums are views of it; a shorter one
    holds one block and is reused, each block overwriting the last. The
    caller picks a dtype for `out` wide enough for every sum: int32 holds a
    walk's |S_n| <= n < 2^30 and a discrepancy's |k*D_m| < k*n while
    k*n < 2^31; past that, k*D_m needs int64.
    """
    whole = len(out) >= n
    values = np.empty(min(n, _CHUNK), dtype=out.dtype)
    carry = 0
    for start, flags in _indicator_blocks(xi, h, k, n, scale):
        step = values[: len(flags)]
        step[:] = flags
        step *= k
        step -= h
        step[0] += carry
        sums = out[start : start + len(flags)] if whole else out[: len(flags)]
        np.cumsum(step, dtype=out.dtype, out=sums)
        carry = int(sums[-1])
        yield start, flags, sums


def _signs_exact(theta: QuadraticSurd, n: int) -> np.ndarray:
    """Reference path: one exact integer square root per step."""
    return np.fromiter(
        (1 - 2 * (floor_scaled(j, theta) & 1) for j in range(1, n + 1)),
        dtype=np.int8,
        count=n,
    )


def brute_walk(spec: WalkSpec, n: int, exact: bool = False) -> WalkTrace:
    """Partial sums S_1..S_n by direct evaluation of every step.

    floor(j*theta) is even exactly when {j*theta/2} < 1/2, so the fast path
    reads each step 2*flag - 1 from the rotation's indicator of [0, 1/2):
    S_n is 2*D_n over that interval. The sums are int32, which holds every
    |S_n| <= n below the length bound.
    """
    _check_length(n)
    if exact:
        signs = _signs_exact(spec.theta, n)
        return WalkTrace(n=n, sums=np.cumsum(signs, dtype=np.int32), signs=signs)
    sums = np.empty(n, dtype=np.int32)
    return WalkTrace(n=n, sums=sums, signs=_steps(spec, n, sums))


def _steps(spec: WalkSpec, n: int, sums: np.ndarray | None = None) -> np.ndarray:
    """The walk's int8 steps 1..n, the kernel's flags {0, 1} made {-1, +1};
    given a whole-length int32 `sums`, the same pass writes S_1..S_n into it."""
    _check_length(n)
    xi, signs = spec.rotation, np.empty(n, dtype=np.int8)
    blocks = _indicator_blocks(xi, 1, 2, n) if sums is None else _sum_blocks(xi, 1, 2, n, sums)
    for start, flags, *_ in blocks:
        block = np.add(flags, flags, out=signs[start : start + len(flags)])
        block -= 1
    return signs


def _check_length(n: int) -> None:
    """Reject a walk length below 0 or at or past the engine's bound,
    before anything is allocated."""
    if n < 0:
        raise ValueError("walk length must be >= 0")
    if n >= _MAX_STEPS:
        raise ValueError("walk length beyond engine range")


def half_indicator(xi: QuadraticSurd, j: int) -> int:
    """1 if the fractional part of j*xi lies in [0, 1/2), else 0 (exact)."""
    if j == 0:
        return 1
    return 1 if floor_scaled(2 * j, xi) == 2 * floor_scaled(j, xi) else 0


# --- rules engine -------------------------------------------------------


class RuleEngine:
    """Walk values from the convergent-denominator rules (BR only).

    Rule A pins S at a denominator q to its parity; Rules B and C fold any
    other index into a strictly smaller one and add the parity of the
    denominator below it, so a value is one loop of folds that ends at a
    denominator or at 0. Denominators come from the spec's shared CF cache.
    """

    def __init__(self, spec: WalkSpec):
        if not spec.br:
            raise NotBrNumber(f"rotation {spec.rotation} is not a BR number")
        self.spec = spec

    def value(self, n: int) -> int:
        """S_n for one index n >= 0; the reference for `values`."""
        if n < 0:
            raise ValueError("index must be >= 0")
        dens = self.spec.cf.denominators_past(n)
        i = bisect_right(dens, n) - 1
        acc = 0
        # q_i <= n < q_{i+1} at each fold, and the folded index stays below
        # q_{i+1}: Rule C gives n - q_i < q_{i+1}, Rule B q_{i+1} - 1 - n.
        # So the level is found once and afterwards only steps down.
        while n:
            qp = dens[i]
            while qp > n:
                i -= 1
                qp = dens[i]
            if qp == n:
                return acc + (n & 1)  # Rule A
            acc += qp & 1
            t = dens[i + 1] - n
            n = n - qp if n < t else t - 1  # Rule C (2n < q_{i+1}), else Rule B
        return acc

    def values(self, indices) -> np.ndarray:
        """S_n for every index of an int64 array, folding all of them at once.

        Raises ValueError for a negative index, an index past int64, or
        when a denominator the rules need does not fit int64.
        """
        try:
            n = np.array(indices, dtype=np.int64)
        except OverflowError:
            raise ValueError("index does not fit int64") from None
        out = np.zeros(n.shape, dtype=np.int64)
        if n.size == 0:
            return out
        if n.min() < 0:
            raise ValueError("index must be >= 0")
        top = int(n.max())
        dens = self.spec.cf.denominators_past(top)
        dens = dens[: bisect_right(dens, top) + 1]  # through the first q > top
        if dens[-1] >= 1 << 63:
            raise ValueError("a denominator the rules need does not fit int64")
        dens = np.array(dens, dtype=np.int64)
        pos = np.flatnonzero(n)
        m = n.ravel()[pos]
        flat = out.ravel()
        while pos.size:
            i = np.searchsorted(dens, m, side="right") - 1
            qp = dens[i]
            rule_a = qp == m
            flat[pos] += np.where(rule_a, m & 1, qp & 1)
            q = dens[i + 1]
            m = np.where(m < q - m, m - qp, q - m - 1)  # Rule C, else Rule B
            keep = ~rule_a & (m > 0)
            pos, m = pos[keep], m[keep]
        return out


# --- derived sequences ----------------------------------------------------


def _walk_blocks(x: WalkTrace | WalkSpec, n: int, sums: bool = True):
    """(start, block) pairs over the first n steps, one block of `_CHUNK` at
    a time: the int32 running sums S_{start+1}.. of the block, or with
    `sums` false its steps, which are > 0 exactly where the walk goes forward.

    A trace gives slices of its own sums or +-1 signs. A spec runs the
    certified kernel into reused block buffers, so the walk is never held
    whole: its steps are the kernel's flags {0, 1}, and its sums come from
    `_sum_blocks`. The length is checked here, when the blocks are asked
    for, before the kernel runs.
    """
    _check_length(n)
    if isinstance(x, WalkTrace):
        if x.n < n:
            raise ValueError(f"trace has {x.n} steps, {n} requested")
        whole = x.sums if sums else x.signs
        return ((start, whole[start : min(start + _CHUNK, n)]) for start in range(0, n, _CHUNK))
    if not sums:
        return _indicator_blocks(x.rotation, 1, 2, n)
    out = np.empty(min(n, _CHUNK), dtype=np.int32)
    return ((start, block) for start, _, block in _sum_blocks(x.rotation, 1, 2, n, out))


def records(x: WalkTrace | WalkSpec, n: int) -> list[int]:
    """Indices whose value no earlier partial sum (nor S_0 = 0) attained.

    Index 0 counts as the first record. Steps are +-1, so the set of values
    seen so far is an integer interval and a record is exactly a new running
    maximum or minimum. The scan carries the running (hi, lo) from block to
    block; a block whose max and min stay inside [lo, hi] holds no record.
    """
    found = [np.zeros(1, dtype=np.int64)]
    hi = lo = 0
    for start, block in _walk_blocks(x, n):
        top, bottom = int(block.max()), int(block.min())
        if top > hi:
            found.append(start + 1 + _new_extremes(np.maximum, hi, block))
            hi = top
        if bottom < lo:
            found.append(start + 1 + _new_extremes(np.minimum, lo, block))
            lo = bottom
    return np.sort(np.concatenate(found)).tolist()


def _new_extremes(ufunc: np.ufunc, bound: int, block: np.ndarray) -> np.ndarray:
    """Positions in block where ufunc's running extreme, started at bound, moves."""
    run = ufunc.accumulate(np.concatenate(([bound], block)))
    return np.flatnonzero(run[1:] != run[:-1])


def zeros(x: WalkTrace | WalkSpec, n: int) -> list[int]:
    """Ascending indices m <= n with S_m = 0, starting with 0."""
    found = [0]
    for start, sums in _walk_blocks(x, n):
        found += (np.flatnonzero(sums == 0) + (start + 1)).tolist()
    return found


def _take_steps(out: np.ndarray, filled: int, start: int, mask: np.ndarray) -> int:
    """Write the 1-based step indices start + 1 + i of mask's set positions i
    into out[filled:], as many as fit; return the new fill."""
    idx = np.flatnonzero(mask)[: len(out) - filled]
    np.add(idx, start + 1, out=out[filled : filled + len(idx)])
    return filled + len(idx)


def ab_sequences(x: WalkTrace | WalkSpec, n: int) -> AbSequences:
    """Forward and backward step indices of the first n steps.

    a and b are each allocated once at their exact length and filled block
    by block. They partition the n steps and S_n = len(a) - len(b), so a
    trace gives their lengths from S_n; a spec counts the forward steps, its
    kernel flags, in a first pass of the kernel.
    """
    blocks = _walk_blocks(x, n, sums=False)
    if isinstance(x, WalkTrace):
        forward = (n + int(x.sums[n - 1])) // 2 if n else 0
    else:
        forward = sum(int(np.count_nonzero(steps > 0)) for _, steps in blocks)
        blocks = _walk_blocks(x, n, sums=False)
    a, b = np.empty(forward, dtype=np.int32), np.empty(n - forward, dtype=np.int32)
    for _ in _fill_ab(a, b, blocks):
        pass
    return AbSequences(a=a, b=b)


def _fill_ab(a: np.ndarray, b: np.ndarray, blocks):
    """Write each block's forward step indices into a and its backward ones
    into b while each has room; yield the two fills, first before any block
    is read and then after every block."""
    na = nb = 0
    yield na, nb
    for start, steps in blocks:
        forth = steps > 0
        if na < len(a):
            na = _take_steps(a, na, start, forth)
        if nb < len(b):
            nb = _take_steps(b, nb, start, np.logical_not(forth, out=forth))
        yield na, nb


def ab_terms(spec: WalkSpec, count: int, b_count: int | None = None) -> AbSequences:
    """First `count` terms of a and first `b_count` terms of b, by default
    `count` of each (walks as far as needed).

    Unlike ab_sequences, which partitions a fixed number of steps, this
    streams the walk until both sequences have their terms, and no further:
    a count of 0 for one of them walks only as far as the other needs. a
    and b partition the steps, so that takes at least count + b_count
    steps; a walk that would reach the engine's length bound raises
    ValueError.
    """
    if b_count is None:
        b_count = count
    if min(count, b_count) < 0:
        raise ValueError("term count must be >= 0")
    if count + b_count >= _MAX_STEPS:
        raise ValueError("walk length beyond engine range")
    a, b = np.empty(count, dtype=np.int32), np.empty(b_count, dtype=np.int32)
    for filled in _fill_ab(a, b, _walk_blocks(spec, _MAX_STEPS - 1, sums=False)):
        if filled == (count, b_count):
            return AbSequences(a=a, b=b)
    raise ValueError("walk length beyond engine range")


def diff_hits(spec: WalkSpec, k: int, bound: int) -> list[int]:
    """All n <= bound with b(n) - a(n) = k, ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seqs = ab_terms(spec, bound)
    # int32 terms lie in [1, 2^30), so their difference cannot wrap
    return (np.nonzero(seqs.b - seqs.a == k)[0] + 1).tolist()


# --- discrepancy ----------------------------------------------------------


def discrepancy(xi: QuadraticSurd, endpoint: Fraction, n: int) -> np.ndarray:
    """k*D_m for m = 1..n, where D_m counts visits of {j*xi} to [0, h/k).

    D_m = #{j <= m : {j xi} < h/k} - (h/k) m; the returned values are the
    exact integers k*D_m, as int32 when k*n < 2^31 and as int64 otherwise.
    Raises ValueError when k*n >= 2^63, past which int64 may not hold them.
    """
    _check_length(n)
    endpoint = Fraction(endpoint)
    h, k = endpoint.numerator, endpoint.denominator
    if not 0 < endpoint < 1:
        raise ValueError("interval endpoint must be in (0,1)")
    if xi.sign() <= 0 or xi >= 1:
        raise ValueError("rotation must lie in (0,1)")
    # each step k*flag - h lies in (-k, k), so |k*D_m| < k*m: int64 holds
    # every sum while k*n < 2^63, and int32 while k*n < 2^31
    if k * n >= 1 << 63:
        raise ValueError(
            f"k*D_m may overflow int64: endpoint denominator {k} times n = {n} reaches 2^63"
        )
    out = np.empty(n, dtype=np.int32 if k * n < 1 << 31 else np.int64)
    for _ in _sum_blocks(xi, h, k, n, out):  # k*D_m sums the steps k*flag - h
        pass
    return out


# --- identity checks -------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    even_denominators: list[int]
    identities_checked: int


def lemma_checks(spec: WalkSpec, depth: int) -> LemmaReport:
    """Verify the reflection, shift and surplus identities of the walk.

    For each of the first `depth` even denominators q of the rotation:
      * S_{q/2+k} = S_{q/2} - S_k for 0 <= k <= q/2,
      * a(q/2+j) = q + a(j) and b(q/2+j) = q + b(j) for 1 <= j <= q/2,
      * b((q+2m)/4) - a((q+2m)/4) = a(m) for the m-th even denominator, m > 1.

    Raises CheckFailed at the first counterexample.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    horizon = 8 * depth + 64
    dens = spec.cf.denominators_through(horizon - 1)[:horizon]
    evens = [q for q in dens if q % 2 == 0][:depth]
    if len(evens) < depth:
        raise ValueError(
            f"only {len(evens)} even denominators found; rotation {spec.rotation} "
            "does not have the even/odd alternation these identities need"
        )

    q_max = evens[-1]
    trace = brute_walk(spec, q_max + 1)
    s = np.concatenate([np.zeros(1, dtype=np.int64), trace.sums])
    seqs = ab_terms(spec, q_max)
    a, b = seqs.a, seqs.b
    checked = 0

    for q in evens:
        half = q // 2
        lhs = s[half : q + 1]
        rhs = s[half] - s[: half + 1]
        if not np.array_equal(lhs, rhs):
            k = int(np.nonzero(lhs != rhs)[0][0])
            raise CheckFailed(
                f"S_{{q/2+k}} = S_{{q/2}} - S_k fails at q={q}, k={k}: "
                f"{int(lhs[k])} != {int(rhs[k])}"
            )
        checked += half + 1
        for name, seq in (("a", a), ("b", b)):
            lhs = seq[half : q]
            rhs = q + seq[:half]  # int32: q and the terms are below 2^30
            if not np.array_equal(lhs, rhs):
                jj = int(np.nonzero(lhs != rhs)[0][0]) + 1
                raise CheckFailed(
                    f"{name}(q/2+j) = q + {name}(j) fails at q={q}, j={jj}"
                )
            checked += half

    for m in range(2, depth + 1):
        q = evens[m - 1]
        if (q + 2 * m) % 4:
            raise CheckFailed(f"(q+2m)/4 not an integer for m={m}, q={q}")
        idx = (q + 2 * m) // 4
        got = int(b[idx - 1] - a[idx - 1])
        want = int(a[m - 1])
        if got != want:
            raise CheckFailed(
                f"b({idx}) - a({idx}) = {got}, expected a({m}) = {want}"
            )
        checked += 1

    return LemmaReport(even_denominators=evens, identities_checked=checked)
