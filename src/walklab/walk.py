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

The bulk paths (the indicator kernel, the running sums of `brute_walk` and
`discrepancy`, and the record scan) work one block of `_CHUNK` steps at a
time, carrying state from block to block, so their temporaries stay in the
L2 cache instead of streaming whole-length arrays through memory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qarith import ContinuedFraction, QuadraticSurd, cf_expand, floor_scaled, is_br


class NotBrNumber(ValueError):
    """The rules engine needs a BR rotation; this one is not."""


class CheckFailed(AssertionError):
    """A verified identity failed; carries the first counterexample."""


_SCALE = 62  # fixed-point bits for the certified step accumulator
# Steps per block of the bulk paths: a block's uint64/int64 temporaries
# (512 KiB each) fit in L2 together. 2^14..2^16 measure alike; 2^21 blocks
# were 3-5x slower.
_CHUNK = 1 << 16


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
    sums: np.ndarray  # int64, S_1..S_n
    signs: np.ndarray  # int8, the +-1 steps


@dataclass(frozen=True)
class AbSequences:
    """Indices of forward (a) and backward (b) steps; they partition 1..n."""

    a: np.ndarray
    b: np.ndarray


# --- certified indicator kernel -------------------------------------------


def _indicators(xi: QuadraticSurd, h: int, k: int, n: int, scale: int = _SCALE) -> np.ndarray:
    """int8 flags [{j*xi} < h/k] for j = 1..n, with xi in (0,1).

    With X = floor(xi * 2^scale), the scaled fractional part of j*xi lies in
    [r, r + j) where r = j*X mod 2^scale. The uint64 product j*X wraps mod
    2^64, and 2^scale divides 2^64, so masking it gives r exactly. Any j
    whose interval straddles the cut h*2^scale/k or wraps past 2^scale is
    decided by exact floors: {j xi} < h/k  <=>  floor(k j xi) - k floor(j xi) < h.
    The flags are computed one block of `_CHUNK` steps at a time.
    """
    if n >= 1 << 30:
        raise ValueError("walk length beyond engine range")
    x = np.uint64(floor_scaled(1 << scale, xi))
    mask = np.uint64((1 << scale) - 1)
    top = np.uint64(1 << scale)
    cut = np.uint64((h << scale) // k)
    step = np.uint64(_CHUNK)
    out = np.empty(n, dtype=np.int8)
    j = np.arange(1, min(n, _CHUNK) + 1, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        j = j[: n - start]  # the last block may be short
        r = j * x
        r &= mask
        hi_end = r + j
        sure_in = hi_end <= cut
        unsure = ~sure_in & ((r <= cut) | (hi_end >= top))
        block = out[start : start + len(j)]
        block[:] = sure_in
        for i in np.flatnonzero(unsure):
            m = int(j[i])
            block[i] = floor_scaled(k * m, xi) - k * floor_scaled(m, xi) < h
        j += step
    return out


def _running_sums(values: np.ndarray, scale: int = 1, offset: int = 0) -> np.ndarray:
    """int64 running sums of the steps scale*v - offset over int8 values v.

    Each block's steps are summed in place in the output, with the previous
    block's last sum carried into its first step.
    """
    out = np.empty(len(values), dtype=np.int64)
    carry = 0
    for start in range(0, len(values), _CHUNK):
        block = out[start : start + _CHUNK]
        block[:] = values[start : start + _CHUNK]
        if scale != 1:
            block *= scale
        if offset:
            block -= offset
        block[0] += carry
        np.cumsum(block, out=block)
        carry = int(block[-1])
    return out


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
    reads each step from the rotation's indicator of [0, 1/2).
    """
    if n < 1:
        raise ValueError("walk length must be >= 1")
    if exact:
        signs = _signs_exact(spec.theta, n)
    else:
        signs = _indicators(spec.rotation, 1, 2, n)
        signs *= 2  # in place: flags {0, 1} become steps {-1, +1}
        signs -= 1
    return WalkTrace(n=n, sums=_running_sums(signs), signs=signs)


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


def _trace_for(x: WalkTrace | WalkSpec, n: int) -> WalkTrace:
    if isinstance(x, WalkTrace):
        if x.n < n:
            raise ValueError(f"trace has {x.n} steps, {n} requested")
        return x
    return brute_walk(x, n)


def records(x: WalkTrace | WalkSpec, n: int) -> list[int]:
    """Indices whose value no earlier partial sum (nor S_0 = 0) attained.

    Index 0 counts as the first record. Steps are +-1, so the set of values
    seen so far is an integer interval and a record is exactly a new running
    maximum or minimum. The scan carries the running (hi, lo) from block to
    block; a block whose max and min stay inside [lo, hi] holds no record.
    """
    if n == 0:
        return [0]
    sums = _trace_for(x, n).sums[:n]
    found = [np.zeros(1, dtype=np.int64)]
    hi = lo = 0
    for start in range(0, n, _CHUNK):
        block = sums[start : start + _CHUNK]
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
    if n == 0:
        return [0]
    t = _trace_for(x, n)
    return [0] + (np.nonzero(t.sums[:n] == 0)[0] + 1).tolist()


def ab_sequences(x: WalkTrace | WalkSpec, n: int) -> AbSequences:
    t = _trace_for(x, n)
    signs = t.signs[:n]
    return AbSequences(
        a=np.nonzero(signs > 0)[0] + 1,
        b=np.nonzero(signs < 0)[0] + 1,
    )


def ab_terms(spec: WalkSpec, count: int) -> AbSequences:
    """First `count` terms of both a and b (walks as far as needed).

    Unlike ab_sequences, which partitions a fixed number of steps, this
    extends the walk until both sequences have `count` entries.
    """
    steps = 2 * count + 64
    while True:
        seqs = ab_sequences(spec, steps)
        if len(seqs.a) >= count and len(seqs.b) >= count:
            return AbSequences(a=seqs.a[:count], b=seqs.b[:count])
        steps *= 2


def diff_hits(spec: WalkSpec, k: int, bound: int) -> list[int]:
    """All n <= bound with b(n) - a(n) = k, ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seqs = ab_terms(spec, bound)
    return (np.nonzero(seqs.b - seqs.a == k)[0] + 1).tolist()


# --- discrepancy ----------------------------------------------------------


def discrepancy(xi: QuadraticSurd, endpoint: Fraction, n: int) -> np.ndarray:
    """k*D_m for m = 1..n, where D_m counts visits of {j*xi} to [0, h/k).

    D_m = #{j <= m : {j xi} < h/k} - (h/k) m; the returned values are the
    exact integers k*D_m.
    """
    endpoint = Fraction(endpoint)
    h, k = endpoint.numerator, endpoint.denominator
    if not 0 < endpoint < 1:
        raise ValueError("interval endpoint must be in (0,1)")
    if xi.sign() <= 0 or xi >= 1:
        raise ValueError("rotation must lie in (0,1)")
    # k*D_m is the running sum of the steps k*flag - h
    return _running_sums(_indicators(xi, h, k, n), k, h)


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
    evens = []
    for i in range(8 * depth + 64):
        if len(evens) == depth:
            break
        q = spec.cf.denominator(i)
        if q % 2 == 0:
            evens.append(q)
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
            rhs = q + seq[:half]
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
