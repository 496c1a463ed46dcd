"""Exact arithmetic for real quadratic irrationals.

Values are surds (a + b*sqrt(d))/c held as arbitrary-precision integers, so
floors, comparisons and continued fractions are computed without any floating
point. Arithmetic stays on integer triples (a, b, c): an int or Fraction
operand enters as (n, 0, m), each operator is a cross-multiplication formula,
a comparison reads one integer sign of the cross-multiplied difference, and
only a result with b == 0 leaves as an int or Fraction. Rationals are
deliberately rejected at construction: everything downstream (walks,
numeration, automata) is defined for irrationals only.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction


class MixedRadicand(ValueError):
    """Arithmetic attempted between surds over different square roots."""


class NotIrrational(ValueError):
    """A rational value reached code that requires an irrational."""


class CheckFailed(AssertionError):
    """A verified identity failed; carries the first counterexample."""


def _squarefree_split(d: int) -> tuple[int, int]:
    # d = square * squarefree; trial division is plenty for the radicands here
    square, free = 1, 1
    p = 2
    while p * p <= d:
        exp = 0
        while d % p == 0:
            d //= p
            exp += 1
        square *= p ** (exp // 2)
        if exp % 2:
            free *= p
        p += 1 if p == 2 else 2
    return square, free * d


def isqrt_floor(b: int, d: int) -> int:
    """Exact floor(b*sqrt(d)) for integer b and any non-square d >= 2,
    squarefree or not."""
    if b == 0:
        return 0
    r = math.isqrt(b * b * d)
    # b*b*d is never a perfect square (d is not one and b != 0), so for
    # negative b the floor sits one below the negated truncation.
    return r if b > 0 else -r - 1


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and squarefree d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    # with opposite signs the larger square wins; b*b*d == a*a cannot
    # happen because sqrt(d) is irrational
    if a * sb >= 0 or b * b * d > a * a:
        return sb
    return -sb


def _fill(surd: "QuadraticSurd", a: int, b: int, d: int, c: int) -> None:
    """Set the fields of a surd to (a + b*sqrt(d))/c in lowest terms with
    c > 0; d must already be squarefree and c nonzero."""
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    object.__setattr__(surd, "a", a)
    object.__setattr__(surd, "b", b)
    object.__setattr__(surd, "d", d)
    object.__setattr__(surd, "c", c)


@dataclass(frozen=True)
class QuadraticSurd:
    """(a + b*sqrt(d))/c with gcd(a,b,c)=1, c>0, d squarefree, b != 0."""

    a: int
    b: int
    d: int
    c: int = 1

    def __post_init__(self):
        a, b, d, c = self.a, self.b, self.d, self.c
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 1:
            raise ValueError(f"radicand must be positive, got {d}")
        square, free = _squarefree_split(d)
        if free == 1 or b == 0:
            raise NotIrrational(f"({a}+{b}*sqrt({d}))/{c} is rational")
        if square > 1:
            b *= square
            d = free
        _fill(self, a, b, d, c)

    # --- ordering -----------------------------------------------------

    def sign(self) -> int:
        return _sign(self.a, self.b, self.d)

    def _compare(self, other, holds):
        """holds(sign of self - other, 0), read off the cross-multiplied difference."""
        t = self._operand(other)
        if t is None:
            return NotImplemented
        a, b, c = t
        return holds(_sign(self.a * c - a * self.c, self.b * c - b * self.c, self.d), 0)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    # --- arithmetic ---------------------------------------------------

    def _operand(self, x) -> tuple[int, int, int] | None:
        """(a, b, c) with x = (a + b*sqrt(d))/c and c > 0, or None if unsupported."""
        if isinstance(x, QuadraticSurd):
            if x.d != self.d:
                raise MixedRadicand(f"sqrt({self.d}) vs sqrt({x.d})")
            return x.a, x.b, x.c
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return None

    def _result(self, a: int, b: int, c: int):
        """(a + b*sqrt(d))/c as a surd, or as an int or Fraction when b == 0.

        d is this surd's own, already squarefree, so a surd result skips
        the radicand split of `__post_init__` and keeps its sign fix and
        gcd. c != 0 here.
        """
        if b:
            surd = object.__new__(QuadraticSurd)
            _fill(surd, a, b, self.d, c)
            return surd
        q, r = divmod(a, c)
        return Fraction(a, c) if r else q

    def _quotient(self, num: tuple[int, int, int], den: tuple[int, int, int]):
        # multiply through by the denominator's conjugate; its norm is 0 only for 0
        (a1, b1, c1), (a2, b2, c2) = num, den
        d = self.d
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return self._result((a1 * a2 - b1 * b2 * d) * c2, (b1 * a2 - a1 * b2) * c2, c1 * norm)

    def __add__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        a, b, c = t
        return self._result(self.a * c + a * self.c, self.b * c + b * self.c, self.c * c)

    __radd__ = __add__

    def __neg__(self):
        return self._result(-self.a, -self.b, self.c)

    def __sub__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        a, b, c = t
        return self._result(self.a * c - a * self.c, self.b * c - b * self.c, self.c * c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        a, b, c = t
        return self._result(self.a * a + self.b * b * self.d, self.a * b + self.b * a, self.c * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        return self._quotient((1, 0, 1), (self.a, self.b, self.c))

    def __truediv__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return self._quotient((self.a, self.b, self.c), t)

    def __rtruediv__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return self._quotient(t, (self.a, self.b, self.c))

    # --- floors and conversions ---------------------------------------

    def floor(self) -> int:
        # (a + floor(b*sqrt(d))) // c is exact: the fractional part of
        # b*sqrt(d) can never push the sum across the next multiple of c.
        return (self.a + isqrt_floor(self.b, self.d)) // self.c

    def fractional(self) -> "QuadraticSurd":
        return self - self.floor()

    def __str__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


def floor_scaled(j: int, xi: QuadraticSurd) -> int:
    """Exact floor(j * xi) for integer j >= 1, via integer square roots."""
    return (j * xi.a + isqrt_floor(j * xi.b, xi.d)) // xi.c


# --- continued fractions ----------------------------------------------

_MAX_CF_TERMS = 10**5  # longest period cf_expand searches for; legal surds can exceed it


class ContinuedFraction:
    """Eventually periodic continued fraction: its quotients and denominators.

    One cache holds a_n and q_n side by side; `_extend` is the only place it
    grows, on demand.
    """

    def __init__(self, preperiod, period):
        self.preperiod = tuple(int(x) for x in preperiod)
        self.period = tuple(int(x) for x in period)
        if not self.period:
            raise ValueError("period must be nonempty")
        for i, q in enumerate(self.preperiod[1:] + self.period):
            if q < 1:
                raise ValueError(f"partial quotient #{i + 1} is {q} < 1")
        self._a: list[int] = []  # cached a_n
        self._q: list[int] = []  # cached q_n, nondecreasing

    def quotient(self, i: int) -> int:
        """Partial quotient a_i (a_0 may be any integer, a_i >= 1 beyond)."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def cycle(self) -> tuple[int, int]:
        """(start, length): a_{i+length} = a_i for every i >= start, and
        length is the period doubled when odd, so index parity repeats too."""
        length = len(self.period)
        return len(self.preperiod), length * (1 + length % 2)

    def _extend(self, n: int, bound: int = -1) -> None:
        """Grow the cache through index n, and on until the last q exceeds bound."""
        a, q = self._a, self._q
        i = len(q)
        if i > n and (bound < 0 or q[-1] > bound):
            return
        # q_{-1} = 0 and q_{-2} = 1 seed the recurrence
        q2, q1 = ([1, 0] + q[-2:])[-2:]
        pre, period = self.preperiod, self.period
        while i <= n or q1 <= bound:
            ai = pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            q1, q2 = ai * q1 + q2, q1
            a.append(ai)
            q.append(q1)
            i += 1

    def quotients_through(self, n: int) -> list[int]:
        """The cached a_0, a_1, ..., grown through a_n.

        This is the cache itself, shared by every caller: read it, never
        mutate it.
        """
        if len(self._a) <= n:
            self._extend(n)
        return self._a

    def denominators_through(self, n: int) -> list[int]:
        """The cached q_0, q_1, ..., grown through q_n.

        This is the cache itself, shared by every caller: read it, never
        mutate it.
        """
        if len(self._q) <= n:
            self._extend(n)
        return self._q

    def denominators_past(self, bound: int) -> list[int]:
        """The cached q_0, q_1, ..., grown until the last exceeds bound.

        This is the cache itself, shared by every caller: read it, never
        mutate it.
        """
        q = self._q
        if not q or q[-1] <= bound:
            self._extend(0, bound)
        return q

    def denominators_up_to(self, bound: int) -> list[int]:
        """All convergent denominators q_n <= bound, in index order."""
        q = self.denominators_past(bound)
        return q[: bisect_right(q, bound)]

    def __repr__(self):
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"CF[{pre};({per})*]"


def cf_expand(xi: QuadraticSurd) -> ContinuedFraction:
    """Continued fraction of a quadratic surd with exact period detection.

    Runs the classical (P + sqrt(D))/Q state recurrence; the state space is
    finite, so the first repeated state closes the minimal period. Raises
    ValueError when no state repeats within _MAX_CF_TERMS quotients.
    """
    if xi.b > 0:
        p, dd, q = xi.a, xi.b * xi.b * xi.d, xi.c
    else:
        p, dd, q = -xi.a, xi.b * xi.b * xi.d, -xi.c
    if (dd - p * p) % q != 0:
        g = abs(q)
        p, dd, q = p * g, dd * g * g, q * g

    quotients: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while len(quotients) < _MAX_CF_TERMS:
        key = (p, q)
        if key in seen:
            k = seen[key]
            return ContinuedFraction(quotients[:k], quotients[k:])
        seen[key] = len(quotients)
        # floor((p + sqrt(dd)) / q) for q of either sign: dd is never a square
        s = 1 if q > 0 else -1
        ai = (s * p + isqrt_floor(s, dd)) // (s * q)
        quotients.append(ai)
        p = ai * q - p
        q = (dd - p * p) // q
    raise ValueError(
        f"continued fraction of {xi} does not repeat within {_MAX_CF_TERMS} terms"
    )


class NotBrNumber(ValueError):
    """A construction that needs a BR rotation was given one that is not."""


def is_br(cf: ContinuedFraction) -> bool:
    """True iff every odd-indexed partial quotient is even.

    Equivalent to all odd-indexed convergent denominators q_{2n+1} being
    even; exactly the rotation numbers whose doubled walk stays nonnegative.
    The indices through one `cycle()` past the preperiod cover every
    (quotient, parity) pair that recurs.
    """
    start, length = cf.cycle()
    return all(cf.quotient(i) % 2 == 0 for i in range(1, start + length, 2))


# --- literals ----------------------------------------------------------

_LITERAL = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)
_XI = re.compile(r"^xi(\d+)$")

NAMED_SURDS = {
    "sqrt2": (0, 1, 2, 1),
    "2sqrt2": (0, 2, 2, 1),
    "sqrt3": (0, 1, 3, 1),
    "sqrt5": (0, 1, 5, 1),
    "sqrt2m1": (-1, 1, 2, 1),
    "sqrt2m1over2": (-1, 1, 2, 2),
    "silver": (1, 1, 2, 1),
    "golden": (1, 1, 5, 2),
    "sqrt3over2": (0, 1, 3, 2),
}


def noble_mean_adjusted(m: int) -> QuadraticSurd:
    """xi_m = (sqrt(m^2+4) - m)/2, the fractional part of [m; m, m, ...]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return QuadraticSurd(-m, 1, m * m + 4, 2)


def parse_surd(text: str) -> QuadraticSurd:
    """Parse `(a+b*sqrt(d))/c`, a named shorthand, or `xi<m>`."""
    text = text.strip()
    if text in NAMED_SURDS:
        return QuadraticSurd(*NAMED_SURDS[text])
    m = _XI.match(text)
    if m:
        return noble_mean_adjusted(int(m.group(1)))
    m = _LITERAL.match(text)
    if m:
        a, op, b, d, c = m.groups()
        b = int(b) if op == "+" else -int(b)
        return QuadraticSurd(int(a), b, int(d), int(c))
    raise ValueError(f"cannot parse surd literal {text!r}")
