"""Exact arithmetic for real quadratic irrationals.

Values are surds (a + b*sqrt(d))/c held as arbitrary-precision integers, so
floors, comparisons and continued fractions are computed without any floating
point. Rationals are deliberately rejected at construction: everything
downstream (walks, numeration, automata) is defined for irrationals only.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction


class MixedRadicand(ValueError):
    """Arithmetic attempted between surds over different square roots."""


class NotIrrational(ValueError):
    """A rational value reached code that requires an irrational."""


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
    """Exact floor(b*sqrt(d)) for integer b and non-square d >= 2."""
    if b == 0:
        return 0
    r = math.isqrt(b * b * d)
    # b*b*d is never a perfect square (d squarefree > 1), so for negative b
    # the floor sits one below the negated truncation.
    return r if b > 0 else -r - 1


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
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(a, b), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", c)

    # --- ordering -----------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b > 0:
            if a >= 0:
                return 1
            # a < 0 < b: compare b*sqrt(d) with |a|
            return 1 if b * b * self.d > a * a else -1
        if a <= 0:
            return -1
        return -1 if b * b * self.d > a * a else 1

    def _diff_sign(self, other) -> int:
        delta = self - other
        if isinstance(delta, QuadraticSurd):
            return delta.sign()
        if delta == 0:
            return 0
        return 1 if delta > 0 else -1

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    # --- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> tuple[Fraction, Fraction] | None:
        """Return (rational part, sqrt coefficient) or None if unsupported."""
        if isinstance(x, QuadraticSurd):
            return Fraction(x.a, x.c), Fraction(x.b, x.c)
        if isinstance(x, (int, Fraction)):
            return Fraction(x), Fraction(0)
        return None

    def _wrap(self, r: Fraction, s: Fraction):
        """Rebuild (r + s*sqrt(d)); collapse to Fraction when s == 0."""
        if s == 0:
            return r if r.denominator != 1 else int(r)
        c = math.lcm(r.denominator, s.denominator)
        return QuadraticSurd(int(r * c), int(s * c), self.d, c)

    def _same_d(self, other):
        if isinstance(other, QuadraticSurd) and other.d != self.d:
            raise MixedRadicand(f"sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other):
        self._same_d(other)
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        r, s = parts
        return self._wrap(Fraction(self.a, self.c) + r, Fraction(self.b, self.c) + s)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.d, self.c)

    def __sub__(self, other):
        if isinstance(other, QuadraticSurd):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        self._same_d(other)
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        r, s = parts
        me_r, me_s = Fraction(self.a, self.c), Fraction(self.b, self.c)
        return self._wrap(me_r * r + me_s * s * self.d, me_r * s + me_s * r)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        # 1/((a+b*sqrt(d))/c) = c*(a-b*sqrt(d)) / (a^2 - b^2 d); the norm is
        # never zero because sqrt(d) is irrational and b != 0.
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadraticSurd(self.c * self.a, -self.c * self.b, self.d, norm)

    def __truediv__(self, other):
        self._same_d(other)
        if isinstance(other, QuadraticSurd):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    # --- floors and conversions ---------------------------------------

    def floor(self) -> int:
        # (a + floor(b*sqrt(d))) // c is exact: the fractional part of
        # b*sqrt(d) can never push the sum across the next multiple of c.
        return (self.a + isqrt_floor(self.b, self.d)) // self.c

    def fractional(self) -> "QuadraticSurd":
        return self - self.floor()

    def __float__(self):
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __str__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


def floor_scaled(j: int, xi: QuadraticSurd) -> int:
    """Exact floor(j * xi) for integer j >= 1, via integer square roots."""
    return (j * xi.a + isqrt_floor(j * xi.b, xi.d)) // xi.c


# --- continued fractions ----------------------------------------------


def _floor_pdq(p: int, dd: int, q: int) -> int:
    """floor((p + sqrt(dd)) / q) for non-square dd, q != 0 of either sign."""
    r = math.isqrt(dd)
    if q > 0:
        return (p + r) // q
    return (-p - r - 1) // (-q)


class ContinuedFraction:
    """Eventually periodic continued fraction with exact convergents.

    One cache holds a_n, p_n and q_n side by side; `_extend` is the only
    place it grows, on demand.
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
        self._p: list[int] = []  # cached p_n
        self._q: list[int] = []  # cached q_n, nondecreasing

    def quotient(self, i: int) -> int:
        """Partial quotient a_i (a_0 may be any integer, a_i >= 1 beyond)."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def _extend(self, n: int, bound: int = -1) -> None:
        """Grow the cache through index n, and on until the last q exceeds bound."""
        a, p, q = self._a, self._p, self._q
        i = len(q)
        if i > n and (bound < 0 or q[-1] > bound):
            return
        # p_{-1}/q_{-1} = 1/0 and p_{-2}/q_{-2} = 0/1 seed the recurrence
        p2, p1 = ([0, 1] + p[-2:])[-2:]
        q2, q1 = ([1, 0] + q[-2:])[-2:]
        pre, period = self.preperiod, self.period
        while i <= n or q1 <= bound:
            ai = pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            p1, p2 = ai * p1 + p2, p1
            q1, q2 = ai * q1 + q2, q1
            a.append(ai)
            p.append(p1)
            q.append(q1)
            i += 1

    def convergents(self, n: int) -> list[tuple[int, int]]:
        """The first n+1 convergents (p_0, q_0) .. (p_n, q_n)."""
        self._extend(n)
        return list(zip(self._p[: n + 1], self._q[: n + 1]))

    def denominator(self, n: int) -> int:
        self._extend(n)
        return self._q[n]

    def quotients_through(self, n: int) -> list[int]:
        """The cached a_0, a_1, ..., grown through a_n.

        This is the cache itself, shared by every caller: read it, never
        mutate it.
        """
        self._extend(n)
        return self._a

    def denominators_through(self, n: int) -> list[int]:
        """The cached q_0, q_1, ..., grown through q_n.

        This is the cache itself, shared by every caller: read it, never
        mutate it.
        """
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


def cf_expand(xi: QuadraticSurd, max_terms: int = 10**5) -> ContinuedFraction:
    """Continued fraction of a quadratic surd with exact period detection.

    Runs the classical (P + sqrt(D))/Q state recurrence; the state space is
    finite, so the first repeated state closes the minimal period.
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
    while len(quotients) < max_terms:
        key = (p, q)
        if key in seen:
            k = seen[key]
            return ContinuedFraction(quotients[:k], quotients[k:])
        seen[key] = len(quotients)
        ai = _floor_pdq(p, dd, q)
        quotients.append(ai)
        p = ai * q - p
        q = (dd - p * p) // q
    raise RuntimeError("period not found (state bound exceeded)")


def is_br(cf: ContinuedFraction) -> bool:
    """True iff every odd-indexed partial quotient is even.

    Equivalent to all odd-indexed convergent denominators q_{2n+1} being
    even; exactly the rotation numbers whose doubled walk stays nonnegative.
    Two periods are scanned so both parities of the period alignment are
    covered when the period length is odd.
    """
    horizon = len(cf.preperiod) + 2 * len(cf.period)
    return all(cf.quotient(i) % 2 == 0 for i in range(1, horizon + 1, 2))


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
