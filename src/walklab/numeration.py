"""Ostrowski numeration over continued-fraction bases.

Every integer N >= 0 has a unique expansion N = sum b_i * q_i over the
convergent denominators q_i of an irrational base, subject to the digit
conditions

    (a) 0 <= b_0 < a_1,
    (b) 0 <= b_i <= a_{i+1} for i >= 1,
    (c) b_{i-1} = 0 whenever b_i = a_{i+1}.

Digits are stored least-significant first; text I/O defaults to most
significant first, which is how digit words are usually printed.
Pell numeration is the base sqrt(2)-1 special case.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Sequence

from .qarith import ContinuedFraction


class InvalidDigits(ValueError):
    """Digit word violates the Ostrowski digit conditions."""


class Validation(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_VALID = Validation(True)


def validate(digits: Sequence[int], base: ContinuedFraction) -> Validation:
    """Check digit conditions (a)-(c) on an lsd-first raw digit list.

    Returns a verdict carrying the first violation, never raises.
    """
    caps = base.quotients_through(len(digits))
    k = 0
    for b in digits:  # b = b_{k-1}, capped by a_k
        k += 1
        cap = caps[k]
        if 0 <= b < cap:
            continue  # meets (a)-(c) at this position
        i = k - 1
        if b < 0:
            return Validation(False, f"digit b_{i} = {b} is negative")
        if i == 0:
            return Validation(False, f"b_0 = {b} not below a_1 = {cap}")
        if b > cap:
            return Validation(False, f"b_{i} = {b} exceeds a_{i + 1} = {cap}")
        if digits[i - 1] != 0:
            return Validation(
                False, f"b_{i} = a_{i + 1} = {cap} but b_{i - 1} = {digits[i - 1]} != 0"
            )
    return _VALID


@dataclass(frozen=True)
class OstrowskiWord:
    """Canonical digit word (lsd-first, no most-significant zero).

    The public constructor validates: digits from outside the program
    (a raw list, `parse_digits`, the CLI) must meet (a)-(c) and have a
    nonzero top digit. `encode` builds its words through
    `_canonical_word` instead, since they are canonical by construction.
    """

    digits: tuple[int, ...]
    base: ContinuedFraction

    def __post_init__(self):
        verdict = validate(self.digits, self.base)
        if not verdict.ok:
            raise InvalidDigits(verdict.reason)
        if self.digits and self.digits[-1] == 0:
            raise InvalidDigits("most-significant digit is zero (non-canonical)")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return format_digits(self.digits, msd=True, alphabet=alphabet_size(self.base))


def _canonical_word(digits: tuple[int, ...], base: ContinuedFraction) -> OstrowskiWord:
    """An OstrowskiWord filled without `__post_init__`: for `encode` only,
    whose words need no validation."""
    word = object.__new__(OstrowskiWord)
    fields = word.__dict__
    fields["digits"] = digits
    fields["base"] = base
    return word


def encode(n: int, base: ContinuedFraction) -> OstrowskiWord:
    """Greedy most-significant-first expansion of n >= 0.

    rem < q_{i+1} = a_{i+1} q_i + q_{i-1} on entry to place i, so the digit
    rem // q_i never exceeds a_{i+1}, and small quotients make small digits
    the common case. So a place subtracts q_i up to three times and divides
    once only for a digit of 4 or more: a base whose quotients are all
    <= 3 (Pell, for one) never divides. Subtracting beats dividing on the
    near-equal huge operands of a deep index, and a third subtraction
    keeps small ints on the quotient-4 bases, whose digits are mostly 1 to
    3, as fast as dividing.

    The word is canonical by construction, so it skips validation:
    rem < q_{i+1} on entry to place i gives b_i <= a_{i+1} (b); b_i =
    a_{i+1} leaves rem < q_{i+1} - a_{i+1} q_i = q_{i-1}, so b_{i-1} = 0
    (c); b_0 = rem < q_1 = a_1 (a); and bisect_right makes the top digit
    at least 1.
    """
    if n < 0:
        raise ValueError("cannot encode a negative integer")
    if n == 0:
        return _canonical_word((), base)
    dens = base.denominators_past(n)
    top = bisect_right(dens, n)  # q_0 .. q_{top-1} are the place values <= n
    digits = [0] * top
    rem = n
    for i in range(top - 1, -1, -1):
        q = dens[i]
        if rem >= q:
            rem -= q
            if rem < q:
                digits[i] = 1
                continue
            rem -= q
            if rem < q:
                digits[i] = 2
                continue
            rem -= q
            if rem < q:
                digits[i] = 3
            else:
                b, rem = divmod(rem, q)
                digits[i] = b + 3
    if rem:
        raise RuntimeError(f"greedy expansion of {n} left a remainder {rem}")
    return _canonical_word(tuple(digits), base)


_LONG_WORD = 2048  # words with more places than this are summed chunk by chunk
_CHUNK = 64  # fewest places per chunk; a longer cycle keeps the direct sum


def decode(word: OstrowskiWord | Sequence[int], base: ContinuedFraction | None = None) -> int:
    """Value sum b_i * q_i of a digit word; validates raw digit lists.

    A word of up to _LONG_WORD places is the direct sum, one big product
    per place. A longer word over a base whose `cycle()` fits in a chunk
    goes through `_chunked_sum`: one big multiply-add per chunk of at
    least _CHUNK places instead of one per place.
    """
    if isinstance(word, OstrowskiWord):
        digits = word.digits
        base = word.base
    else:
        if base is None:
            raise TypeError("raw digit lists need an explicit base")
        verdict = validate(word, base)
        if not verdict:
            raise InvalidDigits(verdict.reason)
        digits = tuple(word)
    places = len(digits)
    if places > _LONG_WORD:
        start, length = base.cycle()
        if length <= _CHUNK:  # w: the least multiple of the cycle >= _CHUNK
            return _chunked_sum(digits, base, max(start, 1), -(-_CHUNK // length) * length)
    return sum(map(mul, digits, base.denominators_through(places - 1)))


def _chunked_sum(digits: Sequence[int], base: ContinuedFraction, lo: int, w: int) -> int:
    """sum b_i * q_i with one big multiply-add per w places from place lo on.

    lo = max(start, 1) and w is a multiple of the cycle, so q_{lo-1} exists
    and a_{i+w} = a_i for every i > lo. So every chunk start c = lo + t*w
    has q_{c+j} = x_j q_c + y_j q_{c-1} with the same coefficients x_j, y_j
    (j < w), built here once per call from a_{lo+1..lo+w-1}. A chunk then
    costs two small-int dot products and two big products.
    """
    a = base.quotients_through(lo + w)
    dens = base.denominators_through(len(digits) - 1)
    xs, ys = [1], [0]
    x, x0, y, y0 = 1, 0, 0, 1  # (x_j, x_{j-1}) and (y_j, y_{j-1}) at j = 0
    for j in range(lo + 1, lo + w):
        x, x0 = a[j] * x + x0, x
        y, y0 = a[j] * y + y0, y
        xs.append(x)
        ys.append(y)
    total = sum(map(mul, digits[:lo], dens))
    for c in range(lo, len(digits), w):
        chunk = digits[c : c + w]
        total += sum(map(mul, chunk, xs)) * dens[c] + sum(map(mul, chunk, ys)) * dens[c - 1]
    return total


def pell_number(n: int) -> int:
    """P_0 = 0, P_1 = 1, P_{n+1} = 2 P_n + P_{n-1}.

    Indexing note: P_n = q_{n-1} for the convergent denominators of
    sqrt(2)-1, so statements quoted against P-indexing shift by one.
    """
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


# --- digit word text format ---------------------------------------------


def alphabet_size(base: ContinuedFraction) -> int:
    """Largest digit + 1 over the base: the largest quotient cap a_i, i >= 1,
    read through one `cycle()` past the preperiod."""
    start, length = base.cycle()
    return max(base.quotient(i) for i in range(1, start + length + 1)) + 1


def format_digits(digits: Sequence[int], msd: bool = True, alphabet: int | None = None) -> str:
    """Digits concatenated for alphabets within 0..9, comma-separated beyond.

    Without an explicit alphabet the choice is inferred from the digits
    themselves; pass the base's alphabet to keep single-digit wide words
    unambiguous.
    """
    seq = list(reversed(digits)) if msd else list(digits)
    wide = alphabet > 10 if alphabet is not None else any(b > 9 for b in seq)
    if wide:
        return ",".join(str(b) for b in seq)
    return "".join(str(b) for b in seq)


def parse_digits(text: str, msd: bool = True, alphabet: int | None = None) -> tuple[int, ...]:
    """Inverse of format_digits; returns lsd-first digits."""
    text = text.strip()
    if not text:
        return ()
    wide = alphabet > 10 if alphabet is not None else "," in text
    if wide:
        seq = [int(p) for p in text.split(",")]
    else:
        seq = [int(ch) for ch in text]
    if msd:
        seq.reverse()
    return tuple(seq)
