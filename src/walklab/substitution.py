"""Self-similarity of noble-mean rotations as substitutions.

A rotation by the adjusted noble mean xi_m (continued fraction [0; m, m, ...])
returns to the interval [0, 1-m*xi) as a rescaled copy of itself. For even m
the three-letter itinerary of that return map is a substitution whose coded
fixed point reproduces the half-circle indicator sequence of the rotation,
which is the step sequence of the doubled walk. Everything here is exact:
orbit points are surds and interval membership is decided by sign tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .qarith import CheckFailed, QuadraticSurd, noble_mean_adjusted

Point = Union[int, Fraction, QuadraticSurd]


class OddM(ValueError):
    """The three-interval substitution form needs an even noble index."""


class NotProlongable(ValueError):
    """sigma(seed) does not start with seed, so no fixed point grows from it."""


class NoReturn(RuntimeError):
    """Orbit failed to return within the iteration budget (signals a bug)."""


@dataclass(frozen=True)
class Substitution:
    """Letter-to-word map over {a, b, c} with a letter-to-bit coding."""

    words: Mapping[str, str]
    coding: Mapping[str, int]

    def apply(self, word: str) -> str:
        return "".join(self.words[ch] for ch in word)

    def code(self, word: str) -> str:
        return "".join(str(self.coding[ch]) for ch in word)

    def signs(self) -> dict[str, int]:
        """Coding as +-1 steps: bit 1 is a forward step."""
        return {ch: 2 * bit - 1 for ch, bit in self.coding.items()}


def noble_substitution(m: int) -> Substitution:
    """Return-map substitution and coding for the noble mean xi_m, m even.

    With k = m/2 the words are

        a -> a^{k+1} b^{k-1} c (a^k b^{k-1} c)^{m-1}
        b -> a^k b^k c (a^k b^{k-1} c)^{m-1}
        c -> a^k b^k c (a^k b^{k-1} c)^m

    coded a -> 1, b -> 0, c -> 0. Word lengths are the return times
    m^2 + 1, m^2 + 1 and m^2 + m + 1.
    """
    if m < 2 or m % 2:
        raise OddM(f"need even m >= 2, got {m}")
    k = m // 2
    block = "a" * k + "b" * (k - 1) + "c"
    words = {
        "a": "a" * (k + 1) + "b" * (k - 1) + "c" + block * (m - 1),
        "b": "a" * k + "b" * k + "c" + block * (m - 1),
        "c": "a" * k + "b" * k + "c" + block * m,
    }
    return Substitution(words=words, coding={"a": 1, "b": 0, "c": 0})


def golden_substitution() -> Substitution:
    """Return-map substitution for the golden rotation on [0, 5 - 8*xi_1).

    The coding sends both a and b to 1; the signed running sum of the c-word
    dips to -2, which is how the two-sidedness of the golden walk shows up.
    """
    return Substitution(
        words={
            "a": "acacbacaccacb",
            "b": "acacbacaccacbacaccacb",
            "c": "acaccacaccacbacaccacb",
        },
        coding={"a": 1, "b": 1, "c": 0},
    )


def fixed_point(sub: Substitution, seed: str = "a", length: int = 0) -> str:
    """First `length` letters of the substitution fixed point from `seed`.

    Expands a prefix repeatedly and truncates: the image of a fixed-point
    prefix is again a fixed-point prefix, so no full power of the
    substitution is ever materialized.
    """
    if not sub.words[seed].startswith(seed):
        raise NotProlongable(f"sigma({seed}) = {sub.words[seed]!r} does not start with {seed!r}")
    if length < 0:
        raise ValueError("prefix length must be >= 0")
    word = seed
    while len(word) < length:
        grown = sub.apply(word)
        if len(grown) <= len(word):
            raise NoReturn("substitution does not grow")
        word = grown[:length] if len(grown) > length else grown
    return word[:length]


def running_sum_extrema(word: str, signs: Mapping[str, int]) -> tuple[int, int, int]:
    """(min, max, final) of the nonempty prefix sums of a +-1 coded word."""
    total = lo = hi = 0
    for i, ch in enumerate(word):
        total += signs[ch]
        if i == 0:
            lo = hi = total
        else:
            lo = min(lo, total)
            hi = max(hi, total)
    return lo, hi, total


# --- empirical return map ---------------------------------------------------

_MAX_RETURN_STEPS = 10_000  # far past every return time m^2 + m + 1 checked


@dataclass(frozen=True)
class ReturnMapReport:
    start: Point
    interval: str  # which of a', b', c' contains the start point
    return_time: int
    itinerary: str


def return_map_empirical(m: int, points: Sequence[Point] | int = 100) -> list[ReturnMapReport]:
    """Iterate the rotation exactly until each sample returns to [0, 1-m*xi).

    Checks along the way that the observed return time, landing point and
    itinerary match the two-branch return map and the substitution words of
    the rescaled partition {a', b', c'}. Only even m is supported; the
    partition below is specific to that case. Raises CheckFailed at the
    first disagreement.
    """
    if m < 2 or m % 2:
        raise OddM(f"need even m >= 2, got {m}")
    xi = noble_mean_adjusted(m)
    k = m // 2
    interval_len = 1 - m * xi
    # circle partition: a = [0, 1/2), b = [1/2, 1-xi), c = [1-xi, 1)
    half, gap = Fraction(1, 2), 1 - xi
    boundaries = (half, gap, interval_len)
    cut_ab = half - k * xi  # a' ends here
    cut_bc = gap * interval_len  # b' ends here; equals (m+1)-(m^2+m+1)xi
    sub = noble_substitution(m)

    if isinstance(points, int):
        # odd numerators over an even denominator: no sample can be the
        # interval midpoint, whose forward orbit hits the boundary 1/2
        count = points
        points = [0] + [
            interval_len * Fraction(2 * t + 1, 2 * count) for t in range(count - 1)
        ]

    reports = []
    for x in points:
        if not (0 <= x < interval_len):
            raise ValueError(f"sample {x} outside [0, 1-m*xi)")
        if x < cut_ab:
            home = "a"
        elif x < cut_bc:
            home = "b"
        else:
            home = "c"

        itinerary = []
        y: Point = x
        steps = 0
        while True:
            for boundary in boundaries:
                if y == boundary:
                    raise CheckFailed(f"orbit hit partition boundary {boundary}")
            itinerary.append("a" if y < half else "b" if y < gap else "c")
            y = y + xi
            if y >= 1:
                y = y - 1
            steps += 1
            if y < interval_len:
                break
            if steps > _MAX_RETURN_STEPS:
                raise NoReturn(f"no return from {x} within {_MAX_RETURN_STEPS} steps")

        word = "".join(itinerary)
        expected_time = m * m + 1 if home in "ab" else m * m + m + 1
        if steps != expected_time:
            raise CheckFailed(
                f"return time {steps} from {home}' sample {x}, expected {expected_time}"
            )
        if word != sub.words[home]:
            raise CheckFailed(
                f"itinerary {word} from {home}' sample {x}, expected {sub.words[home]}"
            )
        landing = x + (m * m + 1) * xi - m if x < cut_bc else x + (m * m + m + 1) * xi - (m + 1)
        if y != landing:
            raise CheckFailed(f"landing {y} from {x} disagrees with branch formula {landing}")
        reports.append(
            ReturnMapReport(start=x, interval=home, return_time=steps, itinerary=word)
        )
    return reports
