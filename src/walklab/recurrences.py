"""Record recurrences as data: rows of one table, run by one loop.

A row states its recurrence exactly: X_k = c_1 X_{k-1} + ... + c_r X_{k-r} + e,
with the rule (c, e) picked by k mod the number of rules, so one rule is a
constant-coefficient recurrence and several make a periodic system. No row
consults the walk engine, so the test suite can cross-validate the two
routes independently. The sqrt(3) system is experimental: it reproduces
the walk's records as far as anyone has looked, but is verified
empirically, never assumed.
"""

from __future__ import annotations

from typing import NamedTuple


class Recurrence(NamedTuple):
    first: int  # index of the first printed term, >= start
    start: int  # index of initial[0]
    initial: tuple[int, ...]  # at least as many terms as the longest rule reads
    rules: tuple[tuple[tuple[int, ...], int], ...]  # (c_1..c_r, e), by k mod len(rules)


RECURRENCES = {
    # Van de Lune's R_k, the record indices of the sqrt(2) walk, whose
    # consecutive record values alternate in sign
    "lune": Recurrence(0, 0, (0, 1), (((2, 1), 1),)),
    # Kotesovec: first index where the sqrt(2) walk reaches +m (A) or -m (B)
    "kotesovecA": Recurrence(0, 0, (0, 3), (((6, -1), 2),)),
    "kotesovecB": Recurrence(0, 0, (0, 1), (((6, -1), 2),)),
    # half the even-indexed Pell numbers, the records of the 2*sqrt(2) walk
    "halfpell": Recurrence(1, 1, (1, 6), (((6, -1), 0),)),
    # the four-step system conjectured for sqrt(3) records, t_j = 0 for j <= 0:
    #   t_{4k+1} = 2 t_{4k} + t_{4k-1} + 1      t_{4k+2} = t_{4k+1} + 2 t_{4k} + 1
    #   t_{4k+3} = t_{4k+2} + 2 t_{4k} + 1      t_{4k+4} = 2 t_{4k+3} + t_{4k} + 1
    "sqrt3": Recurrence(
        1, -3, (0, 0, 0, 0), (((2, 0, 0, 1), 1), ((2, 1), 1), ((1, 2), 1), ((1, 0, 2), 1))
    ),
}


def generate(name: str, n: int) -> list[int]:
    """X_first..X_n of the named row of RECURRENCES."""
    if name not in RECURRENCES:
        raise ValueError(f"unknown recurrence {name!r}")
    row = RECURRENCES[name]
    if n < row.first:
        raise ValueError(f"n must be >= {row.first}")
    # a rule as its nonzero (-lag, coefficient) pairs: the first starts the
    # term, each later one is one add (a +-1 coefficient multiplies nothing)
    steps = []
    for cs, e in row.rules:
        # a rule with no nonzero coefficient keeps one zero product: X_k = e
        pairs = [(-lag, c) for lag, c in enumerate(cs, 1) if c] or [(-1, 0)]
        steps.append((pairs[0], pairs[1:], e))
    terms = list(row.initial)
    for k in range(row.start + len(terms), n + 1):
        (lag, c), rest, e = steps[k % len(steps)]
        x = terms[lag] if c == 1 else c * terms[lag]
        for lag, c in rest:
            if c == 1:
                x += terms[lag]
            elif c == -1:
                x -= terms[lag]
            else:
                x += c * terms[lag]
        terms.append(x + e if e else x)
    return terms[row.first - row.start : n - row.start + 1]


def lune_records(n: int) -> list[int]:
    """R_0..R_n: 0, 1, 3, 8, 20, ..."""
    return generate("lune", n)


def kotesovec(n: int, side: str) -> list[int]:
    """X_0..X_n of side A (0, 3, 20, ...) or B (0, 1, 8, ...)."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be A or B, got {side!r}")
    return generate("kotesovec" + side, n)


def half_pell(n: int) -> list[int]:
    """Q_1..Q_n: 1, 6, 35, 204, ..."""
    return generate("halfpell", n)


def sqrt3_records(n: int) -> list[int]:
    """t_1..t_n: 1, 2, 3, 7, 18, ..."""
    return generate("sqrt3", n)
