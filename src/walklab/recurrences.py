"""Closed-form recurrence generators for walk records.

Each generator mirrors a stated recurrence exactly; none of them consults
the walk engine, so the test suite can cross-validate the two routes
independently. The sqrt(3) system is experimental: it reproduces the walk's
records as far as anyone has looked, but is verified empirically, never
assumed.
"""

from __future__ import annotations


def lune_records(n: int) -> list[int]:
    """R_0..R_n with R_{k+1} = 2 R_k + R_{k-1} + 1, R_0 = 0, R_1 = 1.

    These are the record indices of the sqrt(2) walk; consecutive record
    values alternate in sign.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = [0, 1]
    while len(terms) <= n:
        terms.append(2 * terms[-1] + terms[-2] + 1)
    return terms[: n + 1]


def kotesovec(n: int, side: str) -> list[int]:
    """First indices where the sqrt(2) walk reaches +m (side A) or -m (side B).

    Both sides satisfy X_{k+1} = 6 X_k - X_{k-1} + 2; A starts 0, 3 and
    B starts 0, 1.
    """
    starts = {"A": (0, 3), "B": (0, 1)}
    if side not in starts:
        raise ValueError(f"side must be A or B, got {side!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = list(starts[side])
    while len(terms) <= n:
        terms.append(6 * terms[-1] - terms[-2] + 2)
    return terms[: n + 1]


def half_pell(n: int) -> list[int]:
    """Q_1..Q_n: half the even-indexed Pell numbers, Q_{k+1} = 6 Q_k - Q_{k-1}.

    Record indices of the 2*sqrt(2) walk (1, 6, 35, 204, ...).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [1, 6]
    while len(terms) < n:
        terms.append(6 * terms[-1] - terms[-2])
    return terms[:n]


def sqrt3_records(n: int) -> list[int]:
    """t_1..t_n from the four-step system conjectured for sqrt(3) records.

        t_{4k+1} = 2 t_{4k}   + t_{4k-1} + 1
        t_{4k+2} =   t_{4k+1} + 2 t_{4k} + 1
        t_{4k+3} =   t_{4k+2} + 2 t_{4k} + 1
        t_{4k+4} = 2 t_{4k+3} + t_{4k}   + 1

    with t_j = 0 for j <= 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = {0: 0, -1: 0}
    j = 0
    while j < n:
        base = t[j]
        prev = t[j - 1]
        t[j + 1] = 2 * base + prev + 1
        t[j + 2] = t[j + 1] + 2 * base + 1
        t[j + 3] = t[j + 2] + 2 * base + 1
        t[j + 4] = 2 * t[j + 3] + base + 1
        j += 4
    return [t[i] for i in range(1, n + 1)]


GENERATORS = {
    "lune": lambda n: lune_records(n),
    "kotesovecA": lambda n: kotesovec(n, "A"),
    "kotesovecB": lambda n: kotesovec(n, "B"),
    "halfpell": lambda n: half_pell(n),
    "sqrt3": lambda n: sqrt3_records(n),
}


def generate(name: str, n: int) -> list[int]:
    if name not in GENERATORS:
        raise ValueError(f"unknown recurrence {name!r}")
    return GENERATORS[name](n)
