import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.qarith import cf_expand, parse_surd
from walklab.recurrences import (
    RECURRENCES,
    Recurrence,
    generate,
    half_pell,
    kotesovec,
    lune_records,
    sqrt3_records,
)
from walklab.walk import brute_walk, records, walk_spec


def test_lune_start():
    assert lune_records(4) == [0, 1, 3, 8, 20]


def test_lune_next_term_by_rule():
    assert lune_records(5)[-1] == 2 * 20 + 8 + 1 == 49


def test_lune_cross_identity():
    r = lune_records(20)
    for n in range(2, 19):
        assert r[n + 2] == 6 * r[n] - r[n - 2] + 2


def test_lune_matches_walk_records():
    spec = walk_spec(parse_surd("sqrt2"))
    bound = 50000
    assert records(spec, bound) == [t for t in lune_records(20) if t <= bound]


def test_kotesovec_starts():
    assert kotesovec(2, "A") == [0, 3, 20]
    assert kotesovec(2, "B") == [0, 1, 8]
    assert kotesovec(3, "A")[-1] == 6 * 20 - 3 + 2 == 119
    assert kotesovec(3, "B")[-1] == 6 * 8 - 1 + 2 == 49


def test_kotesovec_split_of_records():
    # A_m / B_m are the first indices where the walk reaches +-m
    spec = walk_spec(parse_surd("sqrt2"))
    trace = brute_walk(spec, 50000)
    for side, sign in (("A", 1), ("B", -1)):
        for m, term in enumerate(kotesovec(8, side)):
            if m == 0 or term > 50000:
                continue
            assert trace.sums[term - 1] == sign * m
            assert not (trace.sums[: term - 1] == sign * m).any()


def test_kotesovec_bad_side():
    with pytest.raises(ValueError):
        kotesovec(3, "C")


def test_half_pell_values():
    assert half_pell(5) == [1, 6, 35, 204, 1189]
    assert half_pell(5)[-1] == 6 * 204 - 35


def test_half_pell_is_half_even_denominators():
    cf = cf_expand(parse_surd("sqrt2m1"))
    evens = [q for q in cf.denominators_up_to(10**9) if q % 2 == 0]
    assert half_pell(len(evens)) == [q // 2 for q in evens]


def test_half_pell_matches_walk():
    spec = walk_spec(parse_surd("2sqrt2"))
    bound = 50000
    assert records(spec, bound)[1:] == [t for t in half_pell(10) if t <= bound]


def test_sqrt3_printed_terms():
    assert sqrt3_records(13) == [
        1, 2, 3, 7, 18, 33, 48, 104, 257, 466, 675, 1455, 3586,
    ]


def test_sqrt3_block_rule():
    # t_4 = 2 t_3 + t_0 + 1 with t_0 = 0
    t = sqrt3_records(8)
    assert t[3] == 2 * t[2] + 0 + 1 == 7
    assert t[4] == 2 * t[3] + t[2] + 1 == 18
    assert t[7] == 2 * t[6] + t[3] + 1 == 104


def test_sqrt3_against_walk_is_consistent_so_far():
    # experimental comparison; report-style, not a proof
    spec = walk_spec(parse_surd("sqrt3"))
    bound = 50000
    mine = [t for t in sqrt3_records(25) if t <= bound]
    assert records(spec, bound)[1:] == mine


def test_generate_dispatch():
    assert generate("halfpell", 4) == [1, 6, 35, 204]
    assert generate("lune", 3) == lune_records(3)
    with pytest.raises(ValueError, match="unknown recurrence"):
        generate("fibonacci", 3)


def test_generate_before_first_index():
    for name, row in RECURRENCES.items():
        assert len(generate(name, row.first)) == 1
        with pytest.raises(ValueError, match=f"n must be >= {row.first}"):
            generate(name, row.first - 1)


def test_table_rows_as_stated():
    assert RECURRENCES["lune"] == Recurrence(0, 0, (0, 1), (((2, 1), 1),))
    assert RECURRENCES["kotesovecA"] == Recurrence(0, 0, (0, 3), (((6, -1), 2),))
    assert RECURRENCES["kotesovecB"] == Recurrence(0, 0, (0, 1), (((6, -1), 2),))
    assert RECURRENCES["halfpell"] == Recurrence(1, 1, (1, 6), (((6, -1), 0),))
    rules = (((2, 0, 0, 1), 1), ((2, 1), 1), ((1, 2), 1), ((1, 0, 2), 1))
    assert RECURRENCES["sqrt3"] == Recurrence(1, -3, (0, 0, 0, 0), rules)


def _stated_holds(name: str, x: dict[int, int], k: int) -> bool:
    """The recurrence for X_k as the literature states it, apart from the table."""
    if name == "lune":
        return x[k] == 2 * x[k - 1] + x[k - 2] + 1
    if name in ("kotesovecA", "kotesovecB"):
        return x[k] == 6 * x[k - 1] - x[k - 2] + 2
    if name == "halfpell":
        return x[k] == 6 * x[k - 1] - x[k - 2]
    j = 4 * ((k - 1) // 4)  # t_{j+1..j+4} hang off t_j, t_{j-1} and each other
    if k == j + 1:
        return x[k] == 2 * x[j] + x[j - 1] + 1
    if k == j + 2:
        return x[k] == x[j + 1] + 2 * x[j] + 1
    if k == j + 3:
        return x[k] == x[j + 2] + 2 * x[j] + 1
    return x[k] == 2 * x[j + 3] + x[j] + 1


SEEDS = {
    "lune": {0: 0, 1: 1},
    "kotesovecA": {0: 0, 1: 3},
    "kotesovecB": {0: 0, 1: 1},
    "halfpell": {1: 1, 2: 6},
    "sqrt3": {0: 0, -1: 0},
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SEEDS)), st.integers(min_value=0, max_value=300))
def test_rows_satisfy_stated_recurrences(name, n):
    first = 1 if name in ("halfpell", "sqrt3") else 0
    n = max(n, first)
    terms = generate(name, n)
    assert len(terms) == n - first + 1
    x = dict(SEEDS[name])  # the stated initial terms; sqrt3's are t_0 = t_{-1} = 0
    for k, v in enumerate(terms, start=first):
        assert x.setdefault(k, v) == v, (name, k)
    for k in range(max(SEEDS[name]) + 1, n + 1):
        assert _stated_holds(name, x, k), (name, k)


def test_terms_satisfy_rules_deep():
    r = lune_records(40)
    assert all(r[i + 1] == 2 * r[i] + r[i - 1] + 1 for i in range(1, 39))
    a = kotesovec(40, "A")
    assert all(a[i + 1] == 6 * a[i] - a[i - 1] + 2 for i in range(1, 39))
    q = half_pell(40)
    assert all(q[i + 1] == 6 * q[i] - q[i - 1] for i in range(1, 39))
    s = {j: v for j, v in enumerate(sqrt3_records(40), start=1)}
    s[0] = s[-1] = s[-2] = s[-3] = 0
    for k in range(0, 9):
        assert s[4 * k + 1] == 2 * s[4 * k] + s[4 * k - 1] + 1
        assert s[4 * k + 2] == s[4 * k + 1] + 2 * s[4 * k] + 1
        assert s[4 * k + 3] == s[4 * k + 2] + 2 * s[4 * k] + 1
        assert s[4 * k + 4] == 2 * s[4 * k + 3] + s[4 * k] + 1
