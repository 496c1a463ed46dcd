import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from walklab.qarith import noble_mean_adjusted
from walklab.substitution import (
    NoReturn,
    NotProlongable,
    OddM,
    Substitution,
    fixed_point,
    golden_substitution,
    noble_substitution,
    return_map_empirical,
    running_sum_extrema,
)
from walklab.walk import half_indicator


def rotation_bits(m_or_xi, length):
    xi = noble_mean_adjusted(m_or_xi) if isinstance(m_or_xi, int) else m_or_xi
    return "".join(str(half_indicator(xi, n)) for n in range(length))


def test_noble_m2_words():
    sub = noble_substitution(2)
    assert sub.words == {"a": "aacac", "b": "abcac", "c": "abcacac"}
    assert sub.coding == {"a": 1, "b": 0, "c": 0}


def test_noble_m2_coded_word():
    sub = noble_substitution(2)
    assert sub.code(sub.words["a"]) == "11010"
    assert rotation_bits(2, 5) == "11010"


def test_noble_word_lengths():
    for m in (2, 4, 6, 8, 10):
        sub = noble_substitution(m)
        assert len(sub.words["a"]) == m * m + 1
        assert len(sub.words["b"]) == m * m + 1
        assert len(sub.words["c"]) == m * m + m + 1
    assert len(noble_substitution(4).words["c"]) == 21


def test_noble_rejects_odd():
    with pytest.raises(OddM):
        noble_substitution(3)
    with pytest.raises(OddM):
        noble_substitution(0)


def test_golden_words_and_coding():
    sub = golden_substitution()
    assert sub.words["a"] == "acacbacaccacb"
    assert len(sub.words["a"]) == 13
    assert len(sub.words["b"]) == len(sub.words["c"]) == 21
    assert sub.coding == {"a": 1, "b": 1, "c": 0}


def test_fixed_point_prefix_property():
    sub = noble_substitution(2)
    long = fixed_point(sub, "a", 500)
    assert fixed_point(sub, "a", 120) == long[:120]
    assert fixed_point(sub, "a", 0) == ""
    with pytest.raises(ValueError, match="prefix length must be >= 0"):
        fixed_point(sub, "a", -1)


def test_fixed_point_coded_matches_rotation_m2():
    sub = noble_substitution(2)
    assert sub.code(fixed_point(sub, "a", 5)) == "11010"
    assert sub.code(fixed_point(sub, "a", 3000)) == rotation_bits(2, 3000)


def test_fixed_point_coded_matches_rotation_m4():
    sub = noble_substitution(4)
    assert sub.code(fixed_point(sub, "a", 3000)) == rotation_bits(4, 3000)


def test_fixed_point_coded_matches_rotation_golden():
    sub = golden_substitution()
    assert sub.code(fixed_point(sub, "a", 3000)) == rotation_bits(1, 3000)


def test_fixed_point_not_prolongable():
    sub = Substitution(words={"a": "ba", "b": "ab", "c": "c"}, coding={"a": 1, "b": 0, "c": 0})
    with pytest.raises(NotProlongable):
        fixed_point(sub, "a", 10)


def test_running_sums_noble():
    sub = noble_substitution(2)
    signs = sub.signs()
    assert running_sum_extrema(sub.words["a"], signs) == (1, 2, 1)
    assert running_sum_extrema(sub.words["b"], signs)[0] >= -1
    assert running_sum_extrema(sub.words["c"], signs)[0] >= -1


def test_running_sums_golden():
    sub = golden_substitution()
    signs = sub.signs()
    assert running_sum_extrema(sub.words["c"], signs)[0] == -2
    assert running_sum_extrema(sub.words["a"], signs)[0] >= 0
    assert running_sum_extrema(sub.words["b"], signs)[0] >= 0


def test_nonnegativity_transfer():
    for m in (2, 4):
        sub = noble_substitution(m)
        word = fixed_point(sub, "a", 20000)
        assert running_sum_extrema(word, sub.signs())[0] >= 0


def test_return_map_from_zero():
    report = return_map_empirical(2, [0])[0]
    assert report.interval == "a"
    assert report.return_time == 5
    assert report.itinerary == "aacac"


def test_return_map_c_interval():
    xi = noble_mean_adjusted(2)
    point = 1 - 2 * xi - Fraction(1, 1000)  # just below the right endpoint
    report = return_map_empirical(2, [point])[0]
    assert report.interval == "c"
    assert report.return_time == 7
    assert report.itinerary == "abcacac"


def test_return_map_hundred_points():
    for m in (2, 4):
        reports = return_map_empirical(m, 100)
        assert len(reports) == 100
        for r in reports:
            expected = m * m + m + 1 if r.interval == "c" else m * m + 1
            assert r.return_time == expected
            assert len(r.itinerary) == r.return_time


def test_return_map_first_reentry_from_zero_is_m2_plus_1():
    m = 4
    xi = noble_mean_adjusted(m)
    interval = 1 - m * xi
    y = 0
    steps = 0
    while True:
        y = y + xi
        if y >= 1:
            y = y - 1
        steps += 1
        if y < interval:
            break
    assert steps == m * m + 1


def test_return_map_rejects_outside_samples():
    with pytest.raises(ValueError):
        return_map_empirical(2, [Fraction(1, 2)])


def test_return_map_rejects_odd():
    with pytest.raises(OddM):
        return_map_empirical(3, 5)


CORRUPTED_WORD_RUN = """
import sys
from walklab import cli, substitution

real = substitution.noble_substitution

def corrupted(m):
    sub = real(m)
    words = dict(sub.words, a=sub.words["a"][::-1])
    return substitution.Substitution(words=words, coding=sub.coding)

substitution.noble_substitution = corrupted
sys.exit(cli.main(["verify", "--suite", "substitution", "--scale", "quick"]))
"""


def test_return_map_check_fails_under_optimize():
    # -O strips assert statements; the return-map verifier must not rely on them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_WORD_RUN],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if "substitution.return_map" in ln)
    assert line.startswith("FAIL") and "CheckFailed" in line, line
