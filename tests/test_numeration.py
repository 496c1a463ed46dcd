import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.numeration import (
    alphabet_size,
    InvalidDigits,
    OstrowskiWord,
    decode,
    encode,
    format_digits,
    parse_digits,
    pell_number,
    validate,
)
from walklab.qarith import cf_expand, parse_surd

PELL = cf_expand(parse_surd("sqrt2m1"))
HALF = cf_expand(parse_surd("sqrt2m1over2"))
SQRT3_HALF = cf_expand(parse_surd("sqrt3over2"))
GOLDEN = cf_expand((parse_surd("sqrt5") - 1) / 2)
BASES = [PELL, HALF, SQRT3_HALF, GOLDEN]


def all_valid_words(base, bound):
    """Every canonical digit word with value <= bound, by exhaustive search.

    Enumerates raw digit vectors over all place values up to the bound, then
    strips most-significant zeros; each canonical word appears exactly once.
    """
    dens = base.denominators_up_to(bound)
    found = []

    def grow(i, total, digits):
        if i == len(dens):
            while digits and digits[-1] == 0:
                digits = digits[:-1]
            if validate(digits, base):
                found.append((total, tuple(digits)))
            return
        cap = base.quotient(i + 1) - (1 if i == 0 else 0)
        for b in range(cap + 1):
            if total + b * dens[i] > bound:
                break
            grow(i + 1, total + b * dens[i], digits + [b])

    grow(0, 0, [])
    return found


def test_encode_69_in_pell():
    assert str(encode(69, PELL)) == "20201"


def test_encode_zero_is_empty():
    word = encode(0, PELL)
    assert word.digits == () and str(word) == ""


def test_encode_100():
    # independent route: the unique valid word summing to 100 is 70+29+1
    matches = [w for total, w in all_valid_words(PELL, 100) if total == 100]
    assert matches == [(1, 0, 0, 0, 1, 1)]
    assert str(encode(100, PELL)) == "110001"


def test_decode_examples():
    assert decode(parse_digits("10"), PELL) == 2
    assert decode(parse_digits("100000"), PELL) == 70
    assert decode((), PELL) == 0


def test_validate_condition_c():
    verdict = validate(parse_digits("21"), PELL)
    assert not verdict and verdict.reason == "b_1 = a_2 = 2 but b_0 = 1 != 0"


def test_validate_condition_a():
    verdict = validate(parse_digits("2"), PELL)
    assert not verdict and verdict.reason == "b_0 = 2 not below a_1 = 2"


# sqrt(3)/2 = [0; 1, (6, 2)*]: the caps a_1..a_4 = 1, 6, 2, 6 are told apart
# by value, so an index shifted by one shows in the reason
@pytest.mark.parametrize(
    "base, digits, reason",
    [
        (PELL, (1, -1), "digit b_1 = -1 is negative"),
        (SQRT3_HALF, (0, 0, -1), "digit b_2 = -1 is negative"),
        (SQRT3_HALF, (1,), "b_0 = 1 not below a_1 = 1"),
        (PELL, (0, 3), "b_1 = 3 exceeds a_2 = 2"),
        (SQRT3_HALF, (0, 7), "b_1 = 7 exceeds a_2 = 6"),
        (SQRT3_HALF, (0, 0, 3), "b_2 = 3 exceeds a_3 = 2"),
        (SQRT3_HALF, (0, 1, 2), "b_2 = a_3 = 2 but b_1 = 1 != 0"),
        (SQRT3_HALF, (0, 0, 0, 7), "b_3 = 7 exceeds a_4 = 6"),
        (SQRT3_HALF, (0, 0, 1, 6), "b_3 = a_4 = 6 but b_2 = 1 != 0"),
    ],
)
def test_validate_reasons_verbatim(base, digits, reason):
    verdict = validate(digits, base)
    assert not verdict and verdict.reason == reason
    with pytest.raises(InvalidDigits) as raised:
        decode(list(digits), base)
    assert str(raised.value) == reason
    with pytest.raises(InvalidDigits) as raised:
        OstrowskiWord(digits, base)
    assert str(raised.value) == reason


def test_validate_first_violation_wins():
    # b_1 exceeds its cap and b_3 is negative: the lower position is reported
    verdict = validate((0, 7, 0, -1), SQRT3_HALF)
    assert verdict.reason == "b_1 = 7 exceeds a_2 = 6"
    assert validate((0, 6, 0, 2), SQRT3_HALF)  # b_1 = a_2 after b_0 = 0 is fine


def test_validate_worked_example():
    assert validate(parse_digits("20201"), PELL)


def test_invalid_digits_raise_on_decode():
    with pytest.raises(InvalidDigits):
        decode(parse_digits("21"), PELL)
    with pytest.raises(InvalidDigits):
        OstrowskiWord((1, 2), PELL)


def test_canonical_word_rejects_trailing_zero():
    with pytest.raises(InvalidDigits) as raised:
        OstrowskiWord((1, 0), PELL)  # msd "01"
    assert str(raised.value) == "most-significant digit is zero (non-canonical)"


def reference_digits(n, base):
    """Greedy expansion one digit at a time from quotient() and denominator()."""
    top = 0
    while base.denominator(top) <= n:
        top += 1
    digits = [0] * top
    rem = n
    for i in range(top - 1, -1, -1):
        b = rem // base.denominator(i)
        if i > 0:
            b = min(b, base.quotient(i + 1))
        digits[i] = b
        rem -= b * base.denominator(i)
    assert rem == 0
    return tuple(digits)


def reference_value(digits, base):
    return sum(b * base.denominator(i) for i, b in enumerate(digits))


@pytest.mark.parametrize("name", ["sqrt2m1", "sqrt2m1over2", "sqrt3over2", "xi4"])
def test_encode_decode_match_per_digit_reference(name):
    base = cf_expand(parse_surd(name))
    for n in range(2**14 + 1):
        digits = encode(n, base).digits
        assert digits == reference_digits(n, base), (name, n)
        assert decode(encode(n, base)) == n == reference_value(digits, base)
        assert decode(list(digits), base) == n


@pytest.mark.parametrize("exponent", [300, 1000])
def test_deep_encode_matches_reference_and_cache(exponent):
    pell = cf_expand(parse_surd("sqrt2m1"))
    n = 10**exponent + 12345
    word = encode(n, pell)
    assert word.digits == reference_digits(n, pell)
    assert decode(word) == n == reference_value(word.digits, pell)
    assert decode(list(word.digits), pell) == n
    # the quotient cache grows alongside the denominators and agrees with both
    a = pell.quotients_through(0)
    q = pell.denominators_through(0)
    assert len(a) == len(q) > len(word.digits)
    assert all(a[i] == pell.quotient(i) for i in range(len(a)))
    assert q[:2] == [1, a[1]]
    assert all(q[i] == a[i] * q[i - 1] + q[i - 2] for i in range(2, len(q)))
    # and so do the numerators, grown in the same loop
    p = pell._p
    assert len(p) == len(q) and p[:2] == [a[0], a[1] * a[0] + 1]
    assert all(p[i] == a[i] * p[i - 1] + p[i - 2] for i in range(2, len(p)))
    assert all(p[i] * q[i - 1] - p[i - 1] * q[i] == (-1) ** (i - 1) for i in range(1, len(p)))


def test_roundtrip_small_all_bases():
    for base in BASES:
        for n in range(3000):
            assert decode(encode(n, base)) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_large_random(n):
    assert decode(encode(n, PELL)) == n
    assert decode(encode(n, HALF)) == n


def test_uniqueness_exhaustive():
    bound = 500
    for base in BASES:
        words = all_valid_words(base, bound)
        values = sorted(total for total, _ in words)
        assert values == list(range(bound + 1)), f"uniqueness fails for {base}"


def test_order_compatible_with_value():
    bound = 10**4
    for base in (PELL, SQRT3_HALF):
        words = [encode(n, base).msd() for n in range(bound + 1)]
        width = max(len(w) for w in words)
        padded = [(0,) * (width - len(w)) + w for w in words]
        assert padded == sorted(padded)


def test_pell_alphabet_and_greedy_cap():
    # base sqrt(2)-1 digits stay in {0,1,2}; a 2 forces the next digit to 0
    for n in range(2000):
        digits = encode(n, PELL).digits
        assert all(0 <= b <= 2 for b in digits)
        for i in range(1, len(digits)):
            if digits[i] == 2:
                assert digits[i - 1] == 0


def test_pell_index_alias():
    assert [pell_number(n) for n in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]
    # P_n = q_{n-1}
    qs = [q for _, q in PELL.convergents(6)]
    assert [pell_number(n + 1) for n in range(7)] == qs


def test_format_parse_roundtrip():
    digits = (1, 0, 2, 0, 2)  # lsd of 69
    assert format_digits(digits, msd=True) == "20201"
    assert parse_digits("20201", msd=True) == digits
    assert parse_digits(format_digits(digits, msd=False), msd=False) == digits


def test_format_wide_alphabet_uses_commas():
    wide = cf_expand(parse_surd("(-1+1*sqrt(2))/20"))  # a_1 = 48
    assert wide.quotient(1) == 48
    size = alphabet_size(wide)
    assert size > 10
    for n in (3, 15, 100):
        text = format_digits(encode(n, wide).digits, msd=True, alphabet=size)
        assert decode(parse_digits(text, msd=True, alphabet=size), wide) == n
    assert format_digits(encode(100, wide).digits, msd=True, alphabet=size) == "2,4"


def test_negative_encode_rejected():
    with pytest.raises(ValueError):
        encode(-1, PELL)
