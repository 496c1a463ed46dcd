import contextlib
import hashlib
import io
import itertools
import random
import re

import pytest

from walklab.automata import (
    ACCEPT,
    INVALID,
    REJECT,
    AlphabetMismatch,
    DigitDfa,
    UnknownFixture,
    build_record_dfa,
    build_validity_dfa,
    build_zero_dfa,
    canonical_words,
    equiv_oracle,
    equivalent,
    hardcoded_fixture,
    _digit_stream,
    run,
    to_dot,
)
from walklab.cli import main
from walklab.numeration import (
    alphabet_size,
    decode,
    encode,
    format_digits,
    parse_digits,
    validate,
)
from walklab.qarith import NotIrrational, QuadraticSurd, cf_expand, is_br, parse_surd
from walklab.walk import NotBrNumber, records, walk_spec, zeros

PELL = cf_expand(parse_surd("sqrt2m1"))
HALF = cf_expand(parse_surd("sqrt2m1over2"))

SPEC_2SQRT2 = walk_spec(parse_surd("2sqrt2"))
SPEC_SQRT2M1 = walk_spec(parse_surd("sqrt2m1"))


@pytest.fixture(scope="module")
def zero_dfa():
    return build_zero_dfa(PELL)


@pytest.fixture(scope="module")
def record_dfa():
    return build_record_dfa(PELL)


def test_zero_dfa_examples(zero_dfa):
    assert run(zero_dfa, [0, 1]) == ACCEPT  # n = 2
    assert run(zero_dfa, [1]) == REJECT  # n = 1, S_1 = 1
    assert run(zero_dfa, []) == ACCEPT  # n = 0


def test_record_dfa_examples(record_dfa):
    assert run(record_dfa, [1, 0, 1, 0, 1]) == ACCEPT  # n = 35
    assert run(record_dfa, [1, 1]) == REJECT
    assert run(record_dfa, [2]) == INVALID  # not a valid expansion


def test_zero_dfa_language_prefix(zero_dfa):
    accepted = [n for n in range(100) if run(zero_dfa, encode(n, PELL)) == ACCEPT]
    assert accepted == [0, 2, 4, 12, 14, 16, 24, 26, 28, 70, 72, 74, 82, 84, 86, 94, 96, 98]


def test_record_dfa_first_values(record_dfa):
    accepted = [n for n in range(300) if run(record_dfa, encode(n, PELL)) == ACCEPT]
    assert accepted == [0, 1, 6, 35, 204]


def test_record_dfa_half_base_first_record():
    dfa = build_record_dfa(HALF)
    accepted = [n for n in range(50) if run(dfa, encode(n, HALF)) == ACCEPT]
    # a_1 = 4, so the single-digit records are 1 and 2 = a_1/2
    assert accepted[:3] == [0, 1, 2]


def test_zero_language_regular_expression(zero_dfa):
    language = re.compile(r"^((10|20)(00|10|20)*)?$")
    for n in range(3000):
        word = format_digits(encode(n, PELL).digits)
        verdict = run(zero_dfa, encode(n, PELL))
        assert (verdict == ACCEPT) == bool(language.match(word)), (n, word)


def test_equiv_oracle_success(zero_dfa, record_dfa):
    bound = 5000
    zs = set(zeros(SPEC_2SQRT2, bound))
    rs = set(records(SPEC_2SQRT2, bound))
    assert equiv_oracle(zero_dfa, lambda n: n in zs, PELL, bound) is None
    assert equiv_oracle(record_dfa, lambda n: n in rs, PELL, bound) is None


def test_equiv_oracle_half_base():
    bound = 4000
    zs = set(zeros(SPEC_SQRT2M1, bound))
    rs = set(records(SPEC_SQRT2M1, bound))
    assert equiv_oracle(build_zero_dfa(HALF), lambda n: n in zs, HALF, bound) is None
    assert equiv_oracle(build_record_dfa(HALF), lambda n: n in rs, HALF, bound) is None


def test_equiv_oracle_detects_corruption(zero_dfa):
    zs = set(zeros(SPEC_2SQRT2, 200))
    # swap the accepting set: every nonzero word flips verdict
    corrupted = DigitDfa(
        transitions=zero_dfa.transitions,
        accepting=frozenset(
            s for s in range(zero_dfa.n_states) if s not in zero_dfa.accepting
        )
        - {zero_dfa.dead},
    )
    mismatch = equiv_oracle(corrupted, lambda n: n in zs, PELL, 200)
    assert mismatch is not None and mismatch.n == 0


def test_direction_duality(zero_dfa):
    # raw lsd digits, and the printed msd text parsed back, read as the word
    for n in (0, 2, 5, 14, 69, 70, 86, 100):
        word = encode(n, PELL)
        assert run(zero_dfa, list(word.digits)) == run(zero_dfa, word)
        assert run(zero_dfa, parse_digits(format_digits(word.digits))) == run(zero_dfa, word)


def test_alphabet_mismatch(zero_dfa):
    with pytest.raises(AlphabetMismatch):
        run(zero_dfa, [3])
    # a canonical word over a wider base: its first digit past the Pell
    # machine's alphabet 0..2 is named
    xi4 = cf_expand(parse_surd("xi4"))
    word = next(w for w in (encode(n, xi4) for n in range(1000)) if max(w.digits, default=0) >= 3)
    first = next(g for g in word.digits if g >= 3)
    with pytest.raises(AlphabetMismatch, match=f"^digit {first} outside alphabet 0..2$"):
        run(zero_dfa, word)
    # a raw list names its first offender in lsd order, above or below
    with pytest.raises(AlphabetMismatch) as raised:
        run(zero_dfa, [1, 5, -1])
    assert str(raised.value) == "digit 5 outside alphabet 0..2"
    with pytest.raises(AlphabetMismatch) as raised:
        run(zero_dfa, [1, -1, 5])
    assert str(raised.value) == "digit -1 outside alphabet 0..2"


def test_builders_require_br():
    for name in ("sqrt3over2", "golden"):
        base = cf_expand(parse_surd(name))
        with pytest.raises(NotBrNumber, match="^zero automaton requires a BR base$"):
            build_zero_dfa(base)
        with pytest.raises(NotBrNumber, match="^record automaton requires a BR base$"):
            build_record_dfa(base)
        # the validity machine takes any base
        valid = build_validity_dfa(base)
        assert valid.alphabet == alphabet_size(base)
        assert valid.accepting == frozenset(range(valid.dead))


def test_totality_and_determinism(zero_dfa, record_dfa):
    for dfa in (zero_dfa, record_dfa):
        assert len(dfa.transitions) == dfa.n_states
        for row in dfa.transitions:
            assert len(row) == dfa.alphabet
            assert all(0 <= t < dfa.n_states for t in row)
        assert all(t == dfa.dead for t in dfa.transitions[dfa.dead])
        assert dfa.dead not in dfa.accepting


def test_dfa_invariant_enforcement():
    with pytest.raises(ValueError):
        DigitDfa(transitions=((0, 1), (1, 1)), accepting=frozenset({1}))  # accepting dead state
    with pytest.raises(ValueError):
        DigitDfa(transitions=((0, 1), (0, 1)), accepting=frozenset())  # dead state does not absorb
    with pytest.raises(ValueError):
        DigitDfa(transitions=((0, 1), (1,)), accepting=frozenset())  # rows of different widths
    with pytest.raises(ValueError):
        DigitDfa(transitions=(), accepting=frozenset())  # no dead state


# --- hand-written fixtures ---------------------------------------------------


def test_fixture_records_sqrt2():
    dfa = hardcoded_fixture("records_sqrt2")
    assert run(dfa, parse_digits("1")) == ACCEPT
    for text, value in (("1", 1), ("11", 3), ("111", 8)):
        digits = [int(c) for c in text]
        assert run(dfa, digits) == ACCEPT
        assert decode(parse_digits(text), PELL) == value
    assert run(dfa, [1, 0, 1]) == REJECT


def test_fixture_records_sqrt2_matches_walk():
    spec = walk_spec(parse_surd("sqrt2"))
    rs = set(records(spec, 3000))
    dfa = hardcoded_fixture("records_sqrt2")
    assert equiv_oracle(dfa, lambda n: n in rs, PELL, 3000) is None


def test_fixture_records_2sqrt2():
    dfa = hardcoded_fixture("records_2sqrt2")
    assert run(dfa, [1, 1]) == REJECT
    assert run(dfa, [1, 0, 1]) == ACCEPT
    rs = set(records(SPEC_2SQRT2, 3000))
    assert equiv_oracle(dfa, lambda n: n in rs, PELL, 3000) is None


def test_fixture_zeros_2sqrt2():
    dfa = hardcoded_fixture("zeros_2sqrt2")
    assert run(dfa, [0, 2, 0, 2]) == ACCEPT
    assert decode(parse_digits("2020"), PELL) == 28
    zs = set(zeros(SPEC_2SQRT2, 3000))
    assert equiv_oracle(dfa, lambda n: n in zs, PELL, 3000) is None


@pytest.mark.parametrize(
    "name, printed",
    [
        ("records_sqrt2", r"1*"),
        ("records_2sqrt2", r"((10)*1)?"),
        ("zeros_2sqrt2", r"((10|20)(00|10|20)*)?"),
    ],
)
def test_fixture_matches_printed_regex(name, printed):
    # each lsd machine accepts exactly the words whose msd print matches
    dfa = hardcoded_fixture(name)
    language = re.compile(printed)
    for n in range(3001):
        word = encode(n, PELL)
        text = format_digits(word.digits)
        assert (run(dfa, word) == ACCEPT) == bool(language.fullmatch(text)), (name, n, text)


def test_fixture_unknown_name():
    with pytest.raises(UnknownFixture):
        hardcoded_fixture("records_sqrt17")


# --- machine algebra ------------------------------------------------------------


def _redirect(dfa, state, digit, target):
    """The machine with one transition pointed elsewhere."""
    rows = [list(row) for row in dfa.transitions]
    rows[state][digit] = target
    return DigitDfa(transitions=tuple(map(tuple, rows)), accepting=dfa.accepting)


@pytest.mark.parametrize("name", ["sqrt2m1", "sqrt2m1over2", "sqrt3over2"])
def test_validity_dfa_agrees_with_validate(name):
    # the numeration check counts words with the machine and validates them
    # with `validate`; the two must call the same words valid
    base = cf_expand(parse_surd(name))
    valid = build_validity_dfa(base)
    for places in range(6):
        for word in itertools.product(range(valid.alphabet), repeat=places):
            verdict = run(valid, word)
            assert verdict != REJECT
            assert (verdict == ACCEPT) == bool(validate(word, base)), word


@pytest.mark.parametrize("name", ["sqrt2m1", "sqrt2m1over2", "sqrt3over2", "golden", "xi4"])
def test_canonical_words_of_the_validity_machine_are_the_denominators(name):
    base = cf_expand(parse_surd(name))
    valid = build_validity_dfa(base)
    dens = base.denominators_through(24)
    assert [canonical_words(valid, places) for places in range(25)] == dens


@pytest.mark.parametrize("base_name, theta", [("sqrt2m1", "2sqrt2"), ("sqrt2m1over2", "sqrt2m1")])
def test_canonical_words_count_zeros_and_records(base_name, theta):
    # the words of at most L digits are the values below q_L
    base = cf_expand(parse_surd(base_name))
    spec = walk_spec(parse_surd(theta))
    for places in range(1, 9):
        below = base.denominators_through(places)[places]
        zs = [z for z in zeros(spec, below) if z < below]
        rs = [r for r in records(spec, below) if r < below]
        assert canonical_words(build_zero_dfa(base), places) == len(zs)
        assert canonical_words(build_record_dfa(base), places) == len(rs)


@pytest.mark.parametrize(
    "fixture, build",
    [("zeros_2sqrt2", build_zero_dfa), ("records_2sqrt2", build_record_dfa)],
)
def test_pell_fixtures_are_equivalent_to_the_builders(fixture, build):
    assert equivalent(hardcoded_fixture(fixture), build(PELL), PELL) is None
    assert equivalent(build(PELL), hardcoded_fixture(fixture), PELL) is None


def test_equivalent_returns_the_shortest_counterexample(zero_dfa, record_dfa):
    # state 2 of the zero fixture has read 00; sending its digit 1 to the
    # accepting state 3 admits msd 100, n = 5, which is not a zero
    broken = _redirect(hardcoded_fixture("zeros_2sqrt2"), 2, 1, 3)
    word = equivalent(broken, zero_dfa, PELL)
    assert word == (0, 0, 1) and decode(word, PELL) == 5
    assert run(broken, word) == ACCEPT and run(zero_dfa, word) == REJECT
    # 1 is a record and not a zero; the empty word is both
    assert equivalent(zero_dfa, record_dfa, PELL) == (1,)
    # the machine of a non-BR rotation's records differs on msd 11, n = 3
    assert equivalent(hardcoded_fixture("records_sqrt2"), record_dfa, PELL) == (1, 1)


def test_equivalent_compares_verdicts_on_canonical_words_only(zero_dfa):
    # state 2 of the zero fixture is entered only by a 0 digit, so accepting
    # it changes the verdict on "00" and on no canonical word
    fixture = hardcoded_fixture("zeros_2sqrt2")
    padded = DigitDfa(fixture.transitions, fixture.accepting | {2})
    assert run(padded, [0, 0]) == ACCEPT and run(fixture, [0, 0]) == REJECT
    assert equivalent(padded, zero_dfa, PELL) is None
    # the empty word: a machine that rejects it differs at ()
    rejecting = DigitDfa(zero_dfa.transitions, zero_dfa.accepting - {0})
    assert equivalent(rejecting, zero_dfa, PELL) == ()
    # an `invalid` verdict differs from `reject` on a valid word
    dead = _redirect(zero_dfa, 0, 1, zero_dfa.dead)
    assert equivalent(dead, zero_dfa, PELL) == (1,)


def test_equivalent_needs_the_base_alphabet(zero_dfa):
    xi4 = cf_expand(parse_surd("xi4"))
    with pytest.raises(AlphabetMismatch, match="narrower than alphabet 0..4"):
        equivalent(zero_dfa, build_zero_dfa(xi4), xi4)


# --- DOT export ----------------------------------------------------------------


DOT_NODE = re.compile(r'^\s*s(\d+) \[shape=(doublecircle|circle), label="\d+"\];$')
DOT_EDGE = re.compile(r'^\s*s(\d+) -> s(\d+) \[label="[\d,]+"\];$')


def parse_dot(text):
    """Minimal structural DOT reader: returns (nodes, edges)."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph dfa {" and lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes[int(m.group(1))] = m.group(2)
        m = DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
    return nodes, edges


def test_to_dot_structure(record_dfa):
    nodes, edges = parse_dot(to_dot(record_dfa))
    assert len(nodes) == record_dfa.n_states - 1  # dead omitted
    accepting = {s for s, shape in nodes.items() if shape == "doublecircle"}
    assert accepting == set(record_dfa.accepting)
    for src, dst in edges:
        assert src in nodes and dst in nodes


def test_to_dot_fixture_two_live_accepting_states():
    dfa = hardcoded_fixture("records_2sqrt2")
    nodes, _ = parse_dot(to_dot(dfa))
    assert sum(1 for shape in nodes.values() if shape == "doublecircle") == 2


def test_to_dot_empty_language():
    dfa = DigitDfa(transitions=((1, 1), (1, 1)), accepting=frozenset())
    nodes, _ = parse_dot(to_dot(dfa))
    assert all(shape == "circle" for shape in nodes.values())


def test_to_dot_stable(zero_dfa):
    assert to_dot(zero_dfa) == to_dot(build_zero_dfa(PELL))


GOLDEN_RECORDS_2SQRT2_DOT = """\
digraph dfa {
  rankdir=LR;
  // lsd input, alphabet 0..2
  start [shape=point, label=""];
  start -> s0;
  s0 [shape=doublecircle, label="0"];
  s1 [shape=doublecircle, label="1"];
  s2 [shape=circle, label="2"];
  s3 [shape=circle, label="3"];
  s0 -> s1 [label="1"];
  s0 -> s3 [label="0,2"];
  s1 -> s2 [label="0"];
  s1 -> s3 [label="1,2"];
  s2 -> s1 [label="1"];
  s2 -> s3 [label="0,2"];
  s3 -> s3 [label="0,1,2"];
}
"""


def test_to_dot_golden_text():
    # byte-exact under the fixed state numbering
    assert to_dot(hardcoded_fixture("records_2sqrt2")) == GOLDEN_RECORDS_2SQRT2_DOT


# --- the period horizon ---------------------------------------------------------


def _surd_sweep(count, seed):
    """`count` seeded random surds (a + b*sqrt(d))/c, a, b and c of either sign."""
    rng = random.Random(seed)
    nonzero = [i for i in range(-30, 31) if i]
    out = []
    while len(out) < count:
        a, b, d, c = (
            rng.randint(-60, 60), rng.choice(nonzero[20:-20]), rng.randint(2, 40),
            rng.choice(nonzero),
        )
        try:
            out.append(QuadraticSurd(a, b, d, c))
        except NotIrrational:
            continue
    return out


@pytest.fixture(scope="module")
def sweep():
    return [(xi, cf_expand(xi)) for xi in _surd_sweep(2000, 2021)]


def _is_br_two_periods(cf):
    horizon = len(cf.preperiod) + 2 * len(cf.period)
    return all(cf.quotient(i) % 2 == 0 for i in range(1, horizon + 1, 2))


def _alphabet_two_periods(cf):
    horizon = len(cf.preperiod) + 2 * len(cf.period) + 1
    return max(cf.quotient(i) for i in range(1, horizon + 1)) + 1


def _digit_stream_unrolled(cf):
    unroll = max(len(cf.preperiod) - 1, 1)
    loop_len = len(cf.period) * (2 if len(cf.period) % 2 else 1)
    return [cf.quotient(p + 1) for p in range(unroll + loop_len)], unroll


def test_horizon_readers_match_two_period_formulas(sweep):
    # is_br, alphabet_size and _digit_stream read cycle(); each agrees with a
    # restatement that reads the preperiod plus two periods on its own
    for xi, cf in sweep:
        assert is_br(cf) == _is_br_two_periods(cf), xi
        assert alphabet_size(cf) == _alphabet_two_periods(cf), xi
        assert _digit_stream(cf) == _digit_stream_unrolled(cf), xi


def _literal(xi):
    return f"({xi.a}{'+' if xi.b > 0 else '-'}{abs(xi.b)}*sqrt({xi.d}))/{xi.c}"


def test_dfa_build_text_pinned_over_the_sweep(sweep):
    # `dfa build` DOT and table text of both kinds for every BR surd of the
    # sweep, concatenated and hashed
    br = [xi for xi, cf in sweep if is_br(cf)]
    digest = hashlib.sha256()
    for xi in br:
        for kind in ("zeros", "records"):
            for out in ("dot", "table"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(["dfa", "build", "--kind", kind, "--base", _literal(xi),
                                 "--out", out]) == 0
                digest.update(buf.getvalue().encode())
    assert len(br) == 48
    assert digest.hexdigest() == (
        "c1348e72a3ce520dfaf3d491bfae22199f9cbe0048d1773f6a0c78009b967bb0"
    )
