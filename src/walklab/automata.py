"""Finite automata over Ostrowski digit alphabets.

Machines read one digit per step, least significant digit first (the order
of `OstrowskiWord.digits` and of `parse_digits`), and classify integers by
their digit expansions. State 0 is the start and the last state is the
absorbing dead state. The validity machine of any base and the zero-set
and record-set machines of a BR walk come from one breadth-first builder,
`_build`, over (digit position, previous digit zero, tracker) keys; they
differ only in their tracker, and each folds digit validity in, so an input
that is not a well-formed expansion is `invalid` rather than `reject`.
`equivalent` and `canonical_words` prove facts on the machines themselves.

State layout is deterministic (breadth-first discovery order), which keeps
DOT exports byte-stable for golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .numeration import OstrowskiWord, alphabet_size, encode
from .qarith import ContinuedFraction, NotBrNumber, is_br

ACCEPT = "accept"
REJECT = "reject"
INVALID = "invalid"


class AlphabetMismatch(ValueError):
    """Input digit outside the machine's alphabet."""


class UnknownFixture(KeyError):
    pass


@dataclass(frozen=True)
class DigitDfa:
    """Total deterministic automaton over digits 0..alphabet-1, read
    lsd-first. State 0 is the start, the last row is the absorbing dead
    state, and the alphabet is the row width."""

    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]

    def __post_init__(self):
        if not self.transitions:
            raise ValueError("a machine needs at least its dead state")
        n, width = len(self.transitions), len(self.transitions[0])
        for state, row in enumerate(self.transitions):
            if len(row) != width:
                raise ValueError(f"state {state} is not total over the alphabet")
            if any(not 0 <= t < n for t in row):
                raise ValueError(f"state {state} has a target out of range")
        if any(t != self.dead for t in self.transitions[self.dead]):
            raise ValueError("dead state must absorb every digit")
        if self.dead in self.accepting:
            raise ValueError("dead state cannot accept")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def dead(self) -> int:
        return len(self.transitions) - 1

    @property
    def alphabet(self) -> int:
        return len(self.transitions[0])


def run(dfa: DigitDfa, word: OstrowskiWord | Sequence[int]) -> str:
    """Feed an lsd-first digit word to the machine; verdict accept / reject
    / invalid.

    A raw digit sequence is scanned once for its first digit outside the
    alphabet. An OstrowskiWord's digits are >= 0, and every row is exactly
    the alphabet wide, so a digit too large for the machine is the row
    lookup's IndexError; both raise AlphabetMismatch.
    """
    table = dfa.transitions
    alphabet = len(table[0])
    if isinstance(word, OstrowskiWord):
        digits = word.digits
    else:
        digits = word
        for g in digits:
            if not 0 <= g < alphabet:
                raise AlphabetMismatch(f"digit {g} outside alphabet 0..{alphabet - 1}")
    state = 0
    try:
        for g in digits:
            state = table[state][g]
    except IndexError:
        raise AlphabetMismatch(f"digit {g} outside alphabet 0..{alphabet - 1}") from None
    if state == len(table) - 1:
        return INVALID
    return ACCEPT if state in dfa.accepting else REJECT


# --- builders -------------------------------------------------------------


def _digit_stream(cf: ContinuedFraction) -> tuple[list[int], int]:
    """Quotient caps a_{p+1} per digit position p, unrolled through one
    `cycle()` so that looping the tail repeats both cap and position parity.

    Position 0 is special (its digit is capped strictly below a_1), so the
    loop target is at least 1.

    Returns (caps for positions 0..P-1, loop target position).
    """
    start, length = cf.cycle()
    unroll = max(start - 1, 1)
    return [cf.quotient(p + 1) for p in range(unroll + length)], unroll


def _build(cf: ContinuedFraction, start_track, track_step, track_accepts) -> DigitDfa:
    """Breadth-first construction over (position, prev-digit-zero, tracker).

    A digit g is valid at a position with cap a_{p+1} unless g > cap, or
    g == cap at position 0 or after a nonzero digit; an invalid digit goes to
    the dead row. `track_step(cap, pos, track, g)` advances the tracker over
    a valid digit, and `track_accepts(track)` decides acceptance.
    """
    caps, loop_to = _digit_stream(cf)
    alphabet = alphabet_size(cf)
    order = [(0, True, start_track)]
    ids = {order[0]: 0}
    rows = []
    for pos, prev_zero, track in order:  # order grows as states are found
        cap = caps[pos]
        nxt_pos = pos + 1 if pos + 1 < len(caps) else loop_to
        row: list[int | None] = []
        for g in range(alphabet):
            if g > cap or (g == cap and (pos == 0 or not prev_zero)):
                row.append(None)
                continue
            nxt = (nxt_pos, g == 0, track_step(cap, pos, track, g))
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(row)
    dead = len(order)
    table = tuple(tuple(dead if t is None else t for t in row) for row in rows)
    accepting = frozenset(i for i, key in enumerate(order) if track_accepts(key[2]))
    return DigitDfa(transitions=table + ((dead,) * alphabet,), accepting=accepting)


def build_validity_dfa(cf: ContinuedFraction) -> DigitDfa:
    """lsd machine accepting exactly the words that meet digit conditions
    (a)-(c) over any base: the builder with a constant tracker."""
    return _build(cf, None, lambda cap, pos, track, g: None, lambda track: True)


def build_zero_dfa(cf: ContinuedFraction) -> DigitDfa:
    """lsd machine for the zero set of the doubled walk over a BR base.

    Accepts exactly the well-formed expansions whose even-position digits are
    all zero; the walk value at such an index is zero and conversely.
    """
    if not is_br(cf):
        raise NotBrNumber("zero automaton requires a BR base")

    def step(cap: int, pos: int, in_set: bool, g: int) -> bool:
        return in_set and (g == 0 or pos % 2 == 1)

    return _build(cf, True, step, lambda in_set: in_set)


# record tracker values
_EXACT, _SLACK, _OUT = 0, 1, 2


def build_record_dfa(cf: ContinuedFraction) -> DigitDfa:
    """lsd machine for the record set of the doubled walk over a BR base.

    A record index has zero digits at odd positions and digit a_{i+1}/2 at
    even positions, except that the most significant digit (even position)
    may drop to any smaller positive value. Reading lsd-first this means:
    stay exact while even digits equal half the cap, then one strict drop
    (the leading digit) forces every later digit to zero.
    """
    if not is_br(cf):
        raise NotBrNumber("record automaton requires a BR base")

    def step(cap: int, pos: int, track: int, g: int) -> int:
        if track == _OUT:
            return _OUT
        if track == _SLACK:
            return _SLACK if g == 0 else _OUT
        if pos % 2 == 1:
            return _EXACT if g == 0 else _OUT
        half = cap // 2
        if g == half:
            return _EXACT
        return _SLACK if g < half else _OUT

    return _build(cf, _EXACT, step, lambda track: track != _OUT)


# --- hand-written fixtures -------------------------------------------------


def _fixture(rows, accepting) -> DigitDfa:
    dead = len(rows)
    table = tuple(tuple(row) for row in rows) + ((dead,) * len(rows[0]),)
    return DigitDfa(transitions=table, accepting=frozenset(accepting))


def hardcoded_fixture(name: str) -> DigitDfa:
    """Small machines pinning the printed digit languages, as lsd regexes
    (the printed msd forms are their reversals):

    records_sqrt2   : 1*                       (msd 1*)
    records_2sqrt2  : 1(01)*                   (msd (10)*1)
    zeros_2sqrt2    : (00|01|02)*(01|02)       (msd (10|20)(00|10|20)*)

    each plus the empty word. Unlike the built machines these do not track
    expansion validity; any word outside the language is simply rejected.
    """
    if name == "records_sqrt2":
        # 0: seen only 1s (accept); 1: sink
        return _fixture([(1, 0, 1), (1, 1, 1)], {0})
    if name == "records_2sqrt2":
        # 0: start/empty, 1: just read 1 (accept), 2: just read 0, 3: sink
        return _fixture([(3, 1, 3), (2, 3, 3), (3, 1, 3), (3, 3, 3)], {0, 1})
    if name == "zeros_2sqrt2":
        # 0: start/empty (accept), 1: mid-pair, 2: pair 00 complete,
        # 3: pair 01/02 complete (accept), 4: sink
        return _fixture([(1, 4, 4), (2, 3, 3), (1, 4, 4), (1, 4, 4), (4, 4, 4)], {0, 3})
    raise UnknownFixture(name)


# --- oracle equivalence -----------------------------------------------------


class Mismatch(NamedTuple):
    n: int
    expected: bool
    verdict: str


def equiv_oracle(
    dfa: DigitDfa,
    predicate: Callable[[int], bool],
    base: ContinuedFraction,
    bound: int,
) -> Mismatch | None:
    """First n <= bound where the machine disagrees with the predicate."""
    for n in range(bound + 1):
        mismatch = mismatch_at(dfa, n, encode(n, base), bool(predicate(n)))
        if mismatch:
            return mismatch
    return None


def mismatch_at(dfa: DigitDfa, n: int, word: OstrowskiWord, expected: bool) -> Mismatch | None:
    """The Mismatch if the machine's verdict on n's canonical word is not
    the expected membership. A canonical word must never be ruled invalid,
    so an `invalid` verdict counts as a mismatch too."""
    verdict = run(dfa, word)
    if (verdict == ACCEPT) != expected or verdict == INVALID:
        return Mismatch(n=n, expected=expected, verdict=verdict)
    return None


# --- machine algebra ----------------------------------------------------------


def _verdict(dfa: DigitDfa, state: int) -> str:
    return INVALID if state == dfa.dead else ACCEPT if state in dfa.accepting else REJECT


def equivalent(m1: DigitDfa, m2: DigitDfa, base: ContinuedFraction) -> tuple[int, ...] | None:
    """Shortest lsd canonical word of the base on which the two machines'
    `run` verdicts differ, or None if there is none.

    Breadth-first search over the product of both machines with the base's
    validity machine, which keeps it to valid words. A canonical word is
    empty or ends in a nonzero digit, so verdicts are compared only there.
    """
    valid = build_validity_dfa(base)
    if min(m1.alphabet, m2.alphabet) < valid.alphabet:
        raise AlphabetMismatch(f"a machine is narrower than alphabet 0..{valid.alphabet - 1}")
    if _verdict(m1, 0) != _verdict(m2, 0):
        return ()
    order = [(0, 0, 0)]
    words = {order[0]: ()}
    for s, t, v in order:  # order grows as product states are found
        prefix = words[s, t, v]
        for g, w in enumerate(valid.transitions[v]):
            if w == valid.dead:
                continue
            nxt = (m1.transitions[s][g], m2.transitions[t][g], w)
            if g and _verdict(m1, nxt[0]) != _verdict(m2, nxt[1]):
                return prefix + (g,)
            if nxt not in words:
                words[nxt] = prefix + (g,)
                order.append(nxt)
    return None


def canonical_words(dfa: DigitDfa, places: int) -> int:
    """How many canonical words of at most `places` digits the machine
    accepts; over the validity machine, q_places (one per value below it)."""
    counts = [1] + [0] * dfa.dead
    total = int(0 in dfa.accepting)
    for _ in range(places):
        grown = [0] * dfa.n_states
        for state, count in enumerate(counts):
            for g, target in enumerate(dfa.transitions[state]):
                grown[target] += count
                if g and target in dfa.accepting:
                    total += count
        counts = grown
    return total


# --- rendering ---------------------------------------------------------------


def to_dot(dfa: DigitDfa) -> str:
    """Graphviz source; accepting states double-circled, dead state omitted.
    Output is stable for a fixed machine."""
    dead = dfa.dead
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        f"  // lsd input, alphabet 0..{dfa.alphabet - 1}",
        '  start [shape=point, label=""];',
        "  start -> s0;",
    ]
    for state in range(dead):
        shape = "doublecircle" if state in dfa.accepting else "circle"
        lines.append(f"  s{state} [shape={shape}, label=\"{state}\"];")
    for state in range(dead):
        grouped: dict[int, list[int]] = {}
        for g, target in enumerate(dfa.transitions[state]):
            grouped.setdefault(target, []).append(g)
        for target in sorted(grouped):
            if target == dead:
                continue
            label = ",".join(map(str, grouped[target]))
            lines.append(f"  s{state} -> s{target} [label=\"{label}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
