"""Named verification checks behind the `verify` CLI command.

Each check re-derives a claim from the walk oracle and compares it with the
closed-form route (recurrence, automaton, substitution or digit theorem), or
proves it on the machines (`automata.equivalent`, `automata.canonical_words`).
Checks marked conjectural report their status but never fail the run: they
cover statements that are experimental rather than proved.

Two scales: `quick` keeps walks to 1e5 and automata sweeps to 1e4 (~1 s);
`full` runs the acceptance-level bounds (~5 s; wall time, 2-vCPU x86-64).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import automata, recurrences, substitution
from .numeration import decode, encode, validate
from .qarith import cf_expand, noble_mean_adjusted, parse_surd
from .walk import (
    RuleEngine,
    ab_sequences,
    ab_terms,
    brute_walk,
    discrepancy,
    half_indicator,
    lemma_checks,
    records,
    walk_spec,
    zeros,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    conjectural: bool = False

    def status(self) -> str:
        word = "pass" if self.ok else "FAIL"
        return f"conjectural: {word}" if self.conjectural else word


@dataclass(frozen=True)
class Bounds:
    walk: int
    automata: int
    random_n: int
    random_count: int
    diff_bound: int
    diff_kmax: int
    lemma_depth: int
    subst_prefix: int


SCALES = {
    "quick": Bounds(
        walk=10**5,
        automata=10**4,
        random_n=10**6,
        random_count=200,
        diff_bound=10**5,
        diff_kmax=11,
        lemma_depth=5,
        subst_prefix=10**3,
    ),
    "full": Bounds(
        walk=10**6,
        automata=10**5,
        random_n=10**7,
        random_count=1000,
        diff_bound=10**7,
        diff_kmax=20,
        lemma_depth=7,
        subst_prefix=10**4,
    ),
}

TABLE1_A = [1, 3, 5, 6, 8, 10, 13, 15, 17, 18, 20, 22, 25, 27, 29, 30, 32, 34]
TABLE1_B = [2, 4, 7, 9, 11, 12, 14, 16, 19, 21, 23, 24, 26, 28, 31, 33, 36, 38]
SQRT3_RECORDS = [1, 2, 3, 7, 18, 33, 48, 104, 257, 466, 675, 1455, 3586]

BR_FIXTURES = ("sqrt2m1", "sqrt2m1over2", "xi4")


def _spec(name: str):
    return walk_spec(parse_surd(name))


def _result(name: str, ok: bool, detail: str, conjectural: bool = False) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail, conjectural=conjectural)


# --- walk suite -------------------------------------------------------------


def check_table1(bounds: Bounds) -> CheckResult:
    seqs = ab_sequences(_spec("2sqrt2"), 40)
    ok = seqs.a[:18].tolist() == TABLE1_A and seqs.b[:18].tolist() == TABLE1_B
    return _result("walk.table1", ok, "first 18 terms of both step sequences")


def check_kimberling_signs(bounds: Bounds) -> CheckResult:
    n = bounds.walk
    seqs = ab_terms(_spec("2sqrt2"), n)
    a, b = seqs.a, seqs.b  # int32 terms below 2^30: b - a cannot wrap
    idx = np.arange(1, n + 1, dtype=np.int64)
    ok = bool((b - a > 0).all() and (a - 2 * idx < 0).all() and (b - 2 * idx >= 0).all())
    return _result("walk.kimberling_signs", ok, f"b-a>0, a(n)<2n, b(n)>=2n for n<={n}")


def check_diff_hits(bounds: Bounds) -> CheckResult:
    count = bounds.diff_bound
    seqs = ab_terms(_spec("2sqrt2"), count)
    d = seqs.b - seqs.a  # int32, like the terms, which lie below 2^30
    lacking = []
    for k in range(1, bounds.diff_kmax + 1):
        hits = int((d == k).sum())
        if hits < 3:
            lacking.append((k, hits))
    ok = not lacking
    detail = f"3+ hits for k=1..{bounds.diff_kmax} with n<={count}"
    if lacking:
        detail += f"; short: {lacking}"
    return _result("walk.diff_hits", ok, detail)


def check_lemma_suite(bounds: Bounds) -> CheckResult:
    report = lemma_checks(_spec("2sqrt2"), bounds.lemma_depth)
    return _result(
        "walk.lemma_suite",
        True,
        f"{report.identities_checked} identities over even denominators "
        f"{report.even_denominators}",
    )


def check_records_sqrt2(bounds: Bounds) -> CheckResult:
    spec = _spec("sqrt2")
    trace = brute_walk(spec, bounds.walk)
    rec = records(trace, bounds.walk)
    lune = recurrences.lune_records(40)
    expect = [r for r in lune if r <= bounds.walk]
    problems = []
    if rec != expect:
        problems.append("indices differ from recurrence")
    values = [int(trace.sums[r - 1]) for r in rec[1:]]
    if any(u * v >= 0 for u, v in zip(values, values[1:])):
        problems.append("record values fail to alternate in sign")
    pos = [0] + [r for r, v in zip(rec[1:], values) if v > 0]
    neg = [0] + [r for r, v in zip(rec[1:], values) if v < 0]
    if pos != recurrences.kotesovec(len(pos) - 1, "A"):
        problems.append("positive split differs from side-A recurrence")
    if neg != recurrences.kotesovec(len(neg) - 1, "B"):
        problems.append("negative split differs from side-B recurrence")
    return _result(
        "walk.records_sqrt2",
        not problems,
        "; ".join(problems) or f"{len(rec)} records to {bounds.walk} match both recurrences",
    )


def check_records_2sqrt2(bounds: Bounds) -> CheckResult:
    rec = records(_spec("2sqrt2"), bounds.walk)
    half = [q // 2 for q in _even_denominators(bounds.walk * 2)]
    expect = [0] + [h for h in half if h <= bounds.walk]
    ok = rec == expect
    return _result(
        "walk.records_2sqrt2", ok, f"records to {bounds.walk} are the half even denominators"
    )


def _even_denominators(bound: int) -> list[int]:
    cf = cf_expand(parse_surd("sqrt2m1"))
    return [q for q in cf.denominators_up_to(bound) if q % 2 == 0]


def check_rules_engine(bounds: Bounds) -> CheckResult:
    rng = random.Random(20201)
    sweep = min(bounds.walk, 10**5)
    problems = []
    for name in BR_FIXTURES:
        rotation = parse_surd(name)
        spec = walk_spec(rotation * 2)
        engine = RuleEngine(spec)
        trace = brute_walk(spec, bounds.random_n)  # one walk: sweep <= 10^5 < random_n
        bad = np.flatnonzero(engine.values(np.arange(1, sweep + 1)) != trace.sums[:sweep])
        if bad.size:
            problems.append(f"{name}: mismatch at n={bad[0] + 1}")
        picks = np.array([rng.randint(1, bounds.random_n) for _ in range(bounds.random_count)])
        bad = np.flatnonzero(engine.values(picks) != trace.sums[picks - 1])
        if bad.size:
            problems.append(f"{name}: mismatch at random n={picks[bad[0]]}")
    # consistency and latency at an index far beyond any brute sweep
    spec = _spec("2sqrt2")
    target = 10**12
    t0 = time.perf_counter()
    value = RuleEngine(spec).value(target)
    elapsed = time.perf_counter() - t0
    qs = spec.cf.denominators_up_to(2 * target)
    parity_ok = all(RuleEngine(spec).value(q) == q % 2 for q in qs[-4:])
    if value < 0 or not parity_ok:
        problems.append("denominator parity rule violated near 1e12")
    if elapsed > 0.010:
        problems.append(f"1e12 query took {elapsed * 1e3:.2f} ms")
    return _result(
        "walk.rules_engine",
        not problems,
        "; ".join(problems)
        or f"agrees with brute to {sweep} + {bounds.random_count} random; "
        f"1e12 query {elapsed * 1e6:.0f} us",
    )


def check_nonnegativity(bounds: Bounds) -> CheckResult:
    n = bounds.walk
    lows = {}
    for name in ("sqrt2m1", "xi2", "xi4"):
        theta = parse_surd(name) if name == "sqrt2m1" else 2 * parse_surd(name)
        lows[name] = int(brute_walk(walk_spec(theta), n).sums.min())
    ok = all(v >= 0 for v in lows.values())
    return _result("walk.nonnegativity", ok, f"minima over n<={n}: {lows}")


def check_sqrt3_printed(bounds: Bounds) -> CheckResult:
    rec = records(_spec("sqrt3"), SQRT3_RECORDS[-1])
    ok = rec[1:] == SQRT3_RECORDS
    return _result("walk.sqrt3_printed", ok, "the 13 published record indices")


def check_discrepancy(bounds: Bounds) -> CheckResult:
    n = bounds.walk
    profile = discrepancy(parse_surd("sqrt2m1"), Fraction(1, 2), n)
    ok = bool(profile.min() >= 0 and profile[: 10**3].max() < profile.max())
    return _result(
        "walk.discrepancy",
        ok,
        f"nonnegative to {n}; max grows {int(profile[:10**3].max())} -> {int(profile.max())}",
    )


# --- automata suite ----------------------------------------------------------


def _fixture_problems(name: str, build) -> list[str]:
    """The shortest word on which a hand-written machine and the built one
    differ over Pell; none when the two are proved equal."""
    base = cf_expand(parse_surd("sqrt2m1"))
    word = automata.equivalent(automata.hardcoded_fixture(name), build(base), base)
    if word is None:
        return []
    return [f"{name} differs from {build.__name__} at lsd word {word} (n = {decode(word, base)})"]


def check_zeros_language(bounds: Bounds) -> CheckResult:
    problems = _fixture_problems("zeros_2sqrt2", automata.build_zero_dfa)
    detail = "proved: (10|20)(00|10|20)* machine = build_zero_dfa(sqrt2m1)"
    return _result("automata.zeros_language", not problems, "; ".join(problems) or detail)


def check_br_digit_theorems(bounds: Bounds) -> CheckResult:
    bound = bounds.automata
    problems = []
    for base_name, theta in (("sqrt2m1", "2sqrt2"), ("sqrt2m1over2", "sqrt2m1")):
        base = cf_expand(parse_surd(base_name))
        spec = walk_spec(parse_surd(theta))
        zero_set = set(zeros(spec, bound))
        rec_set = set(records(spec, bound))
        builds = (automata.build_zero_dfa, automata.build_record_dfa)
        machines = [(b(base), t) for b, t in zip(builds, (zero_set, rec_set))]
        # one encode per n: the digit rules stop at their first failure, and
        # each machine keeps its first mismatch
        rule_failure = None
        mismatches = [None] * len(machines)
        for n in range(bound + 1):
            word = encode(n, base)
            if rule_failure is None:
                if _zero_digits(word.digits) != (n in zero_set):
                    rule_failure = f"{base_name}: zero digit rule fails at {n}"
                elif _record_digits(word.digits, base) != (n in rec_set):
                    rule_failure = f"{base_name}: record digit rule fails at {n}"
            for k, (dfa, target) in enumerate(machines):
                if mismatches[k] is None:
                    mismatches[k] = automata.mismatch_at(dfa, n, word, n in target)
            if rule_failure and all(mismatches):
                break
        if rule_failure:
            problems.append(rule_failure)
        problems += [f"{base_name} {b.__name__}: {m}" for b, m in zip(builds, mismatches) if m]
    return _result(
        "automata.br_digit_theorems",
        not problems,
        "; ".join(problems) or f"sampled: digit rules + automata on two bases to {bound}",
    )


def _zero_digits(digits) -> bool:
    return all(b == 0 for i, b in enumerate(digits) if i % 2 == 0)


def _record_digits(digits, base) -> bool:
    if not digits:
        return True
    top = len(digits) - 1
    return (
        top % 2 == 0
        and all(b == 0 for i, b in enumerate(digits) if i % 2)
        and all(digits[i] == base.quotient(i + 1) // 2 for i in range(0, top, 2))
        and 1 <= digits[top] <= base.quotient(top + 1) // 2
    )


def check_fixtures(bounds: Bounds) -> CheckResult:
    bound = min(bounds.automata, 10**4)
    base = cf_expand(parse_surd("sqrt2m1"))
    problems = _fixture_problems("records_2sqrt2", automata.build_record_dfa)
    # sqrt2's rotation is not BR, so no built machine exists to prove it against
    target = set(records(_spec("sqrt2"), bound))
    dfa = automata.hardcoded_fixture("records_sqrt2")
    mismatch = automata.equiv_oracle(dfa, lambda n: n in target, base, bound)
    if mismatch:
        problems.append(f"records_sqrt2: {mismatch}")
    return _result(
        "automata.fixtures",
        not problems,
        "; ".join(problems)
        or f"proved: records_2sqrt2 = build_record_dfa(sqrt2m1); "
        f"records_sqrt2 matches brute records to {bound}",
    )


def check_numeration(bounds: Bounds) -> CheckResult:
    problems, proved = [], []
    for base_name in ("sqrt2m1", "sqrt2m1over2", "sqrt3over2"):
        base = cf_expand(parse_surd(base_name))
        for n in range(bounds.automata + 1):
            # encode skips validation, so its words are checked here
            word = encode(n, base)
            verdict = validate(word.digits, base)
            if not verdict or word.digits[-1:] == (0,):
                reason = verdict.reason or "most-significant digit is zero"
                problems.append(f"{base_name}: encode({n}) is not canonical: {reason}")
                break
            if decode(word) != n:
                problems.append(f"{base_name}: roundtrip fails at {n}")
                break
        # unique below q_L, the largest denominator <= bound + 1: a canonical word
        # with a digit at place L or above is worth q_L or more, so the loop maps
        # 0..q_L-1 one-to-one into the canonical words of at most L digits, and a
        # count of exactly q_L such words leaves none without a value
        dens = base.denominators_up_to(bounds.automata + 1)
        places, top = len(dens) - 1, dens[-1]
        count = automata.canonical_words(automata.build_validity_dfa(base), places)
        if count != top:
            problems.append(f"{base_name}: {count} canonical words below q_{places} = {top}")
        proved.append(str(top))
    pell = cf_expand(parse_surd("sqrt2m1"))
    if str(encode(69, pell)) != "20201":
        problems.append("69 does not encode to 20201")
    return _result(
        "automata.numeration",
        not problems,
        "; ".join(problems)
        or f"roundtrip to {bounds.automata} on three bases; "
        f"proved unique below q_L = {', '.join(proved)}",
    )


# --- substitution suite -------------------------------------------------------


def check_fidelity(bounds: Bounds) -> CheckResult:
    length = bounds.subst_prefix
    problems = []
    for label, sub, m in (
        ("m=2", substitution.noble_substitution(2), 2),
        ("m=4", substitution.noble_substitution(4), 4),
        ("golden", substitution.golden_substitution(), 1),
    ):
        coded = sub.code(substitution.fixed_point(sub, "a", length))
        xi = noble_mean_adjusted(m)
        oracle = "".join(str(half_indicator(xi, n)) for n in range(length))
        if coded != oracle:
            problems.append(f"{label}: coded fixed point differs from rotation indicator")
    return _result(
        "substitution.fidelity",
        not problems,
        "; ".join(problems) or f"coded fixed points match indicators to {length} letters",
    )


def check_return_map(bounds: Bounds) -> CheckResult:
    for m in (2, 4):
        substitution.return_map_empirical(m, 100)  # raises on any mismatch
    return _result(
        "substitution.return_map", True, "100 exact samples per m in {2,4} match both branches"
    )


def check_word_sums(bounds: Bounds) -> CheckResult:
    problems = []
    for m in (2, 4, 6, 8, 10):
        sub = substitution.noble_substitution(m)
        signs = sub.signs()
        if len(sub.words["a"]) != m * m + 1 or len(sub.words["c"]) != m * m + m + 1:
            problems.append(f"m={m}: word lengths off")
        if substitution.running_sum_extrema(sub.words["a"], signs)[0] < 1:
            problems.append(f"m={m}: a-word running sum not positive")
        for ch in "bc":
            if substitution.running_sum_extrema(sub.words[ch], signs)[0] < -1:
                problems.append(f"m={m}: {ch}-word running sum below -1")
    golden = substitution.golden_substitution()
    gsigns = golden.signs()
    if substitution.running_sum_extrema(golden.words["c"], gsigns)[0] != -2:
        problems.append("golden c-word minimum is not -2")
    for ch in "ab":
        if substitution.running_sum_extrema(golden.words[ch], gsigns)[0] < 0:
            problems.append(f"golden {ch}-word running sum goes negative")
    return _result(
        "substitution.word_sums",
        not problems,
        "; ".join(problems) or "length identities and running-sum bounds for m<=10 + golden",
    )


def check_nonneg_transfer(bounds: Bounds) -> CheckResult:
    length = min(bounds.subst_prefix * 10, 10**5)
    problems = []
    for m in (2, 4):
        sub = substitution.noble_substitution(m)
        word = substitution.fixed_point(sub, "a", length)
        signs = sub.signs()
        lo, _, _ = substitution.running_sum_extrema(word, signs)
        if lo < 0:
            problems.append(f"m={m}: coded walk dips to {lo}")
    return _result(
        "substitution.nonneg_transfer",
        not problems,
        "; ".join(problems) or f"coded fixed-point sums stay nonnegative to {length}",
    )


# --- recurrences suite ---------------------------------------------------------


def check_lune(bounds: Bounds) -> CheckResult:
    terms = recurrences.lune_records(30)
    problems = []
    if terms[:5] != [0, 1, 3, 8, 20]:
        problems.append("initial terms differ")
    if any(terms[i + 2] != 6 * terms[i] - terms[i - 2] + 2 for i in range(2, len(terms) - 2)):
        problems.append("cross identity R_{n+2} = 6 R_n - R_{n-2} + 2 fails")
    rec = records(_spec("sqrt2"), bounds.walk)
    if rec != [t for t in terms if t <= bounds.walk]:
        problems.append(f"walk records to {bounds.walk} differ")
    return _result(
        "recurrences.lune", not problems, "; ".join(problems) or "recurrence = walk records"
    )


def check_kotesovec(bounds: Bounds) -> CheckResult:
    a = recurrences.kotesovec(10, "A")
    b = recurrences.kotesovec(10, "B")
    ok = a[:4] == [0, 3, 20, 119] and b[:4] == [0, 1, 8, 49]
    ok = ok and all(x == 6 * a[i + 1] - a[i] + 2 for i, x in enumerate(a[2:]))
    ok = ok and all(x == 6 * b[i + 1] - b[i] + 2 for i, x in enumerate(b[2:]))
    merged = sorted(set(a) | set(b))
    ok = ok and merged == recurrences.lune_records(20)
    return _result("recurrences.kotesovec", ok, "A/B recurrences and their merge with the records")


def check_halfpell(bounds: Bounds) -> CheckResult:
    terms = recurrences.half_pell(12)
    halves = [q // 2 for q in _even_denominators(10**10)]
    ok = terms[:4] == [1, 6, 35, 204] and terms == halves[: len(terms)]
    return _result("recurrences.halfpell", ok, "recurrence equals half even denominators")


def check_sqrt3(bounds: Bounds) -> CheckResult:
    bound = bounds.walk
    rec = records(_spec("sqrt3"), bound)[1:]
    terms = recurrences.sqrt3_records(40)
    expect = [t for t in terms if t <= bound]
    ok = rec == expect and terms[:13] == SQRT3_RECORDS
    return _result(
        "recurrences.sqrt3",
        ok,
        f"experimental system vs walk records to {bound}",
        conjectural=True,
    )


# --- registry ------------------------------------------------------------------


SUITES: dict[str, list] = {
    "walk": [
        check_table1,
        check_kimberling_signs,
        check_diff_hits,
        check_lemma_suite,
        check_records_sqrt2,
        check_records_2sqrt2,
        check_rules_engine,
        check_nonnegativity,
        check_sqrt3_printed,
        check_discrepancy,
    ],
    "automata": [
        check_zeros_language,
        check_br_digit_theorems,
        check_fixtures,
        check_numeration,
    ],
    "substitution": [
        check_fidelity,
        check_return_map,
        check_word_sums,
        check_nonneg_transfer,
    ],
    "recurrences": [
        check_lune,
        check_kotesovec,
        check_halfpell,
        check_sqrt3,
    ],
}


def run_suite(suite: str, scale: str) -> list[CheckResult]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    names = list(SUITES) if suite == "all" else [suite]
    if any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite {suite!r}")
    bounds = SCALES[scale]
    results = []
    for suite_name in names:
        for check in SUITES[suite_name]:
            try:
                result = check(bounds)
            except Exception as exc:  # a crashed check is a failed check
                name = check.__name__.replace("check_", f"{suite_name}.")
                result = CheckResult(name=name, ok=False, detail=f"{type(exc).__name__}: {exc}")
            results.append(result)
    return results
