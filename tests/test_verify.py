from walklab import automata, numeration, verify
from walklab.qarith import cf_expand, parse_surd


def test_crashed_checks_keep_their_names(monkeypatch):
    # a crashed check is reported under the name its passing run shows
    passing = verify.run_suite("all", "quick")
    assert all(r.ok for r in passing), [r.name for r in passing if not r.ok]

    def crashing(check):
        def crash(bounds):
            raise RuntimeError("injected")

        crash.__name__ = check.__name__
        return crash

    for suite, checks in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, suite, [crashing(c) for c in checks])
    crashed = verify.run_suite("all", "quick")
    assert [r.name for r in crashed] == [r.name for r in passing]
    assert all(not r.ok and r.detail == "RuntimeError: injected" for r in crashed)


def test_br_digit_theorems_catch_a_broken_zero_machine(monkeypatch):
    # index 1 is a record of 2sqrt2 but not a zero, so the record machine
    # passed off as the zero machine disagrees with the zero set
    def build_zero_dfa(cf):
        return automata.build_record_dfa(cf)

    monkeypatch.setattr(automata, "build_zero_dfa", build_zero_dfa)
    results = {r.name: r for r in verify.run_suite("automata", "quick")}
    theorems = results["automata.br_digit_theorems"]
    assert not theorems.ok and "build_zero_dfa" in theorems.detail, theorems.detail


def test_br_digit_theorems_catch_a_broken_record_machine(monkeypatch):
    # index 1 is a record of 2sqrt2 but not a zero, so the zero machine
    # passed off as the record machine disagrees with the record set
    def build_record_dfa(cf):
        return automata.build_zero_dfa(cf)

    monkeypatch.setattr(automata, "build_record_dfa", build_record_dfa)
    results = {r.name: r for r in verify.run_suite("automata", "quick")}
    theorems = results["automata.br_digit_theorems"]
    assert not theorems.ok and "build_record_dfa" in theorems.detail, theorems.detail
    assert "build_zero_dfa" not in theorems.detail, theorems.detail


def test_numeration_check_catches_a_non_canonical_word(monkeypatch):
    # b_0 = 2 = a_1 breaks condition (a) on Pell, yet decodes to 2: a
    # roundtrip alone would pass it
    pell = cf_expand(parse_surd("sqrt2m1"))
    real_encode = verify.encode

    def encode(n, base):
        if n == 2 and (base.preperiod, base.period) == (pell.preperiod, pell.period):
            return numeration._canonical_word((2,), base)
        return real_encode(n, base)

    monkeypatch.setattr(verify, "encode", encode)
    results = {r.name: r for r in verify.run_suite("automata", "quick")}
    check = results["automata.numeration"]
    assert not check.ok, check.detail
    assert "sqrt2m1: encode(2) is not canonical: b_0 = 2 not below a_1 = 2" in check.detail


def _redirect(dfa, state, digit, target):
    """The machine with one transition pointed elsewhere."""
    rows = [list(row) for row in dfa.transitions]
    rows[state][digit] = target
    return automata.DigitDfa(transitions=tuple(map(tuple, rows)), accepting=dfa.accepting)


def test_zeros_language_names_the_word_of_a_broken_fixture(monkeypatch):
    # state 2 of the zero fixture has read 00; sending its digit 1 to the
    # accepting state 3 admits msd 100, n = 5, which is not a zero
    real_fixture = automata.hardcoded_fixture

    def hardcoded_fixture(name):
        dfa = real_fixture(name)
        return _redirect(dfa, 2, 1, 3) if name == "zeros_2sqrt2" else dfa

    monkeypatch.setattr(automata, "hardcoded_fixture", hardcoded_fixture)
    results = {r.name: r for r in verify.run_suite("automata", "quick")}
    check = results["automata.zeros_language"]
    assert not check.ok
    assert check.detail == (
        "zeros_2sqrt2 differs from build_zero_dfa at lsd word (0, 0, 1) (n = 5)"
    )
    assert results["automata.fixtures"].ok


def test_numeration_check_fails_on_a_loose_validity_machine(monkeypatch):
    # a validity machine that also admits b_0 = a_1 counts more canonical
    # words than there are values below q_L; the per-n loop cannot see it
    real_build = automata.build_validity_dfa

    def build_validity_dfa(cf):
        dfa = real_build(cf)
        return _redirect(dfa, 0, cf.quotient(1), dfa.transitions[0][1])

    pell = cf_expand(parse_surd("sqrt2m1"))
    loose = build_validity_dfa(pell)
    assert automata.run(loose, [2]) == automata.ACCEPT
    assert automata.run(real_build(pell), [2]) == automata.INVALID
    monkeypatch.setattr(automata, "build_validity_dfa", build_validity_dfa)
    results = {r.name: r for r in verify.run_suite("automata", "quick")}
    check = results["automata.numeration"]
    assert not check.ok, check.detail
    count = automata.canonical_words(loose, 10)
    assert count > 5741
    assert f"sqrt2m1: {count} canonical words below q_10 = 5741" in check.detail
