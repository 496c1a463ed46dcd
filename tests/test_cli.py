import hashlib
import json
import sys

import pytest

from walklab.cli import main
from walklab.numeration import encode, format_digits
from walklab.qarith import cf_expand, parse_surd
from walklab.recurrences import half_pell


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_seq_table1_row(capsys):
    code, out = run_cli(capsys, "seq", "--theta", "2sqrt2", "--which", "a", "--n", "18")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [1, 3, 5, 6, 8, 10, 13, 15, 17, 18, 20, 22, 25, 27, 29, 30, 32, 34]


def test_zeros_bfile(capsys):
    code, out = run_cli(capsys, "zeros", "--theta", "2sqrt2", "--n", "100", "--format", "bfile")
    assert code == 0
    assert out.startswith("1 0\n2 2\n3 4\n4 12\n")


def test_encode_decode(capsys):
    code, out = run_cli(capsys, "encode", "--base", "sqrt2m1", "69")
    assert (code, out) == (0, "20201\n")
    code, out = run_cli(capsys, "decode", "--base", "sqrt2m1", "20201")
    assert (code, out) == (0, "69\n")
    code, out = run_cli(capsys, "encode", "--base", "sqrt2m1", "--lsd", "69")
    assert (code, out) == (0, "10202\n")


def int_text_cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def long_str(n: int) -> str:
    """str(n) past CPython's 4300-digit int <-> str cap, restoring the cap after."""
    cap = int_text_cap()
    if cap is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(cap)


def test_encode_decode_past_int_text_cap(capsys):
    cap = int_text_cap()
    n_text = "1" + "0" * 4999 + "7"  # 10**5000 + 7, longer than the 4300-digit cap
    code, word = run_cli(capsys, "encode", "--base", "sqrt2m1", n_text)
    assert code == 0
    digits = encode(10**5000 + 7, cf_expand(parse_surd("sqrt2m1"))).digits
    assert word == format_digits(digits, msd=True, alphabet=3) + "\n"
    code, out = run_cli(capsys, "decode", "--base", "sqrt2m1", word.strip())
    assert (code, out) == (0, n_text + "\n")
    assert int_text_cap() == cap  # the cap is lifted for the command only


def test_recur_past_int_text_cap(capsys):
    # about the fewest terms whose last one passes the cap: printing them
    # costs seconds, since int -> str is quadratic in the digit count
    code, out = run_cli(capsys, "recur", "--name", "halfpell", "--n", "11300")
    assert code == 0
    lines = out.splitlines()
    last = long_str(half_pell(11300)[-1])
    assert len(lines) == 11300 and len(last) > 4300
    assert lines[-1].split()[-1] == last


def test_walk_emits(capsys):
    code, out = run_cli(capsys, "walk", "--theta", "2sqrt2", "--n", "4", "--emit",
                        "sums", "--format", "plain")
    assert code == 0 and out == "1\n0\n1\n0\n"
    code, out = run_cli(capsys, "walk", "--theta", "2sqrt2", "--n", "4", "--emit",
                        "signs", "--format", "plain")
    assert code == 0 and out == "1\n-1\n1\n-1\n"
    code, out = run_cli(capsys, "walk", "--theta", "2sqrt2", "--n", "10", "--emit",
                        "ab", "--format", "json")
    data = json.loads(out)
    assert data["a"][:4] == [1, 3, 5, 6] and data["b"][:3] == [2, 4, 7]


@pytest.mark.parametrize(
    "argv, head, size, sha256",
    [
        (
            "walk --theta 2sqrt2 --emit ab --format json --n 200000",
            '{"name": "ab", "a": [1, 3, 5, 6, 8, 10, 13, ',
            1488924,
            "748841ec3d365321798615ff9110c437ffa7eae695fcb1f77c9c8cbdbc80efd6",
        ),
        (
            "walk --theta sqrt3 --emit sums --format json --n 100000",
            '{"name": "sums", "values": [-1, -2, -3, -2, -1, 0, 1, 0, ',
            399783,
            "8ae3ba400c05b1d6031f2058bf7d1863b79364cb0c8a6d951a0318b9f6cdbf45",
        ),
        (
            "recur --name halfpell --n 100 --format json",
            '{"name": "halfpell", "values": [1, 6, 35, 204, 1189, ',
            4074,
            "947190f8cd75cd3e6227ed878977985f9b5553b50594010e59e96c39fed818fe",
        ),
    ],
)
def test_json_emission_pinned(capsys, argv, head, size, sha256):
    # numpy arrays and lists of (huge) ints print the same json text; the
    # digests pin the output of the per-item int() conversion
    code, out = run_cli(capsys, *argv.split())
    assert code == 0 and out.startswith(head) and out.endswith("]}\n")
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_walk_records_subcommand(capsys):
    code, out = run_cli(capsys, "records", "--theta", "2sqrt2", "--n", "300",
                        "--format", "plain")
    assert code == 0 and out == "0\n1\n6\n35\n204\n"


def test_walk_diff_emit(capsys):
    code, out = run_cli(capsys, "walk", "--theta", "2sqrt2", "--n", "6", "--emit",
                        "diff", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,value"
    assert out.splitlines()[1] == "1,1"


def test_recur_bfile(capsys):
    code, out = run_cli(capsys, "recur", "--name", "sqrt3", "--n", "5", "--format", "bfile")
    assert code == 0 and out == "1 1\n2 2\n3 3\n4 7\n5 18\n"


def test_discrepancy(capsys):
    code, out = run_cli(capsys, "discrepancy", "--xi", "sqrt2m1", "--endpoint", "1/2",
                        "--n", "4", "--format", "plain")
    assert code == 0 and out == "1\n0\n1\n0\n"


def test_dfa_build_dot(capsys):
    code, out = run_cli(capsys, "dfa", "build", "--kind", "zeros", "--base", "sqrt2m1")
    assert code == 0
    assert out.startswith("digraph dfa {")
    assert "doublecircle" in out


def test_dfa_build_table(capsys):
    code, out = run_cli(capsys, "dfa", "build", "--kind", "records", "--base",
                        "sqrt2m1", "--out", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("states ")


def test_subst_emits(capsys):
    code, out = run_cli(capsys, "subst", "--m", "2", "--emit", "sigma")
    assert code == 0 and out.splitlines()[0] == "a -> aacac"
    code, out = run_cli(capsys, "subst", "--m", "2", "--emit", "coded", "--len", "5")
    assert code == 0 and out == "11010\n"
    code, out = run_cli(capsys, "subst", "--m", "1", "--emit", "sigma")
    assert code == 0 and out.splitlines()[0] == "a -> acacbacaccacb"


def test_output_determinism(capsys):
    args = ("walk", "--theta", "sqrt3", "--n", "500", "--emit", "records", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run_cli(capsys, "encode", "--base", "sqrt2m1", "-o", str(target), "69")
    assert code == 0 and out == ""
    assert target.read_text() == "20201\n"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["walk", "--theta", "nonsense", "--n", "5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["walk", "--theta", "2sqrt2", "--n", "5", "--emit", "ab", "--format", "bfile"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["seq", "--theta", "2sqrt2", "--which", "a", "--n", "-3"], "term count must be >= 0"),
        (["walk", "--theta", "2sqrt2", "--emit", "diff", "--n", "-3"], "term count must be >= 0"),
        (["discrepancy", "--xi", "sqrt2m1", "--n", "-5"], "walk length must be >= 0"),
    ],
)
def test_negative_length_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_discrepancy_zero_length_prints_nothing(capsys):
    assert run_cli(capsys, "discrepancy", "--xi", "sqrt2m1", "--n", "0") == (0, "")


def test_subst_odd_m_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["subst", "--m", "3", "--emit", "sigma"])
    assert err.value.code == 2


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "recurrences", "--scale", "quick")
    assert code == 0
    assert "recurrences.lune" in out
    assert "conjectural: pass" in out  # the sqrt3 system is reported, not asserted


def test_verify_injected_failure_names_check(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "recurrences", "--scale", "quick",
                        "--inject-failure", "recurrences.halfpell")
    assert code == 1
    assert "first failure: recurrences.halfpell" in out


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "substitution", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["scale"] == "quick"
    assert all(c["status"] == "pass" for c in data["checks"])
