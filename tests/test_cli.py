import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_walk import STREAM_NS
from walklab import verify, walk
from walklab.cli import _int_rows, _pair_text, _series_text, main
from walklab.numeration import encode, format_digits
from walklab.qarith import cf_expand, parse_surd
from walklab.recurrences import half_pell
from walklab.walk import _CHUNK, _steps, brute_walk, discrepancy, walk_spec


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


def walk_array(spec, n: int, sums: bool):
    """The array walk --emit sums|signs prints."""
    return discrepancy(spec.rotation, Fraction(1, 2), n) if sums else _steps(spec, n)


@pytest.mark.parametrize("sums", [True, False], ids=["sums", "signs"])
def test_walk_array_is_the_trace_array_alone(sums):
    # walk --emit sums|signs prints the trace's array, built without the
    # other one: at 2^22 steps the whole trace is 20 MiB
    spec = walk_spec(parse_surd("sqrt3"))
    trace = brute_walk(spec, 3 * _CHUNK + 5)
    want = trace.sums if sums else trace.signs
    got = walk_array(spec, trace.n, sums)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    tracemalloc.start()
    try:
        printed = walk_array(spec, 2**22, sums).nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert printed == (4 if sums else 1) * 2**22 and peak < printed + 3 * 2**20, peak


@pytest.mark.parametrize("fmt", ["bfile", "csv", "plain"])
def test_walk_sums_print_as_the_discrepancy_at_one_half(capsys, fmt):
    # S_n = 2*D_n over [0, 1/2) of the rotation {2sqrt2 / 2} = sqrt2 - 1
    for n in STREAM_NS:
        argv = ["--n", str(n), "--format", fmt]
        sums = run_cli(capsys, "walk", "--theta", "2sqrt2", "--emit", "sums", *argv)
        profile = run_cli(capsys, "discrepancy", "--xi", "sqrt2m1", *argv)
        assert sums == profile and sums[0] == 0, n


def test_ab_format_is_rejected_before_walking(capsys, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(walk, "_indicator_blocks", no_kernel)
    with pytest.raises(SystemExit) as err:
        main(["walk", "--theta", "2sqrt2", "--emit", "ab", "--n", "100000000"])
    assert err.value.code == 2
    assert "a/b emission needs --format csv or json" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, head, size, sha256",
    [
        (
            "walk --theta 2sqrt2 --emit sums --n 1000000",
            "1 1\n2 0\n3 1\n4 0\n5 1\n6 2\n7 1\n8 2\n9 1\n10 2\n",
            8888896,
            "8450bffd12d9eaea6714ea3e5185745246b4916f660c08d12ca903eb9c78e72d",
        ),
        (
            "seq --theta 2sqrt2 --which a --n 200000 --format csv",
            "n,value\n1,1\n2,3\n3,5\n4,6\n5,8\n6,10\n7,13\n",
            2633347,
            "3cb5f24a27616e016a2d0f9180be1725a43455a40205487d92c7500baa7bb299",
        ),
        (
            "discrepancy --xi sqrt2m1 --n 100000 --format csv",
            "n,value\n1,1\n2,0\n3,1\n4,0\n5,1\n6,2\n7,1\n",
            788903,
            "326f42acb734eb2e806a72d02b17d62f5485ce9b4d8a68b35ab549e8bdb618d6",
        ),
        (
            "walk --theta sqrt3 --emit signs --format plain --n 100000",
            "-1\n-1\n-1\n1\n1\n1\n1\n-1\n",
            250002,
            "f3dd33d6fedf13878b1b78d64a3d5baf36932cf335f54f8b53c28eae10734c00",
        ),
        (
            "walk --theta 2sqrt2 --emit ab --format csv --n 200000",
            "n,a,b\n1,1,2\n2,3,4\n3,5,7\n4,6,9\n5,8,11\n",
            1877755,
            "34941c2a406ed43e260c65966db69c467333649512f9374cdb142cb24083a5b8",
        ),
        (
            "walk --theta 2sqrt2 --emit diff --n 100000",
            "1 1\n2 1\n3 2\n4 3\n5 3\n6 2\n7 1\n",
            800361,
            "d3d45a01bb31972a0b56042577137bbdb54c47390398bb646256d160a47c0431",
        ),
    ],
)
def test_array_emission_pinned(capsys, argv, head, size, sha256):
    # bytes of the per-line f-string output that the array kernel replaced
    code, out = run_cli(capsys, *argv.split())
    assert code == 0 and out.startswith(head)
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# --- the array formatting kernel against str() -------------------------------

EDGES = [0, 1, -1, 2**63 - 1, -(2**63)] + [
    s * (10**k + e) for k in range(1, 19) for e in (-1, 0) for s in (1, -1)
]


def reference_rows(columns, sep):
    return "".join(sep.join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, or a short report of the first differing line: pytest's
    own diff of two megabyte texts takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    i = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    pytest.fail(f"line {i + 1}: got {got_lines[i:i + 1]!r}, want {want_lines[i:i + 1]!r}, "
                f"{len(got)} vs {len(want)} chars")


def random_int64(rng, n):
    """int64 values of every magnitude, with edge values sprinkled in."""
    values = rng.integers(-(2**63), 2**63, n, dtype=np.int64) >> rng.integers(0, 64, n)
    if n:
        values[rng.integers(0, n, 64)] = rng.choice(EDGES, 64)
    return values


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 3), max_size=40),
    st.integers(1, 3),
    st.sampled_from([" ", ","]),
)
def test_int_rows_matches_str(rows, width, sep):
    columns = [np.array([r[c] for r in rows], dtype=np.int64) for c in range(width)]
    assert "".join(_int_rows(columns, sep)) == reference_rows(columns, sep)


def test_int_rows_edge_values():
    values = np.array(EDGES, dtype=np.int64)
    assert "".join(_int_rows([values], " ")) == "".join(f"{v}\n" for v in EDGES)
    pairs = [values, values[::-1].copy()]
    assert "".join(_int_rows(pairs, ",")) == reference_rows(pairs, ",")


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_int_rows_block_edges(n):
    rng = np.random.default_rng(n)
    columns = [np.arange(1, n + 1), random_int64(rng, n), random_int64(rng, n)]
    chunks = list(_int_rows(columns, ","))
    assert len(chunks) == -(-n // _CHUNK)  # one chunk per block, none when empty
    assert_same_text("".join(chunks), reference_rows(columns, ","))
    # an index column given as a range is made one block at a time
    assert list(_int_rows([range(1, n + 1), *columns[1:]], ",")) == chunks


# the magnitudes where a block's digit passes move from uint32 to uint64
SWITCH = [2**32 - 1, 2**32, 2**63 - 1, -(2**63)]


@pytest.mark.parametrize("together", [True, False], ids=["one-block", "neighbouring-blocks"])
def test_int_rows_across_the_uint32_uint64_switch(together):
    # the switch values all in one block, or each in its own block, with
    # the blocks around them in uint32; in both columns, at different rows
    blocks = 1 if together else len(SWITCH) + 1
    rng = np.random.default_rng(len(SWITCH) + blocks)
    n = blocks * _CHUNK
    columns = [rng.integers(-(2**32) + 1, 2**32, n, dtype=np.int64) for _ in range(2)]
    for i, v in enumerate(SWITCH):
        row = 7 * i if together else i * _CHUNK + 7 * i
        columns[0][row] = v
        columns[1][n - 1 - row] = v
    assert set(SWITCH) <= set(columns[0].tolist()) & set(columns[1].tolist())
    assert_same_text("".join(_int_rows(columns, ",")), reference_rows(columns, ","))


@pytest.mark.parametrize("n", [1, _CHUNK + 1], ids=["one-row", "full-and-one-row-blocks"])
def test_int_rows_all_negative_and_all_zero_columns(n):
    # every row signed, or every field a single "0"; the last block has one row
    rng = np.random.default_rng(n)
    columns = [
        -rng.integers(1, 10, n),
        np.zeros(n, dtype=np.int64),
        -rng.integers(1, 2**40, n),
        np.full(n, -(2**63)),
        np.zeros(n, dtype=np.int8),
    ]
    for sep in (" ", ","):
        assert_same_text("".join(_int_rows(columns, sep)), reference_rows(columns, sep))


@pytest.mark.parametrize("n", [0, 1, 5, _CHUNK + 1])
@pytest.mark.parametrize("fmt", ["bfile", "csv", "plain"])
@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_series_text_array_matches_list(dtype, fmt, n):
    # the Python-int path (one f-string join) is the reference for arrays;
    # int8 columns are the walk's signs
    rng = np.random.default_rng(n)
    values = random_int64(rng, n) if dtype is np.int64 else rng.choice([-1, 1], n).astype(np.int8)
    text = "".join(_series_text(values, fmt, "v"))
    assert_same_text(text, "".join(_series_text(values.tolist(), fmt, "v")))
    if fmt == "csv":
        assert text.startswith("n,value\n")
        assert n or text == "n,value\n"


@pytest.mark.parametrize("n", [0, 3, _CHUNK + 2])
def test_pair_text_csv_matches_fstrings(n):
    rng = np.random.default_rng(n)
    a, b = random_int64(rng, n), random_int64(rng, n + 3)  # b longer: rows stop at a's end
    expected = "n,a,b\n" + "".join(
        f"{i},{x},{y}\n" for i, (x, y) in enumerate(zip(a.tolist(), b.tolist()), start=1)
    )
    assert_same_text("".join(_pair_text(a, b, "csv", "ab")), expected)


@pytest.mark.parametrize("n", [0, 1, _CHUNK + 1], ids=["empty", "one", "across-a-block"])
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
def test_json_array_text_matches_json_dumps(dtype, n):
    # an array's items stream block by block; json.dumps of the same Python
    # ints is the reference, from [] to the edges of each dtype
    rng = np.random.default_rng(n)
    info = np.iinfo(dtype)
    values = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    values[: min(n, 2)] = [info.min, info.max][: min(n, 2)]
    want = json.dumps({"name": "v", "values": values.tolist()}) + "\n"
    assert_same_text("".join(_series_text(values, "json", "v")), want)


def test_pair_json_matches_json_dumps():
    rng = np.random.default_rng(7)
    a = rng.integers(1, 2**30, _CHUNK + 1, dtype=np.int32)
    b = rng.integers(1, 2**30, 2 * _CHUNK + 3, dtype=np.int32)  # b longer: all of it prints
    want = json.dumps({"name": "ab", "a": a.tolist(), "b": b.tolist()}) + "\n"
    assert_same_text("".join(_pair_text(a, b, "json", "ab")), want)
    assert "".join(_pair_text(a[:0], b[:0], "json", "ab")) == '{"name": "ab", "a": [], "b": []}\n'


def test_json_emission_holds_no_whole_text():
    # 2^22 full-width int32 terms are ~50 MB of json text, and a list of
    # their Python ints more; the stream holds a few blocks of each
    values = np.random.default_rng(0).integers(-(2**31), 2**31, 2**22).astype(np.int32)
    tracemalloc.start()
    try:
        size = sum(map(len, _series_text(values, "json", "v")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 45 * 2**20 and peak < 8 * 2**20, peak


def cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def cli_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", *argv],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stream_without_buffer_matches_subprocess(tmp_path):
    # the output layer writes str chunks to sys.stdout, so a StringIO stdout
    # (no .buffer) gets the same text as a real one, over several blocks
    argv = ["walk", "--theta", "2sqrt2", "--emit", "sums", "--n", str(3 * _CHUNK + 5)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    expected = cli_subprocess(*argv).decode()
    assert_same_text(buf.getvalue(), expected)
    target = tmp_path / "sums.bfile"
    assert main([*argv, "-o", str(target)]) == 0
    assert_same_text(target.read_bytes().decode(), expected)


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    with pytest.raises(SystemExit) as err:
        main(["walk", "--theta", "2sqrt2", "--n", "5", "-o", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write output" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["encode", "--base", "(1+1000*sqrt(7))/997", "5"],
    ["walk", "--theta", "(1+1000*sqrt(7))/997", "--n", "5"],
])
def test_period_past_the_term_bound_exit_2(argv, capsys):
    # the surd is legal, but its continued fraction does not repeat within
    # the 10^5 terms cf_expand searches: a usage error, not a traceback
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not repeat within 100000 terms" in captured.err
    assert "Traceback" not in captured.err


def test_closed_pipe_exits_quietly():
    # a reader that stops after two lines (`| head -2`) is not a usage error
    proc = subprocess.Popen(
        [sys.executable, "-m", "walklab.cli", "walk", "--theta", "2sqrt2", "--n", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head == [b"1 1\n", b"2 0\n"]
    assert err == b""


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


# recur output as printed before the generators became rows of one table:
# [name, format, n, size, sha256] for n = the row's first index, 7, 40, 300
RECUR_PINS = json.loads((Path(__file__).parent / "fixtures" / "recur_pins.json").read_text())


@pytest.mark.parametrize("name, fmt, n, size, sha256", RECUR_PINS)
def test_recur_pinned(capsys, name, fmt, n, size, sha256):
    code, out = run_cli(capsys, "recur", "--name", name, "--n", str(n), "--format", fmt)
    data = out.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


@pytest.mark.parametrize("name, first", [("halfpell", 1), ("kotesovecA", 0), ("kotesovecB", 0),
                                         ("lune", 0), ("sqrt3", 1)])
def test_recur_before_first_index_exit_2(capsys, name, first):
    with pytest.raises(SystemExit) as err:
        main(["recur", "--name", name, "--n", str(first - 1)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"n must be >= {first}" in captured.err


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


@pytest.mark.parametrize(
    "case, size, sha256",
    [
        ("zeros sqrt2m1 dot", 780,
         "a4d3a9b297233b1bdd91b79e8af2734ac552f1bfedb785ea56a21a9a3d6b4018"),
        ("zeros sqrt2m1 table", 153,
         "d7d8e8d0b4bab2f003627c9dbf389204cef51c0e95c334b837aa7ea064f6d0ce"),
        ("zeros sqrt2m1over2 dot", 772,
         "5d068ffe04da4a2063d06420adf8a452eb3ae285449cea045b1ecb41f54d8d2a"),
        ("zeros sqrt2m1over2 table", 189,
         "c292cf605503b06771a79f362ee1df540a791d5147678e1ca508b22c9e857c75"),
        ("zeros xi4 dot", 812,
         "bb10233e9ed155c8dbd35f1b8994cef3dfe664e854f5e406f66d16a865d602f3"),
        ("zeros xi4 table", 189,
         "98d93c7a4dbbf7b20709ad83c3e0ed69be7dfaa675bd58a5f760930ea0638009"),
        ("records sqrt2m1 dot", 890,
         "20d79f7b2f50d99cc5dd0ae38cf119323303007bbd44f92ae07fa676525f926c"),
        ("records sqrt2m1 table", 166,
         "c9872220d3074f57899c3ab62351dcff15141935fa634442aa7e9c497a2b4002"),
        ("records sqrt2m1over2 dot", 986,
         "8541deccc7211ebcd70762936713b47d44e86c6ba94dcae856322f72acaf0853"),
        ("records sqrt2m1over2 table", 249,
         "5ef0d4ba263b8790dddafc84b2d24a16d2e3e366d03799deca40e7625eecf9ec"),
        ("records xi4 dot", 1082,
         "aed005cd91f637c182a8dcf0ad1a2deb17a207ddf815b4b7d27deb036d9f3f46"),
        ("records xi4 table", 234,
         "6deccd289a3ac2bc40b796c3911d116e2e146c38b176aa4e91cc5607eb46f309"),
    ],
)
def test_dfa_build_pinned(capsys, case, size, sha256):
    # bytes of the DOT and table text, pinned when machines still carried
    # their digit order and start state as fields
    kind, base, out = case.split()
    code, text = run_cli(capsys, "dfa", "build", "--kind", kind, "--base", base, "--out", out)
    assert code == 0
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


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
        (["walk", "--theta", "2sqrt2", "--n", "-5"], "walk length must be >= 0"),
        (["subst", "--m", "2", "--emit", "fixedpoint", "--len", "-5"],
         "prefix length must be >= 0"),
    ],
)
def test_negative_length_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_discrepancy_past_int64_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["discrepancy", "--xi", "sqrt2m1", "--endpoint", f"{2**61}/{2**62 + 1}",
              "--n", "2000"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflow int64" in captured.err


def test_discrepancy_zero_length_prints_nothing(capsys):
    assert run_cli(capsys, "discrepancy", "--xi", "sqrt2m1", "--n", "0") == (0, "")


def test_walk_zero_length_prints_nothing(capsys):
    assert run_cli(capsys, "walk", "--theta", "2sqrt2", "--n", "0") == (0, "")


def test_subst_odd_m_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["subst", "--m", "3", "--emit", "sigma"])
    assert err.value.code == 2


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "recurrences", "--scale", "quick")
    assert code == 0
    assert "recurrences.lune" in out
    assert "conjectural: pass" in out  # the sqrt3 system is reported, not asserted


@pytest.mark.parametrize("suite", ["automata", "walk"])
def test_verify_suite_passes(capsys, suite):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--scale", "quick")
    *lines, summary = out.splitlines()
    assert code == 0 and summary.endswith("0 failed (scale=quick)")
    assert lines and all(line.startswith("pass ") for line in lines), out


def test_verify_injected_failure_names_check(capsys, monkeypatch):
    def check_halfpell(bounds):
        return verify.CheckResult(name="recurrences.halfpell", ok=False, detail="injected")

    checks = [
        check_halfpell if c is verify.check_halfpell else c for c in verify.SUITES["recurrences"]
    ]
    monkeypatch.setitem(verify.SUITES, "recurrences", checks)
    code, out = run_cli(capsys, "verify", "--suite", "recurrences", "--scale", "quick")
    assert code == 1
    assert "first failure: recurrences.halfpell" in out


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "substitution", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["scale"] == "quick"
    assert all(c["status"] == "pass" for c in data["checks"])
