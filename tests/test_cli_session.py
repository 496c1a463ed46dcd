"""The benchmark's scripted CLI session, replayed in-process.

Each session command with a fixed argv must exit and print exactly what
benchmarks/reference.json records, so a byte drift in any of them fails
here before it shows in the benchmark. The benchmark's helpers are loaded
read-only from benchmarks/common.py; the seeded commands (encode, decode)
draw their argument at benchmark time and are left out.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from walklab.cli import main

_COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "common.py"
_spec = importlib.util.spec_from_file_location("walklab_bench_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)

FIXED = [(key, argv, mask) for key, argv, mask in common.CLI_SESSION if argv is not None]


def test_session_has_eleven_fixed_commands():
    assert len(FIXED) == 11
    assert {key for key, argv, _ in common.CLI_SESSION if argv is None} == {"encode", "decode"}


@pytest.mark.parametrize("key, argv, mask", FIXED, ids=[key for key, _, _ in FIXED])
def test_session_command_matches_reference(key, argv, mask):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    want = common.load_reference()["cli"][key]
    got = {"exit": code, "stdout": common.stdout_digest(buf.getvalue().encode(), mask)}
    assert got == want
