"""numpy, the walk engine and verify load only where a command needs them.

The digit-level commands run in a fresh interpreter without numpy; the
package root and the CLI resolve the walk names on first access, and the
CLI's walk names stay patchable module globals, as the benchmark's tracer
expects (it looks them up, reads their __module__ and setattr-patches them).
"""

import argparse
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walklab
from walklab import cli, verify, walk

ROOT = Path(__file__).resolve().parents[1]
_COMMON = ROOT / "benchmarks" / "common.py"
_spec = importlib.util.spec_from_file_location("walklab_bench_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)

HEAVY = ("numpy", "walklab.walk", "walklab.verify")

# the benchmark's launcher, with a report of the heavy modules on stderr at exit
PROBE = (
    "import atexit, sys; atexit.register(lambda: sys.stderr.write("
    f"'\\nloaded:' + ','.join(m for m in {HEAVY!r} if m in sys.modules))); "
    + common.CLI_LAUNCHER
)


def loaded_after(*argv: str) -> tuple[int, set[str]]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    report = proc.stderr.rsplit("\nloaded:", 1)[1].strip()
    return proc.returncode, set(filter(None, report.split(",")))


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--base", "sqrt2m1", "69"],
        ["decode", "--base", "sqrt2m1", "20201"],
        ["dfa", "build", "--kind", "records", "--base", "sqrt2m1"],
        ["recur", "--name", "halfpell", "--n", "30"],
        ["subst", "--m", "2", "--emit", "coded", "--len", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_digit_commands_start_without_numpy(argv):
    assert loaded_after(*argv) == (0, set())


def test_usage_errors_start_without_numpy():
    assert loaded_after("verify", "--suite", "nonsense") == (2, set())
    assert loaded_after("encode", "--base", "nonsense", "5") == (2, set())


def test_array_commands_load_what_they_use():
    assert loaded_after("walk", "--theta", "2sqrt2", "--n", "10") == (
        0, {"numpy", "walklab.walk"}
    )
    assert loaded_after("verify", "--suite", "recurrences") == (0, set(HEAVY))


WALK_EXPORTS = (
    "AbSequences", "RuleEngine", "WalkSpec", "WalkTrace", "ab_sequences", "brute_walk",
    "diff_hits", "discrepancy", "lemma_checks", "records", "walk_spec", "zeros",
)


@pytest.mark.parametrize("name", WALK_EXPORTS)
def test_root_walk_exports_are_the_walk_objects(name):
    assert getattr(walklab, name) is getattr(walk, name)
    assert name in dir(walklab)


def test_root_from_import_and_unknown_name():
    from walklab import brute_walk, zeros

    assert (brute_walk, zeros) == (walk.brute_walk, walk.zeros)
    assert "encode" in dir(walklab)
    with pytest.raises(AttributeError, match="no_such_name"):
        walklab.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


TRACED = {
    "walk_spec": "walklab.walk", "brute_walk": "walklab.walk", "records": "walklab.walk",
    "zeros": "walklab.walk", "ab_sequences": "walklab.walk", "ab_terms": "walklab.walk",
    "discrepancy": "walklab.walk", "encode": "walklab.numeration",
    "decode": "walklab.numeration", "cf_expand": "walklab.qarith",
}


@pytest.fixture
def unbound_cli(monkeypatch):
    """The CLI as a fresh interpreter has it: no walk name bound yet."""
    for name in cli._WALK_NAMES:
        monkeypatch.delitem(vars(cli), name, raising=False)
    return cli


def test_traced_names_resolve_to_their_layers(unbound_cli):
    assert set(cli._WALK_NAMES) <= set(TRACED)
    for name, module in TRACED.items():
        assert getattr(unbound_cli, name).__module__ == module, name
    assert unbound_cli.records is walk.records


# the names the traced `cli` run also patches on verify (`Cli.targets` in
# benchmarks/worker.py); a name verify stops importing crashes that run
VERIFY_TRACED = {
    "walk_spec": "walklab.walk", "brute_walk": "walklab.walk", "records": "walklab.walk",
    "zeros": "walklab.walk", "ab_sequences": "walklab.walk", "discrepancy": "walklab.walk",
    "lemma_checks": "walklab.walk", "encode": "walklab.numeration",
    "decode": "walklab.numeration", "cf_expand": "walklab.qarith",
}


def test_verify_traced_names_resolve_to_their_layers():
    for name, module in VERIFY_TRACED.items():
        assert getattr(verify, name).__module__ == module, name


def cli_out(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--theta", "2sqrt2", "--which", "a", "--n", "3"],
        ["walk", "--theta", "2sqrt2", "--n", "3", "--emit", "ab", "--format", "csv"],
        ["walk", "--theta", "2sqrt2", "--n", "3", "--emit", "diff"],
        ["records", "--theta", "2sqrt2", "--n", "3"],
        ["zeros", "--theta", "2sqrt2", "--n", "3"],
        ["discrepancy", "--xi", "sqrt2m1", "--n", "3"],
    ],
    ids=["seq", "walk-ab", "walk-diff", "records", "zeros", "discrepancy"],
)
def test_walk_commands_bind_the_names_they_call(unbound_cli, argv):
    code, out = cli_out(argv)
    assert code == 0 and out


def test_patched_walk_name_is_called_and_restored(unbound_cli):
    argv = ["records", "--theta", "sqrt2", "--n", "100", "--format", "plain"]
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return original(*args)

    # the tracer's order: look the name up, patch it, run main, put it back
    original = getattr(unbound_cli, "records")
    setattr(unbound_cli, "records", spy)
    try:
        patched = cli_out(argv)
    finally:
        setattr(unbound_cli, "records", original)
    assert calls == [(100,)]
    assert patched == cli_out(argv) == (0, "0\n1\n3\n8\n20\n49\n")
    assert calls == [(100,)] and unbound_cli.records is walk.records


def test_verify_choices_follow_verify():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in commands.choices["verify"]._actions}
    assert tuple(options["suite"].choices) == ("all", *verify.SUITES)
    assert tuple(options["scale"].choices) == tuple(verify.SCALES)
