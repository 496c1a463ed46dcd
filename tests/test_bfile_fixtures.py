"""CLI b-file output diffs exactly against bundled sequence prefixes.

The fixture files were written from published table values and the defining
recurrences alone, so agreement here ties the walk engine, the recurrence
generators and the output formatting together end to end.
"""

from pathlib import Path

import pytest

from walklab.cli import main
from walklab.numeration import pell_number
from walklab.cli import _series_text

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


def cli_text(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_a120243_prefix(capsys):
    out = cli_text(capsys, "seq", "--theta", "2sqrt2", "--which", "a", "--n", "18")
    assert out == fixture_text("A120243.bfile")


def test_a120749_prefix(capsys):
    out = cli_text(capsys, "seq", "--theta", "2sqrt2", "--which", "b", "--n", "18")
    assert out == fixture_text("A120749.bfile")


def test_a194368_prefix(capsys):
    out = cli_text(capsys, "zeros", "--theta", "2sqrt2", "--n", "86")
    assert out == fixture_text("A194368.bfile")


def test_a001652_prefix(capsys):
    out = cli_text(capsys, "recur", "--name", "kotesovecA", "--n", "7")
    assert out == fixture_text("A001652.bfile")


def test_a001108_prefix(capsys):
    out = cli_text(capsys, "recur", "--name", "kotesovecB", "--n", "7")
    assert out == fixture_text("A001108.bfile")


def test_a000129_pell_numbers():
    text = "".join(_series_text([pell_number(n) for n in range(12)], "bfile", "pell"))
    assert text == fixture_text("A000129.bfile")
