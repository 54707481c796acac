"""Replay of recorded outputs: the benchmark's golden corpus (CLI stdout,
bad primes, structure-constant counts) and the closed root subsystems of
all 13 types, recorded with the Fraction span test before the enumeration
moved to integer Hermite forms."""

import json
from pathlib import Path

import pytest

from vermakit.chevalley import structure_constants
from vermakit.cli import main
from vermakit.rootsys import bad_primes, enumerate_closed_subsystems, parse_type

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "benchmarks" / "golden.json").read_text())
SUBSYSTEMS = json.loads(
    (Path(__file__).with_name("data") / "closed_subsystems.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN["cli"], ids=lambda e: " ".join(e["argv"]))
def test_cli_replay(capsys, entry):
    assert main(list(entry["argv"])) == 0
    assert capsys.readouterr().out == entry["stdout"]


@pytest.mark.parametrize("label", sorted(GOLDEN["bad_primes"]))
def test_bad_primes_replay(label):
    assert sorted(bad_primes(parse_type(label))) == GOLDEN["bad_primes"][label]


@pytest.mark.parametrize("label", sorted(GOLDEN["structure_constant_counts"]))
def test_structure_constant_counts_replay(label):
    sc = structure_constants(parse_type(label))
    assert len(list(sc.pairs())) == GOLDEN["structure_constant_counts"][label]


@pytest.mark.parametrize("label", sorted(SUBSYSTEMS))
def test_closed_subsystems_replay(label):
    got = [{"simple_system": [list(r) for r in rec["simple_system"]],
            "cartan": rec["cartan"], "det": rec["det"], "size": rec["size"]}
           for rec in enumerate_closed_subsystems(parse_type(label))]
    assert got == SUBSYSTEMS[label]
