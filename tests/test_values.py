"""The library's value classes behave as the dataclasses they replace did,
and importing the CLI pulls in none of the modules dataclasses needs."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vermakit.criteria import CaseReport
from vermakit.rootsys import SimpleSubset, Weight
from vermakit.uea import DeformationContext
from vermakit.weightmod import Character

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_out_dataclasses_and_its_imports():
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, vermakit.cli; "
         f"print(sorted(set({unwanted!r}) & set(sys.modules)))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# (instance, an equal instance built apart, one that differs, field tuple, repr)
VALUES = [
    (Weight.of(Fraction(1, 2), -1), Weight((Fraction(1, 2), Fraction(-1))),
     Weight.of(Fraction(1, 2), 1), ((Fraction(1, 2), Fraction(-1)),),
     "Weight(coords=(Fraction(1, 2), Fraction(-1, 1)))"),
    (SimpleSubset.of(2, 0), SimpleSubset(frozenset({0, 2})),
     SimpleSubset.of(0), (frozenset({0, 2}),),
     "SimpleSubset(members=frozenset({0, 2}))"),
    (DeformationContext(5, 1, 6), DeformationContext(p=5, n=1, depth=6),
     DeformationContext(5, 1, 7), (5, 1, 6),
     "DeformationContext(p=5, n=1, depth=6)"),
    (Character.of({Weight.of(1, 0): 2, Weight.of(0, 1): 0}),
     Character(((Weight.of(1, 0), 2),)), Character.of({Weight.of(1, 0): 1}),
     (((Weight.of(1, 0), 2),),),
     "Character(dims=((Weight(coords=(Fraction(1, 1), Fraction(0, 1))), 2),))"),
]
IDS = [type(v[0]).__name__ for v in VALUES]


@pytest.mark.parametrize("value,same,other,fields,text", VALUES, ids=IDS)
def test_value_equality_hash_and_repr(value, same, other, fields, text):
    assert value == same and not value != same
    assert value != other
    assert value != fields  # another class never compares equal
    assert hash(value) == hash(same) == hash(fields)
    assert repr(value) == text


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_value_fields_cannot_be_assigned_or_deleted(value):
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)


def _case_report():
    return CaseReport(input={"type": "A2", "weight": ["-2", "3"]},
                      case="regular_integral", chain=[Weight.of(-2, 3)],
                      checks={"all_certificates_hold": True})


@pytest.mark.parametrize("value", [v[0] for v in VALUES] + [_case_report()],
                         ids=IDS + ["CaseReport"])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 *(pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_case_report_is_a_mutable_record():
    report = _case_report()
    assert report.certificates == [] and report == _case_report()
    assert CaseReport({}, "singular").chain is not CaseReport({}, "singular").chain
    assert repr(report) == (
        "CaseReport(input={'type': 'A2', 'weight': ['-2', '3']}, "
        "case='regular_integral', certificates=[], "
        "chain=[Weight(coords=(Fraction(-2, 1), Fraction(3, 1)))], "
        "checks={'all_certificates_hold': True})")
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    report.case = "singular"
    report.chain.append(Weight.of(0, 1))
    assert report != _case_report()
