"""module_to_json of Levi-induced and parabolic modules against recorded
output.  The records were made before the module layer shared one
commutation step and one bracket memo; rerun this file as a script
(PYTHONPATH=src python tests/test_module_json.py) only to record anew."""

import json
from pathlib import Path

import pytest

from vermakit.chevalley import structure_constants
from vermakit.rootsys import SimpleSubset, Weight, parse_type
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import levi_gvm, module_to_json, parabolic_verma

DATA = Path(__file__).with_name("data") / "module_json.json"

# (constructor, type, I, weight, depth)
CASES = [
    ("levi_gvm", "A2", (0,), ("1", "1/2"), 3),
    ("levi_gvm", "A3", (0, 1), ("2", "0", "1/3"), 3),
    ("levi_gvm", "G2", (1,), ("1/2", "1"), 3),
    ("parabolic_verma", "A3", (0, 2), ("1", "-1/2", "0"), 4),
    ("parabolic_verma", "B2", (1,), ("2/3", "1"), 5),
]


def _module_json(ctor, label, I, weight, depth):
    alg = EnvelopingAlgebra(structure_constants(parse_type(label)))
    build = {"levi_gvm": levi_gvm, "parabolic_verma": parabolic_verma}[ctor]
    return module_to_json(build(alg, SimpleSubset.of(*I), Weight.of(*weight),
                                depth))


def _record(case):
    return {"case": list(case), "module": _module_json(*case)}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_module_json_matches_the_record(index):
    recorded = json.loads(DATA.read_text())[index]
    assert recorded["case"] == json.loads(json.dumps(list(CASES[index])))
    assert _module_json(*CASES[index]) == recorded["module"]


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(_record(case), sort_keys=True)
                                       for case in CASES) + "\n]\n")
