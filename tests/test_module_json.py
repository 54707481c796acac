"""module_to_json of Levi-induced and parabolic modules against recorded
output.  The Levi records were made before the module layer shared one
commutation step and one bracket memo.  The parabolic records were made
anew when parabolic_verma became an induced module, whose basis is not the
old quotient's; the isomorphism test below ties the two.  The phi_c_target
records were made while the scalar-action module was still built from
scratch, before it was derived from its source.  Rerun this file
as a script (PYTHONPATH=src python tests/test_module_json.py) only to
record anew."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from vermakit.chevalley import structure_constants
from vermakit.deform import phi_c, phi_c_target
from vermakit.linalg import rank
from vermakit.rootsys import SimpleSubset, Weight, parse_type
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import (QuotientModule, VermaLikeModule, levi_gvm,
                                module_to_json, parabolic_verma)

DATA = Path(__file__).with_name("data") / "module_json.json"

# (constructor, type, I, weight, depth), then for phi_c_target the scalars
# c over the simple roots outside I, in order
CASES = [
    ("levi_gvm", "A2", (0,), ("1", "1/2"), 3),
    ("levi_gvm", "A3", (0, 1), ("2", "0", "1/3"), 3),
    ("levi_gvm", "G2", (1,), ("1/2", "1"), 3),
    ("parabolic_verma", "A3", (0, 2), ("1", "-1/2", "0"), 4),
    ("parabolic_verma", "B2", (1,), ("2/3", "1"), 5),
    ("phi_c_target", "A2", (0,), ("1", "1/2"), 3, ("-3",)),
    # lam(h^1) = 2/3 here, so the scalar h^1 acts by is 0
    ("phi_c_target", "A2", (0,), ("1", "1/2"), 3, ("2/3",)),
    ("phi_c_target", "A3", (0, 1), ("2", "0", "1/3"), 3, ("5",)),
    ("phi_c_target", "A3", (0, 1), ("2", "0", "1/3"), 3, ("-1/2",)),
    ("phi_c_target", "G2", (1,), ("1/2", "1"), 3, ("-2",)),
    ("phi_c_target", "G2", (1,), ("1/2", "1"), 3, ("1/3",)),
]

_TARGETS = [i for i, case in enumerate(CASES) if case[0] == "phi_c_target"]


def _source_and_c(label, I, weight, depth, c):
    """The Levi-induced source of a phi_c_target case and its scalars."""
    alg = EnvelopingAlgebra(structure_constants(parse_type(label)))
    source = levi_gvm(alg, SimpleSubset.of(*I), Weight.of(*weight), depth)
    return source, dict(zip(source.outside, map(Fraction, c)))


def _module_json(ctor, label, I, weight, depth, c=None):
    if ctor == "phi_c_target":
        return module_to_json(phi_c_target(*_source_and_c(label, I, weight,
                                                          depth, c)))
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


@pytest.mark.parametrize("index", [i for i, case in enumerate(CASES)
                                   if case[0] == "parabolic_verma"])
def test_parabolic_record_is_isomorphic_to_the_verma_quotient(index):
    """(s, (), b) -> the class of f^s f^b v in the Verma module modulo the
    f-translates of the singular vectors f_a^(lam(h_a)+1) v, a in J, is
    bijective on each weight space and commutes with every simple e, f, h."""
    _, label, J, weight, depth = CASES[index]
    alg = EnvelopingAlgebra(structure_constants(parse_type(label)))
    rs = alg.rs
    J, lam = SimpleSubset.of(*J), Weight.of(*weight)
    module = parabolic_verma(alg, J, lam, depth)
    old = QuotientModule(VermaLikeModule(alg, lam, depth), J)
    zero_h, zero_e = (0,) * rs.rank, (0,) * alg.npos
    phi = {x: old.apply_word(alg.word((x[0], zero_h, zero_e)), {x[2]: Fraction(1)})
           for x in module.basis}

    drops = {module.label_drop(x) for x in module.basis}
    assert drops == {old.label_drop(s) for s in old.basis}
    for drop in drops:
        new_labels = [x for x in module.basis if module.label_drop(x) == drop]
        old_labels = [s for s in old.basis if old.label_drop(s) == drop]
        matrix = [[phi[x].get(s, Fraction(0)) for s in old_labels]
                  for x in new_labels]
        assert len(new_labels) == len(old_labels) == rank(matrix), drop

    simple = [rs.root_index[rs.simple_root(i)] for i in range(rs.rank)]
    gens = ([("e", i) for i in simple] + [("f", i) for i in simple]
            + [("h", i) for i in range(rs.rank)])
    for g in gens:
        for x in module.basis:
            mapped = {}
            for y, c in module.act_label(g, x).items():
                for s, d in phi[y].items():
                    mapped[s] = mapped.get(s, Fraction(0)) + c * d
            assert {s: c for s, c in mapped.items() if c} == old.act(g, phi[x]), (g, x)


@pytest.mark.parametrize("index", _TARGETS)
def test_target_action_is_the_projected_source_action(index):
    """On every target label (a source label with t = 0) each generator,
    the Levi e and f, every h and every h^a outside I, acts as phi_c of
    its action in the source.  The scalar module once kept a zero
    coefficient where h^a acts by lam(h^a) - c_a = 0, and phi_c drops it,
    so the target's action is compared without zero coefficients."""
    source, c = _source_and_c(*CASES[index][1:])
    target = phi_c_target(source, c)
    gens = ([(kind, i) for kind in ("e", "f") for i in source.levi_idx]
            + [("h", i) for i in range(source.rs.rank)]
            + [("hd", j) for j in source.outside])
    assert target.basis == [x for x in source.basis if not any(x[1])]
    for g in gens:
        for x in target.basis:
            got = {y: v for y, v in target.act_label(g, x).items() if v}
            assert got == phi_c(source, source.act_label(g, x), c, target), (g, x)


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(_record(case), sort_keys=True)
                                       for case in CASES) + "\n]\n")
