from fractions import Fraction

import pytest

from vermakit.linalg import rank
from vermakit.rootsys import SimpleSubset, Weight, dot_reflect, parse_type
from vermakit.weightmod import (Character, VermaLikeModule, character_to_json,
                                kostant_partition, levi_gvm, levi_hw_check,
                                module_to_json, parabolic_verma,
                                shapovalov_gram, simple_dims,
                                simple_dims_table, verma, weyl_dim)


def test_kostant_partition_a2(alg_a2):
    rs = alg_a2.rs
    assert kostant_partition(rs, (0, 0)) == 1
    assert kostant_partition(rs, (1, 1)) == 2  # a1+a2 or (a1)+(a2)
    assert kostant_partition(rs, (2, 1)) == 2
    assert kostant_partition(rs, (-1, 0)) == 0


def test_weyl_dimension_formula(alg_a2):
    rs = alg_a2.rs
    assert weyl_dim(rs, Weight.of(0, 0)) == 1
    assert weyl_dim(rs, Weight.of(1, 0)) == 3
    assert weyl_dim(rs, Weight.of(1, 1)) == 8
    assert weyl_dim(rs, Weight.of(2, 0)) == 6


def test_verma_character_is_kostant(alg_a2):
    rs = alg_a2.rs
    lam = Weight.of(Fraction(1, 3), Fraction(-2, 7))
    module = verma(alg_a2, lam, 5)
    ch = module.character().as_dict()
    for s in module.basis:
        nu = module.label_drop(s)
        assert ch[lam - rs.weight_of_root(nu)] == kostant_partition(rs, nu)


def test_verma_action_respects_weights(alg_a2):
    rs = alg_a2.rs
    lam = Weight.of(2, -1)
    module = verma(alg_a2, lam, 4)
    hw = {tuple([0] * alg_a2.npos): Fraction(1)}
    for i in range(rs.rank):
        got = module.act(("h", i), hw)
        assert got == {next(iter(hw)): lam.coords[i]} or lam.coords[i] == 0
        assert module.act(("e", rs.root_index[(1, 0)]), hw) == {}


def test_shapovalov_gram_sl2(alg_a1):
    # det of the depth-k space for M(a) is k! * a(a-1)...(a-k+1)
    lam = Weight.of(Fraction(1, 2))
    module = verma(alg_a1, lam, 4)
    g1 = shapovalov_gram(module, (1,))
    assert g1 == [[Fraction(1, 2)]]
    g2 = shapovalov_gram(module, (2,))
    assert g2[0][0] == Fraction(1, 2) * Fraction(-1, 2) * 2


def test_simple_dims_sl2_finite(alg_a1):
    for m in range(4):
        ch = simple_dims(alg_a1, Weight.of(m), 6)
        assert ch.total() == m + 1


def test_simple_dims_generic_verma_is_simple(alg_a1):
    module = verma(alg_a1, Weight.of(Fraction(-3, 4)), 6)
    table = simple_dims_table(module)
    assert all(r == 1 for r in table.values())


def test_parabolic_verma_character_cross_check(alg_a2):
    # construction runs its own induced-character consistency assertion
    module = parabolic_verma(alg_a2, SimpleSubset.of(0), Weight.of(1, 0), 4)
    ch = module.character().as_dict()
    assert ch[Weight.of(1, 0)] == 1
    # the f_a1^2 direction is killed in the quotient
    rs = alg_a2.rs
    assert ch.get(Weight.of(1, 0) - rs.weight_of_root((2, 0)), 0) == 0


def test_parabolic_verma_rejects_bad_weight(alg_a2):
    with pytest.raises(ValueError):
        parabolic_verma(alg_a2, SimpleSubset.of(0), Weight.of(Fraction(1, 2), 0), 3)


def test_restricted_verma_rejects_generator_outside_allowed(alg_a2):
    rs = alg_a2.rs
    allowed = [rs.root_index[rs.simple_root(0)]]
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 0), 3, allowed)
    outside = rs.root_index[rs.simple_root(1)]
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("f", outside), module.basis[0])


def test_full_parabolic_gives_finite_module(alg_a2):
    module = parabolic_verma(alg_a2, SimpleSubset.of(0, 1), Weight.of(1, 0), 6)
    assert module.character().total() == 3


def test_case3_additivity_small(alg_a2):
    rs = alg_a2.rs
    mu = Weight.of(0, 0)
    lhs = parabolic_verma(alg_a2, SimpleSubset.of(0), mu, 4)
    lhs_ch = lhs.character().as_dict()
    rhs = (simple_dims(alg_a2, mu, 4)
           + simple_dims(alg_a2, dot_reflect(rs, 1, mu), 4)).as_dict()
    for s in lhs.parent.basis:
        w = mu - rs.weight_of_root(lhs.parent.label_drop(s))
        assert lhs_ch.get(w, 0) == rhs.get(w, 0)


def test_levi_module_bracket_relations(alg_a2):
    module = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 3)
    idx = module.levi_idx[0]
    for label in module.basis:
        if (sum(label[1]) + 1 > module.depth
                or module._label_height(label) + 1 > module.depth):
            continue
        ef = module.act(("e", idx), module.act(("f", idx), {label: Fraction(1)}))
        fe = module.act(("f", idx), module.act(("e", idx), {label: Fraction(1)}))
        h = module.act(("h", 0), {label: Fraction(1)})
        diff = dict(ef)
        for lab, c in fe.items():
            diff[lab] = diff.get(lab, Fraction(0)) - c
        diff = {k: v for k, v in diff.items() if v}
        assert diff == h


def test_levi_hw_check(alg_a2):
    module = parabolic_verma(alg_a2, SimpleSubset.of(0), Weight.of(2, 1), 5)
    assert levi_hw_check(module, SimpleSubset.of(0), {1: 3})
    with pytest.raises(ValueError):
        levi_hw_check(module, SimpleSubset.of(0), {0: 1})


def test_character_json_sorted(alg_a2):
    ch = Character.of({Weight.of(0, 0): 1, Weight.of(-1, -1): 2})
    records = character_to_json(ch)
    assert records[0]["weight"] == ["0", "0"]
    assert records[1]["dim"] == 2


def test_module_json_shape(alg_a1):
    module = verma(alg_a1, Weight.of(1), 3)
    data = module_to_json(module)
    assert data["kind"] == "verma"
    assert len(data["basis"]) == 4
    assert set(data["actions"]) == {"e0", "f0"}


def test_gram_rank_matches_simple_dims(alg_a2):
    lam = Weight.of(1, 0)
    module = verma(alg_a2, lam, 3)
    table = simple_dims_table(module)
    for nu, r in table.items():
        gram = shapovalov_gram(module, nu)
        assert rank([row[:] for row in gram]) == r
