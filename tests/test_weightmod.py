from fractions import Fraction

import pytest

from vermakit.linalg import rank
from vermakit.rootsys import (SimpleSubset, Weight, dot_reflect, pairing,
                              parse_type, positive_subsystem)
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


def test_restricted_verma_rejects_generator_outside_allowed_past_depth(alg_a2):
    # f_{alpha_2} f_{alpha_1} v lies past depth 1: the check must not
    # depend on the image surviving the depth cut
    rs = alg_a2.rs
    allowed = [rs.root_index[rs.simple_root(0)]]
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 0), 1, allowed)
    outside = rs.root_index[rs.simple_root(1)]
    assert (0, 1, 0) in module.basis  # f_{alpha_1} v
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("f", outside), (0, 1, 0))
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("e", outside), module.basis[0])


@pytest.mark.parametrize("roots", [((1, 0), (0, 1)), ((1, 0), (1, 1))])
def test_restricted_verma_rejects_roots_that_are_not_closed(alg_a2, roots):
    allowed = [alg_a2.rs.root_index[r] for r in roots]
    with pytest.raises(ValueError, match="not closed"):
        VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 0), 3, allowed)


def _gram_by_entries(module, nu):
    """Reference Gram matrix: each entry applies the whole e-word of its
    row label to its column label."""
    labels = sorted(s for s in module.basis if module.label_drop(s) == nu)
    zero, zero_h = (0,) * module.alg.npos, (0,) * module.rs.rank
    return [[module.apply_word(module.alg.word((zero, zero_h, s)),
                               {t: Fraction(1)}).get(zero, Fraction(0))
             for t in labels] for s in labels]


_GRAM_WEIGHTS = {  # rank -> generic, dominant integral, singular
    1: [(Fraction(2, 7),), (2,), (-1,)],
    2: [(Fraction(1, 2), Fraction(-1, 3)), (1, 2), (Fraction(2, 5), -1)],
    3: [(Fraction(3, 7), Fraction(-1, 2), Fraction(1, 3)), (1, 0, 1),
        (-1, Fraction(1, 3), -1)],
}


@pytest.mark.parametrize("label,depth,levi", [
    ("A1", 7, None), ("A2", 6, None), ("A3", 4, None), ("B2", 5, None),
    ("G2", 5, None), ("A3", 5, (0, 1)), ("G2", 6, (1,))])
def test_shapovalov_gram_matches_entrywise_reference(request, fraction_rank_det,
                                                     label, depth, levi):
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    allowed = (None if levi is None else
               [rs.root_index[r] for r in positive_subsystem(rs, SimpleSubset.of(*levi))])
    for coords in _GRAM_WEIGHTS[rs.rank]:
        lam = Weight.of(*coords)
        module = VermaLikeModule(alg, lam, depth, allowed)
        reference = VermaLikeModule(alg, lam, depth, allowed)
        # highest drops first: each call recurses down through the memo
        drops = sorted({module.label_drop(s) for s in module.basis},
                       key=lambda nu: (-sum(nu), nu))
        for nu in drops:
            gram = shapovalov_gram(module, nu)
            assert gram == _gram_by_entries(reference, nu), (label, coords, nu)
            assert rank(gram) == fraction_rank_det(gram)[0]
        table = simple_dims_table(module)
        assert table == {nu: r for nu in drops
                         if (r := fraction_rank_det(_gram_by_entries(reference, nu))[0])}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_shapovalov_determinant_formula(request, fraction_rank_det, label):
    """det G_nu(lam) / prod_{alpha>0} prod_{r>=1} (<lam+rho, alpha^v> - r)^P(nu - r alpha)
    is one constant c_nu for every lam (Shapovalov 1972; Jantzen 1977)."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    rho = rs.rho()
    constants = None
    for coords in [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 5), Fraction(3, 7)),
                   (Fraction(5, 4), Fraction(-7, 11))]:
        module = verma(alg, Weight.of(*coords), 5)
        ratios = {}
        for nu in {module.label_drop(s) for s in module.basis}:
            product = Fraction(1)
            for alpha in rs.positive_roots:
                q = pairing(rs, module.lam + rho, alpha)
                r = 1
                while all(a >= r * b for a, b in zip(nu, alpha)):
                    rem = tuple(a - r * b for a, b in zip(nu, alpha))
                    product *= (q - r) ** kostant_partition(rs, rem)
                    r += 1
            det = fraction_rank_det(shapovalov_gram(module, nu))[1]
            assert product and det, (coords, nu)
            ratios[nu] = det / product
        if constants is None:
            constants = ratios
        assert ratios == constants, coords
    assert len(constants) == 21


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


@pytest.mark.parametrize("depth", [0, -3])
def test_modules_refuse_depth_below_one(alg_a2, depth):
    lam = Weight.of(1, Fraction(1, 3))
    for build in (verma, simple_dims, VermaLikeModule):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            build(alg_a2, lam, depth)
    for build in (parabolic_verma, levi_gvm):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            build(alg_a2, SimpleSubset.of(0), lam, depth)
