import itertools
import re
import signal
from fractions import Fraction

import pytest

from vermakit.chevalley import structure_constants
from vermakit.deform import phi_c_target
from vermakit.linalg import rank
from vermakit.rootsys import (SimpleSubset, Weight, dot_orbit, dot_reflect,
                              parse_type, positive_subsystem, shifted_pairings,
                              sub)
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import (MAX_BASIS_LABELS, Character, LeviInducedModule,
                                QuotientModule, ScalarLeviModule, VermaLikeModule,
                                _bump, _character, _commute_past_f,
                                _drops_within, _enum_f_labels, _f_product,
                                _induced_character_check, _kostant_table,
                                _orbit_counts, _scaled, _split_lead,
                                _verma_labels,
                                character_to_json,
                                kostant_partition, label_height, levi_gvm,
                                module_to_json, parabolic_verma,
                                shapovalov_gram, simple_dims, simple_dims_table,
                                weyl_dim)


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
    module = VermaLikeModule(alg_a2, lam, 5)
    ch = module.character().as_dict()
    for s in module.basis:
        nu = module.label_drop(s)
        assert ch[lam - rs.weight_of_root(nu)] == kostant_partition(rs, nu)


def test_verma_action_respects_weights(alg_a2):
    rs = alg_a2.rs
    lam = Weight.of(2, -1)
    module = VermaLikeModule(alg_a2, lam, 4)
    hw = {tuple([0] * alg_a2.npos): Fraction(1)}
    for i in range(rs.rank):
        got = module.act(("h", i), hw)
        assert got == {next(iter(hw)): lam.coords[i]} or lam.coords[i] == 0
        assert module.act(("e", rs.root_index[(1, 0)]), hw) == {}


def test_shapovalov_gram_sl2(alg_a1):
    # det of the depth-k space for M(a) is k! * a(a-1)...(a-k+1)
    lam = Weight.of(Fraction(1, 2))
    module = VermaLikeModule(alg_a1, lam, 4)
    g1 = shapovalov_gram(module, (1,))
    assert g1 == [[Fraction(1, 2)]]
    g2 = shapovalov_gram(module, (2,))
    assert g2[0][0] == Fraction(1, 2) * Fraction(-1, 2) * 2


def test_simple_dims_sl2_finite(alg_a1):
    for m in range(4):
        table = simple_dims_table(VermaLikeModule(alg_a1, Weight.of(m), 6))
        assert sum(table.values()) == m + 1


def test_simple_dims_generic_verma_is_simple(alg_a1):
    module = VermaLikeModule(alg_a1, Weight.of(Fraction(-3, 4)), 6)
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
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 0), 3,
                             SimpleSubset.of(0))
    outside = rs.root_index[rs.simple_root(1)]
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("f", outside), module.basis[0])


def test_restricted_verma_rejects_generator_outside_allowed_past_depth(alg_a2):
    # f_{alpha_2} f_{alpha_1} v lies past depth 1: the check must not
    # depend on the image surviving the depth cut
    rs = alg_a2.rs
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 0), 1,
                             SimpleSubset.of(0))
    outside = rs.root_index[rs.simple_root(1)]
    assert (0, 1, 0) in module.basis  # f_{alpha_1} v
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("f", outside), (0, 1, 0))
    with pytest.raises(ValueError, match="outside the allowed roots"):
        module.act_label(("e", outside), module.basis[0])


def test_levi_verma_takes_the_positive_roots_of_its_subset(alg_a3):
    rs = alg_a3.rs
    J = SimpleSubset.of(0, 1)
    module = VermaLikeModule(alg_a3, Weight.of(Fraction(1, 2), 1, 0), 4, J)
    assert module.allowed == sorted(rs.root_index[r]
                                    for r in positive_subsystem(rs, J))
    with pytest.raises(ValueError, match=r"simple-root index 3 is not in 0..2"):
        VermaLikeModule(alg_a3, Weight.of(1, 1, 1), 4, SimpleSubset.of(3))


@pytest.mark.parametrize("coords,bad", [((Fraction(1, 2), 0), "1/2"), ((-1, 0), "-1")])
def test_quotient_refuses_a_weight_not_dominant_integral_on_J(alg_a2, coords, bad):
    # int(1/2) + 1 once quotiented by f_a v, and -1 by the unit vector v
    parent = VermaLikeModule(alg_a2, Weight.of(*coords), 4)
    with pytest.raises(ValueError, match=f"dominant integral on the subset; "
                                         f"coordinate 0 is {bad}"):
        QuotientModule(parent, SimpleSubset.of(0))


def test_quotient_refuses_a_simple_root_outside_its_parent(alg_a2):
    parent = VermaLikeModule(alg_a2, Weight.of(1, 1), 4, SimpleSubset.of(0))
    with pytest.raises(ValueError, match="simple root 1 of J = \\[0, 1\\] is "
                                         "outside the allowed roots"):
        QuotientModule(parent, SimpleSubset.of(0, 1))


def test_quotient_refuses_a_parent_that_is_not_verma_like(alg_a2):
    # a quotient of a quotient used to raise AttributeError: _allowed_set
    J = SimpleSubset.of(0)
    quotient = QuotientModule(VermaLikeModule(alg_a2, Weight.of(1, 1), 4), J)
    levi = levi_gvm(alg_a2, J, Weight.of(1, Fraction(1, 2)), 3)
    for parent, name in ((quotient, "QuotientModule"), (levi, "LeviInducedModule")):
        with pytest.raises(ValueError, match=f"^the parent must be a VermaLikeModule, "
                                             f"not a {name}$"):
            QuotientModule(parent, J)


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
    """On Verma and Levi Verma modules the simple quotient's dimensions are
    the ranks of the entrywise Gram matrices, taken by rref and by plain
    Gaussian elimination alike."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    J = None if levi is None else SimpleSubset.of(*levi)
    for coords in _GRAM_WEIGHTS[rs.rank]:
        module = VermaLikeModule(alg, Weight.of(*coords), depth, J)
        ranks = {}
        for nu in module.labels_by_drop:
            gram = shapovalov_gram(module, nu)
            ranks[nu] = fraction_rank_det(gram)[0]
            assert rank(gram) == ranks[nu], (label, coords, nu)
        assert simple_dims_table(module) == {nu: r for nu, r in ranks.items() if r}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_shapovalov_determinant_formula(request, fraction_rank_det, label):
    """det G_nu(lam) / prod_{alpha>0} prod_{r>=1} (<lam+rho, alpha^v> - r)^P(nu - r alpha)
    is one constant c_nu for every lam (Shapovalov 1972; Jantzen 1977)."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    constants = None
    for coords in [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 5), Fraction(3, 7)),
                   (Fraction(5, 4), Fraction(-7, 11))]:
        module = VermaLikeModule(alg, Weight.of(*coords), 5)
        pairings = shifted_pairings(rs, module.lam)
        ratios = {}
        for nu in {module.label_drop(s) for s in module.basis}:
            product = Fraction(1)
            for alpha, q in pairings.items():
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


# type -> depth of the all-type checks below
_TYPE_DEPTHS = {"A1": 12, "A2": 10, "B2": 9, "C2": 9, "G2": 8, "A3": 6,
                "B3": 5, "C3": 5, "A4": 5, "B4": 4, "C4": 4, "D4": 4, "F4": 4}
_DOMINANT = (1, 2, 0, 1)
_KIND_WEIGHTS = [  # generic, dominant integral, half-integral, singular
    (Fraction(2, 7), Fraction(-3, 5), Fraction(1, 3), Fraction(3, 4)), _DOMINANT,
    (Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(-1, 2)),
    (-1, 1, 0, 2)]  # <lam + rho, alpha_0^v> = 0


def _algebra(label):
    return EnvelopingAlgebra(structure_constants(parse_type(label)))


@pytest.mark.parametrize("label,depth", _TYPE_DEPTHS.items())
def test_simple_dims_are_the_shapovalov_ranks_on_every_type(fraction_rank_det,
                                                            label, depth):
    alg = _algebra(label)
    for coords in _KIND_WEIGHTS:
        module = VermaLikeModule(alg, Weight.of(*coords[:alg.rs.rank]), depth)
        ranks = {nu: fraction_rank_det(shapovalov_gram(module, nu))[0]
                 for nu in module.labels_by_drop}
        assert simple_dims_table(module) == {nu: r for nu, r in ranks.items()
                                             if r}, coords


@pytest.mark.parametrize("label,depth", _TYPE_DEPTHS.items())
def test_simple_dims_at_dominant_weights_are_signed_kostant_sums(label, depth):
    """At dominant integral lam, the ranks of the simple-root e maps give
    dim L(lam)_(lam - nu) = sum_w (-1)^l(w) P(nu - (lam - w.lam)) (Weyl's
    character formula in Kostant's form), summed here over the whole
    orbit."""
    alg = _algebra(label)
    rs = alg.rs
    drops = _drops_within(rs.rank, depth)
    partitions = _kostant_table(rs, drops)
    for coords in (_DOMINANT, (0, 0, 0, 0)):
        lam = Weight.of(*coords[:rs.rank])
        got = simple_dims_table(VermaLikeModule(alg, lam, depth))
        orbit = dot_orbit(rs, lam).items()
        for nu in drops:
            want = sum(sign * partitions.get(sub(nu, shift), 0)
                       for shift, sign in orbit)
            assert got.get(nu, 0) == want, (coords, nu)


@pytest.mark.parametrize("label,depth", _TYPE_DEPTHS.items())
def test_simple_dims_at_generic_weights_are_kostant_partitions(label, depth):
    """Off every Jantzen wall the Shapovalov determinant has no zero, so
    L(lam) = M(lam) and dim L(lam)_(lam - nu) = P(nu) at every drop: the
    path on which every weight space has full rank.  Each coordinate is
    n + 1/13, and every coroot of the 13 types has height at most 11, so
    no <lam + rho, beta^v> is an integer."""
    alg = _algebra(label)
    rs = alg.rs
    lam = Weight.of(*(n + Fraction(1, 13) for n in (1, -2, 0, 3)[:rs.rank]))
    assert all(q.denominator != 1 for q in shifted_pairings(rs, lam).values())
    got = simple_dims(alg, lam, depth).as_dict()
    partitions = _kostant_table(rs, _drops_within(rs.rank, depth))
    for nu, p in partitions.items():
        assert got.get(lam - rs.weight_of_root(nu), 0) == p, nu


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
    for drop in _drops_within(rs.rank, 4):
        w = mu - rs.weight_of_root(drop)
        assert lhs_ch.get(w, 0) == rhs.get(w, 0)


def _levi_height(module, label):
    """Height of the drop of a Levi-induced label (s, t, b)."""
    s, _, b = label
    return label_height(module.rs, s) + label_height(module.rs, b)


_PARABOLIC_CASES = [  # type, J, weight dominant integral on J, depth
    ("A2", (0,), (1, Fraction(1, 2)), 6),
    ("A3", (0, 2), (1, Fraction(-1, 2), 2), 4),
    ("B2", (1,), (Fraction(2, 3), 1), 5),
    ("B3", (0, 2), (1, Fraction(1, 3), 1), 4),
    ("C3", (1, 2), (Fraction(-1, 2), 1, 1), 4),
    ("G2", (0,), (1, Fraction(1, 3)), 7)]


def _check_every_bracket(module, gens) -> int:
    """[x, y] m = x (y m) - y (x m) for every pair of gens, on every label
    with room for both actions in its height and in its t-part (h acts
    through the dual-basis directions, which raise t); [h^j, x] = 0 on the
    Levi of I.  Returns the number of (pair, label) checks."""
    alg, depth = module.alg, module.depth
    heights = alg.rs.heights
    checked = 0
    for n, x in enumerate(gens):
        for y in gens[n + 1:]:
            lift = sum(heights[g[1]] for g in (x, y) if g[0] == "f")
            t_lift = sum(g[0] in ("h", "hd") for g in (x, y))
            bracket = {} if "hd" in (x[0], y[0]) else alg.sc.bracket(x, y)
            for label_ in module.basis:
                if (_levi_height(module, label_) + lift > depth
                        or sum(label_[1]) + t_lift > depth):
                    continue
                v = {label_: Fraction(1)}
                lhs = {}
                for g, c in bracket.items():
                    for k, d in module.act(g, v).items():
                        lhs[k] = lhs.get(k, 0) + c * d
                xy = module.act(x, module.act(y, v))
                yx = module.act(y, module.act(x, v))
                rhs = {k: xy.get(k, 0) - yx.get(k, 0) for k in set(xy) | set(yx)}
                assert ({k: c for k, c in lhs.items() if c}
                        == {k: c for k, c in rhs.items() if c}), (x, y, label_)
                checked += 1
    return checked


@pytest.mark.parametrize("label,J,coords,depth", _PARABOLIC_CASES,
                         ids=[case[0] for case in _PARABOLIC_CASES])
def test_parabolic_verma_respects_every_bracket(request, label, J, coords, depth):
    """[x, y] v = x (y v) - y (x v) for every pair of generators and every
    label the depth cut leaves untouched."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    module = parabolic_verma(alg, SimpleSubset.of(*J), Weight.of(*coords), depth)
    assert _check_every_bracket(module, alg.sc.generators())


@pytest.mark.parametrize("label,J,depth", [
    ("A2", (0,), 14), ("A3", (0, 2), 8), ("A3", (0, 1), 9), ("B2", (1,), 12),
    ("B3", (0, 2), 8), ("G2", (0,), 10), ("A2", (0, 1), 2)])
def test_parabolic_verma_character_matches_the_verma_quotient(request, label, J,
                                                              depth):
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rank_ = alg.rs.rank
    lam = Weight.of(*[1 if i in J else Fraction(1, 3) for i in range(rank_)])
    I = SimpleSubset.of(*J)
    old = QuotientModule(VermaLikeModule(alg, lam, depth), I)
    assert parabolic_verma(alg, I, lam, depth).character() == old.character()


@pytest.mark.parametrize("label,coords,depth", [
    ("A2", (1, 1), 4), ("B2", (1, 1), 7), ("G2", (1, 0), 6)])
def test_parabolic_verma_on_every_simple_root_is_the_finite_simple_module(
        request, label, coords, depth):
    """J = every simple root: the whole Weyl group orbit, and a depth that
    reaches the lowest weight, so the total is the Weyl dimension."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    lam = Weight.of(*coords)
    J = SimpleSubset.of(*range(alg.rs.rank))
    old = QuotientModule(VermaLikeModule(alg, lam, depth), J)
    module = parabolic_verma(alg, J, lam, depth)
    assert module.character() == old.character()
    assert module.character().total() == weyl_dim(alg.rs, lam)


@pytest.mark.parametrize("J,coords", [((0,), (1, Fraction(1, 2))),
                                      ((0, 1), (1, 1))])
def test_induced_character_check_catches_a_missing_label(alg_a2, J, coords):
    module = parabolic_verma(alg_a2, SimpleSubset.of(*J), Weight.of(*coords), 4)
    # the check reads the drop table: the label leaves its weight space
    label_ = module.basis.pop(len(module.basis) // 2)
    module.labels_by_drop[module.label_drop(label_)].remove(label_)
    with pytest.raises(RuntimeError, match="induced-basis count mismatch"):
        _induced_character_check(module)


def test_levi_module_bracket_relations(alg_a2):
    module = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 3)
    idx = module.levi_idx[0]
    for label in module.basis:
        if (sum(label[1]) + 1 > module.depth
                or _levi_height(module, label) + 1 > module.depth):
            continue
        ef = module.act(("e", idx), module.act(("f", idx), {label: Fraction(1)}))
        fe = module.act(("f", idx), module.act(("e", idx), {label: Fraction(1)}))
        h = module.act(("h", 0), {label: Fraction(1)})
        diff = dict(ef)
        for lab, c in fe.items():
            diff[lab] = diff.get(lab, Fraction(0)) - c
        diff = {k: v for k, v in diff.items() if v}
        assert diff == h


_LEVI_CASES = [  # type, proper I, weight dominant integral on interior(I), depth
    ("A2", (0,), (3, Fraction(1, 2)), 4),
    ("A3", (0, 1), (2, Fraction(1, 2), Fraction(1, 3)), 4),
    ("B3", (0, 1), (1, Fraction(1, 2), Fraction(1, 3)), 4),
    ("C3", (0, 1), (1, Fraction(2, 3), Fraction(-1, 2)), 4),
    ("G2", (1,), (Fraction(1, 3), 2), 5),
    ("D4", (0, 1, 2), (1, Fraction(1, 2), 1, Fraction(1, 3)), 3),
    ("F4", (0, 1, 2), (1, 1, Fraction(1, 3), Fraction(1, 2)), 3),
    ("B4", (0, 1, 2), (1, 1, Fraction(1, 2), Fraction(1, 3)), 3)]


@pytest.mark.parametrize("label,I,coords,depth", _LEVI_CASES,
                         ids=[case[0] for case in _LEVI_CASES])
def test_scalar_levi_module_labels_are_h_weight_vectors(label, I, coords, depth):
    """At c = 0 every dual-basis direction h^j acts by lam(h^j), so each
    label (s, t, b) has the weight lam - drop: h_i acts on it by the scalar
    lam_i - <drop, alpha_i^v>."""
    alg = _algebra(label)
    rs, lam = alg.rs, Weight.of(*coords)
    source = levi_gvm(alg, SimpleSubset.of(*I), lam, depth)
    module = phi_c_target(source, {j: 0 for j in source.outside})
    for label_ in module.basis:
        pairings = rs.simple_coroot_pairings(module.label_drop(label_))
        for i in range(rs.rank):
            want = lam.coords[i] - pairings[i]
            got = module.act_label(("h", i), label_)
            assert got == ({label_: want} if want else {}), (i, label_)


@pytest.mark.parametrize("label,I,coords,depth", _LEVI_CASES[:6],
                         ids=[case[0] for case in _LEVI_CASES[:6]])
def test_levi_module_respects_every_bracket(label, I, coords, depth):
    """[x, y] m = x (y m) - y (x m) on Levi-induced modules with I proper,
    for every pair among the e and f of the Levi of I, every h and every
    dual-basis direction h^j."""
    alg = _algebra(label)
    module = levi_gvm(alg, SimpleSubset.of(*I), Weight.of(*coords), depth)
    gens = ([(kind, i) for kind in ("e", "f") for i in module.levi_idx]
            + [("h", i) for i in range(alg.rs.rank)]
            + [("hd", j) for j in module.outside])
    assert _check_every_bracket(module, gens)


# -- the integer Levi action against the Fraction action it replaced ----------


def _reference_levi_action(module):
    """act(g, label) on a Levi-induced or scalar-action module as it was
    computed on Fractions before the action moved onto ints: memoised per
    (g, label), with the scalar module's h^a acting by lam(h^a) - c_a,
    formed here from lam_dual and c."""
    memo = {}
    scalar = isinstance(module, ScalarLeviModule)
    rs = module.rs

    def act(g, label):
        if (g, label) not in memo:
            memo[(g, label)] = _act(g, label)
        return memo[(g, label)]

    def _act(g, label):
        s, t, b = label
        kind, i = g
        if kind == "hd":
            if scalar:
                x = module.lam_dual[i] - Fraction(module.c[i])
                return {label: x} if x else {}
            if sum(t) >= module.depth:
                return {}
            return {(s, _bump(t, module.outside.index(i), 1), b): Fraction(1)}
        if kind == "h":  # h_i = sum_k a_ki h^k
            drop = module.label_drop(label)
            x = sum(rs.cartan[k][i] * (module.lam_dual[k] - drop[k]) for k in module.I)
            out = {label: x} if x else {}
            for j in module.outside:
                for a, y in act(("hd", j), label).items():
                    out[a] = out.get(a, 0) + rs.cartan[j][i] * y
            return {a: y for a, y in out.items() if y}
        if kind == "f" and i in module.free_idx:
            budget = module.depth - label_height(rs, b)
            return {(a, t, b): Fraction(x)
                    for a, x in _f_product(module.alg, budget, i, s).items()}
        lead, rest = _split_lead(s)
        if lead is not None:
            return _commute_past_f(act, lambda u: act(("f", lead), u),
                                   module.alg.sc.bracket(g, ("f", lead)), g,
                                   (rest, t, b))
        if i in module.io_idx:
            return {(s, t, b2): x for b2, x in module.V.act_label(g, b).items()}
        return {}

    return act


# (type, I, inner or None for the interior of I, weight, depth, c)
_REFERENCE_CASES = [
    ("A2", (0,), None, (3, Fraction(1, 2)), 4, (Fraction(2, 5),)),
    ("B2", (1,), None, (Fraction(2, 3), 1), 5, (Fraction(-1, 4),)),
    ("G2", (1,), None, (Fraction(1, 3), 2), 5, (Fraction(-1, 7),)),
    ("A3", (0, 1), None, (2, Fraction(1, 2), Fraction(1, 3)), 4, (Fraction(3, 4),)),
    # V = L_{C2}(1, 1) reduces against echelon pivots 2 and 6
    ("C3", (1, 2), (1, 2), (Fraction(1, 3), 1, 1), 4, (Fraction(5, 2),))]


@pytest.mark.parametrize("label,I,inner,coords,depth,c", _REFERENCE_CASES,
                         ids=[case[0] for case in _REFERENCE_CASES])
def test_levi_actions_match_the_fraction_reference(label, I, inner, coords,
                                                   depth, c):
    """act_label, the Fraction view of the integer action, equals the
    Fraction action it replaced on every generator and every label of a
    Levi-induced module and of its scalar-action module; int_action is
    den times it."""
    alg = _algebra(label)
    source = LeviInducedModule(alg, SimpleSubset.of(*I), Weight.of(*coords),
                               depth, inner and SimpleSubset.of(*inner))
    target = ScalarLeviModule(source, dict(zip(source.outside, c)))
    pivots = {rows[k][col] for _, rows, cols, _ in source.V._reduction.values()
              for k, col in enumerate(cols)}
    if label == "C3":
        assert max(pivots) > 1 and source.den % 6 == 0
    assert target.den % max(x.denominator for x in target.bases) == 0
    for module in (source, target):
        reference = _reference_levi_action(module)
        gens = ([(kind, i) for kind in ("e", "f") for i in module.levi_idx]
                + [("h", i) for i in range(alg.rs.rank)]
                + [("hd", j) for j in module.outside])
        for g in gens:
            for x in module.basis:
                want = reference(g, x)
                assert module.act_label(g, x) == want, (g, x)
                assert module.int_action(g, x) == {
                    a: int(y * module.den) for a, y in want.items()}, (g, x)


def test_a_value_the_denominator_does_not_clear_is_refused():
    """_scaled turns den x / d into an int only when den clears x / d, and
    raises otherwise rather than truncate; a C3 quotient whose scale leaves
    out its pivots 2 and 6 meets such a value in its exact division."""
    assert _scaled(Fraction(5, 6), 12) == 10 and _scaled(4, 3, 6) == 2
    with pytest.raises(RuntimeError, match="does not clear 1/3"):
        _scaled(Fraction(1, 3), 4)
    with pytest.raises(RuntimeError, match="does not clear 1/3"):
        _scaled(2, 4, 6)
    alg = _algebra("C3")
    module = LeviInducedModule(alg, SimpleSubset.of(1, 2),
                               Weight.of(Fraction(1, 3), 1, 1), 4, SimpleSubset.of(1, 2))
    V = module.V
    assert V.parent.den == 3 and V.den % 18 == 0
    V.den = V.parent.den
    gens = [(kind, i) for kind in ("e", "f") for i in V.parent.allowed]
    with pytest.raises(RuntimeError, match="the module denominator 3 does not clear"):
        for g in gens:
            for b in V.basis:
                V.int_action(g, b)


def test_character_json_sorted(alg_a2):
    ch = Character.of({Weight.of(0, 0): 1, Weight.of(-1, -1): 2})
    records = character_to_json(ch)
    assert records[0]["weight"] == ["0", "0"]
    assert records[1]["dim"] == 2


def test_module_json_shape(alg_a1):
    module = VermaLikeModule(alg_a1, Weight.of(1), 3)
    data = module_to_json(module)
    assert data["kind"] == "verma"
    assert len(data["basis"]) == 4
    assert set(data["actions"]) == {"e0", "f0"}


def test_gram_rank_matches_simple_dims(alg_a2):
    lam = Weight.of(1, 0)
    module = VermaLikeModule(alg_a2, lam, 3)
    table = simple_dims_table(module)
    for nu, r in table.items():
        gram = shapovalov_gram(module, nu)
        assert rank([row[:] for row in gram]) == r


@pytest.mark.parametrize("depth", [0, -3])
def test_modules_refuse_depth_below_one(alg_a2, depth):
    lam = Weight.of(1, Fraction(1, 3))
    for build in (simple_dims, VermaLikeModule):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            build(alg_a2, lam, depth)
    for build in (parabolic_verma, levi_gvm):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            build(alg_a2, SimpleSubset.of(0), lam, depth)


_DENOMINATOR_WEIGHTS = {  # common denominator -> weight
    1: (1, 2), 2: (Fraction(1, 2), -1), 3: (Fraction(2, 3), Fraction(1, 3)),
    6: (Fraction(1, 2), Fraction(-1, 3)), 7: (Fraction(3, 7), Fraction(-2, 7))}


def _rational_action(module, g, s):
    """The action of g on f^s v over Fraction, each h-power acting by the
    power of its lam coordinate: the reference for the integer action."""
    zero_h, zero_e = (0,) * module.rs.rank, (0,) * module.alg.npos
    out = {}
    for (a, b, c), coeff in module.alg.gen_mul_mono(g, (s, zero_h, zero_e)).items():
        if any(c) or label_height(module.rs, a) > module.depth:
            continue
        scalar = Fraction(coeff)
        for i, k in enumerate(b):
            scalar *= module.lam.coords[i] ** k
        out[a] = out.get(a, Fraction(0)) + scalar
    return {a: x for a, x in out.items() if x}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_integer_action_and_gram_rows_are_scaled_rationals(request, label):
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    gens = alg.sc.generators()
    for den, coords in _DENOMINATOR_WEIGHTS.items():
        module = VermaLikeModule(alg, Weight.of(*coords), 5)
        assert module.den == den
        for g in gens:
            for s in module.basis:
                reference = _rational_action(module, g, s)
                got = module.int_action(g, s)
                assert all(type(x) is int for x in got.values())
                assert got == {a: den * x for a, x in reference.items()}, (g, s)
                action = module.act_label(g, s)
                assert action == reference
                assert all(type(x) is Fraction for x in action.values())


def test_f_action_refuses_terms_outside_u_n_minus(alg_a2, monkeypatch):
    # the normal form of f f^s lies in U(n-): a term with an h- or an
    # e-part means the rewriting is wrong, not that the term kills v
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 1), 3)
    zero = (0,) * alg_a2.npos
    for h, e in [((1, 0), zero), ((0, 0), (0, 0, 1))]:
        monkeypatch.setattr(alg_a2, "gen_mul_mono",
                            lambda g, m, h=h, e=e: {(m[0], h, e): 1})
        with pytest.raises(RuntimeError, match=r"outside U\(n-\)"):
            module.int_action(("f", 1), zero)
        with pytest.raises(RuntimeError, match=r"outside U\(n-\)"):
            module.act_label(("f", 2), zero)


@pytest.mark.parametrize("g", [("h", -1), ("h", 2), ("x", 0)])
def test_integer_action_refuses_a_generator_it_does_not_have(alg_a2, g):
    module = VermaLikeModule(alg_a2, Weight.of(Fraction(1, 2), 1), 3)
    zero = (0,) * alg_a2.npos
    for act in (module.int_action, module.act_label):
        with pytest.raises(ValueError, match=re.escape(str(g))):
            act(g, zero)
        with pytest.raises(ValueError, match=re.escape(str(g))):
            act(g, module.basis[-1])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_simple_dims_rewrites_only_f_generators(request, monkeypatch, label):
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    seen = set()
    original = alg.gen_mul_mono

    def spy(g, m):
        seen.add((g[0], any(m[1]) or any(m[2])))
        return original(g, m)

    monkeypatch.setattr(alg, "gen_mul_mono", spy)
    simple_dims(alg, Weight.of(Fraction(1, 2), Fraction(-1, 3)), 8)
    simple_dims_table(VermaLikeModule(alg, Weight.of(1, 2), 8))
    assert seen == {("f", False)}


_LEVI_ACTION_CASES = [("A3", None, 4), ("A3", (0, 1), 5), ("G2", (1,), 6),
                      ("G2", (0,), 6)]


def _fraction_remainder(quotient, vec):
    """vec modulo the quotient's submodule, as the quotient reduced it on
    Fractions: weight space by weight space, each pivot cleared in turn
    against its echelon row, the reference for the integer reduction."""
    out = {}
    for drop, (labels, rows, pivots, _) in quotient._reduction.items():
        x = [vec.get(u, Fraction(0)) for u in labels]
        for row, c in zip(rows, pivots):
            factor = x[c] / row[c]
            for k, a in row.items():
                x[k] -= factor * a
        out.update((u, y) for u, y in zip(labels, x) if y)
    return out


@pytest.mark.parametrize("label,levi,depth", _LEVI_ACTION_CASES)
def test_integer_action_is_scaled_rational_on_a3_and_levi_modules(
        request, label, levi, depth):
    """The Verma-like module of the Levi, and its quotient by the simple
    roots of the Levi on which lam is dominant integral, where there are
    any: int_action is den times the Fraction action, the quotient's that
    of its parent reduced on Fractions."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    J = None if levi is None else SimpleSubset.of(*levi)
    quotients = 0
    for den, coords in _DENOMINATOR_WEIGHTS.items():
        lam = Weight.of(*(coords + (1,) * (rs.rank - 2)))
        module = VermaLikeModule(alg, lam, depth, J)
        assert module.den == den
        gens = [g for g in alg.sc.generators()
                if g[0] == "h" or g[1] in module.allowed]
        for g in gens:
            for s in module.basis:
                reference = _rational_action(module, g, s)
                assert module.int_action(g, s) == {a: den * x for a, x in
                                                   reference.items()}, (g, s)
        dominant = [j for j in (range(rs.rank) if levi is None else levi)
                    if lam.coords[j].denominator == 1 and lam.coords[j] >= 0]
        if not dominant:
            continue
        quotients += 1
        quotient = QuotientModule(module, SimpleSubset.of(*dominant))
        assert quotient.den % den == 0
        for g in gens:
            for s in quotient.basis:
                reference = _fraction_remainder(quotient, _rational_action(module, g, s))
                got = quotient.int_action(g, s)
                assert all(type(x) is int for x in got.values())
                assert got == {a: quotient.den * x for a, x in reference.items()}, (g, s)
                assert quotient.act_label(g, s) == reference, (g, s)
    assert quotients


def _reductions_by_words(parent, singular, fraction_rref):
    """Reference for QuotientModule._build_reductions: each translate
    applies its whole f-word to the singular vector, and each weight space
    of the submodule is row-reduced over Fraction."""
    alg = parent.alg
    zero_h, zero_e = (0,) * parent.rs.rank, (0,) * alg.npos
    by_drop = {}
    for u in singular:
        ht = min(label_height(parent.rs, s) for s in u)
        for mono, _, _ in _enum_f_labels(parent.rs.positive_roots, parent.allowed,
                                         parent.depth - ht):
            vec = parent.apply_word(alg.word((mono, zero_h, zero_e)), u)
            if vec:
                by_drop.setdefault(parent.label_drop(next(iter(vec))), []).append(vec)
    reduction, basis = {}, []
    for drop, labels in sorted(parent.labels_by_drop.items()):
        rows = [[vec.get(s, Fraction(0)) for s in labels]
                for vec in by_drop.get(drop, [])]
        reduced, pivots = fraction_rref(rows)
        reduction[drop] = (labels, reduced, pivots)
        basis.extend(s for i, s in enumerate(labels) if i not in pivots)
    return reduction, basis


@pytest.mark.parametrize("label,levi,coords,depth", [
    ("A2", (0,), (2, Fraction(1, 2)), 6), ("A3", (0, 2), (1, Fraction(1, 3), 2), 5),
    ("B2", (1,), (Fraction(-1, 2), 2), 6), ("G2", (0,), (1, Fraction(2, 3)), 7),
    ("A3", (0, 2), (1, 0, 7), 5), ("A2", (0, 1), (2, 1), 6)],
    ids=["A2", "A3", "B2", "G2", "A3-beyond", "A2-all"])
def test_incremental_translates_match_whole_words(request, fraction_rref,
                                                  reduced_remainder, label, levi,
                                                  coords, depth):
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    rs = alg.rs
    parent = VermaLikeModule(alg, Weight.of(*coords), depth)
    singular = []
    for i in levi:
        idx = rs.root_index[rs.simple_root(i)]
        power = int(coords[i]) + 1
        singular.append({tuple(power if k == idx else 0
                               for k in range(alg.npos)): Fraction(1)})
    module = QuotientModule(parent, SimpleSubset.of(*levi))
    reduction, basis = _reductions_by_words(parent, singular, fraction_rref)
    assert module.basis == basis
    assert len(basis) < len(parent.basis)

    def remainder(vec):
        """vec modulo the submodule, reduced over Fraction by the reference."""
        out = {}
        for s, x in vec.items():
            labels, reduced, pivots = reduction[parent.label_drop(s)]
            unit = [Fraction(int(t == s)) for t in labels]
            for t, y in zip(labels, reduced_remainder(unit, reduced, pivots)):
                out[t] = out.get(t, 0) + x * y
        return {t: y for t, y in out.items() if y}

    # the integer path: the parent's int action, reduced on ints over the
    # scale of each weight space's pivots, is den times the reference
    gens = [g for g in alg.sc.generators() if g[0] == "h" or g[1] in parent.allowed]
    for s in parent.basis:
        for g in gens:
            want = remainder(parent.act_label(g, s))
            assert module.act_label(g, s) == want, (g, s)
            assert module.int_action(g, s) == {
                t: x * module.den for t, x in want.items()}, (g, s)


@pytest.mark.parametrize("label", _TYPE_DEPTHS)
def test_verma_h_scalar_is_lam_less_the_drop_on_every_label(label):
    # h_i f^s v = (lam_i - <drop(s), alpha_i^v>) f^s v, the drop summed in full
    alg = _algebra(label)
    rs = alg.rs
    lam = Weight.of(*_KIND_WEIGHTS[0][:rs.rank])
    module = VermaLikeModule(alg, lam, 4)
    for s in module.basis:
        pairings = rs.simple_coroot_pairings(module.label_drop(s))
        for i in range(rs.rank):
            want = lam.coords[i] - pairings[i]
            assert module.act_label(("h", i), s) == ({s: want} if want else {})


@pytest.mark.parametrize("label,depth", _TYPE_DEPTHS.items())
def test_kostant_table_counts_the_verma_labels_of_each_drop(label, depth):
    # a Verma label of f-exponents is one partition of its drop into
    # positive roots, and _enum_f_labels lists the labels with no table
    rs = parse_type(label)
    npos = len(rs.positive_roots)
    counts = {}
    for s, _, _ in _enum_f_labels(rs.positive_roots, list(range(npos)), depth):
        drop = tuple(sum(k * root[j] for k, root in zip(s, rs.positive_roots))
                     for j in range(rs.rank))
        counts[drop] = counts.get(drop, 0) + 1
    table = _kostant_table(rs, _drops_within(rs.rank, depth))
    assert table == counts
    # the box below nu is another set the table is filled on
    for nu in _drops_within(rs.rank, min(depth, 4)):
        assert kostant_partition(rs, nu) == table[nu], nu


def test_kostant_table_hand_values():
    a2 = _kostant_table(parse_type("A2"), _drops_within(2, 4))
    # (2, 2): a1+a1+a2+a2, a1+a2+(a1+a2), (a1+a2)+(a1+a2)
    assert [a2[nu] for nu in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]] == [1, 1, 2, 2, 3]
    # G2: positive roots a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2
    g2 = _kostant_table(parse_type("G2"), _drops_within(2, 5))
    assert [g2[nu] for nu in [(2, 0), (2, 1), (3, 1), (3, 2)]] == [1, 3, 4, 7]


@pytest.mark.parametrize("index", [-1, 5])
def test_subset_index_outside_the_rank_is_refused(alg_a2, index):
    I = SimpleSubset.of(index)
    message = f"simple-root index {index} is not in 0..1 \\(rank 2\\)"
    with pytest.raises(ValueError, match=message):
        parabolic_verma(alg_a2, I, Weight.of(0, 1), 3)
    with pytest.raises(ValueError, match=message):
        levi_gvm(alg_a2, I, Weight.of(0, 1), 3)


def _alarm(signum, frame):
    raise TimeoutError("no answer within the deadline")


@pytest.mark.parametrize("nu,bad", [
    ((1,), r"nu \(1,\) needs 2 coordinates \(rank 2\), got 1"),
    ((1, 1, 5), r"needs 2 coordinates \(rank 2\), got 3")],
    ids=["short-nu", "long-nu"])
def test_kostant_partition_refuses_malformed_input(alg_a2, nu, bad):
    # the short nu used to loop forever and the long one to answer 2; the
    # alarm turns a hang into a failure
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(3)
    try:
        with pytest.raises(ValueError, match=bad):
            kostant_partition(alg_a2.rs, nu)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("build", [
    simple_dims, VermaLikeModule,
    lambda alg, lam, depth: parabolic_verma(alg, SimpleSubset.of(0), lam, depth),
    lambda alg, lam, depth: levi_gvm(alg, SimpleSubset.of(0), lam, depth),
    lambda alg, lam, depth: weyl_dim(alg.rs, lam)],
    ids=["simple_dims", "VermaLikeModule", "parabolic_verma",
         "levi_gvm", "weyl_dim"])
@pytest.mark.parametrize("coords", [(1,), (1, 0, 2)])
def test_weight_of_the_wrong_rank_is_refused(alg_a2, build, coords):
    # weyl_dim used to answer 0 and 8 here, VermaLikeModule to build a wrong character
    message = rf"needs 2 coordinates \(rank 2\), got {len(coords)}"
    with pytest.raises(ValueError, match=message):
        build(alg_a2, Weight.of(*coords), 3)


@pytest.mark.parametrize("c", [None, {1: Fraction(-2)}], ids=["free", "scalar"])
@pytest.mark.parametrize("g", [("e", 99), ("f", -1), ("h", -1), ("h", 5),
                               ("hd", 0), ("hd", 2), ("x", 0)])
def test_levi_module_refuses_a_generator_it_does_not_have(alg_a2, g, c):
    module = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 3)
    if c is not None:
        module = phi_c_target(module, c)
    top = max(module.basis, key=lambda x: _levi_height(module, x))
    for label in (module.hw_label(), top):
        with pytest.raises(ValueError, match=re.escape(f"{g} is not a generator")):
            module.act_label(g, label)


def test_levi_module_actions_stay_in_the_basis_when_v_is_deeper(alg_a3):
    # V = L_{(0)}(lam) reaches depth 2, past the module's depth 1; its
    # f-action used to answer labels outside the basis
    module = levi_gvm(alg_a3, SimpleSubset.of(0, 1),
                      Weight.of(2, 0, Fraction(1, 3)), 1)
    basis = set(module.basis)
    gens = ([(kind, i) for kind in ("e", "f") for i in module.levi_idx]
            + [("h", i) for i in range(3)])
    for g in gens:
        for label in module.basis:
            assert set(module.act_label(g, label)) <= basis, (g, label)


def test_levi_module_refuses_an_inner_subset_outside_i(alg_a2):
    with pytest.raises(ValueError, match=r"inner subset \[1\] is not inside I = \[0\]"):
        LeviInducedModule(alg_a2, SimpleSubset.of(0), Weight.of(3, 1), 3,
                          inner=SimpleSubset.of(1))


@pytest.mark.parametrize("type_label,I,coords", [
    ("A2", (0,), (1, Fraction(1, 2))),
    ("A3", (0, 1), (2, 0, Fraction(1, 3))),
    ("G2", (1,), (Fraction(1, 2), 1))], ids=["A2", "A3", "G2"])
def test_levi_module_refuses_e_and_f_outside_the_levi(request, type_label, I,
                                                      coords):
    # e of such a root used to answer {} where f raised
    alg = request.getfixturevalue(f"alg_{type_label.lower()}")
    module = levi_gvm(alg, SimpleSubset.of(*I), Weight.of(*coords), 3)
    outside = [i for i in range(alg.npos) if i not in module.levi_idx]
    assert outside
    top = max(module.basis, key=lambda x: _levi_height(module, x))
    for g in [(kind, i) for kind in ("e", "f") for i in outside]:
        for label in (module.hw_label(), top):
            with pytest.raises(ValueError, match=re.escape(f"{g} is not a generator")):
                module.act_label(g, label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_integer_action_is_scaled_rational_for_drawn_weights(request, hypothesis,
                                                            label):
    st = hypothesis.strategies
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=9)

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(st.tuples(coordinate, coordinate))
    def check(coords):
        module = VermaLikeModule(alg, Weight.of(*coords), 4)
        for g in alg.sc.generators():
            for s in module.basis:
                assert module.int_action(g, s) == {
                    a: module.den * x
                    for a, x in _rational_action(module, g, s).items()}, (g, s)

    check()


def reference_enum_f_labels(npos, idxs, heights, budget):
    """The recursive enumeration _enum_f_labels replaced: the reference for
    its labels and their order."""
    labels = []

    def rec(pos, acc, rem):
        if pos == len(idxs):
            t = [0] * npos
            for i, k in acc.items():
                t[i] = k
            labels.append(tuple(t))
            return
        i = idxs[pos]
        for k in range(rem // heights[i] + 1):
            if k:
                acc[i] = k
            rec(pos + 1, acc, rem - k * heights[i])
            acc.pop(i, None)

    rec(0, {}, budget)
    return labels


def _labels(roots, idxs, budget):
    """The exponent tuples of _enum_f_labels, without the carried
    height and drop."""
    return [s for s, _, _ in _enum_f_labels(roots, idxs, budget)]


_ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
              "F4", "G2"]


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_verma_basis_enumeration_matches_the_reference(label):
    rs = parse_type(label)
    npos = len(rs.positive_roots)
    for depth in range(4):
        got = _labels(rs.positive_roots, list(range(npos)), depth)
        assert got == reference_enum_f_labels(npos, list(range(npos)),
                                              rs.heights, depth), depth
        assert all(label_height(rs, s) <= depth for s in got)


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_lam_dual_is_lam_on_the_dual_cartan_basis(label):
    """lam(h^a), h^a dual to the simple roots, is lam's coordinate on
    alpha_a, whose values on the simple coroots are row a of the Cartan
    matrix; on the scalar-action module h^a acts by lam(h^a) - c_a.  A
    solve against the columns instead differs wherever the Cartan matrix
    is not symmetric."""
    alg = _algebra(label)
    rs = alg.rs
    lam = Weight.of(*(Fraction((-1) ** k * (k + 1), k + 2) for k in range(rs.rank)))
    I = SimpleSubset.of(0) if rs.rank > 1 else SimpleSubset.of()
    source = levi_gvm(alg, I, lam, 2)
    assert all(isinstance(x, Fraction) for x in source.lam_dual)
    assert tuple(sum(source.lam_dual[a] * rs.cartan[a][i] for a in range(rs.rank))
                 for i in range(rs.rank)) == lam.coords
    c = {j: Fraction(j - 2, 3) for j in source.outside}
    target = phi_c_target(source, c)
    hw = target.hw_label()
    for a in source.outside:
        assert target.act_label(("hd", a), hw) == {hw: source.lam_dual[a] - c[a]}


@pytest.mark.parametrize("label,J", [("A3", (0, 2)), ("B3", (1, 2)),
                                     ("G2", (1,)), ("C3", ())])
def test_levi_enumeration_matches_the_reference(label, J):
    rs = parse_type(label)
    npos = len(rs.positive_roots)
    idxs = sorted(rs.root_index[r] for r in positive_subsystem(rs, SimpleSubset.of(*J)))
    for budget in (-2, -1, 0, 1, 5, 8):
        assert (_labels(rs.positive_roots, idxs, budget)
                == reference_enum_f_labels(npos, idxs, rs.heights, budget)), budget


def test_enumeration_edges_match_the_reference():
    heights = [1, 1, 2]
    roots = [(h,) for h in heights]  # a root's height is its coordinate sum
    cases = [([], 3), ([], 0), ([], -1), ([0, 1, 2], 0), ([2, 0], 0),
             ([2, 0], -1), ([2, 0], 5), ([1], 4)]
    for idxs, budget in cases:
        assert (_labels(roots, idxs, budget)
                == reference_enum_f_labels(3, idxs, heights, budget)), (idxs, budget)
    assert _labels(roots, [], 3) == [(0, 0, 0)]
    assert _labels(roots, [0, 1, 2], 0) == [(0, 0, 0)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_height_enumerations_match_the_reference(alg_a3, n):
    for depth in range(1, 5):
        ref = reference_enum_f_labels(n, list(range(n)), [1] * n, depth)
        assert _drops_within(n, depth) == ref
    # the polynomial t-labels of a free Levi-induced module, here n_out = n
    I = SimpleSubset.of(*range(3 - n))
    module = levi_gvm(alg_a3, I, Weight.of(1, 1, Fraction(1, 5)), 3)
    ref = reference_enum_f_labels(n, list(range(n)), [1] * n, 3)
    assert [t for _, t, _ in module.basis[:len(ref)]] == ref


@pytest.mark.parametrize("label,I,inner,coords", [
    ("A3", (0, 1), None, (2, 0, Fraction(1, 3))),
    ("G2", (0, 1), (0,), (1, Fraction(1, 3))),
    ("B3", (0, 1, 2), (0, 2), (1, Fraction(1, 3), 1))], ids=["A3", "G2", "B3"])
def test_levi_f_part_stays_on_the_free_roots(request, label, I, inner, coords):
    """Every s of a basis label or of an action's image is supported on
    free_idx, so its leading f is a free one."""
    alg = request.getfixturevalue(f"alg_{label.lower()}")
    module = LeviInducedModule(alg, SimpleSubset.of(*I), Weight.of(*coords), 4,
                               inner=None if inner is None else SimpleSubset.of(*inner))
    free = set(module.free_idx)
    gens = ([(kind, i) for kind in ("e", "f") for i in module.levi_idx]
            + [("h", i) for i in range(alg.rs.rank)])
    seen = set(module.basis)
    for g in gens:
        for x in module.basis:
            seen.update(module.act_label(g, x))
    assert all(i in free for s, _, _ in seen for i, k in enumerate(s) if k)


# -- the drop table and the character constructor against the old formulas --

_ORACLE_DEPTHS = {"A1": 10, "A2": 8, "B2": 8, "C2": 8, "G2": 8, "A3": 5, "B3": 5,
                  "C3": 5, "A4": 4, "B4": 4, "C4": 4, "D4": 4, "F4": 4}


def _old_drop(module, label):
    """A label's drop summed in full, as label_drop computed it before the
    table: root_sum(s), plus that of b for a Levi-induced label (s, t, b)."""
    if isinstance(module, LeviInducedModule):
        s, _, b = label
        return tuple(x + y for x, y in zip(module.alg.root_sum(s),
                                           module.alg.root_sum(b)))
    return module.alg.root_sum(label)


def _old_character(rs, lam, counts):
    """The character as it was built before: one Fraction weight
    lam - nu per drop, sorted by Character.of."""
    return Character.of({lam - rs.weight_of_root(nu): n for nu, n in counts.items()})


def _oracle_modules(label):
    """A Verma module, and with J every simple root but the last (all of
    them on A1): L_J, the Levi-induced modules over J, free and with
    scalars c, and the parabolic Verma module of J; the weight is dominant
    integral on J and rational off it."""
    alg = _algebra(label)
    rank_, depth = alg.rs.rank, _ORACLE_DEPTHS[label]
    lam = Weight.of(*(1 if i < max(rank_ - 1, 1) else Fraction(2, 7)
                      for i in range(rank_)))
    J = SimpleSubset.of(*range(max(rank_ - 1, 1)))
    c = {j: Fraction(-2) for j in range(rank_) if j not in J}
    levi = levi_gvm(alg, J, lam, depth)
    return {"verma": VermaLikeModule(alg, lam, depth),
            "L_J": QuotientModule(VermaLikeModule(alg, lam, depth, J), J),
            "levi": levi,
            "levi_c": phi_c_target(levi, c),
            "parabolic": parabolic_verma(alg, J, lam, depth)}


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_drop_table_matches_the_summed_drops(label):
    """The table files every basis label once, under the drop summed in
    full, and label_drop reads it."""
    for kind, module in _oracle_modules(label).items():
        filed = [x for labels in module.labels_by_drop.values() for x in labels]
        assert sorted(filed) == sorted(module.basis), kind
        for drop, labels in module.labels_by_drop.items():
            assert labels, (kind, drop)
            for x in labels:
                assert module.label_drop(x) == _old_drop(module, x) == drop, (kind, x)


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_characters_match_the_fraction_construction(label):
    """character() and simple_dims equal the Characters built from
    Fraction weights, the order of dims included."""
    for kind, module in _oracle_modules(label).items():
        counts = {}
        for x in module.basis:
            drop = _old_drop(module, x)
            counts[drop] = counts.get(drop, 0) + 1
        old = _old_character(module.rs, module.lam, counts)
        assert module.character().dims == old.dims, kind
    alg = _algebra(label)
    for coords in _KIND_WEIGHTS:
        lam = Weight.of(*coords[:alg.rs.rank])
        depth = _ORACLE_DEPTHS[label]
        old = _old_character(alg.rs, lam,
                             simple_dims_table(VermaLikeModule(alg, lam, depth)))
        assert simple_dims(alg, lam, depth).dims == old.dims, coords


def _covering_depths(rs):
    """(lam, the least depth that covers L(lam)) for lam = 0 and each
    fundamental weight whose Verma module to that depth fits the budget.
    The lowest drop of L(lam) is lam - w0 lam, the highest dot-orbit shift
    of lam less that of 0, since w0.lam = w0 lam - 2 rho."""
    top = max(map(sum, dot_orbit(rs, Weight.of(*[0] * rs.rank))))
    out = [(Weight.of(*[0] * rs.rank), 1)]
    for i in range(rs.rank):
        lam = Weight.of(*(int(j == i) for j in range(rs.rank)))
        depth = max(map(sum, dot_orbit(rs, lam))) - top
        if _verma_labels(rs, depth, MAX_BASIS_LABELS) <= MAX_BASIS_LABELS:
            out.append((lam, depth))
    return out


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_dominant_simple_dims_match_the_rank_path_and_weyl_dim(monkeypatch, label):
    """At dominant integral lam, simple_dims sums Weyl's formula over the
    dot orbit and builds no module.  It equals the ranks of the simple-root
    e maps, the order of dims included, at 0, at a weight with zeros, and
    at a weight so large that only the identity shift lies within the
    depth; over a depth that covers L(lam) its total is weyl_dim."""
    alg = _algebra(label)
    rs, depth = alg.rs, _TYPE_DEPTHS[label]
    large = Weight.of(*[depth] * rs.rank)
    assert [s for s in dot_orbit(rs, large) if sum(s) <= depth] == [(0,) * rs.rank]
    weights = [Weight.of(*[0] * rs.rank), Weight.of(*_DOMINANT[:rs.rank]), large]
    covered = _covering_depths(rs)
    want = [_character(rs, lam, simple_dims_table(VermaLikeModule(alg, lam, depth)))
            for lam in weights]

    def refuse(*args, **kwargs):
        raise RuntimeError("simple_dims built a module at a dominant weight")

    monkeypatch.setattr(VermaLikeModule, "__init__", refuse)
    for lam, ch in zip(weights, want):
        assert simple_dims(alg, lam, depth).dims == ch.dims, lam
    for lam, cover in covered:
        assert simple_dims(alg, lam, cover).total() == weyl_dim(rs, lam), lam


# -- the integer-keyed Kostant table and the carried drops against the old code --

_KOSTANT_DEPTHS = {"A1": 12, "A2": 10, "B2": 10, "C2": 10, "G2": 10, "A3": 7,
                   "B3": 7, "C3": 7, "A4": 6, "B4": 6, "C4": 6, "D4": 6, "F4": 7}


def reference_kostant_table(rs, drops):
    """The tuple-keyed table _kostant_table replaced: one pass per positive
    root, P[nu] += P[nu - beta], with nu - beta formed as a tuple."""
    table = dict.fromkeys(drops, 0)
    table[(0,) * rs.rank] = 1
    for beta in rs.positive_roots:
        for nu in drops:
            below = table.get(sub(nu, beta))
            if below:
                table[nu] += below
    return table


def reference_orbit_counts(rs, lam, subset, depth):
    """The per-drop orbit sum _orbit_counts replaced: P(nu) plus, at each
    drop, the signed P(nu - shift) over the other orbit shifts within the
    depth, read from the tuple-keyed table."""
    orbit = [(shift, sign) for shift, sign in dot_orbit(rs, lam, subset).items()
             if any(shift) and sum(shift) <= depth]
    drops = reference_enum_f_labels(rs.rank, list(range(rs.rank)), [1] * rs.rank,
                                    depth)
    partitions = reference_kostant_table(rs, drops)
    counts = {}
    for drop in drops:
        n = partitions[drop] + sum(sign * partitions.get(sub(drop, shift), 0)
                                   for shift, sign in orbit)
        if n:
            counts[drop] = n
    return counts


def _aliased_keys(rs, drops, base):
    """The (nu, beta) with nu - beta off the drops, a coordinate negative,
    whose digits in base equal those of some drop: the pairs a key table
    in that base would read wrongly."""
    def key(nu):
        return sum(x * base ** j for j, x in enumerate(nu))

    keys = {key(nu) for nu in drops}
    return [(nu, beta) for beta in rs.positive_roots for nu in drops
            if min(sub(nu, beta)) < 0 and key(sub(nu, beta)) in keys]


@pytest.mark.parametrize("label,depth", _KOSTANT_DEPTHS.items())
def test_kostant_table_matches_the_tuple_keyed_reference(label, depth):
    """Unseeded, on the drops within the depth and on the boxes that
    kostant_partition fills.  A key base without the root margin (largest
    drop coordinate + 1) would alias on every type of rank 2 or more at
    these depths, and on G2 (coefficient 3) and F4 (coefficient 4) even a
    margin one short would; a rank-1 key has one digit, which cannot."""
    rs = parse_type(label)
    drops = _drops_within(rs.rank, depth)
    top = max(map(max, drops))
    margin = max(map(max, rs.positive_roots))
    assert bool(_aliased_keys(rs, drops, top + 1)) == (rs.rank > 1)
    assert not _aliased_keys(rs, drops, top + margin + 1)
    if label in ("G2", "F4"):
        assert _aliased_keys(rs, drops, top + margin)
    assert _kostant_table(rs, drops) == reference_kostant_table(rs, drops)
    for nu in (drops[-1], drops[len(drops) // 2], tuple([2] * rs.rank)):
        box = [tuple(x) for x in itertools.product(*(range(n + 1) for n in nu))]
        want = reference_kostant_table(rs, box)
        assert _kostant_table(rs, box) == want, nu
        assert kostant_partition(rs, nu) == want[nu], nu


def _orbit_subsets(rank):
    """The empty subset, each single simple root and every simple root."""
    return ([SimpleSubset.of()] + [SimpleSubset.of(i) for i in range(rank)]
            + [SimpleSubset.of(*range(rank))])


@pytest.mark.parametrize("label,depth", _KOSTANT_DEPTHS.items())
def test_orbit_counts_match_the_per_drop_reference(label, depth):
    """One seeded table gives, at every drop, the signed Kostant sum over
    the dot orbit of a dominant weight, for J empty, each simple root and
    every simple root: equal to the per-drop sum of the tuple-keyed table,
    zeros included, and _orbit_counts keeps its nonzero counts."""
    rs = parse_type(label)
    drops = _drops_within(rs.rank, depth)
    partitions = reference_kostant_table(rs, drops)
    for coords in ((0, 0, 0, 0), _DOMINANT, (1, 0, 2, 1)):
        lam = Weight.of(*coords[:rs.rank])
        for J in _orbit_subsets(rs.rank):
            seeds = {shift: sign for shift, sign in dot_orbit(rs, lam, J).items()
                     if sum(shift) <= depth}
            assert all(type(x) is int for shift in seeds for x in shift)
            want = {nu: sum(sign * partitions.get(sub(nu, shift), 0)
                            for shift, sign in seeds.items()) for nu in drops}
            assert _kostant_table(rs, drops, seeds) == want, (coords, J)
            assert (_orbit_counts(rs, lam, J, depth)
                    == reference_orbit_counts(rs, lam, J, depth)), (coords, J)


def test_a_seed_off_the_drops_is_refused():
    """A seed must be one of the table's drops, checked as a tuple: on A2
    within depth 4 the keys have base 4 + 1 + 1 = 6, so (-2, 1) has the
    key 4 of the drop (4, 0), and it is still refused, by name."""
    rs = parse_type("A2")
    drops = _drops_within(2, 4)
    for shift in ((-2, 1), (5, 0), (0, 0, 0)):
        message = re.escape(f"seed shift {shift} is not one of the table's drops")
        with pytest.raises(ValueError, match=message):
            _kostant_table(rs, drops, {(0, 0): 1, shift: -1})
    assert _kostant_table(rs, drops, {(4, 0): 1})[(4, 0)] == 1


def _carried_cases(label):
    """A Verma module, a Levi Verma module of a proper J, a Levi-induced
    module and a parabolic Verma module of type label."""
    alg = _algebra(label)
    rank_, depth = alg.rs.rank, _ORACLE_DEPTHS[label]
    J = SimpleSubset.of(*range(rank_ - 1))
    lam = Weight.of(*(1 if i < max(rank_ - 1, 1) else Fraction(2, 7)
                      for i in range(rank_)))
    return alg, J, {"verma": VermaLikeModule(alg, lam, depth),
                    "verma_J": VermaLikeModule(alg, lam, depth, J),
                    "levi": levi_gvm(alg, J, lam, depth),
                    "parabolic": parabolic_verma(alg, J, lam, depth)}


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_labels_carry_their_height_and_drop(label):
    """The enumerator's carried height and drop are label_height and
    root_sum; a Verma-like module files each label under that drop, and a
    Levi-induced label (s, t, b) under root_sum(s) plus V's drop of b, its
    height label_height(s) + label_height(b) within the depth."""
    alg, J, modules = _carried_cases(label)
    rs = alg.rs
    for kind, module in modules.items():
        if isinstance(module, VermaLikeModule):
            carried = _enum_f_labels(rs.positive_roots, module.allowed, module.depth)
            assert [s for s, _, _ in carried] == module.basis, kind
        else:
            carried = _enum_f_labels(rs.positive_roots, module.free_idx, module.depth)
            for s, t, b in module.basis:
                drop = tuple(x + y for x, y in zip(alg.root_sum(s),
                                                   module.V.label_drop(b)))
                height = label_height(rs, s) + label_height(rs, b)
                assert module.label_drop((s, t, b)) == drop, (kind, s, t, b)
                assert sum(drop) == height <= module.depth, (kind, s, t, b)
        for s, height, drop in carried:
            assert height == label_height(rs, s), (kind, s)
            assert drop == alg.root_sum(s), (kind, s)
            if isinstance(module, VermaLikeModule):
                assert module.label_drop(s) == drop, (kind, s)
