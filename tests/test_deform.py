import copy
import random
import re
from fractions import Fraction

import pytest

from vermakit.criteria import compute_A, gvm_region_irreducible
from vermakit import deform, weightmod
from vermakit.deform import (hw_scalar_check, phi_c, phi_c_checks,
                             phi_c_homomorphism_check,
                             phi_c_level_check, phi_c_surjective,
                             phi_c_target, scalars_admissible,
                             weight_admissible)
from vermakit.rootsys import SimpleSubset, Weight, parse_type
from vermakit.uea import DeformationContext, vp
from vermakit.weightmod import levi_gvm


@pytest.fixture(scope="module")
def source(alg_a2):
    return levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 4)


def test_weight_admissibility(alg_a2):
    rs = alg_a2.rs
    assert not weight_admissible(rs, Weight.of(Fraction(1, 5), 0), 5, 0)
    assert weight_admissible(rs, Weight.of(Fraction(1, 5), 0), 5, 1)
    assert weight_admissible(rs, Weight.of(7, -3), 5, 0)
    with pytest.raises(ValueError):
        weight_admissible(rs, Weight.of(0, 0), 4, 0)


def test_admissibility_monotone_in_n(alg_a2):
    rs = alg_a2.rs
    rng = random.Random(2)
    for _ in range(30):
        lam = Weight.of(*[Fraction(rng.randint(-9, 9), rng.choice([1, 5, 25]))
                          for _ in range(2)])
        for n in range(3):
            if weight_admissible(rs, lam, 5, n):
                assert weight_admissible(rs, lam, 5, n + 1)


def test_phi_c_basis_formulas(source):
    c = {1: Fraction(-3)}
    scalar = source.lam_dual[1] - c[1]
    target = phi_c_target(source, c)
    zero = (0,) * source.alg.npos
    # t = 0 passes through
    lab = ((0, 1, 0), (0,), zero)
    img = phi_c(source, {lab: Fraction(1)}, c, target)
    assert img == {lab: Fraction(1)}
    # one h-factor becomes one scalar factor
    img = phi_c(source, {(zero, (1,), zero): Fraction(1)}, c, target)
    assert img == {(zero, (0,), zero): scalar}
    # f^2 h^2 v picks up the square
    lab = ((0, 2, 0), (2,), zero)
    img = phi_c(source, {lab: Fraction(1)}, c, target)
    assert img == {((0, 2, 0), (0,), zero): scalar ** 2}


def test_phi_c_target_validation(source, alg_a2):
    c = {1: Fraction(-3)}
    other = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 3)
    with pytest.raises(ValueError):
        phi_c(source, {}, c, phi_c_target(other, c))  # depth mismatch
    tgt = phi_c_target(source, c)
    with pytest.raises(ValueError):
        phi_c(source, {}, {0: Fraction(1)}, tgt)  # wrong index set
    with pytest.raises(ValueError):
        phi_c_target(tgt, c)  # already scalar


def test_phi_c_homomorphism_random(source, alg_a2):
    rng = random.Random(31)
    gens = ([("e", i) for i in source.levi_idx]
            + [("f", i) for i in source.levi_idx] + [("h", 0), ("h", 1)])
    roomy = [m for m in source.basis if sum(m[1]) + 1 <= source.depth]
    for _ in range(40):
        g = rng.choice(gens)
        c = {1: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))}
        vec = {rng.choice(roomy): Fraction(rng.randint(1, 9))}
        assert phi_c_homomorphism_check(source, alg_a2.gen(*g), vec, c,
                                        phi_c_target(source, c))


def test_phi_c_checks_pass_in_a_fixed_order(source):
    checks = phi_c_checks(source, {1: Fraction(-3)}, 20, random.Random(4))
    assert list(checks) == ["surjective", "hw_scalars", "homomorphism"]
    assert all(checks.values())


def test_phi_c_checks_draw_each_sample_in_order_and_stop_at_a_failure(
        source, alg_a2, monkeypatch):
    seen = []

    def fails_third(src, x, vec, c, target):
        seen.append((x, vec))
        return len(seen) < 3

    monkeypatch.setattr(deform, "phi_c_homomorphism_check", fails_third)
    checks = phi_c_checks(source, {1: Fraction(-3)}, 10, random.Random(7))
    assert checks["homomorphism"] is False and len(seen) == 3
    # generator, then label, then coefficient: the draws phi-check has
    # always made, so its output stays the same for every seed
    rng = random.Random(7)
    gens = ([("e", i) for i in source.levi_idx]
            + [("f", i) for i in source.levi_idx] + [("h", 0), ("h", 1)])
    roomy = [m for m in source.basis if sum(m[1]) + 1 <= source.depth]
    for x, vec in seen:
        assert x == alg_a2.gen(*rng.choice(gens))
        assert vec == {rng.choice(roomy): Fraction(rng.randint(1, 9))}


@pytest.mark.parametrize("t", [(5,), (1, 2), ()], ids=["past-depth", "long", "empty"])
def test_phi_c_refuses_a_t_part_no_source_label_has(source, t):
    # the projection used to form any t's scalar, and zip cut a t-part of
    # the wrong length short: (1, 2) read as (1,)
    c = {1: Fraction(-3)}
    zero = (0,) * source.alg.npos
    message = (rf"^{re.escape(str(t))} is not the t-part of a source label, "
               rf"an exponent vector of length 1 and total at most 4$")
    with pytest.raises(ValueError, match=message):
        phi_c(source, {(zero, t, zero): Fraction(1)}, c, phi_c_target(source, c))


@pytest.mark.parametrize("label", [((5, 0, 0), (0,), (0, 0, 0)),
                                   ((0, 0, 0), (0,), (9, 9, 9))],
                         ids=["s-past-depth", "b-not-in-V"])
def test_phi_c_entry_points_refuse_a_label_that_is_not_a_source_label(alg_a2, label):
    # the first was its own image under phi_c, phi_c_level_check passed
    # the second and phi_c_homomorphism_check raised KeyError on it
    src = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(2, Fraction(1, 3)), 3)
    c = {1: Fraction(-2)}
    target = phi_c_target(src, c)
    vec = {label: Fraction(1)}
    message = f"^{re.escape(str(label))} is not a basis label of the source$"
    for call in (lambda: phi_c(src, vec, c, target),
                 lambda: phi_c_level_check(src, vec, c, target, 5, 0),
                 lambda: phi_c_homomorphism_check(src, alg_a2.gen("h", 0), vec, c,
                                                  target)):
        with pytest.raises(ValueError, match=message):
            call()


def test_phi_c_depth_guard(source, alg_a2):
    deep = max(source.basis, key=lambda m: sum(m[1]))
    c = {1: Fraction(0)}
    with pytest.raises(ValueError):
        phi_c_homomorphism_check(source, alg_a2.gen("h", 1),
                                 {deep: Fraction(1)}, c, phi_c_target(source, c))


def test_phi_c_surjective_at_small_depths(alg_a2):
    for depth in (1, 2, 3):
        src = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(2, Fraction(1, 3)),
                       depth)
        c = {1: Fraction(-2)}
        assert phi_c_surjective(src, c, phi_c_target(src, c))


def test_hw_scalar_values(source):
    for c1 in (Fraction(0), Fraction(-3), Fraction(1, 5)):
        c = {1: c1}
        assert hw_scalar_check(phi_c_target(source, c), c, 1)
    with pytest.raises(ValueError, match="needs the scalar-action module"):
        hw_scalar_check(source, {1: Fraction(0)}, 1)


def test_phi_c_level_preserved(source):
    zero = (0,) * source.alg.npos
    vec = {((0, 1, 0), (2,), zero): Fraction(25), (zero, (1,), zero): Fraction(1, 5)}
    c = {1: Fraction(1, 5)}
    assert phi_c_level_check(source, vec, c, phi_c_target(source, c), 5, 1)
    c = {1: Fraction(1, 25)}
    with pytest.raises(ValueError, match="not admissible"):
        phi_c_level_check(source, vec, c, phi_c_target(source, c), 5, 1)
    with pytest.raises(ValueError, match="does not match"):
        phi_c_level_check(source, vec, {1: Fraction(1, 5)},
                          phi_c_target(source, {1: Fraction(2, 5)}), 5, 1)


def test_scalars_admissible():
    assert scalars_admissible({1: Fraction(1, 5)}, 5, 1)
    assert not scalars_admissible({1: Fraction(1, 5)}, 5, 0)


def test_gvm_region_link(alg_a2):
    # scalar targets in the integer region are certified irreducible
    rs = alg_a2.rs
    I = SimpleSubset.of(0)
    lam = Weight.of(2, 0)
    A = compute_A(rs, I, lam)
    rng = random.Random(13)
    for _ in range(10):
        c = -A - rng.randint(0, 12)
        assert gvm_region_irreducible(rs, I, lam, {1: c})


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9, -3])
def test_every_prime_entry_point_rejects_non_odd_primes(p):
    rs = parse_type("A2")
    # vp at zero: without the check it returns at once instead of looping
    calls = [lambda: vp(Fraction(0), p),
             lambda: DeformationContext(p, 0, 4),
             lambda: weight_admissible(rs, Weight.of(1, 0), p, 0),
             lambda: scalars_admissible({1: Fraction(1)}, p, 0)]
    for call in calls:
        with pytest.raises(ValueError, match="p must be an odd prime"):
            call()


@pytest.mark.parametrize("n", [-1, -5])
def test_both_admissibility_checks_refuse_a_negative_level(alg_a2, n):
    # scalars_admissible used to answer False, which the CLI reported as
    # inadmissible c
    with pytest.raises(ValueError, match="n must be nonnegative"):
        weight_admissible(alg_a2.rs, Weight.of(1, 0), 5, n)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        scalars_admissible({1: Fraction(1)}, 5, n)


@pytest.mark.parametrize("samples,message", [
    (0, "samples must be at least 1"), (-5, "samples must be at least 1"),
    (deform.MAX_SAMPLES + 1,
     f"samples must be at most {deform.MAX_SAMPLES}, got {deform.MAX_SAMPLES + 1}")])
def test_phi_c_checks_refuse_a_sample_count_out_of_range_before_any_work(
        source, monkeypatch, samples, message):
    # with 0 or fewer samples the battery reported homomorphism: True
    # without drawing one; only the CLI refused
    def no_work(*args):
        raise AssertionError("phi_c_target called")

    monkeypatch.setattr(deform, "phi_c_target", no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        phi_c_checks(source, {1: Fraction(-3)}, samples, random.Random(0))


@pytest.mark.parametrize("c", [{}, {0: 1}, {1: 1, 5: 2}],
                         ids=["empty", "inside-I", "extra-index"])
def test_scalars_not_indexed_by_the_roots_outside_i_are_refused(source, c):
    # the first two used to raise KeyError: 1, the third was accepted; so
    # did hw_scalar_check
    message = "c must be indexed by the simple roots outside I"
    with pytest.raises(ValueError, match=message):
        phi_c_target(source, c)
    with pytest.raises(ValueError, match=message):
        phi_c_checks(source, c, 3, random.Random(0))
    with pytest.raises(ValueError, match=message):
        hw_scalar_check(phi_c_target(source, {1: Fraction(-3)}), c, 1)


@pytest.mark.parametrize("coords", [(Fraction(1, 5),), (1, 0, 2)])
def test_admissibility_refuses_a_weight_of_the_wrong_rank(coords):
    with pytest.raises(ValueError, match=r"needs 2 coordinates \(rank 2\)"):
        weight_admissible(parse_type("A2"), Weight.of(*coords), 5, 0)


# -- phi_c and its surjectivity against the per-label computation ------------


def reference_phi_c(source, vec, c):
    """phi_c as it was computed label by label: each coefficient times
    prod_a (lam(h^a) - c_a)^t_a, the bases formed anew for every label."""
    zero_t = (0,) * len(source.outside)
    out = {}
    for (s, t, b), coeff in vec.items():
        scalar = coeff
        for pos, j in enumerate(source.outside):
            scalar *= (source.lam_dual[j] - Fraction(c[j])) ** t[pos]
        if scalar:
            out[(s, zero_t, b)] = out.get((s, zero_t, b), Fraction(0)) + scalar
    return {k: v for k, v in out.items() if v}


def reference_surjective(source, c, target):
    """Whether the per-label images of the source basis hit every target
    label."""
    hit = set()
    for label in source.basis:
        hit.update(reference_phi_c(source, {label: Fraction(1)}, c))
    return hit == set(target.basis)


# (fixture, I, weight, depth); the scalars come from _sources_and_scalars
_PROJECTION_CASES = [
    ("alg_a2", (0,), (3, Fraction(1, 2)), 4),
    ("alg_a3", (0,), (2, Fraction(1, 3), Fraction(-1, 2)), 3),
    ("alg_g2", (1,), (Fraction(1, 2), 1), 3)]


def _sources_and_scalars(request, fixture, I, weight, depth):
    """The source, and scalar vectors on it: generic ones, and ones with
    c_a = lam(h^a), where the base lam(h^a) - c_a is 0, on one root
    outside I and on all of them."""
    source = levi_gvm(request.getfixturevalue(fixture), SimpleSubset.of(*I),
                      Weight.of(*weight), depth)
    out = source.outside
    generic = {j: Fraction(-3 - k, 2) for k, j in enumerate(out)}
    scalars = [generic, {j: source.lam_dual[j] for j in out}]
    if len(out) > 1:
        scalars.append({**generic, out[0]: source.lam_dual[out[0]]})
    return source, scalars


@pytest.mark.parametrize("case", _PROJECTION_CASES, ids=["A2", "A3", "G2"])
def test_phi_c_matches_the_per_label_reference(request, case):
    source, scalars = _sources_and_scalars(request, *case)
    rng = random.Random(5)
    for c in scalars:
        target = phi_c_target(source, c)
        # many labels share each t; the two labels (s, t, b) and (s, t', b)
        # of one (s, b) land on one target label, and here they cancel
        zero = (0,) * len(source.outside)
        s, _, b = source.basis[0]
        first = {(s, zero, b): Fraction(1)}
        a = source.outside[0]
        base = source.lam_dual[a] - Fraction(c[a])
        cancel = {**first, (s, (1,) + zero[1:], b): -1 / base if base else 1}
        vecs = [{x: Fraction(1) for x in source.basis}, first, cancel, {}]
        for _ in range(20):
            labels = rng.sample(source.basis, 6)
            vecs.append({x: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for x in labels})
        for vec in vecs:
            assert phi_c(source, vec, c, target) == reference_phi_c(source, vec, c)


@pytest.mark.parametrize("case", _PROJECTION_CASES, ids=["A2", "A3", "G2"])
def test_phi_c_surjective_matches_the_per_label_reference(request, case):
    """phi_c_surjective reads the construction: on the real target, at
    every scalar vector, the zero bases included, phi_c is onto.  A
    stand-in target with one label left out, or with one source label with
    t != 0 added, is not, and the per-label reference agrees on each."""
    source, scalars = _sources_and_scalars(request, *case)
    rng = random.Random(8)
    moving = [x for x in source.basis if any(x[1])]
    verdicts = set()
    for c in scalars:
        target = phi_c_target(source, c)
        stand_ins = []
        for _ in range(5):
            short, extra = copy.copy(target), copy.copy(target)
            drop = rng.choice(target.basis)
            short.basis = [x for x in target.basis if x != drop]
            extra.basis = target.basis + [rng.choice(moving)]
            stand_ins += [short, extra]
        for tgt, want in [(target, True)] + [(x, False) for x in stand_ins]:
            got = phi_c_surjective(source, c, tgt)
            assert got is want and got == reference_surjective(source, c, tgt), c
            verdicts.add(got)
    assert verdicts == {True, False}


def test_projection_refusals_keep_their_messages(source, alg_a2, alg_b2):
    c = {1: Fraction(-3)}
    target = phi_c_target(source, c)
    scalar_source = "source already has scalar dual-Cartan action"
    with pytest.raises(ValueError, match=f"^{scalar_source}$"):
        phi_c_target(target, c)
    with pytest.raises(ValueError, match=f"^{scalar_source}$"):
        phi_c(target, {}, c, target)
    with pytest.raises(ValueError, match=f"^{scalar_source}$"):
        phi_c_surjective(target, c, target)
    wrong_keys = "c must be indexed by the simple roots outside I"
    for bad in ({}, {0: 1}, {1: 1, 2: 0}):
        for call in (lambda: phi_c(source, {}, bad, target),
                     lambda: phi_c_surjective(source, bad, target)):
            with pytest.raises(ValueError, match=f"^{wrong_keys}$"):
                call()
    mismatch = "target module does not match the projection data"
    shallow = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 3)
    other_lam = levi_gvm(alg_a2, SimpleSubset.of(0), Weight.of(4, Fraction(1, 2)), 4)
    # the same I, lam, depth and c over another root system
    other_type = levi_gvm(alg_b2, SimpleSubset.of(0), Weight.of(3, Fraction(1, 2)), 4)
    for wrong in (phi_c_target(shallow, c), phi_c_target(other_lam, c),
                  phi_c_target(other_type, c),
                  phi_c_target(source, {1: Fraction(2)}), source):
        for call in (lambda: phi_c(source, {}, c, wrong),
                     lambda: phi_c_surjective(source, c, wrong)):
            with pytest.raises(ValueError, match=f"^{mismatch}$"):
                call()


def test_the_target_is_derived_from_its_source(source, monkeypatch):
    """phi_c_checks builds one module, the target, and no Verma-like,
    quotient or Levi-induced module: the target shares its source's V."""
    built = []
    for cls in (weightmod.VermaLikeModule, weightmod.QuotientModule,
                weightmod.LeviInducedModule, weightmod.ScalarLeviModule):
        def counted(self, *args, __init__=cls.__init__, name=cls.__name__):
            built.append(name)
            __init__(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    c = {1: Fraction(-3)}
    target = phi_c_target(source, c)
    assert built == ["ScalarLeviModule"]
    assert target.source is source
    assert target.V is source.V and target.lam_dual is source.lam_dual
    assert target.bases == [source.lam_dual[1] - c[1]]
    assert target.basis == [x for x in source.basis if not any(x[1])]
    assert all(phi_c_checks(source, c, 20, random.Random(3)).values())
    assert built == ["ScalarLeviModule"] * 2
