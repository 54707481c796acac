import random
from fractions import Fraction

import pytest

from vermakit.criteria import compute_A, gvm_region_irreducible
from vermakit import deform
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
    # the first two used to raise KeyError: 1, the third was accepted
    message = "c must be indexed by the simple roots outside I"
    with pytest.raises(ValueError, match=message):
        phi_c_target(source, c)
    with pytest.raises(ValueError, match=message):
        phi_c_checks(source, c, 3, random.Random(0))


@pytest.mark.parametrize("coords", [(Fraction(1, 5),), (1, 0, 2)])
def test_admissibility_refuses_a_weight_of_the_wrong_rank(coords):
    with pytest.raises(ValueError, match=r"needs 2 coordinates \(rank 2\)"):
        weight_admissible(parse_type("A2"), Weight.of(*coords), 5, 0)
