"""Acceptance suite: one test per release criterion, exact arithmetic only.

Each test is self-contained and reports as a single pass/fail line under
pytest -v.  Randomized checks use fixed seeds so runs are reproducible.
"""

import itertools
import random
from fractions import Fraction

from vermakit.chevalley import structure_constants, verify_chevalley
from vermakit.cli import _random_element
from vermakit.criteria import (case3_additivity_check, classify_sl3,
                               compute_A, condition_star, condition_star_star,
                               gvm_region_irreducible, verify_case_report)
from vermakit.deform import (hw_scalar_check, phi_c_homomorphism_check,
                             phi_c_surjective, phi_c_target,
                             weight_admissible)
from vermakit.rootsys import (SimpleSubset, Weight, bad_primes, dot_orbit,
                              neg, parse_type)
from vermakit.uea import (DeformationContext, exp_truncated,
                          iwasawa_generator_monomial, multiply,
                          weight_components, weight_of_monomial)
from vermakit.weightmod import (VermaLikeModule, kostant_partition, levi_gvm,
                                reflection_formula_check, simple_dims_table,
                                weyl_dim)


def test_criterion_01_chevalley_relations_and_transpose_symmetry():
    for label in ("A1", "A2", "A3", "B2", "G2"):
        sc = structure_constants(parse_type(label))
        report = verify_chevalley(sc)
        assert report["all_pass"], (label, report)
        for (x, y), v in sc.pairs():
            assert sc.c(neg(y), neg(x)) == v


def test_criterion_02_pbw_engine(alg_a2):
    rng = random.Random(101)
    for _ in range(100):
        x, y, z = (_random_element(alg_a2, rng, 3) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    # normal-form idempotence: re-expanding a normal word reproduces it
    for _ in range(30):
        x = _random_element(alg_a2, rng, 3)
        for m in x.terms:
            prod = alg_a2.one()
            for g in alg_a2.word(m):
                prod = multiply(prod, alg_a2.gen(*g))
            assert prod.terms == {m: Fraction(1)}
    # weight components multiply additively
    pairs = 0
    while pairs < 50:
        x, y = _random_element(alg_a2, rng, 2), _random_element(alg_a2, rng, 2)
        if x.is_zero() or y.is_zero():
            continue
        for wx, cx in weight_components(x).items():
            for wy, cy in weight_components(y).items():
                for m in multiply(cx, cy).terms:
                    assert weight_of_monomial(alg_a2, m) == wx + wy
        pairs += 1


def test_criterion_03_verma_character_is_kostant(alg_a2, alg_g2):
    for alg, lam in ((alg_a2, Weight.of(Fraction(2, 7), Fraction(-3, 5))),
                     (alg_g2, Weight.of(Fraction(1, 3), Fraction(-5, 7)))):
        rs = alg.rs
        ch = VermaLikeModule(alg, lam, 6).character().as_dict()
        for nu in itertools.product(range(7), repeat=2):
            if sum(nu) > 6:
                continue
            got = ch.get(lam - rs.weight_of_root(nu), 0)
            assert got == kostant_partition(rs, nu), (rs, nu)


def test_criterion_04_sl2_calibration(alg_a1):
    for m in range(6):
        table = simple_dims_table(VermaLikeModule(alg_a1, Weight.of(m), 8))
        assert sum(table.values()) == m + 1 == weyl_dim(alg_a1.rs, Weight.of(m))
    rng = random.Random(7)
    for _ in range(10):
        a = Fraction(rng.randint(-30, 30), rng.choice([2, 3, 4, 7]))
        if a.denominator == 1:
            a += Fraction(1, 2)
        table = simple_dims_table(VermaLikeModule(alg_a1, Weight.of(a), 8))
        assert all(r == 1 for r in table.values())


def test_criterion_05_case3_character_additivity(alg_a2):
    for mu in (Weight.of(0, 0), Weight.of(1, 0), Weight.of(1, 1)):
        assert case3_additivity_check(alg_a2, mu, 1, 6), mu


def test_criterion_06_reflection_identity(alg_a1, alg_a2):
    for a in (Fraction(5), Fraction(1, 2), Fraction(-3, 4), Fraction(-2)):
        for s in range(11):
            assert reflection_formula_check(alg_a1, Weight.of(a), 0, s)
            assert reflection_formula_check(alg_a2,
                                            Weight.of(a, Fraction(1, 3)), 0, s)


def test_criterion_07_jantzen_suite():
    rs = parse_type("A2")
    for a in (0, 1, 2, 3):
        ok, witnesses = condition_star(rs, SimpleSubset.of(0), Weight.of(a, -1))
        assert ok and witnesses
    for a in (Fraction(1, 2), Fraction(-5, 4)):
        assert condition_star_star(rs, SimpleSubset.of(), Weight.of(a, -1))
    rng = random.Random(55)
    systems = [parse_type(t) for t in ("A2", "A3", "B2")]
    for _ in range(200):
        rs2 = rng.choice(systems)
        lam = Weight.of(*[Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
                          for _ in range(rs2.rank)])
        dom = [i for i in range(rs2.rank)
               if lam.coords[i].denominator == 1 and lam.coords[i] >= 0]
        I = SimpleSubset.of(*[i for i in dom if rng.random() < 0.5])
        if condition_star_star(rs2, I, lam):
            ok, _ = condition_star(rs2, I, lam)
            assert ok, (rs2, lam, sorted(I))


def test_criterion_08_gvm_region(alg_a2):
    rs = alg_a2.rs
    I = SimpleSubset.of(0)
    rng = random.Random(3)
    alpha2_wt = rs.weight_of_root((0, 1))
    for lam in (Weight.of(1, 1), Weight.of(2, 0)):
        A = compute_A(rs, I, lam)
        # brute-force the minimal-integer definition
        rho = Weight.of(1, 1)  # <rho, alpha_i^v> = 1 at each simple root
        pairings = [sum(c * x for c, x in zip(rs.coroot_coefficients(r),
                                              (lam + rho).coords))
                    for r in rs.positive_roots if r[1] == 0]
        pairings += [-q for q in pairings]
        want = next(B for B in range(1, 20)
                    if all(q - B < 1 or (q - B).denominator != 1
                           for q in pairings))
        assert A == want
        for _ in range(20):
            c = -A - rng.randint(0, 15)
            assert gvm_region_irreducible(rs, I, lam, {1: c})
            # Shapovalov evidence on the Levi Verma: the alpha-direction
            # Verma at the shifted weight has full Gram ranks to depth 5
            shifted = lam - alpha2_wt.scale(c)
            module = VermaLikeModule(alg_a2, shifted, 5, J=SimpleSubset.of(0))
            assert all(r == 1 for r in simple_dims_table(module).values())


def test_criterion_09_phi_c(alg_a2, alg_a3):
    configs = [
        (alg_a2, SimpleSubset.of(0), Weight.of(2, Fraction(1, 3)), [1]),
        (alg_a3, SimpleSubset.of(0, 1), Weight.of(1, 1, Fraction(1, 3)), [2]),
    ]
    rng = random.Random(77)
    for alg, I, lam, outside in configs:
        source = levi_gvm(alg, I, lam, 4)
        gens = ([("e", i) for i in source.levi_idx]
                + [("f", i) for i in source.levi_idx]
                + [("h", i) for i in range(alg.rs.rank)])
        roomy = [m for m in source.basis if sum(m[1]) + 1 <= source.depth]
        for _ in range(50):
            g = rng.choice(gens)
            c = {j: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                 for j in outside}
            vec = {rng.choice(roomy): Fraction(rng.randint(1, 9))}
            assert phi_c_homomorphism_check(source, alg.gen(*g), vec, c,
                                            phi_c_target(source, c))
        for depth in (1, 2, 3, 4):
            shallow = levi_gvm(alg, I, lam, depth)
            c = {j: Fraction(-2) for j in outside}
            assert phi_c_surjective(shallow, c, phi_c_target(shallow, c))
        for scalar in (Fraction(0), Fraction(-3), Fraction(1, 5)):
            # 1/5 is admissible once n = 1
            c = {j: scalar for j in outside}
            assert hw_scalar_check(phi_c_target(source, c), c, outside[0])


def test_criterion_10_bad_primes():
    assert bad_primes(parse_type("A2")) == {2, 3}
    assert bad_primes(parse_type("A1")) == {2}
    assert bad_primes(parse_type("B2")) == {2}


def test_criterion_11_iwasawa_lowest_terms(alg_a1):
    p, n = 5, 1
    ctx = DeformationContext(p, n, 5)
    basis = [alg_a1.gen("f", 0), alg_a1.gen("h", 0), alg_a1.gen("e", 0)]
    for s in itertools.product(range(4), repeat=3):
        if not 1 <= sum(s) <= 3:
            continue
        elem = iwasawa_generator_monomial(s, basis, ctx)
        low = min(elem.terms, key=alg_a1.degree)
        assert low == ((s[0],), (s[1],), (s[2],))
        assert elem.terms[low] == Fraction(p) ** ((n + 1) * sum(s))
    x = alg_a1.gen("e", 0).scale(p ** (n + 1))
    assert multiply(exp_truncated(x, ctx), exp_truncated(x.scale(-1), ctx),
                    ctx) == alg_a1.one()


def test_criterion_12_linkage_unique_dominant():
    rs = parse_type("A2")
    vals = [Fraction(k, 4) for k in range(-16, 24, 4)]  # ten quarter-grid values
    count = 0
    for a in vals:
        for b in vals:
            lam = Weight.of(a, b)
            assert weight_admissible(rs, lam, 5, 0)
            dominant = [drop for drop in dot_orbit(rs, lam)
                        if (lam - rs.weight_of_root(drop)).is_dominant_integral()]
            assert len(dominant) <= 1, lam
            count += 1
    assert count == 100


def test_criterion_13_classifier_totality(alg_a2):
    vals = [Fraction(k, 4) for k in range(-16, 17)]  # quarters in [-4, 4]
    grid = [(a, b) for a in vals for b in vals]
    eligible = [Weight.of(a, b) for a, b in grid
                if not Weight.of(a, b).is_dominant_integral()
                and weight_admissible(alg_a2.rs, Weight.of(a, b), 5, 0)]
    stride = len(eligible) // 400
    sample = eligible[::stride][:400]
    assert len(sample) == 400
    for lam in sample:
        report = classify_sl3(alg_a2, lam, 5, 0, check_depth=4)
        assert report.checks["all_certificates_hold"], lam
        assert verify_case_report(alg_a2, report), lam
    # reference weights keep their expected report shapes
    r = classify_sl3(alg_a2, Weight.of(Fraction(1, 2), -1), 5, 0)
    assert (r.case, r.certificates[-1]["kind"], r.certificates[-1]["I"]) == \
        ("singular", "condition_star_star", [])
    r = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    assert (r.case, r.certificates[-1]["kind"], r.certificates[-1]["I"]) == \
        ("singular", "condition_star", [0])
    r = classify_sl3(alg_a2, Weight.of(-2, 3), 5, 0)
    assert r.case == "regular_integral"
    assert r.certificates[-1]["mu"] == ["0", "2"]
