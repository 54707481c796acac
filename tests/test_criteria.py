import random
from fractions import Fraction

import pytest

from vermakit.criteria import (case3_additivity_check, classify_sl3,
                               compute_A, condition_star, condition_star_star,
                               good_prime, gvm_region_irreducible,
                               jantzen_irreducible, psi_plus, reflection_step,
                               verify_case_report)
from vermakit.rootsys import SimpleSubset, Weight, parse_type


@pytest.fixture(scope="module")
def rs_a2():
    return parse_type("A2")


def test_psi_plus_rho_row(rs_a2):
    # at lam = 0 with no parabolic, every positive root pairs in {1, 1, 2}
    assert psi_plus(rs_a2, SimpleSubset.of(), Weight.of(0, 0)) == \
        set(rs_a2.positive_roots)
    assert not condition_star_star(rs_a2, SimpleSubset.of(), Weight.of(0, 0))


def test_psi_plus_examples(rs_a2):
    # lam = 2w1 - w2, I = {a1}: only a1+a2 pairs integrally outside I
    got = psi_plus(rs_a2, SimpleSubset.of(0), Weight.of(2, -1))
    assert got == {(1, 1)}
    assert psi_plus(rs_a2, SimpleSubset.of(), Weight.of(Fraction(1, 2), -1)) == set()


def test_condition_star_case1_row(rs_a2):
    for a in range(4):
        ok, witnesses = condition_star(rs_a2, SimpleSubset.of(0),
                                       Weight.of(a, -1))
        assert ok
        # the witness for a1+a2 is a2, whose reflection lands back in I
        assert witnesses == {(1, 1): (0, 1)}


def test_condition_star_requires_dominance(rs_a2):
    with pytest.raises(ValueError):
        condition_star(rs_a2, SimpleSubset.of(0), Weight.of(-2, 0))


def test_condition_star_fails_for_dominant_interior_weight(rs_a2):
    ok, _ = condition_star(rs_a2, SimpleSubset.of(0), Weight.of(1, 1))
    assert not ok
    assert jantzen_irreducible(rs_a2, SimpleSubset.of(0), Weight.of(1, 1)) == "unknown"


def test_star_star_implies_star_sampled():
    rng = random.Random(41)
    systems = [parse_type(t) for t in ("A2", "A3", "B2")]
    checked = 0
    for _ in range(300):
        rs = rng.choice(systems)
        lam = Weight.of(*[Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
                          for _ in range(rs.rank)])
        dom = [i for i in range(rs.rank)
               if lam.coords[i].denominator == 1 and lam.coords[i] >= 0]
        I = SimpleSubset.of(*[i for i in dom if rng.random() < 0.5])
        if condition_star_star(rs, I, lam):
            ok, _ = condition_star(rs, I, lam)
            assert ok
            checked += 1
    assert checked >= 50


def test_compute_A_values(rs_a2):
    assert compute_A(rs_a2, SimpleSubset.of(0), Weight.of(2, 5)) == 3
    assert compute_A(parse_type("A1"), SimpleSubset.of(0), Weight.of(0)) == 1
    assert compute_A(rs_a2, SimpleSubset.of(0), Weight.of(Fraction(1, 2), 0)) == 1


def test_gvm_region_accepts_and_rejects(rs_a2):
    I = SimpleSubset.of(0)
    lam = Weight.of(1, 1)
    A = compute_A(rs_a2, I, lam)
    for c in (-A, -A - 1, -A - 9):
        assert gvm_region_irreducible(rs_a2, I, lam, {1: c})
    with pytest.raises(ValueError):
        gvm_region_irreducible(rs_a2, I, lam, {1: -A + 1})
    with pytest.raises(ValueError):
        gvm_region_irreducible(rs_a2, I, lam, {1: Fraction(-7, 2)})
    with pytest.raises(ValueError):
        gvm_region_irreducible(rs_a2, I, lam, {0: -5})


def test_gvm_region_fifty_samples(rs_a2):
    rng = random.Random(29)
    I = SimpleSubset.of(0)
    for _ in range(50):
        lam = Weight.of(rng.randint(0, 4),
                        Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3])))
        A = compute_A(rs_a2, I, lam)
        c = -A - rng.randint(0, 20)
        assert gvm_region_irreducible(rs_a2, I, lam, {1: c}), (lam, c)


def test_jantzen_consistent_with_shapovalov(alg_a2):
    # wherever the criterion certifies irreducibility, the parabolic module
    # character must agree with the simple character to depth 5
    from vermakit.weightmod import parabolic_verma, simple_dims
    rs = alg_a2.rs
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        a = rng.randint(0, 3)
        b = Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4]))
        I = rng.choice([SimpleSubset.of(), SimpleSubset.of(0)])
        lam = Weight.of(a, b)
        if jantzen_irreducible(rs, I, lam) != "irreducible":
            continue
        if len(I):
            module = parabolic_verma(alg_a2, I, lam, 5)
        else:
            from vermakit.weightmod import verma
            module = verma(alg_a2, lam, 5)
        ch = module.character().as_dict()
        simple = simple_dims(alg_a2, lam, 5).as_dict()
        for w, d in ch.items():
            assert simple.get(w, 0) == d, (lam, sorted(I), w)
        checked += 1


def test_reflection_step_license(rs_a2):
    out, cert = reflection_step(rs_a2, Weight.of(Fraction(1, 2), 0), 0)
    assert out == Weight.of(Fraction(-5, 2), Fraction(3, 2))
    assert cert["kind"] == "reflection_step"
    with pytest.raises(ValueError):
        reflection_step(rs_a2, Weight.of(2, 0), 0)


def test_good_prime(rs_a2):
    assert not good_prime(2, rs_a2)
    assert not good_prime(3, rs_a2)
    assert good_prime(5, rs_a2)
    assert good_prime(7, rs_a2)


@pytest.mark.parametrize("p", [0, 1, 4, 9, -3, 25])
def test_good_prime_rejects_non_primes(rs_a2, p):
    assert not good_prime(p, rs_a2)


def test_classify_checks_odd_prime_before_good_prime(alg_a2):
    with pytest.raises(ValueError, match="p must be an odd prime, got 2"):
        classify_sl3(alg_a2, Weight.of(Fraction(1, 2), -1), 2, 0)


def test_classifier_reference_examples(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(Fraction(1, 2), -1), 5, 0)
    assert report.case == "singular"
    assert report.certificates[-1] == {
        "kind": "condition_star_star", "weight": ["1/2", "-1"], "I": []}

    report = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    assert report.case == "singular"
    assert report.certificates[-1]["kind"] == "condition_star"
    assert report.certificates[-1]["I"] == [0]

    report = classify_sl3(alg_a2, Weight.of(-2, 3), 5, 0)
    assert report.case == "regular_integral"
    cert = report.certificates[-1]
    assert cert["kind"] == "case3_extension"
    assert cert["mu"] == ["0", "2"]
    assert cert["gamma"] == 0
    assert report.checks["all_certificates_hold"]


def test_classifier_rejects_bad_inputs(alg_a2):
    with pytest.raises(ValueError):
        classify_sl3(alg_a2, Weight.of(1, 0), 5, 0)  # dominant integral
    with pytest.raises(ValueError):
        classify_sl3(alg_a2, Weight.of(-2, 3), 3, 0)  # bad prime
    with pytest.raises(ValueError):
        classify_sl3(alg_a2, Weight.of(Fraction(1, 5), -1), 5, 0)  # inadmissible


def test_classifier_reflection_chain(alg_a2):
    # deep regular integral weight needing two licensed reflections
    report = classify_sl3(alg_a2, Weight.of(-3, -3), 5, 0)
    assert report.case == "regular_integral"
    kinds = [c["kind"] for c in report.certificates]
    assert kinds.count("reflection_step") >= 1
    assert kinds[-1] == "case3_extension"
    assert verify_case_report(alg_a2, report)


def test_classifier_singular_long_root(alg_a2):
    # a + b + 2 = 0 needs a reflection before terminating
    report = classify_sl3(alg_a2, Weight.of(Fraction(1, 2), Fraction(-5, 2)),
                          5, 0)
    assert report.case == "singular"
    assert report.certificates[0]["kind"] == "reflection_step"
    assert verify_case_report(alg_a2, report)


def test_verify_rejects_tampered_report(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    report.certificates[-1]["I"] = [1]
    assert not verify_case_report(alg_a2, report)


def test_case3_additivity_direct(alg_a2):
    assert case3_additivity_check(alg_a2, Weight.of(1, 0), 1, 4)
    assert case3_additivity_check(alg_a2, Weight.of(0, 0), 0, 4)


def test_report_json_stable(alg_a2):
    r1 = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    r2 = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    assert r1.to_json() == r2.to_json()
    assert r1.to_json()["case"] == "singular"


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_refused(alg_a2, depth):
    with pytest.raises(ValueError, match="depth must be at least 1"):
        classify_sl3(alg_a2, Weight.of(-2, 3), 5, 0, check_depth=depth)
    with pytest.raises(ValueError, match="depth must be at least 1"):
        case3_additivity_check(alg_a2, Weight.of(0, 2), 0, depth)


@pytest.mark.parametrize("index", [-1, 5])
def test_subset_index_outside_the_rank_is_refused(rs_a2, index):
    I = SimpleSubset.of(index)
    lam = Weight.of(0, 1)
    message = f"simple-root index {index} is not in 0..1 \\(rank 2\\)"
    for check in (psi_plus, condition_star, condition_star_star,
                  jantzen_irreducible, compute_A):
        with pytest.raises(ValueError, match=message):
            check(rs_a2, I, lam)
    with pytest.raises(ValueError, match=message):
        gvm_region_irreducible(rs_a2, I, lam, {0: -5, 1: -5})


@pytest.mark.parametrize("query", [
    psi_plus, condition_star, condition_star_star, jantzen_irreducible,
    compute_A, lambda rs, I, lam: gvm_region_irreducible(rs, I, lam, {1: -9}),
    lambda rs, I, lam: reflection_step(rs, lam, 0)],
    ids=["psi_plus", "condition_star", "condition_star_star",
         "jantzen_irreducible", "compute_A", "gvm_region_irreducible",
         "reflection_step"])
@pytest.mark.parametrize("coords", [(Fraction(1, 2),), (-2, 0, 2)])
def test_weight_of_the_wrong_rank_is_refused(rs_a2, query, coords):
    # a short weight used to pass (*) with an empty certificate
    message = rf"needs 2 coordinates \(rank 2\), got {len(coords)}"
    with pytest.raises(ValueError, match=message):
        query(rs_a2, SimpleSubset.of(0), Weight.of(*coords))


@pytest.mark.parametrize("coords", [(Fraction(1, 2),), (-2, 0, 2)])
def test_classifier_refuses_a_weight_of_the_wrong_rank(alg_a2, coords):
    with pytest.raises(ValueError, match=r"needs 2 coordinates \(rank 2\)"):
        classify_sl3(alg_a2, Weight.of(*coords), 5, 0)
