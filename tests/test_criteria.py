import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from vermakit import criteria, weightmod
from vermakit.chevalley import structure_constants
from vermakit.criteria import (case3_additivity_check, classify_sl3,
                               compute_A, condition_star, condition_star_star,
                               good_prime, gvm_region_irreducible, psi_plus,
                               reflection_step, verify_case_report)
from vermakit.linalg import span_coordinates
from vermakit.rootsys import (SimpleSubset, Weight, dot_reflect, parse_type,
                              root_subsystem)
from vermakit.uea import EnvelopingAlgebra


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
    # not dominant on I: the negative roots of the parabolic set A
    assert compute_A(rs_a2, SimpleSubset.of(0), Weight.of(-7, 0)) == 6
    assert compute_A(rs_a2, SimpleSubset.of(0, 1), Weight.of(-3, -4)) == 5
    assert compute_A(parse_type("B2"), SimpleSubset.of(0, 1), Weight.of(-5, 1)) == 6


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
        if not condition_star(rs, I, lam)[0]:
            continue
        if len(I):
            module = parabolic_verma(alg_a2, I, lam, 5)
        else:
            from vermakit.weightmod import VermaLikeModule
            module = VermaLikeModule(alg_a2, lam, 5)
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


# sha256 over one JSON line per weight of the walk grid below, recorded
# with the classifier's earlier two-loop walk
_WALK_GRID_DIGEST = \
    "504d0c6e8b66b062a277d69a60f4a5db57b88989006c267618081c25c5393de1"


def test_walk_grid_digest(alg_a2):
    """Every report and re-check on a 729-weight grid, or the refusal, is
    what the classifier gave when each case walked in its own loop."""
    values = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
    digest = hashlib.sha256()
    cases = Counter()
    for a in values:
        for b in values:
            try:
                report = classify_sl3(alg_a2, Weight.of(a, b), 5, 0)
                record = [report.to_json(), verify_case_report(alg_a2, report)]
                cases[report.case] += 1
            except ValueError as e:
                record = ["refused", str(e)]
                cases["refused"] += 1
            digest.update(json.dumps(record).encode() + b"\n")
    assert cases == {"regular_integral": 85, "regular_nonintegral": 524,
                     "singular": 71, "refused": 49}
    assert digest.hexdigest() == _WALK_GRID_DIGEST


def test_verify_rejects_tampered_report(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(2, -1), 5, 0)
    report.certificates[-1]["I"] = [1]
    assert not verify_case_report(alg_a2, report)


def _fresh_a2():
    return EnvelopingAlgebra(structure_constants(parse_type("A2")))


def _first(report, kind):
    return next(c for c in report.certificates if c["kind"] == kind)


@pytest.mark.parametrize("kind,field,value", [
    ("case3_extension", "gamma", 2), ("case3_extension", "gamma", -1),
    ("case3_extension", "depth", 0), ("case3_extension", "depth", "4"),
    ("reflection_step", "alpha", 7), ("reflection_step", "alpha", -1),
    ("case3_extension", "mu", ["x", "1"]), ("case3_extension", "mu", ["1"]),
    ("case3_extension", "mu", None), ("case3_extension", "kind", None)])
def test_verify_returns_false_on_a_malformed_field(alg_a2, kind, field, value):
    report = classify_sl3(alg_a2, Weight.of(-3, -3), 5, 0, check_depth=4)
    assert verify_case_report(alg_a2, report)
    _first(report, kind)[field] = value
    assert verify_case_report(alg_a2, report) is False


def test_verify_returns_false_on_a_missing_field(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(-3, -3), 5, 0, check_depth=4)
    del _first(report, "case3_extension")["mu"]
    assert verify_case_report(alg_a2, report) is False


@pytest.mark.parametrize("coords", [(-3, -3), (Fraction(1, 2), Fraction(-5, 2)),
                                    (2, -1)])
@pytest.mark.parametrize("cut", ["no-certificates", "no-terminal", "long-chain"])
def test_verify_rejects_a_walk_that_stops_short(alg_a2, coords, cut):
    report = classify_sl3(alg_a2, Weight.of(*coords), 5, 0, check_depth=4)
    if cut == "no-certificates":
        report.certificates = []
    elif cut == "no-terminal":
        report.certificates.pop()
    else:
        report.chain.append(report.chain[-1])
    assert not verify_case_report(alg_a2, report)


def test_verify_rejects_a_planted_case3_verdict(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(-2, 3), 5, 0, check_depth=4)
    assert _first(report, "case3_extension")
    report.checks["case3_character_additivity"] = False
    assert not verify_case_report(alg_a2, report)
    del report.checks["case3_character_additivity"]
    assert not verify_case_report(alg_a2, report)


def test_verify_rejects_a_case3_mu_off_the_chain_or_not_dominant(alg_a2):
    report = classify_sl3(alg_a2, Weight.of(-3, -3), 5, 0, check_depth=4)
    cert = _first(report, "case3_extension")
    cert["mu"], cert["gamma"] = ["2", "1"], 0  # dominant, wrong reflection
    assert not verify_case_report(alg_a2, report)
    cert["mu"], cert["gamma"] = ["1", "-5"], 1  # s_1.mu is; mu not dominant
    assert not verify_case_report(alg_a2, report)


def test_verify_refuses_an_algebra_that_is_not_a2(alg_a2, alg_b2):
    report = classify_sl3(alg_a2, Weight.of(-3, -3), 5, 0, check_depth=4)
    with pytest.raises(ValueError, match="specific to the rank-2 type A"):
        verify_case_report(alg_b2, report)


def test_case3_verdicts_are_memoised_per_algebra(monkeypatch):
    calls = []

    def counting(alg, mu, gamma, depth):
        calls.append((alg, mu, gamma, depth))
        return case3_additivity_check(alg, mu, gamma, depth)

    monkeypatch.setattr(criteria, "case3_additivity_check", counting)
    first, second = _fresh_a2(), _fresh_a2()
    for alg in (first, second, first):
        report = classify_sl3(alg, Weight.of(-3, -3), 5, 0, check_depth=4)
        assert report.checks["case3_character_additivity"]
    assert [c[0] for c in calls] == [first, second]
    assert first.case3_verdicts == second.case3_verdicts


def test_verify_builds_no_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the verifier must not build a module")

    alg = _fresh_a2()
    reports = [classify_sl3(alg, Weight.of(*c), 5, 0, check_depth=4)
               for c in ((-3, -3), (-2, 3), (2, -1), (Fraction(1, 2), -1))]
    for module in (criteria, weightmod):
        for name in ("case3_additivity_check", "parabolic_verma",
                     "simple_dims"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for report in reports:
        assert verify_case_report(_fresh_a2(), report), report.input


def test_case3_additivity_direct(alg_a2):
    assert case3_additivity_check(alg_a2, Weight.of(1, 0), 1, 4)
    assert case3_additivity_check(alg_a2, Weight.of(0, 0), 0, 4)


@pytest.mark.parametrize("mu,gamma,depth,reflected_depth", [
    ((2, 0), 0, 4, 1), ((0, 0), 0, 4, 3), ((1, 0), 1, 4, 3), ((1, 2), 1, 6, 3),
    ((5, 0), 0, 4, 1), ((0, 1), 0, 9, 8)])
def test_case3_builds_the_reflected_module_only_to_the_drops_it_reads(
        alg_a2, monkeypatch, mu, gamma, depth, reflected_depth):
    # drop nu of M(s_gamma.mu) is read at nu + (mu_gamma + 1) alpha_gamma, so
    # heights past depth - (mu_gamma + 1) were built and ranked for nothing
    built = []

    class Recording(weightmod.VermaLikeModule):
        def __init__(self, alg, lam, depth):
            built.append((lam, depth))
            super().__init__(alg, lam, depth)

    monkeypatch.setattr(criteria, "VermaLikeModule", Recording)
    mu = Weight.of(*mu)
    assert case3_additivity_check(alg_a2, mu, gamma, depth)
    assert built == [(mu, depth),
                     (dot_reflect(alg_a2.rs, gamma, mu), reflected_depth)]


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
    for check in (psi_plus, condition_star, condition_star_star, compute_A):
        with pytest.raises(ValueError, match=message):
            check(rs_a2, I, lam)
    with pytest.raises(ValueError, match=message):
        gvm_region_irreducible(rs_a2, I, lam, {0: -5, 1: -5})


@pytest.mark.parametrize("query", [
    psi_plus, condition_star, condition_star_star,
    lambda rs, I, lam: condition_star(rs, I, lam)[0],
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


_ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
              "F4", "G2"]


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_levi_span_test_matches_span_coordinates(label):
    """The support test of condition (*) against the linear solve it
    replaced: gamma is in the span of beta and the simple roots of I exactly
    when span_coordinates finds its coordinates."""
    rs = parse_type(label)
    for bits in range(2 ** rs.rank):
        I = SimpleSubset.of(*[i for i in range(rs.rank) if bits >> i & 1])
        outside = [j for j in range(rs.rank) if j not in I]
        levi = root_subsystem(rs, I)
        simples = [rs.simple_root(i) for i in I]
        for beta in rs.positive_roots:
            if beta in levi:
                continue
            coords = span_coordinates(simples + [beta], rs.roots)
            for gamma, x in zip(rs.roots, coords):
                assert (criteria._in_levi_span(beta, gamma, outside)
                        == (x is not None)), (I, beta, gamma)
