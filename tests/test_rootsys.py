import random
from fractions import Fraction

import pytest

from vermakit.rootsys import (RootSystem, SimpleSubset, Weight, bad_primes,
                              classify_weight, dot_orbit, dot_reflect,
                              dual_h_basis, interior, is_singular,
                              is_totally_proper, pairing, parse_type,
                              parse_weight, positive_subsystem,
                              root_subsystem)

EXPECTED_POSITIVE = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "C3": 9,
                     "G2": 6, "F4": 24, "D4": 12}


@pytest.mark.parametrize("label,count", sorted(EXPECTED_POSITIVE.items()))
def test_positive_root_counts(label, count):
    rs = parse_type(label)
    assert len(rs.positive_roots) == count


def test_positive_roots_ordered_by_height_then_lex():
    rs = parse_type("G2")
    keys = [(rs.root_height(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)


def test_parse_weight_fractions():
    rs = parse_type("A2")
    w = parse_weight(rs, "1/2,-1")
    assert w.coords == (Fraction(1, 2), Fraction(-1))
    with pytest.raises(ValueError):
        parse_weight(rs, "1")


def test_cartan_symmetrization_is_symmetric():
    for label in ("A3", "B3", "C3", "G2", "F4"):
        rs = parse_type(label)
        for a in rs.roots:
            for b in rs.roots:
                assert rs.inner(a, b) == rs.inner(b, a)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "F4", "G2"])
def test_symmetrizer_symmetrises_the_cartan_matrix(label):
    # d_j a_ij = d_i a_ji is what makes inner symmetric; (a_i, a_i) = 2 d_i
    rs = parse_type(label)
    d, a = rs.symmetrizer, rs.cartan
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[j] * a[i][j] == d[i] * a[j][i]
        assert rs.inner(rs.simple_root(i), rs.simple_root(i)) == 2 * d[i]


def test_pairing_against_cartan_matrix():
    rs = parse_type("B2")
    for i in range(2):
        alpha = tuple(int(i == j) for j in range(2))
        for k in range(2):
            fw = rs.fundamental_weight(k)
            assert pairing(rs, fw, alpha) == (1 if i == k else 0)


def test_root_pairing_integrality():
    rs = parse_type("G2")
    for a in rs.roots:
        for b in rs.roots:
            q = rs.root_pairing(a, b)
            assert q == 2 * rs.inner(a, b) / rs.inner(b, b)


def test_dot_reflection_is_an_involution():
    rs = parse_type("A2")
    lam = Weight.of(Fraction(3, 7), -2)
    for i in range(2):
        assert dot_reflect(rs, i, dot_reflect(rs, i, lam)) == lam


def test_dot_orbit_size_regular_integral():
    rs = parse_type("A2")
    # regular integral orbits have full Weyl-group size
    assert len(dot_orbit(rs, Weight.of(1, 0))) == 6


def test_singular_weight_detection():
    rs = parse_type("A2")
    assert is_singular(rs, Weight.of(-1, 5))
    assert is_singular(rs, Weight.of(3, -5))  # <lam+rho, (a1+a2)^v> = 0
    assert not is_singular(rs, Weight.of(Fraction(1, 2), Fraction(1, 3)))


def test_classify_weight_flags():
    rs = parse_type("A2")
    flags = classify_weight(rs, Weight.of(2, 0))
    assert flags == {"dominant_integral": True, "singular": False,
                     "integral": True}


def test_subsystem_and_interior():
    rs = parse_type("A3")
    I = SimpleSubset.of(0, 1)
    pos = positive_subsystem(rs, I)
    assert set(pos) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert sorted(interior(rs, I)) == [0]
    assert len(root_subsystem(rs, I)) == 6
    assert is_totally_proper(rs, I)
    assert not is_totally_proper(rs, SimpleSubset.of(0, 1, 2))


def test_dual_h_basis_is_inverse_cartan():
    rs = parse_type("B2")
    dual = dual_h_basis(rs)
    n = rs.rank
    for a in range(n):
        for b in range(n):
            got = sum(rs.cartan[a][k] * dual[k][b] for k in range(n))
            assert got == (1 if a == b else 0)


def test_bad_primes_reference_values():
    assert bad_primes(parse_type("A1")) == {2}
    assert bad_primes(parse_type("A2")) == {2, 3}
    assert bad_primes(parse_type("B2")) == {2}
    assert bad_primes(parse_type("G2")) == {2, 3}


def test_bad_primes_order_independent():
    rs = parse_type("B2")
    base = bad_primes(rs)
    for seed in range(3):
        assert bad_primes(rs, rng=random.Random(seed)) == base


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        RootSystem("E", 8)
    with pytest.raises(ValueError):
        parse_type("Q5")


def test_positive_root_count_mismatch_raises_runtime_error(monkeypatch):
    from vermakit import rootsys
    monkeypatch.setitem(rootsys._POSITIVE_COUNTS, "A", lambda n: 0)
    with pytest.raises(RuntimeError, match="closure produced 3 positive roots"):
        RootSystem("A", 2)
