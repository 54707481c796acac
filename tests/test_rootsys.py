import random
from fractions import Fraction
from itertools import product

import pytest

from vermakit import rootsys
from vermakit.criteria import classify_sl3
from vermakit.rootsys import (RootSystem, SimpleSubset, Weight, add,
                              bad_primes, check_weight, dot_orbit, dot_reflect,
                              enumerate_closed_subsystems, interior,
                              is_singular, parse_type, parse_weight,
                              positive_subsystem, root_subsystem,
                              shifted_pairings, sub)
from vermakit.weightmod import levi_gvm, simple_dims

EXPECTED_POSITIVE = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "C3": 9,
                     "G2": 6, "F4": 24, "D4": 12}


@pytest.mark.parametrize("label,count", sorted(EXPECTED_POSITIVE.items()))
def test_positive_root_counts(label, count):
    rs = parse_type(label)
    assert len(rs.positive_roots) == count


def test_positive_roots_ordered_by_height_then_lex():
    rs = parse_type("G2")
    keys = [(sum(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)
    assert rs.heights == [height for height, _ in keys]


def test_parse_weight_fractions():
    rs = parse_type("A2")
    w = parse_weight(rs, "1/2,-1")
    assert w.coords == (Fraction(1, 2), Fraction(-1))
    with pytest.raises(ValueError):
        parse_weight(rs, "1")


_LIMIT = rootsys.MAX_RATIONAL_DIGITS


@pytest.mark.parametrize("text,value", [
    ("1e5", Fraction(10 ** 5)), ("-3/4", Fraction(-3, 4)), (" 2.5e-3 ", Fraction(1, 400)),
    ("1e4299", Fraction(10 ** 4299)), ("-1e-4299", Fraction(-1, 10 ** 4299)),
    ("25e-4301", Fraction(1, 4 * 10 ** 4299)), ("0e4000", Fraction(0)),
    pytest.param("1" * _LIMIT, Fraction(int("1" * _LIMIT)), id="4300-ones"),
    pytest.param("1" + "0" * (_LIMIT - 1), Fraction(10 ** 4299), id="4300-digits")])
def test_parse_rational_keeps_values_within_the_digit_limit(text, value):
    assert rootsys.parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1e4300", "-1e-4300", "1e9999999", "1e-9999999", "3E100000", "0e9999999",
    # digit runs past the limit, refused before Fraction's own int() names
    # sys.set_int_max_str_digits() instead of the bound on coordinates
    pytest.param("1" + "0" * _LIMIT, id="numerator-run"),
    pytest.param("1e" + "9" * 5000, id="exponent-run"),
    pytest.param("1/" + "1" * (_LIMIT + 1), id="denominator-run"),
    pytest.param("1." + "0" * 4400 + "1", id="decimals-run"),
    pytest.param("1" + "_0" * _LIMIT, id="underscored-run")])
def test_parse_rational_refuses_past_the_digit_limit(text):
    with pytest.raises(ValueError, match=f"is too large: .* at most {_LIMIT} digits"):
        rootsys.parse_rational(text)


@pytest.mark.parametrize("text", ["x", "1e", "1e5x", "1/0e5", "1/2e3"])
def test_parse_rational_leaves_bad_literals_to_fraction(text):
    with pytest.raises((ValueError, ZeroDivisionError)) as err:
        rootsys.parse_rational(text)
    assert "digits" not in str(err.value)


def test_parse_weight_names_an_oversized_coordinate():
    with pytest.raises(ValueError, match=r"^weight coordinate 1 \(9 characters\) "
                       r"is too large: numerators and denominators have at "
                       rf"most {_LIMIT} digits$"):
        parse_weight(parse_type("A2"), "1/2, 1e9999999")


def test_cartan_symmetrization_is_symmetric():
    for label in ("A3", "B3", "C3", "G2", "F4"):
        rs = parse_type(label)
        for a in rs.roots:
            for b in rs.roots:
                assert rs.inner(a, b) == rs.inner(b, a)


# the values of the symmetrizer when it walked the Dynkin diagram on Fractions
_SYMMETRIZERS = {"A1": [1], "A2": [1, 1], "A3": [1, 1, 1], "A4": [1, 1, 1, 1],
                 "B2": [2, 1], "B3": [2, 2, 1], "B4": [2, 2, 2, 1],
                 "C2": [1, 2], "C3": [1, 1, 2], "C4": [1, 1, 1, 2],
                 "D4": [1, 1, 1, 1], "F4": [2, 2, 1, 1], "G2": [1, 3]}


def _no_fraction(*args):
    raise AssertionError("RootSystem.__init__ built a Fraction")


@pytest.mark.parametrize("label", sorted(_SYMMETRIZERS))
def test_symmetrizer_symmetrises_the_cartan_matrix(label, monkeypatch):
    # d_j a_ij = d_i a_ji is what makes inner symmetric; (a_i, a_i) = 2 d_i.
    # The integer walk gives the values the Fraction walk gave, and no part
    # of RootSystem.__init__ builds a Fraction
    with monkeypatch.context() as m:
        m.setattr(rootsys, "Fraction", _no_fraction)
        rs = parse_type(label)
    assert rs.symmetrizer == _SYMMETRIZERS[label]
    d, a = rs.symmetrizer, rs.cartan
    assert all(type(x) is int and x > 0 for x in d), d
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[j] * a[i][j] == d[i] * a[j][i]
            assert rs.root_pairing(rs.simple_root(i), rs.simple_root(j)) == a[i][j]
        assert rs.inner(rs.simple_root(i), rs.simple_root(i)) == 2 * d[i]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "F4", "G2"])
def test_root_norms_are_even_positive_integers(label):
    # the Chevalley constants are built on these norms as Python ints; the
    # integer norm agrees with the Fraction form summed over the whole matrix
    rs = parse_type(label)
    for r in rs.roots:
        norm = rs.inner(r, r)
        assert norm.denominator == 1 and norm > 0 and norm % 2 == 0, (r, norm)
        assert type(rs.norm(r)) is int and rs.norm(r) == norm, r


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "F4", "G2"])
def test_coroot_coefficients_match_the_symmetric_form(label):
    # alpha^v = sum_i 2 alpha_i d_i / (alpha, alpha) h_i, with the norm read
    # from the Fraction form: the exact integer quotient must agree
    rs = parse_type(label)
    for r in rs.roots:
        got = rs.coroot_coefficients(r)
        want = tuple(Fraction(2 * a * d) / rs.inner(r, r)
                     for a, d in zip(r, rs.symmetrizer))
        assert got == want and all(type(c) is int for c in got), r
    zero = (0,) * rs.rank
    with pytest.raises(ValueError, match="is not a root"):
        rs.coroot_coefficients(zero)
    with pytest.raises(ValueError, match="is not a root"):
        rs.coroot_coefficients(tuple(2 * c for c in rs.positive_roots[-1]))


def test_pairing_against_cartan_matrix():
    # <lam + rho, beta^v> = 2 (lam + rho, beta) / (beta, beta), where
    # (lam + rho, beta) = sum_i (lam_i + 1) d_i beta_i and (beta, beta) comes
    # from the symmetrised Cartan matrix, not from the coroot table
    rng = random.Random(11)
    for label in _ALL_TYPES:
        rs = parse_type(label)
        weights = [Weight.of(*(int(k == j) - 1 for j in range(rs.rank)))
                   for k in range(rs.rank)]  # fundamental weights less rho
        weights += [Weight.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(rs.rank))) for _ in range(5)]
        for lam in weights:
            got = shifted_pairings(rs, lam)
            assert list(got) == rs.positive_roots, label
            for beta, q in got.items():
                dot = sum((x + 1) * d * b for x, d, b in
                          zip(lam.coords, rs.symmetrizer, beta))
                assert q == 2 * dot / rs.inner(beta, beta), (label, lam, beta)
                assert type(q) is Fraction
        for k in range(rs.rank):  # <omega_k, a_i^v> = delta_ik
            got = shifted_pairings(rs, weights[k])
            assert [got[rs.simple_root(i)] for i in range(rs.rank)] == [
                int(i == k) for i in range(rs.rank)], label


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


@pytest.mark.parametrize("label,coords,subset,size", [
    ("A2", (1, 1), (0,), 2), ("A2", (Fraction(1, 2), 3), (1,), 2),
    ("G2", (0, 0), (0, 1), 12), ("G2", (5, 5), (0, 1), 12),
    ("B2", (2, 1), (0, 1), 8), ("A3", (1, Fraction(1, 3), 2), (0, 2), 4)])
def test_dot_orbit_on_a_dominant_subset_is_free_with_length_signs(
        label, coords, subset, size):
    """lam dominant integral on the subset: one int drop per element of
    W_J, half of each sign, and each simple reflection in the subset maps
    the weights lam - drop onto each other with the opposite sign."""
    rs = parse_type(label)
    lam = Weight.of(*coords)
    J = SimpleSubset.of(*subset)
    orbit = dot_orbit(rs, lam, J)
    assert len(orbit) == size
    assert sorted(orbit.values()).count(1) == size // 2
    assert all(type(x) is int for drop in orbit for x in drop)
    assert orbit[(0,) * rs.rank] == 1
    weights = {lam - rs.weight_of_root(drop): sign
               for drop, sign in orbit.items()}
    assert len(weights) == size
    for mu, sign in weights.items():
        for i in J:
            assert weights[dot_reflect(rs, i, mu)] == -sign


def test_singular_weight_detection():
    rs = parse_type("A2")
    assert is_singular(rs, Weight.of(-1, 5))
    assert is_singular(rs, Weight.of(3, -5))  # <lam+rho, (a1+a2)^v> = 0
    assert not is_singular(rs, Weight.of(Fraction(1, 2), Fraction(1, 3)))


def test_classify_weight_flags():
    rs = parse_type("A2")
    lam = Weight.of(2, 0)
    assert lam.is_dominant_integral()
    assert not is_singular(rs, lam)
    assert lam.is_integral()


def test_subsystem_and_interior():
    rs = parse_type("A3")
    I = SimpleSubset.of(0, 1)
    pos = positive_subsystem(rs, I)
    assert set(pos) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert sorted(interior(rs, I)) == [0]
    assert len(root_subsystem(rs, I)) == 6


def test_bad_primes_reference_values():
    assert bad_primes(parse_type("A1")) == {2}
    assert bad_primes(parse_type("A2")) == {2, 3}
    assert bad_primes(parse_type("B2")) == {2}
    assert bad_primes(parse_type("G2")) == {2, 3}


def test_bad_primes_order_independent():
    for label in ("B2", "B4", "F4"):
        base = bad_primes(parse_type(label))
        for seed in range(3):
            rs = parse_type(label)  # its own instance: the shuffle stays here
            random.Random(seed).shuffle(rs.positive_roots)
            assert bad_primes(rs) == base, (label, seed)


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        RootSystem("E", 8)
    with pytest.raises(ValueError):
        parse_type("Q5")
    with pytest.raises(ValueError) as err:
        RootSystem("Q", 2)
    assert str(err.value) == "unsupported root system type Q2"


def test_a_long_type_label_is_named_by_its_length():
    # the whole label used to be echoed: 100,030 characters
    with pytest.raises(ValueError) as err:
        RootSystem("Q" * 100_000, 2)
    assert len(str(err.value)) < 300
    assert "(100000 characters)" in str(err.value)


_ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
              "F4", "G2"]


def test_positive_root_count_mismatch_raises_runtime_error(monkeypatch):
    for label in _ALL_TYPES:
        count = len(parse_type(label).positive_roots)
        with monkeypatch.context() as m:
            m.setitem(rootsys._POSITIVE_COUNTS, label[0], lambda n: 0)
            with pytest.raises(RuntimeError) as err:
                parse_type(label)
        assert str(err.value) == (f"closure produced {count} positive roots, "
                                  f"expected 0 for {label}")


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_closed_subsystem_determinants_match_fraction_elimination(
        label, fraction_rank_det):
    """Each "det", the product of the Hermite pivots of the subsystem's
    Cartan matrix, is positive and is the determinant that Gaussian
    elimination over Fraction gives."""
    for rec in enumerate_closed_subsystems(parse_type(label)):
        assert rec["det"] == fraction_rank_det(rec["cartan"])[1] > 0, rec


def test_a_singular_closed_subsystem_cartan_matrix_raises_runtime_error(
        monkeypatch):
    rs = parse_type("A2")
    monkeypatch.setattr(rs, "root_pairing", lambda beta, alpha: 0)
    with pytest.raises(RuntimeError) as err:
        enumerate_closed_subsystems(rs)
    assert str(err.value) == ("the Cartan matrix [[0]] of the closed "
                              "subsystem on [(0, 1)] is singular")


def reference_closure(rs) -> list:
    """The positive roots by tuple arithmetic: the closure as it ran before
    root keys, kept as the reference for the key closure."""
    simple = [rs.simple_root(i) for i in range(rs.rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            pairings = rs.simple_coroot_pairings(beta)
            for i, alpha in enumerate(simple):
                cand = add(beta, alpha)
                if cand in roots:
                    continue
                p = 0
                down = sub(beta, alpha)
                while down in roots:
                    p += 1
                    down = sub(down, alpha)
                if p - pairings[i] >= 1:
                    roots.add(cand)
                    new.append(cand)
        frontier = new
    return sorted(roots, key=lambda r: (sum(r), r))


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_key_closure_matches_the_tuple_closure(label):
    rs = parse_type(label)
    assert rs.positive_roots == reference_closure(rs)


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_keys_are_one_to_one_on_sums_of_up_to_three_roots(label):
    rs = parse_type(label)
    terms = [(0,) * rs.rank] + rs.roots
    sums = {add(add(a, b), c) for a, b in product(terms, terms)
            for c in terms}
    assert len({rs.key(s) for s in sums}) == len(sums)
    assert rs.keys == [rs.key(r) for r in rs.roots]
    assert rs.key_root == dict(zip(rs.keys, rs.roots))
    assert rs.key_index == {rs.key(r): i for i, r in enumerate(rs.positive_roots)}
    # linear, so a root sum is a key sum; a positive root has a positive key
    for a, b in product(rs.roots, rs.roots):
        assert rs.key(add(a, b)) == rs.key(a) + rs.key(b)
    assert all(rs.key(r) > 0 for r in rs.positive_roots)


def _dynkin_components(rs) -> list[set[int]]:
    comps: list[set[int]] = []
    for start in range(rs.rank):
        if any(start in comp for comp in comps):
            continue
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(rs.rank):
                if j not in comp and rs.cartan[i][j]:
                    comp.add(j)
                    stack.append(j)
        comps.append(comp)
    return comps


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_every_supported_type_is_connected(label):
    assert len(_dynkin_components(parse_type(label))) == 1


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_totally_proper_means_a_proper_subset(label):
    # I is totally proper, the hypothesis of the faithfulness theorem for
    # M_I(lam), when no Dynkin component lies inside it
    rs = parse_type(label)
    comps = _dynkin_components(rs)
    for bits in range(2 ** rs.rank):
        I = SimpleSubset.of(*[i for i in range(rs.rank) if bits >> i & 1])
        assert all(not comp <= I.members for comp in comps) == (len(I) < rs.rank), I


@pytest.mark.parametrize("label", ["A2", "G2", "F4"])
def test_simple_root_index_outside_the_rank_is_refused(label):
    rs = parse_type(label)
    for index in (-1, rs.rank):
        message = (f"simple-root index {index} is not in 0..{rs.rank - 1} "
                   f"\\(rank {rs.rank}\\)")
        with pytest.raises(ValueError, match=message):
            rs.simple_root(index)


@pytest.mark.parametrize("index", [-1, 5])
def test_subset_index_outside_the_rank_is_refused(index):
    rs = parse_type("A2")
    message = f"simple-root index {index} is not in 0..1 \\(rank 2\\)"
    for query in (root_subsystem, positive_subsystem, interior):
        with pytest.raises(ValueError, match=message):
            query(rs, SimpleSubset.of(0, index))


@pytest.mark.parametrize("query", [
    check_weight, is_singular,
    lambda rs, lam: (lam.is_dominant_integral(), is_singular(rs, lam),
                     lam.is_integral()),
    dot_orbit,
    lambda rs, lam: dot_reflect(rs, 0, lam),
    shifted_pairings],
    ids=["check_weight", "is_singular", "classify_weight", "dot_orbit",
         "dot_reflect", "shifted_pairings"])
@pytest.mark.parametrize("coords", [(Fraction(1, 2),), (1, 0, 2)])
def test_weight_of_the_wrong_rank_is_refused(query, coords):
    message = rf"needs 2 coordinates \(rank 2\), got {len(coords)}"
    with pytest.raises(ValueError, match=message):
        query(parse_type("A2"), Weight.of(*coords))


_HUGE = Fraction(10) ** 5000


@pytest.mark.parametrize("coords,index", [((_HUGE, Fraction(1, 2)), 0),
                                          ((1, Fraction(1, 10 ** _LIMIT)), 1),
                                          ((1, -_HUGE, 0), 1)],
                         ids=["numerator", "denominator", "wrong-rank"])
def test_check_weight_refuses_an_oversized_coordinate(coords, index):
    message = (f"weight coordinate {index} is too large: numerators and "
               f"denominators have at most {_LIMIT} digits")
    with pytest.raises(ValueError, match=message):
        check_weight(parse_type("A2"), Weight.of(*coords))


def test_check_weight_keeps_a_coordinate_at_the_digit_limit():
    check_weight(parse_type("A2"),
                 Weight.of(10 ** _LIMIT - 1, Fraction(1, 10 ** (_LIMIT - 1))))


@pytest.mark.parametrize("entry", [
    lambda alg, lam: classify_sl3(alg, lam, 5, 0),
    lambda alg, lam: simple_dims(alg, lam, 3),
    lambda alg, lam: levi_gvm(alg, SimpleSubset.of(0), lam, 3)],
    ids=["classify_sl3", "simple_dims", "levi_gvm"])
def test_library_entries_refuse_an_oversized_weight_at_once(alg_a2, entry):
    # classify_sl3 used to run every check and then fail formatting its
    # report, with the interpreter's int-to-string message
    with pytest.raises(ValueError, match="weight coordinate 0 is too large"):
        entry(alg_a2, Weight.of(_HUGE, Fraction(1, 2)))
    big = Fraction(10) ** (_LIMIT - 1) + Fraction(1, 2)  # 4,300 digits on top
    assert entry(alg_a2, Weight.of(big, Fraction(1, 2))) is not None


@pytest.mark.parametrize("index", [-1, 2])
def test_dot_reflection_index_outside_the_rank_is_refused(index):
    with pytest.raises(ValueError, match=f"simple-root index {index} is not"):
        dot_reflect(parse_type("A2"), index, Weight.of(1, 0))


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_simple_coroot_pairings_match_root_pairing(label):
    # root_pairing reads the symmetric form, an independent path
    rs = parse_type(label)
    for beta in rs.roots:
        want = tuple(rs.root_pairing(beta, rs.simple_root(i))
                     for i in range(rs.rank))
        assert rs.simple_coroot_pairings(beta) == want, beta


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_root_subsystem_matches_the_filter_over_all_roots(label):
    rs = parse_type(label)
    for bits in range(2 ** rs.rank):
        I = SimpleSubset.of(*[i for i in range(rs.rank) if bits >> i & 1])
        # the reference: every root, of either sign, supported on I
        want = {r for r in rs.roots
                if all(r[i] == 0 for i in range(rs.rank) if i not in I)}
        assert root_subsystem(rs, I) == want, I


def cartan_pairings(rs, v) -> tuple:
    """(sum_k v_k a_ki)_i for any vector v, the reference for the tables."""
    n = rs.rank
    return tuple(sum(v[k] * rs.cartan[k][i] for k in range(n)) for i in range(n))


def symmetric_norm(rs, v):
    """(v, v) = sum_ij v_i v_j d_j a_ij, the symmetrised double sum."""
    n, a, d = rs.rank, rs.cartan, rs.symmetrizer
    return sum(v[i] * v[j] * d[j] * a[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_root_norms_and_coroots_match_their_formulas(label):
    # the closure derives each root's norm from its carried pairings (which
    # test_simple_coroot_pairings_match_root_pairing checks); the coroot is
    # kept once computed.  Each must equal its direct formula
    rs = parse_type(label)
    for r in rs.roots:
        minus = tuple(-x for x in r)
        assert rs.norm(r) == symmetric_norm(rs, r) == rs.norm(minus), r
        for _ in range(2):  # computed, then read back
            got = rs.coroot_coefficients(r)
            assert got == tuple(Fraction(2 * x * d, rs.norm(r))
                                for x, d in zip(r, rs.symmetrizer)), r
            assert all(type(c) is int for c in got), r


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_vectors_that_are_not_roots_use_the_general_formulas(label):
    # the zero vector, twice the highest root and a Fraction drop of the dot
    # orbit are no roots: their pairings and norms are summed, not looked up
    rs = parse_type(label)
    lam = Weight.of(Fraction(1, 2), *[0] * (rs.rank - 1))
    drop = (Fraction(3, 2),) + (0,) * (rs.rank - 1)  # lam - s_0.lam
    twice_top = tuple(2 * x for x in rs.positive_roots[-1])
    for v in ((0,) * rs.rank, twice_top, drop):
        assert not rs.is_root(v)
        assert rs.simple_coroot_pairings(v) == cartan_pairings(rs, v), v
        assert rs.norm(v) == symmetric_norm(rs, v), v
        with pytest.raises(ValueError, match="is not a root"):
            rs.coroot_coefficients(v)
    assert rs.simple_coroot_pairings(twice_top) == tuple(
        2 * x for x in rs.simple_coroot_pairings(rs.positive_roots[-1]))
    assert rs.norm(twice_top) == 4 * rs.norm(rs.positive_roots[-1])
    assert drop in dot_orbit(rs, lam)
