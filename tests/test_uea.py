import math
import random
import re
import time
from fractions import Fraction

import pytest

from vermakit import uea
from vermakit.chevalley import structure_constants
from vermakit.rootsys import parse_type
from vermakit.uea import (MAX_DEFORMATION_DEPTH, DeformationContext,
                          EnvelopingAlgebra, UEAElement, check_odd_prime,
                          exp_truncated, gamma_level, iwasawa_generator_monomial,
                          multiply, vp, weight_components, weight_of_monomial)


def random_element(alg, rng, max_deg=2, terms=3):
    gens = alg.sc.generators()
    out = alg.zero()
    for _ in range(terms):
        t = alg.one()
        for _ in range(rng.randint(0, max_deg)):
            t = multiply(t, alg.gen(*rng.choice(gens)))
        out = out + t.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


def test_vp_basic():
    assert vp(Fraction(50), 5) == 2
    assert vp(Fraction(1, 25), 5) == -2
    assert vp(Fraction(0), 5) == float("inf")
    assert vp(Fraction(3, 7), 5) == 0


def test_vp_matches_division_one_factor_at_a_time():
    def one_at_a_time(m, p):
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    rng = random.Random(7)
    for _ in range(2000):
        p = rng.choice([3, 5, 7, 2 ** 61 - 1])
        x = Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** 12)
                     * p ** rng.randint(0, 90),
                     rng.randint(1, 10 ** 6) * p ** rng.randint(0, 90))
        assert vp(x, p) == (one_at_a_time(x.numerator, p)
                            - one_at_a_time(x.denominator, p)), (x, p)
    for e in range(200):
        for u in (1, -1, 2, 4, 6, 24):
            assert vp(Fraction(u * 5 ** e), 5) == e
            assert vp(Fraction(u, 5 ** e), 5) == -e


def test_vp_of_a_huge_power_is_quick():
    # dividing out one factor of 5 at a time took about 10 s
    x = Fraction(10) ** 100000
    start = time.perf_counter()
    assert vp(x, 5) == 100000
    assert vp(1 / x, 5) == -100000
    assert time.perf_counter() - start < 1


def test_context_validation():
    DeformationContext(5, 0, 4)
    with pytest.raises(ValueError):
        DeformationContext(4, 0, 4)
    with pytest.raises(ValueError):
        DeformationContext(5, -1, 4)
    with pytest.raises(ValueError):
        DeformationContext(5, 0, 0)


def test_context_depth_over_the_bound_is_refused_at_once():
    # exp_truncated's work grows with the depth; a context past the bound
    # is refused before any element is built
    DeformationContext(5, 0, MAX_DEFORMATION_DEPTH)
    for depth in (MAX_DEFORMATION_DEPTH + 1, 10 ** 6):
        with pytest.raises(ValueError, match=f"deformation depth {depth} is "
                           f"over the bound of {MAX_DEFORMATION_DEPTH}"):
            DeformationContext(5, 0, depth)


def _is_odd_prime(p: int) -> bool:
    try:
        check_odd_prime(p)
    except ValueError:
        return False
    return True


def test_odd_prime_check_matches_trial_division():
    for p in range(-5, 20_000):
        want = p >= 3 and p % 2 == 1 and all(
            p % k for k in range(3, math.isqrt(p) + 1, 2))
        assert _is_odd_prime(p) == want, p


@pytest.mark.parametrize("p", [
    # the least strong pseudoprimes to the first k prime bases, k = 1 to 12
    # (k = 7, 8 share one, as do k = 9, 10, 11)
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    # Carmichael numbers
    561, 1105, 1729])
def test_odd_prime_check_rejects_pseudoprimes(p):
    with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
        check_odd_prime(p)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_odd_prime_check_accepts_mersenne_primes(p):
    check_odd_prime(p)


def test_odd_prime_check_refuses_the_bound_and_above():
    bound = 3_317_044_064_679_887_385_961_981
    # the bound is composite yet passes every base, so it must be refused
    assert bound == 1_287_836_182_261 * 2_575_672_364_521
    assert not uea._has_witness(bound)
    for p in (bound, bound + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"p must be below {bound}, got {p}"):
            check_odd_prime(p)


@pytest.mark.parametrize("p,shown", [
    (10 ** 4000 - 1, "(4000 characters)"), (-10 ** 4000, "(4002 characters)"),
    (10 ** 5000, "(over 4300 digits)")],
    ids=["4000-nines", "minus", "5001-digits"])
def test_odd_prime_check_names_a_long_p_by_its_length(p, shown):
    # the whole p was echoed; past 4,300 digits writing it out raised
    # the interpreter's int-to-str ValueError instead of the message
    with pytest.raises(ValueError, match=re.escape(f"got {shown}")):
        check_odd_prime(p)


def test_serre_relation_sl2(alg_a1):
    e, f, h = alg_a1.gen("e", 0), alg_a1.gen("f", 0), alg_a1.gen("h", 0)
    assert multiply(e, f) - multiply(f, e) == h
    assert multiply(h, e) - multiply(e, h) == e.scale(2)
    assert multiply(h, f) - multiply(f, h) == f.scale(-2)


def test_associativity_random(alg_a2):
    rng = random.Random(17)
    for _ in range(30):
        x, y, z = (random_element(alg_a2, rng) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_normal_form_idempotent(alg_a2):
    rng = random.Random(23)
    for _ in range(20):
        x = random_element(alg_a2, rng)
        for m in x.terms:
            # re-multiplying the normal word reproduces the monomial
            prod = {alg_a2.mono_one(): Fraction(1)}
            for g in reversed(alg_a2.word(m)):
                nxt = {}
                for mono, c in prod.items():
                    for mm, cc in alg_a2.gen_mul_mono(g, mono).items():
                        nxt[mm] = nxt.get(mm, Fraction(0)) + c * cc
                prod = nxt
            assert prod == {m: Fraction(1)}


def test_weight_components_multiplicative(alg_a2):
    rng = random.Random(5)
    for _ in range(25):
        x, y = random_element(alg_a2, rng), random_element(alg_a2, rng)
        parts_x, parts_y = weight_components(x), weight_components(y)
        assert sum(parts_x.values(), alg_a2.zero()) == x
        for wx, cx in parts_x.items():
            for wy, cy in parts_y.items():
                prod = multiply(cx, cy)
                for m in prod.terms:
                    assert weight_of_monomial(alg_a2, m) == wx + wy


def test_tau_is_an_antiautomorphism(alg_a2):
    # the transpose: e and f swap, h fixed, words reverse.  On a normal-ordered
    # monomial the reversed, swapped word is already in normal order, and
    # C[a,b] = C[-b,-a] makes it an anti-automorphism of U(g)
    def transpose(x):
        return UEAElement(x.alg, {(m[2], m[1], m[0]): c for m, c in x.terms.items()})

    rng = random.Random(9)
    for _ in range(20):
        x, y = random_element(alg_a2, rng), random_element(alg_a2, rng)
        assert transpose(multiply(x, y)) == multiply(transpose(y), transpose(x))
        assert transpose(transpose(x)) == x


def test_divided_power(alg_a1):
    f3 = alg_a1.divided_power("f", 0, 3)
    f1 = alg_a1.gen("f", 0)
    assert multiply(multiply(f1, f1), f1).scale(Fraction(1, 6)) == f3


@pytest.mark.parametrize("kind,i,message", [
    ("x", 0, "generator kind must be 'e', 'f' or 'h', got 'x'"),
    ("f", -1, "f takes an index in 0..2, got -1"),
    ("e", 3, "e takes an index in 0..2, got 3"),
    ("h", 5, "h takes an index in 0..1, got 5")])
def test_gen_refuses_a_generator_the_algebra_lacks(alg_a2, kind, i, message):
    # on A2 "x" used to give e_0, f -1 a monomial with a six-entry f-block
    # and h 5 a bare IndexError
    with pytest.raises(ValueError, match=re.escape(message)):
        alg_a2.gen(kind, i)


@pytest.mark.parametrize("kind,i,s,message", [
    ("f", 0, -2, "the divided-power exponent must be nonnegative, got -2"),
    ("x", 0, 2, "generator kind must be 'e', 'f' or 'h', got 'x'"),
    ("e", 3, 2, "e takes an index in 0..2, got 3")])
def test_divided_power_refuses_a_bad_generator_or_exponent(alg_a2, kind, i, s,
                                                           message):
    # a negative exponent used to fail inside math.factorial
    with pytest.raises(ValueError, match=re.escape(message)):
        alg_a2.divided_power(kind, i, s)


def test_gamma_level(alg_a1):
    ctx = DeformationContext(5, 1, 6)
    x = alg_a1.gen("e", 0).scale(25)
    assert gamma_level(x, ctx) == 1  # v(25) - 1*1
    assert gamma_level(alg_a1.zero(), ctx) == float("inf")
    y = multiply(x, x)
    assert gamma_level(y, ctx) >= 2 * gamma_level(x, ctx)


def test_exp_truncated_group_law(alg_a1):
    ctx = DeformationContext(5, 0, 6)
    x = alg_a1.gen("f", 0).scale(5)
    ex = exp_truncated(x, ctx)
    einv = exp_truncated(x.scale(-1), ctx)
    assert multiply(ex, einv, ctx) == alg_a1.one()
    with pytest.raises(ValueError):
        exp_truncated(alg_a1.gen("f", 0), ctx)  # level 0 < 1
    with pytest.raises(ValueError):
        exp_truncated(multiply(x, x), ctx)  # degree 2


def test_iwasawa_lowest_terms(alg_a1):
    ctx = DeformationContext(5, 1, 6)
    basis = [alg_a1.gen("f", 0), alg_a1.gen("h", 0), alg_a1.gen("e", 0)]
    for s in ((1, 0, 0), (0, 2, 0), (1, 1, 1)):
        elem = iwasawa_generator_monomial(s, basis, ctx)
        low = min(elem.terms, key=alg_a1.degree)
        assert low == ((s[0],), (s[1],), (s[2],))
        assert elem.terms[low] == Fraction(5) ** (2 * sum(s))


@pytest.mark.parametrize("s", [(1, 0, 0, 3), (1, 0), (1, -2, 0), (-1, 0, 2)])
def test_iwasawa_refuses_a_malformed_multi_index(alg_a1, s):
    # (1, 0, 0, 3) and (1, -2, 0) used to answer as (1, 0, 0) does
    ctx = DeformationContext(5, 1, 6)
    basis = [alg_a1.gen("f", 0), alg_a1.gen("h", 0), alg_a1.gen("e", 0)]
    with pytest.raises(ValueError, match=r"needs one nonnegative exponent "
                                         r"per basis element \(3\)"):
        iwasawa_generator_monomial(s, basis, ctx)


def test_iwasawa_refuses_an_empty_basis():
    with pytest.raises(ValueError, match="empty generator basis"):
        iwasawa_generator_monomial((), [], DeformationContext(5, 1, 6))


_ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
              "F4", "G2"]


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_normal_form_coefficients_are_ints(label):
    """Kostant's Z-form: the Chevalley constants are integers, so every
    normal form of a product of PBW monomials has int coefficients."""
    alg = EnvelopingAlgebra(structure_constants(parse_type(label)))
    gens = alg.sc.generators()
    monos = ([alg.mono_one()] + [alg.mono_of_gen(g) for g in gens]
             + [alg._prepend(g1, alg.mono_of_gen(g2))
                for i, g1 in enumerate(gens) for g2 in gens[i:]])
    rng = random.Random(31)
    if label == "F4":
        monos = rng.sample(monos, 300)
    for g in gens:
        for m in monos:
            assert all(type(c) is int for c in alg.gen_mul_mono(g, m).values()), (g, m)
    for _ in range(100):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        assert all(type(c) is int for c in alg.mono_mul(m1, m2).values()), (m1, m2)
