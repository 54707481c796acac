import random
from fractions import Fraction

import pytest

from vermakit.rootsys import Weight
from vermakit.reflect_identities import (nonvanishing_check,
                                         reflection_coefficient,
                                         reflection_formula_check)

SAMPLE_A = (Fraction(5), Fraction(1, 2), Fraction(-3, 4), Fraction(-2))


def test_formula_sl2(alg_a1):
    for a in SAMPLE_A:
        for s in range(11):
            assert reflection_formula_check(alg_a1, Weight.of(a), 0, s)


def test_formula_embedded_in_a2(alg_a2):
    for a in SAMPLE_A:
        for s in range(11):
            lam = Weight.of(a, Fraction(1, 3))
            assert reflection_formula_check(alg_a2, lam, 0, s)
            assert reflection_formula_check(alg_a2, lam.of(Fraction(1, 3), a), 1, s)


def test_coefficient_closed_form():
    assert reflection_coefficient(Fraction(-1), 2) == 2
    assert reflection_coefficient(Fraction(3), 4) == 0  # why a in N0 is excluded
    assert reflection_coefficient(Fraction(1, 2), 4) == \
        Fraction(1, 2) * Fraction(-1, 2) * Fraction(-3, 2) * Fraction(-5, 2)


def test_nonvanishing_random(alg_a1):
    rng = random.Random(19)
    done = 0
    while done < 50:
        a = Fraction(rng.randint(-40, 40), rng.choice([2, 3, 4, 5, 7]))
        if a.denominator == 1 and a >= 0:
            continue
        s = rng.randint(0, 8)
        assert nonvanishing_check(alg_a1, Weight.of(a), 0, s)
        assert reflection_coefficient(a, s) != 0
        done += 1


def test_engine_matches_product_even_at_integer_weights(alg_a1):
    # formula verified; nonvanishing simply not claimed there
    assert nonvanishing_check(alg_a1, Weight.of(Fraction(3)), 0, 4)
    assert reflection_coefficient(Fraction(3), 4) == 0


@pytest.mark.parametrize("index", [-1, 2])
def test_simple_index_outside_the_rank_is_refused(alg_a2, index):
    # -1 used to read the last simple root and pass both checks
    lam = Weight.of(Fraction(1, 2), Fraction(1, 3))
    message = f"simple-root index {index} is not in 0..1"
    for check in (reflection_formula_check, nonvanishing_check):
        with pytest.raises(ValueError, match=message):
            check(alg_a2, lam, index, 3)


@pytest.mark.parametrize("s", [-1, -3])
def test_a_negative_exponent_is_refused(alg_a2, s):
    # nonvanishing_check used to fail inside math.factorial
    lam = Weight.of(Fraction(1, 2), Fraction(1, 3))
    message = "the divided-power exponent must be nonnegative"
    for check in (reflection_formula_check, nonvanishing_check):
        with pytest.raises(ValueError, match=message):
            check(alg_a2, lam, 0, s)
