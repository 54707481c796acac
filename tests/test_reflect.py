import math
import random
from fractions import Fraction

import pytest

from vermakit.rootsys import Weight
from vermakit.weightmod import reflection_formula_check

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


def test_nonvanishing_random(alg_a1):
    # the one-step identity at k = 1..s gives e^s f^[s] v = a(a-1)...(a-s+1) v,
    # nonzero when a is not a nonnegative integer
    rng = random.Random(19)
    done = 0
    while done < 50:
        a = Fraction(rng.randint(-40, 40), rng.choice([2, 3, 4, 5, 7]))
        if a.denominator == 1 and a >= 0:
            continue
        s = rng.randint(0, 8)
        assert reflection_formula_check(alg_a1, Weight.of(a), 0, s), (a, s)
        assert math.prod(a - k for k in range(s)) != 0
        done += 1


@pytest.mark.parametrize("index", [-1, 2])
def test_simple_index_outside_the_rank_is_refused(alg_a2, index):
    # -1 used to read the last simple root and pass the check
    lam = Weight.of(Fraction(1, 2), Fraction(1, 3))
    message = f"simple-root index {index} is not in 0..1"
    with pytest.raises(ValueError, match=message):
        reflection_formula_check(alg_a2, lam, index, 3)


@pytest.mark.parametrize("s", [-1, -3])
def test_a_negative_exponent_is_refused(alg_a2, s):
    lam = Weight.of(Fraction(1, 2), Fraction(1, 3))
    message = "the divided-power exponent must be nonnegative"
    with pytest.raises(ValueError, match=message):
        reflection_formula_check(alg_a2, lam, 0, s)
