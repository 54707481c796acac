"""Divided-power reflection identities inside Verma modules.

With a = lam(h_a) for a simple root, the rewriting engine must reproduce

    e_a . f_a^[s] v = (a + 1 - s) f_a^[s-1] v,

where f^[s] = f^s / s!, and iterating gives

    e_a^s . f_a^[s] v = (a + 1 - s)(a + 2 - s) ... a  v,

a product that cannot vanish when a is not a nonnegative integer.  Both
sides are compared exactly; the closed forms double as independent oracles
for the engine.
"""

from __future__ import annotations

from fractions import Fraction

from .rootsys import Weight
from .uea import EnvelopingAlgebra
from .weightmod import Vec, _clean, verma


def reflection_formula_check(alg: EnvelopingAlgebra, lam: Weight, i: int,
                             s: int) -> bool:
    """Engine value of e_a . f_a^[s] v against (a+1-s) f_a^[s-1] v."""
    if s < 0:
        raise ValueError("the divided-power exponent must be nonnegative")
    module = verma(alg, lam, max(s, 1))
    idx = alg.rs.root_index[alg.rs.simple_root(i)]
    hw: Vec = {tuple([0] * alg.npos): Fraction(1)}
    a = lam.coords[i]
    lhs = module.act(("e", idx),
                     module.apply_element(alg.divided_power("f", idx, s), hw))
    if s == 0:
        return lhs == {}
    rhs = module.apply_element(alg.divided_power("f", idx, s - 1), hw)
    rhs = _clean({lab: (a + 1 - s) * c for lab, c in rhs.items()})
    return lhs == rhs


def reflection_coefficient(a: Fraction, s: int) -> Fraction:
    """(a+1-s)(a+2-s)...a, the scalar relating e^s f^[s] v to v."""
    out = Fraction(1)
    for k in range(s):
        out *= a - k
    return out


def nonvanishing_check(alg: EnvelopingAlgebra, lam: Weight, i: int,
                       s: int) -> bool:
    """e_a^s . f_a^[s] v is the predicted multiple of v, and that multiple
    is nonzero whenever lam(h_a) is not a nonnegative integer.

    It backs the sl2 step of the irreducibility criteria: no power f_a^s v
    is singular unless lam(h_a) is a nonnegative integer."""
    if s < 0:
        raise ValueError("the divided-power exponent must be nonnegative")
    module = verma(alg, lam, max(s, 1))
    idx = alg.rs.root_index[alg.rs.simple_root(i)]
    hw: Vec = {tuple([0] * alg.npos): Fraction(1)}
    vec = module.apply_element(alg.divided_power("f", idx, s), hw)
    for _ in range(s):
        vec = module.act(("e", idx), vec)
    a = lam.coords[i]
    want = reflection_coefficient(Fraction(a), s)
    expected = _clean({lab: want * c for lab, c in hw.items()})
    if vec != expected:
        return False
    if a.denominator == 1 and a >= 0:
        return True  # formula still checked; nonvanishing not claimed
    return want != 0
