"""p-adic admissibility and the scalar-projection maps on Levi-induced modules.

A weight is admissible at (p, n) when every coordinate has p-adic valuation
at least -n, so the rescaled Cartan generators act integrally.  The map
phi_c collapses the free polynomial directions of a Levi-induced module to
scalars: f^s h^t v goes to (lam(h) - c)^t f^s v.  It is a surjective module
homomorphism onto the scalar-action variant of the same module, and it does
not lower p-adic filtration levels when the scalars c are admissible.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rootsys import RootSystem, Weight, _shown, check_weight
from .uea import UEAElement, check_odd_prime, vp
from .weightmod import (LeviInducedModule, ScalarLeviModule, Vec, _int_vector,
                        _vec_add, label_height)


def _valuations_at_least(values, p: int, n: int) -> bool:
    """Whether each value has p-adic valuation at least -n, for an odd
    prime p and a level n >= 0."""
    check_odd_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return all(vp(Fraction(x), p) >= -n for x in values)


def weight_admissible(rs: RootSystem, lam: Weight, p: int, n: int) -> bool:
    """Admissible iff v_p(lam(h_a)) >= -n for every simple root a."""
    check_weight(rs, lam)
    return _valuations_at_least(lam.coords, p, n)


def scalars_admissible(c: dict[int, Fraction], p: int, n: int) -> bool:
    """Admissible iff v_p(c_j) >= -n for every scalar c_j."""
    return _valuations_at_least(c.values(), p, n)


def phi_c_target(source: LeviInducedModule, c: dict) -> ScalarLeviModule:
    """The scalar-action module the projection lands in, derived from the
    source: it shares the source's V, and its basis is the source's labels
    with t = 0, so no module is built anew."""
    return ScalarLeviModule(source, c)


def _check_projection(source: LeviInducedModule, c: dict,
                      target: ScalarLeviModule) -> None:
    """Refuse a target not built from this source with these scalars."""
    if isinstance(source, ScalarLeviModule):
        raise ValueError("source already has scalar dual-Cartan action")
    if set(c) != set(source.outside):
        raise ValueError("c must be indexed by the simple roots outside I")
    if (not isinstance(target, ScalarLeviModule) or target.source is not source
            or target.c != c and any(target.c[j] != Fraction(c[j])
                                     for j in source.outside)):
        raise ValueError("target module does not match the projection data")


def _project(target: ScalarLeviModule, vec: dict) -> dict:
    """t_den times phi_c of an int vector, as ints, zeros left in: each
    label's scalar prod_a base_a^t_a is read from the target's table,
    which holds every t-part of the source's labels.  A label that is not
    in the source's basis, read off its drop table, is refused."""
    scalars, source_labels = target.t_scalars, target.source._drop_of
    zero_t = (0,) * len(target.outside)
    out: dict = {}
    for label, x in vec.items():
        s, t, b = label
        y = scalars.get(t)
        if y is None:
            raise ValueError(f"{t} is not the t-part of a source label, an "
                             f"exponent vector of length {len(zero_t)} and "
                             f"total at most {target.depth}")
        if label not in source_labels:
            raise ValueError(f"{label} is not a basis label of the source")
        if y:
            key = (s, zero_t, b)
            out[key] = out.get(key, 0) + x * y
    return out


def phi_c(source: LeviInducedModule, vec: Vec, c: dict,
          target: ScalarLeviModule) -> Vec:
    """Project f^s h^t v to (lam(h) - c)^t f^s v in target, the module
    ``phi_c_target(source, c)``, which holds each t's scalar."""
    _check_projection(source, c, target)
    ints, den = _int_vector(vec)
    den *= target.t_den
    return {k: Fraction(x, den) for k, x in _project(target, ints).items() if x}


def phi_c_homomorphism_check(source: LeviInducedModule, x: UEAElement,
                             vec: Vec, c: dict,
                             target: ScalarLeviModule) -> bool:
    """phi_c(x . m) == x . phi_c(m), exactly.

    Each monomial's generator word is read once and acts through both
    modules' integer actions, and the two sides are compared as ints:
    m's denominator and the target's t_den scale both alike, and each is
    brought to the scale (source.den target.den)^degree(x) times the
    common denominator of x's coefficients.

    Needs headroom in the truncation: the polynomial directions of the
    source are cut at the module depth, and acting past that cut would
    discard terms the scalar target keeps.
    """
    words = [(source.alg.word(mono), q)
             for mono, q in _int_vector(x.terms)[0].items()]
    top = max((len(word) for word, _ in words), default=0)  # x's degree
    if max((sum(t) for _, t, _ in vec), default=0) + top > source.depth:
        raise ValueError("depth exhausted: the action overflows the "
                         "polynomial truncation")
    _check_projection(source, c, target)
    ints = _int_vector(vec)[0]
    image = _project(target, ints)
    ds, dt = source.den, target.den
    diff: dict = {}  # lhs - rhs
    for word, q in words:
        k = len(word)
        _vec_add(diff, _project(target, source.int_word(word, ints)),
                 q * ds ** (top - k) * dt ** top)
        _vec_add(diff, target.int_word(word, image), -q * ds ** top * dt ** (top - k))
    return not any(diff.values())


def phi_c_surjective(source: LeviInducedModule, c: dict,
                     target: ScalarLeviModule) -> bool:
    """Whether phi_c is onto the target.  It fixes each source label
    (s, 0, b), its scalar the empty product, and sends every (s, t, b) to
    a multiple of (s, 0, b), a label the Levi-induced basis then holds; so
    it is onto exactly when the target's basis is the source's labels with
    t = 0, and that set equality is what is checked."""
    _check_projection(source, c, target)
    return {x for x in source.basis if not any(x[1])} == set(target.basis)


def hw_scalar_check(target: ScalarLeviModule, c: dict, i: int) -> bool:
    """On the scalar-action module, lam(h^a_i) minus the action of h^a_i
    on the generator is exactly c_i."""
    if not isinstance(target, ScalarLeviModule):
        raise ValueError("hw_scalar_check needs the scalar-action module")
    if set(c) != set(target.outside):
        raise ValueError("c must be indexed by the simple roots outside I")
    hw = target.hw_label()
    image = target.act_label(("hd", i), hw)
    return (image.keys() <= {hw}
            and target.lam_dual[i] - image.get(hw, 0) == Fraction(c[i]))


MAX_SAMPLES = 10_000  # most homomorphism samples the phi_c battery draws


def check_samples(samples: int) -> None:
    """Raise ValueError unless samples is in 1..MAX_SAMPLES."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, "
                         f"got {_shown(samples)}")


def phi_c_checks(source: LeviInducedModule, c: dict, samples: int,
                 rng) -> dict[str, bool]:
    """The phi_c battery: surjectivity, the scalar identity for every
    dual-basis direction outside I, and the homomorphism identity on
    samples, 1..MAX_SAMPLES of them.  Each sample draws from rng a
    generator, a label with room for one more degree in the truncation and
    a coefficient in 1..9; the samples stop at the first failure.

    The "surjective" entry is not evidence: ``phi_c_surjective`` reads the
    target's construction, and on a target that ``phi_c_target`` builds it
    cannot read False.  The entry stays so that the battery's keys do."""
    check_samples(samples)
    target = phi_c_target(source, c)
    checks = {"surjective": phi_c_surjective(source, c, target),
              "hw_scalars": all(hw_scalar_check(target, c, j)
                                for j in source.outside)}
    gens = ([("e", i) for i in source.levi_idx]
            + [("f", i) for i in source.levi_idx]
            + [("h", i) for i in range(source.rs.rank)])
    labels = [m for m in source.basis if sum(m[1]) + 1 <= source.depth]
    checks["homomorphism"] = all(
        phi_c_homomorphism_check(source, source.alg.gen(*rng.choice(gens)),
                                 {rng.choice(labels): Fraction(rng.randint(1, 9))},
                                 c, target)
        for _ in range(samples))
    return checks


def phi_c_level_check(source: LeviInducedModule, vec: Vec, c: dict,
                      target: ScalarLeviModule, p: int, n: int) -> bool:
    """Filtration spot check: projecting into target, the module
    ``phi_c_target(source, c)``, never lowers the level
    v_p(coefficient) - n * (label degree) when the scalars are admissible.

    It backs the statement that phi_c respects the p-adic filtrations for
    admissible c, so that it extends to the completed modules of the
    Iwasawa algebra."""
    if not scalars_admissible(c, p, n):
        raise ValueError("scalars are not admissible at this (p, n)")

    def level(v):
        out = math.inf
        for (s, t, b), coeff in v.items():
            deg = label_height(source.rs, s) + label_height(source.rs, b) + sum(t)
            out = min(out, vp(coeff, p) - n * deg)
        return out

    img = phi_c(source, vec, c, target)
    return level(img) >= level(vec)

