"""PBW normal-form arithmetic in the universal enveloping algebra.

Elements are sparse rational combinations of normal-ordered monomials
f^a h^b e^c, where the f-block runs through ``rs.positive_roots``
descending, the h-block through the simple roots ascending,
and the e-block through the positive roots ascending.  Products are
rewritten into this order with the commutation relations; each rewriting
step strictly lowers (degree, position), so the process terminates and
the result is canonical.

The Chevalley structure constants are integers, so the normal form of a
monomial product has integer coefficients (Kostant's Z-form of U(g)):
``gen_mul_mono`` and ``mono_mul`` work on Python ints.  ``UEAElement``
stores Fractions, because elements such as divided powers and truncated
exponentials carry rational coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chevalley import Gen, StructureConstants
from .rootsys import Root, Value, Weight, _shown, sub

# monomial: (f_exponents over pos roots, h_exponents over simple, e_exponents)
Monomial = tuple[tuple, tuple, tuple]

# the largest truncation depth of a DeformationContext.  The work of
# exp_truncated grows with the number of monomials of degree up to the
# depth (on A2, 0.12 s at depth 20, 1.3 s at 40 and 5.9 s at 60); 50 leaves
# room above 46, the largest --depth the CLI's verify accepts
MAX_DEFORMATION_DEPTH = 50


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017), which
# itself passes all 13 bases.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime below _PRIME_BOUND, by a
    deterministic Miller-Rabin test on the bases _PRIME_BASES."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND}, got {_shown(p)}")
    if p < 3 or p % 2 == 0 or (p not in _PRIME_BASES and _has_witness(p)):
        raise ValueError(f"p must be an odd prime, got {_shown(p)}")


def _has_witness(p: int) -> bool:
    """Whether some base proves the odd number p > 2 composite: with
    p - 1 = d 2^r, d odd, a^d is not 1 and no a^(d 2^k), k < r, is -1."""
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return True
    return False


def vp(x: Fraction, p: int) -> int | float:
    """p-adic valuation of a rational, +inf for zero.  p divides at most one
    of numerator and denominator, m, and bisection finds its exponent: p^e,
    e halfway through the range left, is divided out if it divides, else m
    becomes m mod p^e, which has m's exponent; few divisions in all."""
    check_odd_prime(p)
    if x == 0:
        return math.inf
    sign, m = (-1, x.denominator) if x.numerator % p else (1, x.numerator)
    if m % p:
        return 0
    v, span = 0, m.bit_length() // (p.bit_length() - 1) + 1  # p^span > |m|
    while span > 1:
        e = span // 2
        quotient, r = divmod(m, p ** e)
        if r:
            m, span = r, e
        else:
            m, v, span = quotient, v + e, span - e
    return sign * v


class DeformationContext(Value):
    """Odd prime p, deformation parameter n, and a degree truncation bound."""

    def __init__(self, p: int, n: int, depth: int):
        check_odd_prime(p)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if depth > MAX_DEFORMATION_DEPTH:
            raise ValueError(f"deformation depth {depth} is over the bound "
                             f"of {MAX_DEFORMATION_DEPTH}")
        self.__dict__.update(p=p, n=n, depth=depth)


class EnvelopingAlgebra:
    """Rewriting engine for one root system's Chevalley basis."""

    def __init__(self, sc: StructureConstants):
        self.sc = sc
        self.rs = sc.rs
        self.npos = len(sc.rs.positive_roots)
        self._one = ((0,) * self.npos, (0,) * self.rs.rank, (0,) * self.npos)
        self._memo: dict[tuple[Gen, Monomial], dict[Monomial, int]] = {}
        self._words: dict[Monomial, tuple[Gen, ...]] = {}
        # criteria.classify_sl3's case-3 verdicts, per (mu, gamma, depth)
        self.case3_verdicts: dict[tuple, bool] = {}

    # -- monomial plumbing ---------------------------------------------------

    def _gen_key(self, g: Gen) -> tuple[int, int]:
        kind, i = g
        if kind == "f":
            return (0, self.npos - 1 - i)
        if kind == "h":
            return (1, i)
        return (2, i)

    def word(self, m: Monomial) -> tuple[Gen, ...]:
        """The monomial as a normal-ordered generator word, read once per
        monomial and kept on the instance."""
        cached = self._words.get(m)
        if cached is None:
            f, h, e = m
            out: list[Gen] = []
            for i in range(self.npos - 1, -1, -1):
                if f[i]:
                    out += [("f", i)] * f[i]
            for kind, exps in (("h", h), ("e", e)):
                for i, k in enumerate(exps):
                    if k:
                        out += [(kind, i)] * k
            cached = self._words[m] = tuple(out)
        return cached

    def mono_one(self) -> Monomial:
        return self._one

    def mono_of_gen(self, g: Gen) -> Monomial:
        return self._prepend(g, self.mono_one())

    def _prepend(self, g: Gen, m: Monomial) -> Monomial:
        kind, i = g
        f, h, e = m
        if kind == "f":
            return (f[:i] + (f[i] + 1,) + f[i + 1:], h, e)
        if kind == "h":
            return (f, h[:i] + (h[i] + 1,) + h[i + 1:], e)
        return (f, h, e[:i] + (e[i] + 1,) + e[i + 1:])

    def _lead_and_rest(self, m: Monomial) -> tuple[Gen | None, Monomial]:
        f, h, e = m
        for i in range(self.npos - 1, -1, -1):
            if f[i]:
                return ("f", i), (f[:i] + (f[i] - 1,) + f[i + 1:], h, e)
        for i in range(self.rs.rank):
            if h[i]:
                return ("h", i), (f, h[:i] + (h[i] - 1,) + h[i + 1:], e)
        for i in range(self.npos):
            if e[i]:
                return ("e", i), (f, h, e[:i] + (e[i] - 1,) + e[i + 1:])
        return None, m

    def root_sum(self, exps: tuple) -> Root:
        """Sum of k_i times the i-th positive root, over an exponent tuple
        (k_i): the weight drop of f^k, the rise of e^k."""
        out = [0] * self.rs.rank
        for k, root in zip(exps, self.rs.positive_roots):
            if k:
                for j, x in enumerate(root):
                    out[j] += k * x
        return tuple(out)

    @staticmethod
    def degree(m: Monomial) -> int:
        return sum(m[0]) + sum(m[1]) + sum(m[2])

    # -- rewriting -------------------------------------------------------------

    def gen_mul_mono(self, g: Gen, m: Monomial) -> dict[Monomial, int]:
        """Normal form of generator * normal-ordered monomial.  The
        coefficients are ints: the structure constants are."""
        cached = self._memo.get((g, m))
        if cached is not None:
            return cached
        lead, rest = self._lead_and_rest(m)
        if lead is None or self._gen_key(g) <= self._gen_key(lead):
            result = {self._prepend(g, m): 1}
        else:
            # g m = lead (g rest) + [g, lead] rest
            result: dict[Monomial, int] = {}
            for mono, c in self.gen_mul_mono(g, rest).items():
                for mm, cc in self.gen_mul_mono(lead, mono).items():
                    result[mm] = result.get(mm, 0) + c * cc
            for gb, cb in self.sc.bracket(g, lead).items():
                for mm, cc in self.gen_mul_mono(gb, rest).items():
                    result[mm] = result.get(mm, 0) + cb * cc
            result = {k: v for k, v in result.items() if v}
        self._memo[(g, m)] = result
        return result

    def mono_mul(self, m1: Monomial, m2: Monomial) -> dict[Monomial, int]:
        """Normal form of a product of two normal-ordered monomials, with
        int coefficients."""
        result = {m2: 1}
        for g in reversed(self.word(m1)):
            nxt: dict[Monomial, int] = {}
            for mono, coeff in result.items():
                for mm, cc in self.gen_mul_mono(g, mono).items():
                    nxt[mm] = nxt.get(mm, 0) + coeff * cc
            result = {k: v for k, v in nxt.items() if v}
        return result

    # -- element constructors ----------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {self.mono_one(): Fraction(1)})

    def _check_gen(self, kind: str, i: int) -> None:
        """Refuse a generator the algebra does not have: e and f take a
        positive-root index, h a simple index."""
        if kind not in ("e", "f", "h"):
            raise ValueError(f"generator kind must be 'e', 'f' or 'h', "
                             f"got {kind!r}")
        size = self.rs.rank if kind == "h" else self.npos
        if not 0 <= i < size:
            raise ValueError(f"{kind} takes an index in 0..{size - 1}, got {i}")

    def gen(self, kind: str, i: int) -> "UEAElement":
        self._check_gen(kind, i)
        return UEAElement(self, {self.mono_of_gen((kind, i)): 1})

    def divided_power(self, kind: str, i: int, s: int) -> "UEAElement":
        """x^s / s! for a single generator, stored expanded."""
        self._check_gen(kind, i)
        if s < 0:
            raise ValueError(f"the divided-power exponent must be "
                             f"nonnegative, got {s}")
        m = self.mono_one()
        for _ in range(s):
            m = self._prepend((kind, i), m)
        return UEAElement(self, {m: Fraction(1, math.factorial(s))})


class UEAElement:
    """Sparse rational combination of normal-ordered monomials."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: EnvelopingAlgebra, terms: dict[Monomial, Fraction]):
        self.alg = alg
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __eq__(self, other):
        return isinstance(other, UEAElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UEAElement") -> "UEAElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return UEAElement(self.alg, out)

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def scale(self, c) -> "UEAElement":
        c = Fraction(c)
        return UEAElement(self.alg, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        return multiply(self, other)

    def degree(self) -> int:
        return max((self.alg.degree(m) for m in self.terms), default=0)

    def truncate(self, depth: int) -> "UEAElement":
        return UEAElement(self.alg,
                          {m: c for m, c in self.terms.items()
                           if self.alg.degree(m) <= depth})

    def __repr__(self):
        return f"UEAElement({len(self.terms)} terms)"


def multiply(a: UEAElement, b: UEAElement,
             ctx: DeformationContext | None = None) -> UEAElement:
    """Normal-ordered product; truncated by total degree when ctx is given.
    With each factor over its common denominator, the products n1 n2 cc
    of numerators and int normal-form coefficients are summed as ints, and
    each output term is one Fraction over the product of the two
    denominators."""
    alg = a.alg
    den_a, nums_a = _over_common_denominator(a)
    den_b, nums_b = _over_common_denominator(b)
    out: dict[Monomial, int] = {}
    for m1, n1 in nums_a:
        for m2, n2 in nums_b:
            n12 = n1 * n2
            for mm, cc in alg.mono_mul(m1, m2).items():
                out[mm] = out.get(mm, 0) + n12 * cc
    den = den_a * den_b
    result = UEAElement(alg, {m: Fraction(n, den) for m, n in out.items() if n})
    if ctx is not None:
        result = result.truncate(ctx.depth)
    return result


def _over_common_denominator(x: UEAElement) -> tuple[int, list]:
    """(D, [(monomial, n)]) with x = sum of n / D times the monomial."""
    den = math.lcm(*(c.denominator for c in x.terms.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in x.terms.items()]


def weight_of_monomial(alg: EnvelopingAlgebra, m: Monomial) -> Weight:
    """The ad-Cartan weight: sum of e-block roots minus f-block roots."""
    return alg.rs.weight_of_root(sub(alg.root_sum(m[2]), alg.root_sum(m[0])))


def weight_components(x: UEAElement) -> dict[Weight, UEAElement]:
    """Split into ad-weight components; the components sum back to x."""
    buckets: dict[Weight, dict[Monomial, Fraction]] = {}
    for m, c in x.terms.items():
        w = weight_of_monomial(x.alg, m)
        buckets.setdefault(w, {})[m] = c
    return {w: UEAElement(x.alg, t) for w, t in buckets.items()}


def gamma_level(x: UEAElement, ctx: DeformationContext) -> int | float:
    """Largest filtration level containing x: min over terms of
    v_p(coefficient) - n * (monomial degree).  +inf for zero."""
    if x.is_zero():
        return math.inf
    return min(vp(c, ctx.p) - ctx.n * x.alg.degree(m) for m, c in x.terms.items())


def exp_truncated(x: UEAElement, ctx: DeformationContext) -> UEAElement:
    """Sum of x^j / j! for j up to the context depth.

    Requires x to be concentrated in degree 1 with filtration level at
    least 1, so every truncation order stays p-integral.
    """
    if any(x.alg.degree(m) != 1 for m in x.terms):
        raise ValueError("exp_truncated needs a degree-1 argument")
    if not x.is_zero() and gamma_level(x, ctx) < 1:
        raise ValueError("filtration level below 1: truncated exponential not p-integral")
    acc = x.alg.one()
    power = x.alg.one()
    for j in range(1, ctx.depth + 1):
        power = multiply(power, x, ctx).scale(Fraction(1, j))
        if power.is_zero():
            break
        acc = acc + power
    return acc


def iwasawa_generator_monomial(s: tuple[int, ...], basis: list[UEAElement],
                               ctx: DeformationContext) -> UEAElement:
    """Product over i of (exp(p^(n+1) x_i) - 1)^(s_i), truncated.

    Its lowest-degree term is p^((n+1)|s|) x1^s1 ... xr^sr.
    """
    if not basis:
        raise ValueError("empty generator basis")
    if len(s) != len(basis) or min(s) < 0:
        raise ValueError(f"multi-index {tuple(s)} needs one nonnegative "
                         f"exponent per basis element ({len(basis)})")
    if sum(s) > ctx.depth:
        raise ValueError("multi-index degree exceeds the truncation depth")
    scalar = Fraction(ctx.p) ** (ctx.n + 1)
    out = one = basis[0].alg.one()
    for x, si in zip(basis, s):
        factor = exp_truncated(x.scale(scalar), ctx) - one
        for _ in range(si):
            out = multiply(out, factor, ctx)
    return out
