"""Root systems, weights, the Weyl dot action and the good-prime test.

Roots are integer coefficient vectors over the simple roots.  Weights live in
fundamental-weight coordinates: ``coords[i]`` is the value of the weight on
the simple coroot ``h_i``.  All arithmetic is exact (Fraction), no floats.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# rank is unused here but stays bound: the benchmark's tracer self-test
# checks that a function imported into several modules is patched in each
from .linalg import det_int, invert, rank, span_coordinates  # noqa: F401

Root = tuple[int, ...]

# number of positive roots per type, used as a construction cross-check
_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_MAX_RANK = 4


def cartan_matrix(type_label: str, rank_: int) -> list[list[int]]:
    """Cartan matrix in the Bourbaki ordering (entry [i][j] = <a_i, a_j^v>)."""
    n = rank_
    ok = (
        (type_label == "A" and 1 <= n <= _MAX_RANK)
        or (type_label in ("B", "C") and 2 <= n <= _MAX_RANK)
        or (type_label == "D" and n == 4)
        or (type_label == "F" and n == 4)
        or (type_label == "G" and n == 2)
    )
    if not ok:
        raise ValueError(f"unsupported root system type {type_label}{rank_}")
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, vij=-1, vji=-1):
        a[i][j] = vij
        a[j][i] = vji

    if type_label in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if type_label == "B":  # last simple root short
            link(n - 2, n - 1, -2, -1)
        elif type_label == "C":  # last simple root long
            link(n - 2, n - 1, -1, -2)
    elif type_label == "D":
        link(0, 1)
        link(1, 2)
        link(1, 3)
    elif type_label == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif type_label == "G":  # first simple root short
        link(0, 1, -1, -3)
    return a


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates (values on simple coroots)."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*values) -> "Weight":
        return Weight(tuple(Fraction(v) for v in values))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(tuple(c * a for a in self.coords))

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    def is_dominant_integral(self) -> bool:
        return all(a.denominator == 1 and a >= 0 for a in self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class SimpleSubset:
    """A subset of the simple roots, by index."""

    members: frozenset[int]

    @staticmethod
    def of(*indices: int) -> "SimpleSubset":
        return SimpleSubset(frozenset(indices))

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class RootSystem:
    """A finite root system of one split type, with exact pairing data."""

    def __init__(self, type_label: str, rank_: int):
        self.type_label = type_label
        self.rank = rank_
        self.cartan = cartan_matrix(type_label, rank_)
        self.symmetrizer = _symmetrizer(self.cartan)
        self._simple_roots = [tuple(int(i == j) for j in range(rank_))
                              for i in range(rank_)]
        self.positive_roots = self._close_positive_roots()
        expected = _POSITIVE_COUNTS[type_label](rank_)
        if len(self.positive_roots) != expected:
            raise RuntimeError(
                f"closure produced {len(self.positive_roots)} positive roots, "
                f"expected {expected} for {type_label}{rank_}"
            )
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.roots = self.positive_roots + [neg(r) for r in self.positive_roots]
        self._root_set = set(self.roots)

    # -- construction -----------------------------------------------------

    def _close_positive_roots(self) -> list[Root]:
        n = self.rank
        simple = self._simple_roots
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            new: list[Root] = []
            for beta in frontier:
                for i, alpha in enumerate(simple):
                    cand = add(beta, alpha)
                    if cand in roots:
                        continue
                    # string through beta in direction alpha: q = p - <beta, a_i^v>
                    p = 0
                    down = sub(beta, alpha)
                    while down in roots:
                        p += 1
                        down = sub(down, alpha)
                    pairing = sum(beta[k] * self.cartan[k][i] for k in range(n))
                    if p - pairing >= 1:
                        roots.add(cand)
                        new.append(cand)
            frontier = new
        return sorted(roots, key=lambda r: (sum(r), r))

    # -- pairings ----------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The simple root alpha_i as a coefficient vector."""
        return self._simple_roots[i]

    def is_root(self, r: Root) -> bool:
        return r in self._root_set

    def inner(self, beta: Root, gamma: Root) -> Fraction:
        """Symmetric bilinear form (beta, gamma)."""
        n = self.rank
        return sum(
            Fraction(beta[i] * gamma[j]) * self.symmetrizer[j] * self.cartan[i][j]
            for i in range(n)
            for j in range(n)
        )

    def root_pairing(self, beta: Root, alpha: Root) -> int:
        """<beta, alpha^v> for roots beta, alpha."""
        val = 2 * self.inner(beta, alpha) / self.inner(alpha, alpha)
        if val.denominator != 1:
            raise ValueError(f"<{beta}, {alpha}^v> = {val} is not an integer")
        return int(val)

    def coroot_coefficients(self, alpha: Root) -> tuple[int, ...]:
        """alpha^v expressed over the simple coroots (integer coefficients)."""
        if not self.is_root(alpha):
            raise ValueError(f"{alpha} is not a root")
        d_alpha = self.inner(alpha, alpha) / 2
        coeffs = []
        for i in range(self.rank):
            c = Fraction(alpha[i]) * self.symmetrizer[i] / d_alpha
            if c.denominator != 1:
                raise ValueError(f"coroot of {alpha} has the non-integer "
                                 f"coefficient {c} on h_{i}")
            coeffs.append(int(c))
        return tuple(coeffs)

    def root_height(self, alpha: Root) -> int:
        return sum(alpha)

    def weight_of_root(self, alpha: Root) -> Weight:
        """The root alpha as a weight (values on simple coroots)."""
        return Weight(
            tuple(
                Fraction(sum(alpha[i] * self.cartan[i][j] for i in range(self.rank)))
                for j in range(self.rank)
            )
        )

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(Fraction(int(i == j)) for j in range(self.rank)))

    def rho(self) -> Weight:
        return Weight((Fraction(1),) * self.rank)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank})"


def _symmetrizer(cartan: list[list[int]]) -> list[Fraction]:
    """d_i with d_j * cartan[i][j] == d_i * cartan[j][i]; (a_i, a_i) = 2 d_i."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                    stack.append(j)
    # rescale to the smallest integers per connected component
    lcm_den = math.lcm(*(x.denominator for x in d))
    return [x * lcm_den for x in d]


def add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Root) -> Root:
    return tuple(-x for x in a)


# -- public operations ------------------------------------------------------


def parse_type(label: str) -> RootSystem:
    """Parse a label like 'A2' or 'G2' into a root system."""
    label = label.strip()
    if len(label) < 2 or not label[0].isalpha() or not label[1:].isdigit():
        raise ValueError(f"bad root system label {label!r}")
    return RootSystem(label[0].upper(), int(label[1:]))


def parse_weight(rs: RootSystem, text: str) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} coordinates, got {len(parts)}")
    return Weight(tuple(Fraction(p) for p in parts))


def pairing(rs: RootSystem, lam: Weight, alpha: Root) -> Fraction:
    """<lam, alpha^v> for any root alpha."""
    coeffs = rs.coroot_coefficients(alpha)
    return sum((c * x for c, x in zip(coeffs, lam.coords)), Fraction(0))


def dot_reflect(rs: RootSystem, i: int, lam: Weight) -> Weight:
    """s_i . lam = lam - <lam + rho, a_i^v> a_i  (dot action of a simple reflection)."""
    factor = lam.coords[i] + 1
    alpha_wt = rs.weight_of_root(rs.simple_root(i))
    return lam - alpha_wt.scale(factor)


def dot_orbit(rs: RootSystem, lam: Weight) -> set[Weight]:
    """Closure of {lam} under the dot action of all simple reflections."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rs.rank):
                nu = dot_reflect(rs, i, mu)
                if nu not in seen:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return seen


def is_singular(rs: RootSystem, lam: Weight) -> bool:
    shifted = lam + rs.rho()
    return any(pairing(rs, shifted, a) == 0 for a in rs.positive_roots)


def classify_weight(rs: RootSystem, lam: Weight) -> dict[str, bool]:
    return {
        "dominant_integral": lam.is_dominant_integral(),
        "singular": is_singular(rs, lam),
        "integral": lam.is_integral(),
    }


def root_subsystem(rs: RootSystem, subset: SimpleSubset) -> set[Root]:
    """All roots supported on the given simple indices (both signs)."""
    out = set()
    for r in rs.roots:
        if all(r[i] == 0 for i in range(rs.rank) if i not in subset):
            out.add(r)
    return out


def positive_subsystem(rs: RootSystem, subset: SimpleSubset) -> list[Root]:
    return [r for r in rs.positive_roots
            if all(r[i] == 0 for i in range(rs.rank) if i not in subset)]


def interior(rs: RootSystem, subset: SimpleSubset) -> SimpleSubset:
    """Members of the subset not adjacent (via the Cartan matrix) to its complement."""
    outside = [j for j in range(rs.rank) if j not in subset]
    return SimpleSubset(frozenset(
        b for b in subset if all(rs.cartan[a][b] == 0 for a in outside)
    ))


def dynkin_components(rs: RootSystem) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(rs.rank):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(rs.rank):
                if j not in comp and rs.cartan[i][j] != 0:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        comps.append(comp)
    return comps


def is_totally_proper(rs: RootSystem, subset: SimpleSubset) -> bool:
    """True iff no Dynkin component lies entirely inside the subset."""
    return all(not comp <= subset.members for comp in dynkin_components(rs))


def dual_h_basis(rs: RootSystem) -> list[list[Fraction]]:
    """Matrix whose column b gives the coefficients of h^b over the simple coroots.

    h^b is the Cartan element dual to the simple roots: a(h^b) = delta_{ab}.
    """
    return invert([[Fraction(x) for x in row] for row in rs.cartan])


# -- closed subsystems and the good-prime test -------------------------------


def _simple_system_of(rs: RootSystem, subsystem: frozenset[Root]) -> list[Root]:
    """Indecomposable positive members: not a sum of two positive members."""
    pos = [r for r in subsystem if sum(r) > 0]
    pos_set = set(pos)
    simple = []
    for r in pos:
        decomposable = any(sub(r, s) in pos_set for s in pos if s != r)
        if not decomposable:
            simple.append(r)
    return sorted(simple, key=lambda r: (sum(r), r))


def enumerate_closed_subsystems(
    rs: RootSystem, rng: random.Random | None = None
) -> list[dict]:
    """All nonempty subsystems ZS n Phi, with a simple system and Cartan det each.

    Every such subsystem arises from a linearly independent set of positive
    roots, so only those are enumerated.  The result is sorted canonically and
    does not depend on enumeration order (the optional rng only shuffles the
    candidate order, for order-independence checks).
    """
    candidates = list(rs.positive_roots)
    if rng is not None:
        rng.shuffle(candidates)
    seen: set[frozenset[Root]] = set()
    out = []
    for size in range(1, rs.rank + 1):
        for combo in itertools.combinations(candidates, size):
            r, coords = span_coordinates(combo, rs.roots)
            if r != size:
                continue
            subsystem = frozenset(
                gamma for gamma, x in zip(rs.roots, coords)
                if x is not None and all(c.denominator == 1 for c in x))
            if subsystem in seen:
                continue
            seen.add(subsystem)
            simple = _simple_system_of(rs, subsystem)
            cmat = [[rs.root_pairing(b, a) for a in simple] for b in simple]
            out.append({
                "simple_system": simple,
                "cartan": cmat,
                "det": det_int(cmat),
                "size": len(subsystem),
            })
    out.sort(key=lambda rec: (rec["size"], rec["simple_system"]))
    return out


def bad_primes(rs: RootSystem, rng: random.Random | None = None) -> set[int]:
    """Primes dividing the Cartan determinant of some closed root subsystem."""
    primes: set[int] = set()
    for rec in enumerate_closed_subsystems(rs, rng=rng):
        primes |= _prime_divisors(abs(rec["det"]))
    return primes


def _prime_divisors(m: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out
