"""Closed-form oracles the benchmark checks every operation against.

Nothing here imports vermakit: root systems are rebuilt from hard-coded
Cartan matrices, multiplicities come from Kostant's partition function and
the Weyl group, and the sl3 case label is read off (a, b) directly.  Outputs
that have no closed form (CLI stdout, bad-prime sets) are compared with
values recorded in golden.json.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# entry [i][j] = <a_i, a_j^v>, Bourbaki order; D[i] = (a_i, a_i) / 2
CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
}
SYMMETRIZER = {"A2": (1, 1), "A3": (1, 1, 1), "B2": (2, 1), "G2": (1, 3)}

# |Phi+| by type letter and rank, the classical formulas
POSITIVE_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                   "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                   "F": lambda n: 24, "G": lambda n: 6}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class Lie:
    """Root data of one type, rebuilt independently of vermakit."""

    def __init__(self, label: str):
        self.label = label
        self.cartan = CARTAN[label]
        self.d = SYMMETRIZER[label]
        self.rank = len(self.cartan)
        self.positive = self._positive_roots()
        self._partitions: dict[tuple, int] = {}

    def _coroot_pairing_simple(self, beta: tuple, i: int) -> int:
        """<beta, a_i^v> for beta in root coordinates."""
        return sum(beta[k] * self.cartan[k][i] for k in range(self.rank))

    def _positive_roots(self) -> list[tuple]:
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(n):
                    k = self._coroot_pairing_simple(beta, i)
                    img = tuple(b - k * (j == i) for j, b in enumerate(beta))
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        return sorted(r for r in roots if all(x >= 0 for x in r))

    def pairing(self, mu: tuple, alpha: tuple) -> Fraction:
        """<mu, alpha^v> for mu in fundamental and alpha in root coordinates."""
        n = self.rank
        mu_alpha = sum(Fraction(mu[i]) * alpha[i] * self.d[i] for i in range(n))
        norm = sum(alpha[i] * self.d[i] * self._coroot_pairing_simple(alpha, i)
                   for i in range(n))
        return 2 * mu_alpha / norm

    def is_generic(self, lam: tuple) -> bool:
        """No <lam + rho, alpha^v> is a positive integer: M(lam) is simple."""
        shifted = tuple(Fraction(x) + 1 for x in lam)
        for alpha in self.positive:
            q = self.pairing(shifted, alpha)
            if q.denominator == 1 and q > 0:
                return False
        return True

    def weight_of_drop(self, lam: tuple, nu: tuple) -> tuple:
        """lam - nu in fundamental coordinates, nu in root coordinates."""
        return tuple(Fraction(lam[j]) - sum(nu[i] * self.cartan[i][j]
                                            for i in range(self.rank))
                     for j in range(self.rank))

    def partitions(self, nu: tuple) -> int:
        """Kostant's partition function P(nu)."""
        if any(x < 0 for x in nu):
            return 0
        return self._count(len(self.positive), nu)

    def _count(self, k: int, nu: tuple) -> int:
        if not any(nu):
            return 1
        if k == 0:
            return 0
        key = (k, nu)
        hit = self._partitions.get(key)
        if hit is not None:
            return hit
        root = self.positive[k - 1]
        total, cur = 0, nu
        while all(x >= 0 for x in cur):
            total += self._count(k - 1, cur)
            cur = tuple(a - b for a, b in zip(cur, root))
        self._partitions[key] = total
        return total

    def orbit_drops(self, lam: tuple, reflections, shift: int) -> dict:
        """{drop: sign} over the orbit of lam under the given simple
        reflections; shift 1 is the dot action, 0 the linear one.  The sign
        is (-1)^length, read off the breadth-first depth, which is exact when
        the orbit is regular (lam + shift*rho dominant and regular)."""
        seen = {(0,) * self.rank: 1}
        frontier = [(0,) * self.rank]
        while frontier:
            nxt = []
            for d in frontier:
                for i in reflections:
                    k = (Fraction(lam[i]) + shift
                         - self._coroot_pairing_simple(d, i))
                    if k.denominator != 1:
                        raise ValueError("orbit needs integral coordinates")
                    d2 = tuple(x + int(k) * (j == i) for j, x in enumerate(d))
                    if d2 not in seen:
                        seen[d2] = -seen[d]
                        nxt.append(d2)
            frontier = nxt
        return seen

    def multiplicity(self, orbit: dict, nu: tuple) -> int:
        """sum over the orbit of sign * P(nu - drop)."""
        return sum(sgn * self.partitions(tuple(a - b for a, b in zip(nu, d)))
                   for d, sgn in orbit.items())

    def weyl_dim(self, lam: tuple) -> int:
        num = Fraction(1)
        rho = (1,) * self.rank
        shifted = tuple(Fraction(x) + 1 for x in lam)
        for alpha in self.positive:
            num *= self.pairing(shifted, alpha) / self.pairing(rho, alpha)
        return int(num)

    def drops_up_to(self, depth: int) -> list[tuple]:
        """Every nonnegative root-coordinate vector of height <= depth."""
        out = [()]
        for _ in range(self.rank):
            out = [t + (k,) for t in out for k in range(depth + 1)]
        return [t for t in out if sum(t) <= depth]


def expected_character(lie: Lie, lam: tuple, depth: int,
                       levi: tuple | None) -> dict:
    """{weight: dim} of the module the benchmark asked for, to depth.

    levi None: the simple module L(lam), lam generic or dominant integral.
    levi a tuple of simple indices: the parabolic Verma module for them,
    lam dominant integral on those indices.
    """
    if levi is not None:
        orbit = lie.orbit_drops(lam, levi, 1)
    elif lie.is_generic(lam):
        orbit = {(0,) * lie.rank: 1}
    elif all(Fraction(x).denominator == 1 and x >= 0 for x in lam):
        orbit = lie.orbit_drops(lam, range(lie.rank), 1)
    else:
        raise ValueError(f"no closed form for L({lam}) on {lie.label}")
    out = {}
    for nu in lie.drops_up_to(depth):
        m = lie.multiplicity(orbit, nu)
        if m:
            out[lie.weight_of_drop(lam, nu)] = m
    return out


def check_character(lie: Lie, lam: tuple, depth: int, levi, got: dict) -> bool:
    """got is {weight coords: dim}; also checks the Weyl dimension when the
    depth covers a finite-dimensional simple module."""
    want = expected_character(lie, lam, depth, levi)
    if {w: d for w, d in got.items() if d} != want:
        return False
    if levi is None and not lie.is_generic(lam):
        lowest = max(sum(d) for d in lie.orbit_drops(lam, range(lie.rank), 0))
        if depth >= lowest and sum(want.values()) != lie.weyl_dim(lam):
            return False
    return True


def sl3_case(a: Fraction, b: Fraction) -> str:
    """Case label of a non-dominant-integral sl3 weight, in closed form:
    singular iff some <lam + rho, alpha^v> vanishes."""
    if 0 in (a + 1, b + 1, a + b + 2):
        return "singular"
    if a.denominator == 1 and b.denominator == 1:
        return "regular_integral"
    return "regular_nonintegral"
