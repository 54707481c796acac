"""Chevalley structure constants and verification of the defining relations.

The constants C[a,b] with [e_a, e_b] = C[a,b] e_{a+b} (writing e_{-a} = f_a)
are fixed by the extraspecial-pair convention: positive roots are ordered by
height then lexicographically; for each non-simple positive root the
decomposition with smallest first summand gets a positive constant, and all
remaining constants follow from the Jacobi identity.  This yields integer
constants with C[a,b] = C[-b,-a], the symmetry that makes the transpose map
an anti-automorphism.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from types import MappingProxyType

from .rootsys import Root, RootSystem, add, neg, sub

Gen = tuple  # ('e', pos_root_index) | ('f', pos_root_index) | ('h', simple_index)

# the bracket of every commuting pair of generators, shared by all of them
_ZERO: Mapping[Gen, int] = MappingProxyType({})


class StructureConstants:
    """Integer Chevalley constants for one root system, plus a bracket memo."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.base_order = list(rs.positive_roots)  # height, then lex
        self._table: dict[tuple[Root, Root], int] = {}
        self._build()
        self._brackets: dict[tuple, Mapping[Gen, int]] = {}  # filled by bracket

    # -- construction -------------------------------------------------------

    def _string_down(self, alpha: Root, beta: Root) -> int:
        """Largest k with beta - k*alpha a root."""
        k = 0
        cur = sub(beta, alpha)
        while self.rs.is_root(cur):
            k += 1
            cur = sub(cur, alpha)
        return k

    def _build(self) -> None:
        rs = self.rs
        order = {r: i for i, r in enumerate(self.base_order)}
        pos = set(self.base_order)
        norm = {r: rs.inner(r, r) for r in rs.roots}

        def n_partial(x: Root, y: Root) -> Fraction:
            """Constant for arbitrary-sign roots, from the positive table so far."""
            s = add(x, y)
            if not rs.is_root(s):
                return Fraction(0)
            xpos, ypos = x in pos, y in pos
            if xpos and ypos:
                if (x, y) in self._table:
                    return Fraction(self._table[(x, y)])
                return -Fraction(self._table[(y, x)])
            if not xpos and not ypos:
                return -n_partial(neg(x), neg(y))
            if not xpos:  # x negative, y positive
                return -n_partial(y, x)
            # x positive, y negative
            z = neg(s)
            if s in pos:  # z negative: reduce via triple (x, y, z)
                return n_partial(y, z) * norm[z] / norm[x]
            return n_partial(z, x) * norm[z] / norm[y]

        for gamma in self.base_order:
            if rs.root_height(gamma) < 2:
                continue
            pairs = [
                (a, sub(gamma, a))
                for a in self.base_order
                if sub(gamma, a) in pos and order[a] < order[sub(gamma, a)]
            ]
            pairs.sort(key=lambda p: order[p[0]])
            xi, eta = pairs[0]  # extraspecial pair: minimal first summand
            self._table[(xi, eta)] = self._string_down(xi, eta) + 1
            self._table[(eta, xi)] = -self._table[(xi, eta)]
            for alpha, beta in pairs[1:]:
                # Jacobi on the quadruple (xi, eta, -alpha, -beta), which sums
                # to zero with no two members opposite:
                #   N(xi,eta)N(-a,-b)/(g,g) + N(eta,-a)N(xi,-b)/(eta-a,eta-a)
                #     + N(-a,xi)N(eta,-b)/(xi-a,xi-a) = 0
                acc = Fraction(0)
                if rs.is_root(sub(eta, alpha)):
                    acc += (n_partial(eta, neg(alpha)) * n_partial(xi, neg(beta))
                            / norm[sub(eta, alpha)])
                if rs.is_root(sub(xi, alpha)):
                    acc += (n_partial(neg(alpha), xi) * n_partial(eta, neg(beta))
                            / norm[sub(xi, alpha)])
                val = -acc * norm[gamma] / self._table[(xi, eta)]
                # val is N(-alpha,-beta); the convention N(-a,-b) = -N(a,b)
                n_ab = -val
                if n_ab.denominator != 1 or n_ab == 0:
                    raise RuntimeError(f"Jacobi gives C[{alpha}, {beta}] = {n_ab}, "
                                       f"not a nonzero integer")
                self._table[(alpha, beta)] = int(n_ab)
                self._table[(beta, alpha)] = -int(n_ab)

        # extend to all root pairs with root sum
        full: dict[tuple[Root, Root], int] = {}
        for x in rs.roots:
            for y in rs.roots:
                s = add(x, y)
                if any(s) and rs.is_root(s):
                    v = n_partial(x, y)
                    if v.denominator != 1 or v == 0:
                        raise RuntimeError(f"C[{x}, {y}] = {v} is not a "
                                           f"nonzero integer")
                    full[(x, y)] = int(v)
        self._table = full

        # classical magnitude cross-check: |C[a,b]| = (string length) + 1
        for (x, y), v in self._table.items():
            if abs(v) != self._string_down(x, y) + 1:
                raise RuntimeError(f"|C[{x}, {y}]| = {abs(v)}, but the root "
                                   f"string gives {self._string_down(x, y) + 1}")

    # -- queries -------------------------------------------------------------

    def c(self, alpha: Root, beta: Root) -> int:
        """C[alpha, beta]; zero when alpha + beta is not a root."""
        return self._table.get((alpha, beta), 0)

    def pairs(self):
        return self._table.items()

    # -- the Lie bracket on basis generators ---------------------------------

    def generators(self) -> list[Gen]:
        m, r = len(self.base_order), self.rs.rank
        return ([("e", i) for i in range(m)]
                + [("h", i) for i in range(r)]
                + [("f", i) for i in range(m)])

    def gen_root(self, g: Gen) -> Root | None:
        kind, i = g
        if kind == "e":
            return self.base_order[i]
        if kind == "f":
            return neg(self.base_order[i])
        return None

    def bracket(self, g1: Gen, g2: Gen) -> Mapping[Gen, int]:
        """[g1, g2] as an integer combination of basis generators, memoised
        per pair: callers must not mutate the returned mapping.  Every zero
        bracket is the one read-only empty mapping ``_ZERO``."""
        out = self._brackets.get((g1, g2))
        if out is None:
            out = self._brackets[(g1, g2)] = self._bracket(g1, g2) or _ZERO
        return out

    def _bracket(self, g1: Gen, g2: Gen) -> dict[Gen, int]:
        rs = self.rs
        k1, i1 = g1
        k2, i2 = g2
        if k1 == "h" and k2 == "h":
            return {}
        if k1 == "h":
            beta = self.gen_root(g2)
            coeff = sum(beta[k] * rs.cartan[k][i1] for k in range(rs.rank))
            return {g2: coeff} if coeff else {}
        if k2 == "h":
            return _negate(self.bracket(g2, g1))
        a, b = self.gen_root(g1), self.gen_root(g2)
        s = add(a, b)
        if not any(s):  # [e_a, f_a] = h_a (coroot); here i1 == i2
            sign = 1 if k1 == "e" else -1
            coeffs = rs.coroot_coefficients(self.base_order[i1])
            return {("h", i): sign * c for i, c in enumerate(coeffs) if c}
        if not rs.is_root(s):
            return {}
        cval = self.c(a, b)
        if sum(s) > 0:
            return {("e", rs.root_index[s]): cval}
        return {("f", rs.root_index[neg(s)]): cval}


def _negate(d: dict) -> dict:
    return {k: -v for k, v in d.items()}


def structure_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


def ad_matrix(sc: StructureConstants, x: Gen) -> list[list[int]]:
    """Matrix of [x, -] on the basis (e-block, h-block, f-block)."""
    gens = sc.generators()
    index = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    mat = [[0] * n for _ in range(n)]
    for j, g in enumerate(gens):
        for target, coeff in sc.bracket(x, g).items():
            mat[index[target]][j] += coeff
    return mat


def verify_chevalley(sc: StructureConstants) -> dict:
    """Check every defining relation plus the Jacobi identity on all triples.

    Failures are reported, not raised; each named check carries a pass flag
    and the first counterexample found.
    """
    rs = sc.rs
    report: dict[str, dict] = {}

    def record(name, ok, counterexample=None):
        report[name] = {"pass": ok, "counterexample": counterexample}

    # antisymmetry and the transpose symmetry C[a,b] = C[-b,-a]
    bad = next(((x, y) for (x, y), v in sc.pairs() if sc.c(y, x) != -v), None)
    record("antisymmetry", bad is None, bad)
    bad = next(((x, y) for (x, y), v in sc.pairs() if sc.c(neg(y), neg(x)) != v), None)
    record("transpose_symmetry", bad is None, bad)

    # nonzero exactly on root sums
    bad = None
    for x in rs.roots:
        for y in rs.roots:
            s = add(x, y)
            expected = any(s) and rs.is_root(s)
            if (sc.c(x, y) != 0) != expected:
                bad = (x, y)
                break
        if bad:
            break
    record("support", bad is None, bad)

    # every bracket of two generators, computed once for the checks below
    gens = sc.generators()
    table = {(g1, g2): sc.bracket(g1, g2) for g1, g2 in product(gens, gens)}

    # bracket relations against the Cartan matrix
    bad = None
    for i, (idx, beta) in product(range(rs.rank), enumerate(sc.base_order)):
        want = sum(beta[k] * rs.cartan[k][i] for k in range(rs.rank))
        if table[("h", i), ("e", idx)] != ({("e", idx): want} if want else {}):
            bad = ("h", i, "e", idx)
        elif table[("h", i), ("f", idx)] != ({("f", idx): -want} if want else {}):
            bad = ("h", i, "f", idx)
        if bad:
            break
    record("cartan_action", bad is None, bad)

    bad = None
    for idx, alpha in enumerate(sc.base_order):
        got = table[("e", idx), ("f", idx)]
        want = {("h", i): c for i, c in enumerate(rs.coroot_coefficients(alpha)) if c}
        if got != want:
            bad = alpha
            break
    record("ef_coroot", bad is None, bad)

    # Jacobi identity on all generator triples
    bad = None
    for g1, g2, g3 in product(gens, gens, gens):
        acc: dict[Gen, int] = {}
        # [[g1,g2],g3] + [[g2,g3],g1] + [[g3,g1],g2]
        for g, c in table[g1, g2].items():
            _acc_add(acc, table[g, g3], c)
        for g, c in table[g2, g3].items():
            _acc_add(acc, table[g, g1], c)
        for g, c in table[g3, g1].items():
            _acc_add(acc, table[g, g2], c)
        if any(v != 0 for v in acc.values()):
            bad = (g1, g2, g3)
            break
    record("jacobi", bad is None, bad)

    report["all_pass"] = all(v["pass"] for k, v in report.items() if k != "all_pass")
    return report


def _acc_add(acc: dict, d: dict, scale: int) -> None:
    if not scale:
        return
    for k, v in d.items():
        acc[k] = acc.get(k, 0) + scale * v


def constants_to_json(sc: StructureConstants) -> list[dict]:
    """Export as a stable list of {alpha, beta, value} records."""
    items = sorted(sc.pairs(), key=lambda kv: (kv[0][0], kv[0][1]))
    return [{"alpha": list(x), "beta": list(y), "value": v} for (x, y), v in items]
