"""Chevalley structure constants and verification of the defining relations.

The constants C[a,b] with [e_a, e_b] = C[a,b] e_{a+b} (writing e_{-a} = f_a)
are fixed by the extraspecial-pair convention (Carter, Simple Groups of Lie
Type, 4.2): positive roots are ordered by height then lexicographically; for
each non-simple positive root the decomposition with smallest first summand
gets a positive constant, and all remaining constants follow from the Jacobi
identity.  This yields integer constants with C[a,b] = C[-b,-a], the symmetry
that makes the transpose map an anti-automorphism.  The layer is all-int: it
reads the integer root norms ``RootSystem.norm`` and coroots, and each
extraspecial Jacobi step carries one integer numerator and denominator to a
single exact division.

verify_chevalley checks the bracket table for antisymmetry and then the
Jacobi identity on unordered generator triples only: on an antisymmetric
bracket the cyclic Jacobi sum is alternating.  When the table is also
weight-graded it evaluates only the triples whose total weight is a root or
0, since no generator has any other weight; this keeps 6,212 of F4's 22,100
sorted triples.  Its [e_a, f_a] check re-derives each coroot from the
symmetric form ``RootSystem.inner``, not from the integer coroots that built
the bracket.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations, combinations_with_replacement, product
from types import MappingProxyType

from .rootsys import Root, RootSystem, add, neg, sub

Gen = tuple  # ('e', pos_root_index) | ('f', pos_root_index) | ('h', simple_index)

# the bracket of every commuting pair of generators, shared by all of them
_ZERO: Mapping[Gen, int] = MappingProxyType({})


class StructureConstants:
    """Integer Chevalley constants for one root system, plus a bracket memo."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._table = self._build()
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

    def _build(self) -> dict[tuple[Root, Root], int]:
        rs = self.rs
        order = rs.root_index  # height, then lex
        norm: dict[Root, int] = {}
        for r in rs.positive_roots:
            norm[r] = norm[neg(r)] = rs.norm(r)
        table: dict[tuple[Root, Root], int] = {}

        def put(a: Root, b: Root, v: int) -> None:
            """Record C[a,b] = v for positive a, b, and the five constants it
            fixes: C[-a,-b] = -v, and, with g = a + b and the rule
            C[x,y]/(z,z) = C[y,z]/(x,x) = C[z,x]/(y,y) for x + y + z = 0,
            C[g,-a] = C[a,-g] = -v(b,b)/(g,g) = -C[-a,g] = -C[-g,a]."""
            g = add(a, b)
            q, r = divmod(v * norm[b], norm[g])
            if r:
                raise RuntimeError(f"C[{g}, {neg(a)}] = {-v * norm[b]}/{norm[g]} "
                                   f"is not an integer")
            na, ng = neg(a), neg(g)
            table[(a, b)] = v
            table[(na, neg(b))] = -v
            table[(g, na)] = table[(a, ng)] = -q
            table[(na, g)] = table[(ng, a)] = q

        for gamma, height in zip(rs.positive_roots, rs.heights):
            if height < 2:
                continue
            pairs = [(a, b) for a in rs.positive_roots
                     if (b := sub(gamma, a)) in order and order[a] < order[b]]
            xi, eta = pairs[0]  # extraspecial pair: minimal first summand
            c_xe = self._string_down(xi, eta) + 1
            put(xi, eta, c_xe)
            put(eta, xi, -c_xe)
            for alpha, beta in pairs[1:]:
                # Jacobi on the quadruple (xi, eta, -alpha, -beta), which sums
                # to zero with no two members opposite:
                #   N(xi,eta)N(-a,-b)/(g,g) + N(eta,-a)N(xi,-b)/(eta-a,eta-a)
                #     + N(-a,xi)N(eta,-b)/(xi-a,xi-a) = 0
                # where every constant but N(-a,-b) = -N(a,b) sits at a lower
                # height, so is already in the table
                # the sum as one fraction num/den, then C[a,b] by one exact
                # division: (g,g) * num / (den * C[xi,eta])
                num, den = 0, 1
                if rs.is_root(d := sub(eta, alpha)):
                    num, den = (num * norm[d] + den * table[(eta, neg(alpha))]
                                * table[(xi, neg(beta))], den * norm[d])
                if rs.is_root(d := sub(xi, alpha)):
                    num, den = (num * norm[d] + den * table[(neg(alpha), xi)]
                                * table[(eta, neg(beta))], den * norm[d])
                n_ab, r = divmod(num * norm[gamma], den * c_xe)
                if r or not n_ab:
                    raise RuntimeError(f"Jacobi gives C[{alpha}, {beta}] = "
                                       f"{num * norm[gamma]}/{den * c_xe}, "
                                       f"not a nonzero integer")
                put(alpha, beta, n_ab)
                put(beta, alpha, -n_ab)

        # every root pair with root sum, ordered by the pair's positions in
        # rs.roots, the order in which verify_chevalley meets them
        where = {r: i for i, r in enumerate(rs.roots)}
        full = dict(sorted(table.items(),
                           key=lambda kv: (where[kv[0][0]], where[kv[0][1]])))

        # classical magnitude cross-check: |C[a,b]| = (string length) + 1
        for (x, y), v in full.items():
            if abs(v) != self._string_down(x, y) + 1:
                raise RuntimeError(f"|C[{x}, {y}]| = {abs(v)}, but the root "
                                   f"string gives {self._string_down(x, y) + 1}")
        return full

    # -- queries -------------------------------------------------------------

    def c(self, alpha: Root, beta: Root) -> int:
        """C[alpha, beta]; zero when alpha + beta is not a root."""
        return self._table.get((alpha, beta), 0)

    def pairs(self):
        return self._table.items()

    # -- the Lie bracket on basis generators ---------------------------------

    def generators(self) -> list[Gen]:
        m, r = len(self.rs.positive_roots), self.rs.rank
        return ([("e", i) for i in range(m)]
                + [("h", i) for i in range(r)]
                + [("f", i) for i in range(m)])

    def gen_root(self, g: Gen) -> Root | None:
        kind, i = g
        if kind == "e":
            return self.rs.positive_roots[i]
        if kind == "f":
            return neg(self.rs.positive_roots[i])
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
            coeff = rs.simple_coroot_pairings(self.gen_root(g2))[i1]
            return {g2: coeff} if coeff else {}
        if k2 == "h":
            return _negate(self.bracket(g2, g1))
        a, b = self.gen_root(g1), self.gen_root(g2)
        s = add(a, b)
        if not any(s):  # [e_a, f_a] = h_a (coroot); here i1 == i2
            sign = 1 if k1 == "e" else -1
            coeffs = rs.coroot_coefficients(rs.positive_roots[i1])
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


def verify_chevalley(sc: StructureConstants) -> dict:
    """Check every defining relation plus the Jacobi identity on all triples.

    Failures are reported, not raised; each named check carries a pass flag
    and the first counterexample found.

    The Jacobi identity is evaluated on the triples g1 < g2 < g3 of
    ``sc.generators()`` only, after checking that the bracket table is
    antisymmetric, [x, y] = -[y, x]: the cyclic sum J(x, y, z) of an
    antisymmetric bilinear bracket vanishes on repeated arguments and changes
    sign under a transposition.  On a weight-graded table only the triples
    whose total weight is a root or 0 are evaluated (``_jacobi_triples``);
    J vanishes on every other one.  Its counterexample is the first failing
    triple in product(gens, gens, gens) order, which is a sorted one.  When
    the table is not antisymmetric, ``jacobi`` fails with the first offending
    pair (g1, g2), g1 <= g2, as its counterexample.
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
    for i, (idx, beta) in product(range(rs.rank), enumerate(rs.positive_roots)):
        want = sum(beta[k] * rs.cartan[k][i] for k in range(rs.rank))
        if table[("h", i), ("e", idx)] != ({("e", idx): want} if want else {}):
            bad = ("h", i, "e", idx)
        elif table[("h", i), ("f", idx)] != ({("f", idx): -want} if want else {}):
            bad = ("h", i, "f", idx)
        if bad:
            break
    record("cartan_action", bad is None, bad)

    # [e_a, f_a] against the coroot re-derived from the symmetric form,
    # 2 a_i d_i / (a, a), and not from coroot_coefficients, which built the
    # bracket; the table's int coefficients equal it only where it is integral
    bad = None
    for idx, alpha in enumerate(rs.positive_roots):
        norm = rs.inner(alpha, alpha)
        want = {("h", i): c for i, (a, d) in enumerate(zip(alpha, rs.symmetrizer))
                if (c := 2 * a * d / norm)}
        if table[("e", idx), ("f", idx)] != want:
            bad = alpha
            break
    record("ef_coroot", bad is None, bad)

    # Jacobi identity on sorted triples, once the table is antisymmetric
    bad = next(((g1, g2) for g1, g2 in combinations_with_replacement(gens, 2)
                if table[g2, g1] != _negate(table[g1, g2])), None)
    if bad is None:
        bad = next((t for t in _jacobi_triples(sc, gens, table)
                    if _jacobi_fails(table, *t)), None)
    record("jacobi", bad is None, bad)

    report["all_pass"] = all(v["pass"] for k, v in report.items() if k != "all_pass")
    return report


def _jacobi_triples(sc: StructureConstants, gens: list[Gen], table: dict):
    """The sorted triples g1 < g2 < g3 on which J can be nonzero, in
    combinations order.  On a weight-graded table, where every generator in
    [g1, g2] has weight wt(g1) + wt(g2), J(g1, g2, g3) lies in the weight
    space of wt(g1) + wt(g2) + wt(g3), which holds no generator unless that
    weight is a root or 0; on any other table, every sorted triple."""
    rs = sc.rs
    # a weight w as the one int sum_i w_i B^i: linear, and one to one on
    # sums of up to three roots, whose coordinates are at most 3m = (B - 1)/2
    # in absolute value, m the largest coordinate of a root
    base = 6 * max(max(r) for r in rs.positive_roots) + 1
    wt = {g: sum(c * base ** i for i, c in enumerate(sc.gen_root(g) or ()))
          for g in gens}
    if not all(wt[g] == wt[g1] + wt[g2]
               for (g1, g2), out in table.items() for g in out):
        yield from combinations(gens, 3)
        return
    hit = set(wt.values())  # the roots and 0
    for i, g1 in enumerate(gens):
        for j in range(i + 1, len(gens)):
            g2, w = gens[j], wt[g1] + wt[gens[j]]
            yield from ((g1, g2, g3) for g3 in gens[j + 1:] if w + wt[g3] in hit)


def _jacobi_fails(table: dict, g1: Gen, g2: Gen, g3: Gen) -> bool:
    """Whether [[g1,g2],g3] + [[g2,g3],g1] + [[g3,g1],g2] is nonzero."""
    acc: dict[Gen, int] = {}
    for x, y, z in ((g1, g2, g3), (g2, g3, g1), (g3, g1, g2)):
        for g, c in table[x, y].items():
            for k, v in table[g, z].items():
                acc[k] = acc.get(k, 0) + c * v
    return any(acc.values())


def constants_to_json(sc: StructureConstants) -> list[dict]:
    """Export as a stable list of {alpha, beta, value} records.

    This is the format that the sha256 digests of all 13 supported types
    hash: they pin the Chevalley basis every other layer is built on."""
    items = sorted(sc.pairs(), key=lambda kv: (kv[0][0], kv[0][1]))
    return [{"alpha": list(x), "beta": list(y), "value": v} for (x, y), v in items]
