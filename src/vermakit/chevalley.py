"""Chevalley structure constants and verification of the defining relations.

The constants C[a,b] with [e_a, e_b] = C[a,b] e_{a+b} (writing e_{-a} = f_a)
are fixed by the extraspecial-pair convention (Carter, Simple Groups of Lie
Type, 4.2): positive roots are ordered by height then lexicographically; for
each non-simple positive root the decomposition with smallest first summand
gets a positive constant, and all remaining constants follow from the Jacobi
identity.  This yields integer constants with C[a,b] = C[-b,-a], the symmetry
that makes the transpose map an anti-automorphism.  The layer is all-int: it
reads the integer root norms ``RootSystem.norm``, coroots
``coroot_coefficients`` and pairings ``simple_coroot_pairings``, which the
root system computes once, and each extraspecial Jacobi step carries one
integer numerator and denominator to a single exact division.  The build,
the bracket and the checks add roots as their packed keys
``RootSystem.keys``.  The table is keyed by root tuples; the build emits it in
one pass over ``rs.roots`` x ``rs.roots``, the order in which
verify_chevalley meets the pairs, checking each |C[a,b]| against its root
string as it goes.

verify_chevalley checks the bracket table for antisymmetry and then the
Jacobi identity on unordered generator triples only: on an antisymmetric
bracket the cyclic Jacobi sum is alternating.  When the table is also
weight-graded it evaluates only the triples whose total weight is a root or
0, since no generator has any other weight; this keeps 6,212 of F4's 22,100
sorted triples.  Its [e_a, f_a] check re-derives each coroot from its own
integer double sum over the symmetrised Cartan matrix, not from the integer
coroots that built the bracket.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations, combinations_with_replacement, product
from types import MappingProxyType

from .rootsys import Root, RootSystem, neg

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

    def _string_down(self, alpha: int, beta: int) -> int:
        """Largest k with beta - k*alpha a root, on root keys."""
        roots = self.rs.key_root
        k = 0
        cur = beta - alpha
        while cur in roots:
            k += 1
            cur -= alpha
        return k

    def _build(self) -> dict[tuple[Root, Root], int]:
        rs = self.rs
        order = rs.key_index  # positive keys, height then lex
        root = rs.key_root
        norm = {k: rs.norm(r) for k, r in zip(rs.keys, rs.roots)}
        table: dict[tuple[int, int], int] = {}  # on root keys

        def put(a: int, b: int, v: int) -> None:
            """Record C[a,b] = v for positive a, b, and the five constants it
            fixes: C[-a,-b] = -v, and, with g = a + b and the rule
            C[x,y]/(z,z) = C[y,z]/(x,x) = C[z,x]/(y,y) for x + y + z = 0,
            C[g,-a] = C[a,-g] = -v(b,b)/(g,g) = -C[-a,g] = -C[-g,a]."""
            g = a + b
            q, r = divmod(v * norm[b], norm[g])
            if r:
                raise RuntimeError(f"C[{root[g]}, {root[-a]}] = {-v * norm[b]}/"
                                   f"{norm[g]} is not an integer")
            table[(a, b)] = v
            table[(-a, -b)] = -v
            table[(g, -a)] = table[(a, -g)] = -q
            table[(-a, g)] = table[(-g, a)] = q

        for gamma, height in zip(order, rs.heights):
            if height < 2:
                continue
            pairs = [(a, b) for a in order
                     if (b := gamma - a) in order and order[a] < order[b]]
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
                if (d := eta - alpha) in norm:
                    num, den = (num * norm[d] + den * table[(eta, -alpha)]
                                * table[(xi, -beta)], den * norm[d])
                if (d := xi - alpha) in norm:
                    num, den = (num * norm[d] + den * table[(-alpha, xi)]
                                * table[(eta, -beta)], den * norm[d])
                n_ab, r = divmod(num * norm[gamma], den * c_xe)
                if r or not n_ab:
                    raise RuntimeError(f"Jacobi gives C[{root[alpha]}, "
                                       f"{root[beta]}] = {num * norm[gamma]}/"
                                       f"{den * c_xe}, not a nonzero integer")
                put(alpha, beta, n_ab)
                put(beta, alpha, -n_ab)

        # the table by root tuples, every root pair with root sum in the order
        # of the pair's positions in rs.roots, the order in which
        # verify_chevalley meets them; each constant passes the classical
        # magnitude cross-check |C[a,b]| = (string length) + 1
        out: dict[tuple[Root, Root], int] = {}
        for x, kx in zip(rs.roots, rs.keys):
            for y, ky in zip(rs.roots, rs.keys):
                v = table.get((kx, ky))
                if v is None:
                    continue
                if abs(v) != (want := self._string_down(kx, ky) + 1):
                    raise RuntimeError(f"|C[{x}, {y}]| = {abs(v)}, but the "
                                       f"root string gives {want}")
                out[(x, y)] = v
        return out

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

    def _position(self, g: Gen) -> int:
        """The position of the root of e or f generator g in rs.roots and
        rs.keys."""
        kind, i = g
        return i if kind == "e" else i + len(self.rs.positive_roots)

    def gen_root(self, g: Gen) -> Root | None:
        return None if g[0] == "h" else self.rs.roots[self._position(g)]

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
        if i1 == i2 and k1 != k2:  # [e_a, f_a] = h_a (coroot)
            sign = 1 if k1 == "e" else -1
            coeffs = rs.coroot_coefficients(rs.positive_roots[i1])
            return {("h", i): sign * c for i, c in enumerate(coeffs) if c}
        j1, j2 = self._position(g1), self._position(g2)
        # the table holds exactly the pairs whose sum is a root
        cval = self._table.get((rs.roots[j1], rs.roots[j2]))
        if cval is None:
            return {}
        s = rs.keys[j1] + rs.keys[j2]
        return {("e" if s > 0 else "f", rs.key_index[abs(s)]): cval}


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

    # nonzero exactly on root sums; no root has the key 0
    bad = None
    for x, kx in zip(rs.roots, rs.keys):
        for y, ky in zip(rs.roots, rs.keys):
            if (sc.c(x, y) != 0) != (kx + ky in rs.key_root):
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

    # [e_a, f_a] against the coroot 2 a_i d_i / (a, a) re-derived with its own
    # double sum (a, a) = sum_ij a_i a_j d_j a_ij, and not from rs.norm or
    # coroot_coefficients, which built the bracket; a coroot that is not
    # integral fails, since every bracket coefficient is an int
    bad = None
    span = range(rs.rank)
    for idx, alpha in enumerate(rs.positive_roots):
        norm = sum(alpha[i] * alpha[j] * rs.symmetrizer[j] * rs.cartan[i][j]
                   for i in span for j in span)
        coroot = [divmod(2 * a * d, norm) for a, d in zip(alpha, rs.symmetrizer)]
        want = {("h", i): c for i, (c, _) in enumerate(coroot) if c}
        if any(r for _, r in coroot) or table[("e", idx), ("f", idx)] != want:
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
    # a weight as its root key, 0 for h: linear, and one to one on sums of up
    # to three roots
    wt = {g: rs.key(sc.gen_root(g) or ()) for g in gens}
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
