"""Depth-truncated highest-weight modules and their exact linear algebra.

Verma modules have basis f^s v with s running over positive-root exponent
vectors; parabolic quotients are cut out by the singular vectors
f_a^(lam(h_a)+1) v; Levi-induced modules carry extra central polynomial
directions along the dual Cartan basis.  All actions are computed through
the PBW rewriting engine and kept as exact rationals, so weight-space
dimensions of simple quotients come out of Gram-matrix ranks over Q.

Depth semantics: a statement "within depth d" quantifies over weights
lam - nu with the height of nu at most d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import rank, reduce_against, rref
from .rootsys import (RootSystem, SimpleSubset, Weight, add, dual_h_basis,
                      interior, neg, pairing, positive_subsystem, sub)
from .uea import EnvelopingAlgebra, UEAElement

Vec = dict  # basis label -> Fraction


@dataclass(frozen=True)
class Character:
    """Weight-space dimension table of a truncated module."""

    dims: tuple  # sorted tuple of (Weight, int) pairs

    @staticmethod
    def of(table: dict[Weight, int]) -> "Character":
        items = sorted(((w, d) for w, d in table.items() if d),
                       key=lambda wd: wd[0].coords)
        return Character(tuple(items))

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.dims)

    def __add__(self, other: "Character") -> "Character":
        table = self.as_dict()
        for w, d in other.dims:
            table[w] = table.get(w, 0) + d
        return Character.of(table)

    def total(self) -> int:
        return sum(d for _, d in self.dims)


def _clean(vec: Vec) -> Vec:
    return {k: v for k, v in vec.items() if v}


def _vec_add(acc: Vec, vec: Vec, scale: Fraction) -> None:
    if not scale:
        return
    for k, v in vec.items():
        acc[k] = acc.get(k, Fraction(0)) + scale * v


class HighestWeightModule:
    """Shared plumbing: generator words act label by label."""

    alg: EnvelopingAlgebra
    rs: RootSystem
    lam: Weight
    depth: int
    basis: list

    def act_label(self, g, label) -> Vec:
        raise NotImplementedError

    def act(self, g, vec: Vec) -> Vec:
        out: Vec = {}
        for label, coeff in vec.items():
            _vec_add(out, self.act_label(g, label), coeff)
        return _clean(out)

    def apply_word(self, word: list, vec: Vec) -> Vec:
        """Apply a product of generators (leftmost factor acts last)."""
        for g in reversed(word):
            vec = self.act(g, vec)
            if not vec:
                break
        return vec

    def apply_element(self, x: UEAElement, vec: Vec) -> Vec:
        out: Vec = {}
        for mono, coeff in x.terms.items():
            _vec_add(out, self.apply_word(self.alg.word(mono), vec), coeff)
        return _clean(out)

    def label_weight(self, label) -> Weight:
        return self.lam - self.rs.weight_of_root(self.label_drop(label))

    def label_drop(self, label):
        raise NotImplementedError

    def character(self) -> Character:
        table: dict[Weight, int] = {}
        for label in self.basis:
            w = self.label_weight(label)
            table[w] = table.get(w, 0) + 1
        return Character.of(table)


def _enum_f_labels(npos: int, idxs: list[int], heights: list[int],
                   budget: int) -> list[tuple]:
    """All exponent tuples supported on idxs with weighted height <= budget."""
    labels: list[tuple] = []

    def rec(pos: int, acc: dict[int, int], rem: int):
        if pos == len(idxs):
            t = [0] * npos
            for i, k in acc.items():
                t[i] = k
            labels.append(tuple(t))
            return
        i = idxs[pos]
        for k in range(rem // heights[i] + 1):
            if k:
                acc[i] = k
            rec(pos + 1, acc, rem - k * heights[i])
            acc.pop(i, None)

    rec(0, {}, budget)
    return labels


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")


class VermaLikeModule(HighestWeightModule):
    """Verma module over the subsystem spanned by a set of positive roots.

    With all positive roots allowed this is the ordinary Verma module; a
    restricted set gives the Verma module of a Levi subalgebra, computed
    with the ambient structure constants so sign conventions agree across
    nested constructions.
    """

    def __init__(self, alg: EnvelopingAlgebra, lam: Weight, depth: int,
                 allowed: list[int] | None = None):
        _check_depth(depth)
        self.alg = alg
        self.rs = alg.rs
        self.lam = lam
        self.depth = depth
        self.allowed = sorted(range(alg.npos) if allowed is None else allowed)
        self._allowed_set = set(self.allowed)
        if allowed is not None:
            self._check_allowed_closed()
        self.heights = [self.rs.root_height(r) for r in alg.sc.base_order]
        self.basis = _enum_f_labels(alg.npos, self.allowed, self.heights, depth)
        self.kind = "verma"
        self._memo: dict[tuple, Vec] = {}
        # weight spaces: sorted labels per drop, and each label's position
        self.labels_by_drop: dict[tuple, list[tuple]] = {}
        for s in sorted(self.basis):
            self.labels_by_drop.setdefault(alg.root_sum(s), []).append(s)
        self._position = {s: i for labels in self.labels_by_drop.values()
                          for i, s in enumerate(labels)}
        self._grams: dict[tuple, list[tuple]] = {}

    def _check_allowed_closed(self) -> None:
        """The allowed roots must be the positive roots of a closed
        subsystem: every root sum or difference of two of them is again
        one of them up to sign, so e and f in it keep labels in it."""
        roots = self.alg.sc.base_order
        index = self.rs.root_index
        for i in self.allowed:
            if not 0 <= i < self.alg.npos:
                raise ValueError(f"allowed root index {i} is out of range")
        for i in self.allowed:
            for j in self.allowed:
                for r in (add(roots[i], roots[j]), sub(roots[i], roots[j])):
                    k = index.get(r, index.get(neg(r)))
                    if k is not None and k not in self._allowed_set:
                        raise ValueError(
                            f"allowed roots {self.allowed} are not closed: "
                            f"they miss root {roots[k]}")

    def label_drop(self, s: tuple) -> tuple:
        return self.alg.root_sum(s)

    def label_height(self, s: tuple) -> int:
        return sum(k * self.heights[i] for i, k in enumerate(s) if k)

    def act_label(self, g, s: tuple) -> Vec:
        cached = self._memo.get((g, s))
        if cached is not None:
            return cached
        if g[0] != "h" and g[1] not in self._allowed_set:
            raise ValueError(f"{g} is outside the allowed roots {self.allowed}")
        zero_h = (0,) * self.rs.rank
        zero_e = (0,) * self.alg.npos
        out: Vec = {}
        for (a, b, c), coeff in self.alg.gen_mul_mono(g, (s, zero_h, zero_e)).items():
            if any(c):
                continue  # positive part kills the highest-weight generator
            if self.label_height(a) > self.depth:
                continue
            scalar = coeff
            for i, k in enumerate(b):
                if k:
                    scalar *= self.lam.coords[i] ** k
            if scalar:
                out[a] = out.get(a, Fraction(0)) + scalar
        out = _clean(out)
        self._memo[(g, s)] = out
        return out


class QuotientModule(HighestWeightModule):
    """Quotient of a Verma-like module by the span of f-translates of
    given singular vectors, one reduction per weight space."""

    def __init__(self, parent: VermaLikeModule, singular: list[Vec], kind: str):
        self.parent = parent
        self.alg = parent.alg
        self.rs = parent.rs
        self.lam = parent.lam
        self.depth = parent.depth
        self.kind = kind
        self._build_reductions(singular)
        self._memo: dict[tuple, Vec] = {}

    def _build_reductions(self, singular: list[Vec]) -> None:
        parent = self.parent
        by_drop: dict[tuple, list[Vec]] = {}
        for u in singular:
            if not u:
                continue
            ht = min(parent.label_height(s) for s in u)
            for mono in _enum_f_labels(self.alg.npos, parent.allowed,
                                       parent.heights, parent.depth - ht):
                word = self.alg.word((mono, (0,) * self.rs.rank,
                                      (0,) * self.alg.npos))
                vec = parent.apply_word(word, u)
                if vec:
                    drop = parent.label_drop(next(iter(vec)))
                    by_drop.setdefault(drop, []).append(vec)
        # per weight space: row-reduce the submodule, keep non-pivot labels
        self._reduction: dict[tuple, tuple] = {}
        self.basis = []
        for drop, labels in sorted(parent.labels_by_drop.items()):
            rows = [[vec.get(s, Fraction(0)) for s in labels]
                    for vec in by_drop.get(drop, [])]
            reduced, pivots = rref(rows) if rows else ([], [])
            self._reduction[drop] = (labels, reduced, pivots)
            self.basis.extend(labels[i] for i in range(len(labels))
                              if i not in pivots)

    def label_drop(self, s: tuple) -> tuple:
        return self.parent.label_drop(s)

    def project(self, vec: Vec) -> Vec:
        """Reduce a parent-module vector modulo the submodule."""
        by_drop: dict[tuple, Vec] = {}
        for s, c in vec.items():
            by_drop.setdefault(self.parent.label_drop(s), {})[s] = c
        out: Vec = {}
        for drop, part in by_drop.items():
            labels, reduced, pivots = self._reduction[drop]
            coords = reduce_against([part.get(s, Fraction(0)) for s in labels],
                                    reduced, pivots)
            for s, x in zip(labels, coords):
                if x:
                    out[s] = x
        return out

    def act_label(self, g, s: tuple) -> Vec:
        cached = self._memo.get((g, s))
        if cached is None:
            cached = self.project(self.parent.act_label(g, s))
            self._memo[(g, s)] = cached
        return cached


# -- oracles -----------------------------------------------------------------


def kostant_partition(rs: RootSystem, nu: tuple,
                      roots: list[tuple] | None = None) -> int:
    """Number of ways to write nu as an N0-combination of the given
    positive roots (all of them by default)."""
    roots = list(rs.positive_roots) if roots is None else list(roots)
    memo: dict[tuple, int] = {}

    def rec(pos: int, rem: tuple) -> int:
        if all(x == 0 for x in rem):
            return 1
        if pos == len(roots) or any(x < 0 for x in rem):
            return 0
        key = (pos, rem)
        if key in memo:
            return memo[key]
        root = roots[pos]
        total = 0
        cur = rem
        while all(x >= 0 for x in cur):
            total += rec(pos + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, root))
        memo[key] = total
        return total

    return rec(0, tuple(nu))


def weyl_dim(rs: RootSystem, lam: Weight,
             pos_roots: list[tuple] | None = None) -> int:
    """Finite-dimensional simple dimension by the product formula."""
    if not lam.is_dominant_integral():
        raise ValueError("weyl_dim needs a dominant integral weight")
    roots = rs.positive_roots if pos_roots is None else pos_roots
    num = Fraction(1)
    rho = rs.rho()
    for alpha in roots:
        num *= pairing(rs, lam + rho, alpha) / pairing(rs, rho, alpha)
    if num.denominator != 1:
        raise ValueError(f"Weyl product {num} is not an integer: the roots "
                         f"given are not a positive system")
    return int(num)


# -- module constructors -------------------------------------------------------


def verma(alg: EnvelopingAlgebra, lam: Weight, depth: int) -> VermaLikeModule:
    return VermaLikeModule(alg, lam, depth)


def _check_dominant_on(rs: RootSystem, lam: Weight, subset) -> None:
    for i in subset:
        v = lam.coords[i]
        if v.denominator != 1 or v < 0:
            raise ValueError(
                f"weight must be dominant integral on the subset; "
                f"coordinate {i} is {v}")


def parabolic_verma(alg: EnvelopingAlgebra, I: SimpleSubset, lam: Weight,
                    depth: int, allowed: list[int] | None = None,
                    cross_check: bool = True) -> QuotientModule:
    """Quotient of the Verma module by the singular vectors
    f_a^(lam(h_a)+1) v for a in I, with a basis-count cross-check against
    the induced construction."""
    rs = alg.rs
    _check_dominant_on(rs, lam, I)
    parent = VermaLikeModule(alg, lam, depth, allowed)
    singular: list[Vec] = []
    for i in I:
        idx = rs.root_index[rs.simple_root(i)]
        power = int(lam.coords[i]) + 1
        if power * parent.heights[idx] <= depth:
            label = tuple(power if k == idx else 0 for k in range(alg.npos))
            singular.append({label: Fraction(1)})
    module = QuotientModule(parent, singular, kind=f"parabolic({sorted(I)})")
    if cross_check:
        _induced_character_check(module, I)
    return module


def _induced_character_check(module: QuotientModule, I: SimpleSubset) -> None:
    """The quotient character must match the induced-basis count: Kostant
    partitions over the non-Levi positive roots convolved with the
    finite-dimensional Levi simple dimensions."""
    alg = module.alg
    rs = module.rs
    parent = module.parent
    levi_idx = [i for i in parent.allowed
                if all(alg.sc.base_order[i][j] == 0
                       for j in range(rs.rank) if j not in I)]
    outside_roots = [alg.sc.base_order[i] for i in parent.allowed
                     if i not in set(levi_idx)]
    levi_verma = VermaLikeModule(alg, module.lam, module.depth, levi_idx)
    levi_simple = simple_dims_table(levi_verma)
    got = module.character().as_dict()
    for drop in parent.labels_by_drop:
        expect = 0
        for nu2, dim in levi_simple.items():
            rem = tuple(a - b for a, b in zip(drop, nu2))
            if any(x < 0 for x in rem):
                continue
            expect += kostant_partition(rs, rem, outside_roots) * dim
        w = module.lam - rs.weight_of_root(drop)
        if got.get(w, 0) != expect:
            raise RuntimeError(f"induced-basis count mismatch at drop {drop}: "
                               f"{got.get(w, 0)} != {expect}")


# -- contravariant form ----------------------------------------------------------


def shapovalov_gram(module: VermaLikeModule, nu: tuple) -> list[list[Fraction]]:
    """Gram matrix of the contravariant form on the (lam - nu) weight space,
    in the sorted f-monomial basis."""
    return [list(row) for row in _gram(module, nu)]


def _gram(module: VermaLikeModule, nu: tuple) -> list[tuple]:
    """The Gram matrix from the one a root below, memoised on the module.

    Entry (s, t) is the coefficient of v in e^s f^t v.  The e-word of s
    applies e_R first, R the last index with s_R > 0, so by contravariance
    G_nu(s, t) = sum_u c_u G_{nu - alpha_R}(s', u), where
    e_R f^t v = sum_u c_u f^u v and s' is s with one fewer f_R.  Only the
    matrices within one highest-root height below nu are kept: no weight
    space at nu or above reads the ones further down.
    """
    grams = module._grams
    rows = grams.get(nu)
    if rows is not None:
        return rows
    labels = module.labels_by_drop.get(nu, [])
    position = module._position
    roots = module.alg.sc.base_order
    columns: dict[int, list[Vec]] = {}
    rows = []
    for s in labels:
        lead = max((i for i, k in enumerate(s) if k), default=None)
        if lead is None:
            rows.append((Fraction(1),))  # the highest-weight vector
            continue
        below = _gram(module, sub(nu, roots[lead]))
        row_below = below[position[s[:lead] + (s[lead] - 1,) + s[lead + 1:]]]
        if lead not in columns:
            columns[lead] = [module.act_label(("e", lead), t) for t in labels]
        rows.append(tuple(sum((c * row_below[position[u]] for u, c in col.items()),
                              Fraction(0))
                          for col in columns[lead]))
    grams[nu] = rows
    floor = sum(nu) - max(module.heights)
    for old in [d for d in grams if sum(d) < floor]:
        del grams[old]
    return rows


def simple_dims_table(module: VermaLikeModule) -> dict[tuple, int]:
    """Weight-space dimensions of the simple quotient, keyed by root drop.

    Weight spaces are taken in order of height, so each Gram matrix is
    built from ones already memoised."""
    out: dict[tuple, int] = {}
    for nu in sorted(module.labels_by_drop, key=lambda d: (sum(d), d)):
        r = rank(shapovalov_gram(module, nu))
        if r:
            out[nu] = r
    return out


def simple_dims(alg: EnvelopingAlgebra, lam: Weight, depth: int,
                allowed: list[int] | None = None) -> Character:
    """Character of the simple highest-weight module, truncated at depth."""
    module = VermaLikeModule(alg, lam, depth, allowed)
    rs = alg.rs
    return Character.of({lam - rs.weight_of_root(nu): d
                         for nu, d in simple_dims_table(module).items()})


# -- Levi-induced modules with central directions --------------------------------


class LeviInducedModule(HighestWeightModule):
    """Module over the Levi of a simple subset I, induced from the simple
    module of the interior with free polynomial directions along the dual
    Cartan basis outside I.

    Labels are triples (s, t, b): f-exponents over the positive Levi roots
    outside the interior, exponents over the dual-basis elements h^a for
    a outside I, and a basis label of the interior simple module V.  When
    the scalar vector c is given, the dual-basis directions act by the
    scalars lam(h^a) - c_a instead of freely (t stays zero), which is the
    target of the projection maps.
    """

    def __init__(self, alg: EnvelopingAlgebra, I: SimpleSubset, lam: Weight,
                 depth: int, c: dict[int, Fraction] | None = None):
        _check_depth(depth)
        rs = alg.rs
        self.alg = alg
        self.rs = rs
        self.I = I
        self.lam = lam
        self.depth = depth
        self.interior = interior(rs, I)
        _check_dominant_on(rs, lam, self.interior)
        levi_roots = positive_subsystem(rs, I)
        io_roots = positive_subsystem(rs, self.interior)
        self.levi_idx = [rs.root_index[r] for r in levi_roots]
        self.io_idx = sorted(rs.root_index[r] for r in io_roots)
        self.free_idx = sorted(set(self.levi_idx) - set(self.io_idx))
        self.outside = [j for j in range(rs.rank) if j not in I]
        self.c = None if c is None else {j: Fraction(c[j]) for j in self.outside}
        self.kind = ("levi_gvm" if c is None else "levi_gvm_scalar")

        # lam evaluated on the dual Cartan basis
        dual = dual_h_basis(rs)
        self.lam_dual = [sum((dual[k][j] * lam.coords[k] for k in range(rs.rank)),
                             Fraction(0)) for j in range(rs.rank)]

        # V: finite-dimensional simple module of the interior
        v_depth = sum(int(pairing(rs, lam, r)) for r in io_roots)
        self.V = parabolic_verma(alg, self.interior, lam, max(v_depth, 1),
                                 allowed=self.io_idx, cross_check=False)
        heights = [rs.root_height(r) for r in alg.sc.base_order]
        self.heights = heights
        n_out = len(self.outside)
        # t: every exponent vector of total degree <= depth, or only zero
        # when the dual-basis directions act by scalars
        t_labels = ([(0,) * n_out] if self.c is not None else
                    _enum_f_labels(n_out, list(range(n_out)), [1] * n_out, depth))
        self.basis = []
        for b in self.V.basis:
            b_ht = sum(k * heights[i] for i, k in enumerate(b))
            for s in _enum_f_labels(alg.npos, self.free_idx, heights,
                                    depth - b_ht):
                self.basis.extend((s, t, b) for t in t_labels)
        self._memo: dict[tuple, Vec] = {}

    def label_drop(self, label) -> tuple:
        s, _, b = label
        return add(self.alg.root_sum(s), self.V.label_drop(b))

    def _label_height(self, label) -> int:
        s, _, b = label
        return (sum(k * self.heights[i] for i, k in enumerate(s))
                + sum(k * self.heights[i] for i, k in enumerate(b)))

    def hw_label(self):
        zero_s = (0,) * self.alg.npos
        zero_t = (0,) * len(self.outside)
        b0 = (0,) * self.alg.npos
        return (zero_s, zero_t, b0)

    # generators: ('e', idx) / ('f', idx) over Levi positive roots,
    # ('h', i) for any simple index, ('hd', j) for dual-basis elements, j not in I

    def act_label(self, g, label) -> Vec:
        cached = self._memo.get((g, label))
        if cached is not None:
            return cached
        out = self._act_label(g, label)
        self._memo[(g, label)] = out
        return out

    def _act_label(self, g, label) -> Vec:
        s, t, b = label
        kind = g[0]
        lead = max((i for i in self.free_idx if s[i]), default=None)
        if lead is not None:
            if kind == "f" and g[1] in self.free_idx and g[1] >= lead:
                return self._prepend_f(g[1], label)
            # g (f_lead rest) = f_lead (g rest) + [g, f_lead] rest
            rest = (s[:lead] + (s[lead] - 1,) + s[lead + 1:], t, b)
            out: Vec = {}
            for lab, co in self.act_label(g, rest).items():
                _vec_add(out, self.act_label(("f", lead), lab), co)
            if kind in ("e", "f", "h"):
                for gb, cb in self.alg.sc.bracket(g, ("f", lead)).items():
                    _vec_add(out, self.act_label(gb, rest), Fraction(cb))
            return _clean(out)
        # no free f-part left
        if kind == "hd":
            j = g[1]
            if self.c is not None:
                return {label: self.lam_dual[j] - self.c[j]}
            pos = self.outside.index(j)
            if sum(t) + 1 > self.depth:
                return {}
            return {(s, t[:pos] + (t[pos] + 1,) + t[pos + 1:], b): Fraction(1)}
        if kind == "h":
            i = g[1]
            drop_b = self.V.label_drop(b)
            scalar = Fraction(0)
            for beta in self.I:
                coeff = self.rs.cartan[beta][i]
                if coeff:
                    scalar += coeff * (self.lam_dual[beta] - drop_b[beta])
            out = {label: scalar} if scalar else {}
            for j in self.outside:
                coeff = self.rs.cartan[j][i]
                if coeff:
                    _vec_add(out, self.act_label(("hd", j), label),
                             Fraction(coeff))
            return _clean(out)
        idx = g[1]
        if idx in self.io_idx:
            out = {}
            for b2, co in self.V.act_label(g, b).items():
                out[(s, t, b2)] = co
            return out
        if kind == "e":
            return {}  # raises out of the induced vacuum
        if idx in self.free_idx:
            return self._prepend_f(idx, label)
        raise ValueError(f"generator {g} is not in the Levi subalgebra")

    def _prepend_f(self, idx: int, label) -> Vec:
        s, t, b = label
        new = (s[:idx] + (s[idx] + 1,) + s[idx + 1:], t, b)
        if self._label_height(new) > self.depth:
            return {}
        return {new: Fraction(1)}


def levi_gvm(alg: EnvelopingAlgebra, I: SimpleSubset, lam: Weight,
             depth: int) -> LeviInducedModule:
    return LeviInducedModule(alg, I, lam, depth)


def levi_hw_check(module: QuotientModule, I: SimpleSubset,
                  s: dict[int, int]) -> bool:
    """Inside a parabolic quotient for I, the vector made by applying
    f_j^(s_j) for simple j outside I to the generator must be a Levi
    highest-weight vector: killed by e_a for a in I, with h acting by
    lam minus the applied roots."""
    rs = module.rs
    alg = module.alg
    vec: Vec = {tuple([0] * alg.npos): Fraction(1)}
    drop = [0] * rs.rank
    for j, k in s.items():
        if j in I:
            raise ValueError("exponents must be over simple roots outside I")
        idx = rs.root_index[rs.simple_root(j)]
        for _ in range(k):
            vec = module.act(("f", idx), vec)
        drop[j] += k
    if not vec:
        return False
    target = module.lam - rs.weight_of_root(tuple(drop))
    for i in I:
        idx = rs.root_index[rs.simple_root(i)]
        if module.act(("e", idx), vec):
            return False
    for i in range(rs.rank):
        got = module.act(("h", i), vec)
        want = _clean({lab: target.coords[i] * c for lab, c in vec.items()})
        if got != want:
            return False
    return True


# -- JSON exports ------------------------------------------------------------------


def character_to_json(ch: Character) -> list[dict]:
    return [{"weight": [str(c) for c in w.coords], "dim": d}
            for w, d in sorted(ch.dims, key=lambda wd: (-sum(wd[0].coords),
                                                        wd[0].coords))]


def module_to_json(module: HighestWeightModule) -> dict:
    """Basis labels plus sparse action triplets for the simple generators."""
    rs = module.rs
    index = {label: i for i, label in enumerate(module.basis)}
    actions = {}
    for kind in ("e", "f"):
        for i in range(rs.rank):
            idx = rs.root_index[rs.simple_root(i)]
            triplets = []
            for j, label in enumerate(module.basis):
                try:
                    img = module.act_label((kind, idx), label)
                except ValueError:
                    img = None
                if img is None:
                    continue
                for lab, c in img.items():
                    if lab in index:
                        triplets.append([index[lab], j, str(c)])
            actions[f"{kind}{i}"] = triplets
    return {
        "kind": module.kind,
        "highest_weight": [str(c) for c in module.lam.coords],
        "depth": module.depth,
        "basis": [repr(label) for label in module.basis],
        "actions": actions,
    }
