"""Depth-truncated highest-weight modules and their exact linear algebra.

Verma modules have basis f^s v with s running over positive-root exponent
vectors.  Generalised Verma modules U(g) (x)_{U(p_J)} L_J(lam) are induced
modules: f-monomials over the roots outside the Levi of J times a basis of
the finite-dimensional L_J(lam), the Verma module of the Levi of J modulo
the singular vectors f_a^(lam(h_a)+1) v, a in J.  Levi-induced
modules carry extra central polynomial directions along the dual Cartan
basis.  All actions are exact, so weight-space dimensions of simple
quotients come out of ranks over Q of the simple-root e maps.  At a
dominant integral weight they come from Weyl's formula in Kostant's form
instead, a signed sum of Kostant partitions over a dot orbit: one table
seeded with its shifts (``_orbit_counts``, which also checks the
parabolic modules), with no module built.

Actions are computed in the module, not through normal forms in U(g).
Every module acts by the same rules.  The Cartan generators read their
action off the label: h acts by a scalar, and on a Levi-induced module
also through the dual-basis directions h^a, which raise t or act by a
scalar.  An f whose root the label's f-part runs over is multiplied into
it by the PBW rewriting engine (``_f_product``), a product of f's that
stays in U(n-).  Any other generator g takes one commutation step past
the leading f of the label, g f_L r = f_L (g r) + [g, f_L] r
(``_commute_past_f``).  No term with an e or an h is ever formed.

Every module has a denominator ``den``, and ``int_action(g, label)``,
den times the action, is on Python ints, as is ``int_word``, the action
of a generator word; Fractions appear only at the public edges,
``act_label``, the module vectors and ``shapovalov_gram``.  A Verma
module's den is lam's common denominator, and the simple quotient's
weight spaces are ranked on its int vectors.  The quotient V = L_J(lam)
reduces its parent's int action on ints; its den also clears its echelon
pivots.  A Levi-induced module's den clears lam(h^a) in the h scalars,
the values of V and, on the scalar-action module, lam(h^a) - c_a.  The
scalar-action module (``ScalarLeviModule``) is derived
from its Levi-induced source: it shares the source's V, takes its labels
with t = 0 and keeps its source, c, the bases lam(h^a) - c_a and each t's
scalar, the projection data that ``deform`` reads.

Every module files its basis labels by weight drop once, as it enumerates
them with their drops (``labels_by_drop``), and reads a label's drop
there.  A character is built from such counts, one weight per drop, on
integer pairings.

Depth semantics: a statement "within depth d" quantifies over weights
lam - nu with the height of nu at most d.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import partial

# rank is unused here but stays bound: the benchmark's tracer self-test
# checks that a function imported into several modules is patched in each
from .linalg import rank, reduce_against, rref, span_coordinates  # noqa: F401
from .rootsys import (RootSystem, SimpleSubset, Value, Weight, _shown, add,
                      check_dominant_on, check_subset, check_weight, dot_orbit,
                      interior, positive_subsystem, shifted_pairings, sub)
from .uea import EnvelopingAlgebra, UEAElement

Vec = dict  # basis label -> Fraction


class Character(Value):
    """Weight-space dimension table of a truncated module: (weight, dim)
    pairs with dim nonzero, sorted on the weights' coordinates, so that two
    equal tables are equal Characters."""

    def __init__(self, dims: tuple):  # sorted tuple of (Weight, int) pairs
        self.__dict__["dims"] = dims

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


def _character(rs: RootSystem, lam: Weight, counts: dict[tuple, int]) -> Character:
    """The Character with counts[nu] at lam - nu.  Each weight is built
    once, from the negated integer pairings -<nu, alpha_i^v> = sum_k nu_k
    (-a_ki), one list per negated Cartan column, and the weights are sorted
    on them directly: every weight is lam plus its negated pairings, so
    this is the order of ``Character.of`` on coordinates, and no two drops
    share their pairings.  Each coordinate lam_i + x is built once per
    (i, x), so the weights share their Fractions."""
    drops = [nu for nu, n in counts.items() if n]
    pairings = [[sum(map(operator.mul, nu, col)) for nu in drops]
                for col in ([-a for a in col] for col in zip(*rs.cartan))]
    values = [{x: c + x for x in set(xs)} for c, xs in zip(lam.coords, pairings)]
    pairs = sorted(zip(zip(*pairings), map(counts.__getitem__, drops)))
    return Character(tuple((Weight(tuple(map(dict.__getitem__, values, p))), n)
                           for p, n in pairs))


def _clean(vec: Vec) -> Vec:
    return {k: v for k, v in vec.items() if v}


def _vec_add(acc: Vec, vec: Vec, scale: Fraction | int) -> None:
    if not scale:
        return
    for k, v in vec.items():
        acc[k] = acc.get(k, 0) + scale * v


def _int_vector(vec: Vec) -> tuple[dict, int]:
    """vec over one common denominator: ({label: int}, den)."""
    den = math.lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items()}, den


def _scaled(x: Fraction | int, den: int, d: int = 1) -> int:
    """den times x / d as an int; RuntimeError when den does not clear
    x / d, so a value is never truncated."""
    q, r = divmod(x.numerator * den, x.denominator * d)
    if r:
        raise RuntimeError(f"the module denominator {den} does not clear {Fraction(x, d)}")
    return q


def _commute_past_f(act, f_lead, bracket: dict, g, rest) -> dict:
    """g f_L r = f_L (g r) + [g, f_L] r, with act(g, label) the module
    action, f_lead(label) that of f_L and bracket = [g, f_L]."""
    out = {}
    for u, x in act(g, rest).items():
        for a, c in f_lead(u).items():
            out[a] = out.get(a, 0) + c * x
    for gb, cb in bracket.items():
        for a, x in act(gb, rest).items():
            out[a] = out.get(a, 0) + cb * x
    return _clean(out)


class HighestWeightModule:
    """Shared plumbing: generator words act label by label, on ints."""

    alg: EnvelopingAlgebra
    rs: RootSystem
    lam: Weight
    depth: int
    den: int  # clears every value of the action
    basis: list
    labels_by_drop: dict  # drop -> the basis labels of weight lam - drop

    def int_word(self, word: list, vec: dict) -> dict:
        """den ** len(word) times the action of a generator word (leftmost
        factor acts last) on an int vector through ``int_action``, zeros left in."""
        for g in reversed(word):
            out: dict = {}
            for label, x in vec.items():
                if x:
                    for a, y in self.int_action(g, label).items():
                        out[a] = out.get(a, 0) + x * y
            vec = out
        return vec

    def act(self, g, vec: Vec) -> Vec:
        return self.apply_word([g], vec)

    def apply_word(self, word: list, vec: Vec) -> Vec:
        """Apply a product of generators (leftmost factor acts last): the
        Fraction view of ``int_word``."""
        ints, den = _int_vector(vec)
        den *= self.den ** len(word)
        return {k: Fraction(x, den) for k, x in self.int_word(word, ints).items() if x}

    def apply_element(self, x: UEAElement, vec: Vec) -> Vec:
        out: Vec = {}
        for mono, coeff in x.terms.items():
            _vec_add(out, self.apply_word(self.alg.word(mono), vec), coeff)
        return _clean(out)

    def _file_by_drop(self, labelled) -> None:
        """The basis, in order, from (label, drop) pairs, its one table of
        labels by drop and each label's drop, in one pass."""
        self.basis, self.labels_by_drop, self._drop_of = [], {}, {}
        for label, drop in labelled:
            self.basis.append(label)
            self.labels_by_drop.setdefault(drop, []).append(label)
            self._drop_of[label] = drop

    def label_drop(self, label) -> tuple:
        return self._drop_of[label]

    def drop_counts(self) -> dict[tuple, int]:
        """The number of basis labels at each drop, read off the table."""
        return {nu: len(labels) for nu, labels in self.labels_by_drop.items()}

    def character(self) -> Character:
        return _character(self.rs, self.lam, self.drop_counts())


# -- PBW labels ------------------------------------------------------------------
# A label s is the exponent tuple of f^s, indexed like rs.positive_roots.


def label_height(rs: RootSystem, s: tuple) -> int:
    """Height of the weight drop of f^s: each s_i times the height of the
    i-th positive root."""
    return sum(map(operator.mul, s, rs.heights))


def _bump(s: tuple, i: int, k: int) -> tuple:
    """s with k added to its i-th exponent."""
    return s[:i] + (s[i] + k,) + s[i + 1:]


def _split_lead(s: tuple) -> tuple[int | None, tuple]:
    """(L, s less one f_L), with f^s = f_L f^(s less one f_L) and L the last
    index where s is nonzero; (None, s) for the empty label."""
    for i in range(len(s) - 1, -1, -1):
        if s[i]:
            return i, _bump(s, i, -1)
    return None, s


def _f_product(alg: EnvelopingAlgebra, budget: int, i: int,
               s: tuple) -> dict[tuple, int]:
    """f_i f^s as {label: int}, the normal form from the rewriting engine,
    or {} when its height passes budget.  Its coefficients depend on no
    weight, and all its terms have the height of s plus that of root i."""
    rs = alg.rs
    if label_height(rs, s) + rs.heights[i] > budget:
        return {}
    _, zero_h, zero_e = alg.mono_one()
    out = {}
    for (a, b, c), coeff in alg.gen_mul_mono(("f", i), (s, zero_h, zero_e)).items():
        if b != zero_h or c != zero_e:
            raise RuntimeError(f"normal form of f_{i} f^{s} has the term "
                               f"{(a, b, c)} outside U(n-)")
        out[a] = coeff
    return out


def _enum_f_labels(roots: list[tuple], idxs: list[int],
                   budget: int) -> list[tuple[tuple, int, tuple]]:
    """Each exponent tuple s over roots, supported on idxs, with height
    sum_i s_i ht(roots[i]) <= budget, as (s, height, drop = sum_i s_i
    roots[i]), carried as the exponents are set; in lexicographic order of
    the exponents along idxs.  Over unit vectors s is its own drop."""
    labels = [((0,) * len(roots), budget, (0,) * len(roots[0]) if roots else ())]
    for i in idxs:
        root, h = roots[i], sum(roots[i])
        out = []
        for label in labels:
            s, rem, drop = label
            if rem >= 0:  # k = 0; only a negative budget fails this
                out.append(label)
            head, tail, k = s[:i], s[i + 1:], 0
            while rem >= h:
                k, rem, drop = k + 1, rem - h, tuple(map(operator.add, drop, root))
                out.append((head + (k,) + tail, rem, drop))
        labels = out
    return [(s, budget - rem, drop) for s, rem, drop in labels]


# Largest Verma basis a module may be built to: `_check_depth` refuses a
# deeper truncation in every module constructor, and the CLI checks --depth
# against it before other work.  A parabolic module is no larger than the
# Verma module of its depth d, since each of its labels (s, b) is a Verma
# label.  A Levi-induced one with I a proper subset can be larger, since its
# t-labels spend no height: it has at most N_I(d) C(d + |outside|, |outside|)
# labels, N_I(d) the count for the Levi of I, which is at most 15,774 over
# the 13 types within the budget (A4 or D4, I = {1, 2, 3}, depth 10).  Near
# this size, end to end on a 2-vCPU x86 host, a Verma character takes about
# 0.09 s, a parabolic one about 0.08 s with I a proper subset (G2, I = {0},
# depth 22: 8,616 Verma labels) and about 0.63 s with I every simple root
# (G2 (5,5), same depth: L_I(lam) is then a quotient of the whole Verma
# module), and `verify --suite verma` about 0.11 s (A2, depth 46: 9,500 labels).
MAX_BASIS_LABELS = 10_000


def _verma_labels(rs: RootSystem, depth: int, stop: int) -> int:
    """The number of Verma basis labels (f-exponent vectors over the positive
    roots) of height at most depth, counted height by height; the count ends
    at the first height where it passes stop."""
    # rows[j][d]: labels of height d over the first j + 1 roots
    rows: list[list[int]] = [[] for _ in rs.heights]
    total = 0
    for d in range(depth + 1):
        count = int(d == 0)
        for h, row in zip(rs.heights, rows):
            if d >= h:
                count += row[d - h]
            row.append(count)
        total += count
        if total > stop:
            break
    return total


def _check_basis_budget(rs: RootSystem, depth: int) -> None:
    """Refuse, before any module is built, a depth to which the Verma basis
    has more than MAX_BASIS_LABELS labels."""
    size = _verma_labels(rs, depth, MAX_BASIS_LABELS)
    if size > MAX_BASIS_LABELS:
        raise ValueError(f"the Verma module to depth {_shown(depth)} has at "
                         f"least {size} basis labels, over the budget of "
                         f"{MAX_BASIS_LABELS}")


def _check_depth(rs: RootSystem, depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _check_basis_budget(rs, depth)


class VermaLikeModule(HighestWeightModule):
    """Verma module of the Levi subalgebra of a simple subset J.

    With J None (or every simple root) this is the ordinary Verma module;
    a smaller J gives the Verma module of its Levi subalgebra, computed with
    the ambient structure constants so sign conventions agree across nested
    constructions.  ``allowed`` holds the indices of its positive roots.
    """

    def __init__(self, alg: EnvelopingAlgebra, lam: Weight, depth: int,
                 J: SimpleSubset | None = None):
        _check_depth(alg.rs, depth)
        check_weight(alg.rs, lam)
        self.alg = alg
        self.rs = alg.rs
        self.lam = lam
        self.depth = depth
        # lam = lam_num / den over one common denominator
        self.lam_num, self.den = _int_vector(dict(enumerate(lam.coords)))
        self.allowed = (list(range(alg.npos)) if J is None else
                        sorted(self.rs.root_index[r]
                               for r in positive_subsystem(self.rs, J)))
        self._allowed_set = set(self.allowed)
        # lexicographic, so each weight space's labels come sorted
        self._file_by_drop((s, drop) for s, _, drop in _enum_f_labels(
            self.rs.positive_roots, self.allowed, depth))
        self.kind = "verma"
        self._memo: dict[tuple, dict[tuple, int]] = {}  # (R, s) -> e_R f^s v

    def act_label(self, g, s: tuple) -> Vec:
        return {a: Fraction(x, self.den) for a, x in self.int_action(g, s).items()}

    def int_action(self, g, s: tuple) -> dict[tuple, int]:
        """den times the action of g on f^s v, as ints; e actions are
        memoised.

        Computed in the module, not in U(g): h_i acts on f^s v by the
        scalar lam_i - <drop(s), alpha_i^v>; f_R by the normal form of
        f_R f^s, which lies in U(n-); and e_R by recursion on f^s = f_L f^r,
        L the leading index:
        e_R f^s v = f_L (e_R f^r v) + [e_R, f_L] f^r v.
        No term with an e or an h is ever formed.  A label outside the
        basis is refused; an e memo hit is a basis label already."""
        kind, i = g
        if kind == "e":
            cached = self._memo.get((i, s))
            if cached is not None:
                return cached
        drop = self._drop_of.get(s)
        if drop is None:
            raise ValueError(f"{s} is not a basis label: labels are exponent "
                             f"vectors over the allowed roots {self.allowed} "
                             f"of height at most {self.depth}")
        if kind == "h":  # a scalar: cheaper to recompute than to memoise
            if not 0 <= i < self.rs.rank:
                raise ValueError(f"{g} is not a generator: the Cartan index "
                                 f"must be in 0..{self.rs.rank - 1}")
            x = self.lam_num[i] - self.den * sum(
                d * row[i] for d, row in zip(drop, self.rs.cartan) if d)
            return {s: x} if x else {}
        if kind not in ("e", "f"):
            raise ValueError(f"{g} is not a generator: its kind must be "
                             f"'e', 'f' or 'h'")
        if i not in self._allowed_set:
            raise ValueError(f"{g} is outside the allowed roots {self.allowed}")
        if kind == "f":  # the rewriting engine memoises f f^s
            return {a: self.den * c
                    for a, c in _f_product(self.alg, self.depth, i, s).items()}
        lead, rest = _split_lead(s)
        out = {} if lead is None else _commute_past_f(  # e kills v
            self.int_action, partial(_f_product, self.alg, self.depth, lead),
            self.alg.sc.bracket(g, ("f", lead)), g, rest)
        self._memo[(i, s)] = out
        return out


class QuotientModule(HighestWeightModule):
    """A Verma-like module modulo the singular vectors f_a^(lam(h_a)+1) v,
    a in a simple subset J on which lam is dominant integral, one reduction
    per weight space.  Over the Levi of J this is the finite-dimensional
    L_J(lam) inside every induced module: those vectors generate the
    maximal submodule (Humphreys, BGG Category O, 2008).  Its ``den`` is the
    parent's times the lcm, over its weight spaces, of the product of that
    echelon's pivots, which ``reduce_against`` scales a remainder by."""

    def __init__(self, parent: VermaLikeModule, J: SimpleSubset):
        if not isinstance(parent, VermaLikeModule):
            raise ValueError(f"the parent must be a VermaLikeModule, not a "
                             f"{type(parent).__name__}")
        check_subset(parent.rs, J)
        check_dominant_on(parent.lam, J)
        self.parent = parent
        self.alg = parent.alg
        self.rs = parent.rs
        self.lam = parent.lam
        self.depth = parent.depth
        self._drop_of = parent._drop_of  # its labels are the parent's
        self._build_reductions(J)
        self.den = parent.den * math.lcm(*(p for *_, p in self._reduction.values()))
        self._memo: dict[tuple, dict[tuple, int]] = {}  # (g, s) -> int action

    def _build_reductions(self, J: SimpleSubset) -> None:
        parent, rs = self.parent, self.rs
        by_drop: dict[tuple, list[Vec]] = {}
        for a in J:
            idx = rs.root_index[rs.simple_root(a)]
            if idx not in parent._allowed_set:
                raise ValueError(f"simple root {a} of J = {sorted(J)} is outside "
                                 f"the allowed roots {parent.allowed}")
            power = int(self.lam.coords[a]) + 1
            # f^m u = f_L (f^m' u), L the leading index of m and m' = m less
            # one f_L; the enumeration is lexicographic, so m' comes first.
            # A singular vector past the depth has no translates.
            translates: dict[tuple, Vec] = {}
            for mono, _, _ in _enum_f_labels(rs.positive_roots, parent.allowed,
                                             parent.depth - power * rs.heights[idx]):
                lead, rest = _split_lead(mono)
                if lead is None:
                    vec = {_bump(mono, idx, power): 1}
                else:  # on ints: the f action does not depend on lam
                    vec = {}
                    for u, x in translates[rest].items():
                        _vec_add(vec, _f_product(self.alg, parent.depth, lead, u), x)
                translates[mono] = vec = _clean(vec)
                if vec:
                    drop = parent.label_drop(next(iter(vec)))
                    by_drop.setdefault(drop, []).append(vec)
        # per weight space: the submodule's echelon, with its pivots' product;
        # keep non-pivot labels
        self._reduction: dict[tuple, tuple] = {}
        self.basis, self.labels_by_drop = [], {}
        for drop, labels in sorted(parent.labels_by_drop.items()):
            rows = [[vec.get(s, 0) for s in labels] for vec in by_drop.get(drop, [])]
            echelon, pivots = rref(rows)
            self._reduction[drop] = (labels, echelon, pivots, math.prod(
                row[c] for row, c in zip(echelon, pivots)))
            kept = [s for i, s in enumerate(labels) if i not in pivots]
            if kept:
                self.labels_by_drop[drop] = kept
                self.basis.extend(kept)

    def act_label(self, g, s: tuple) -> Vec:
        return {a: Fraction(x, self.den) for a, x in self.int_action(g, s).items()}

    def int_action(self, g, s: tuple) -> dict[tuple, int]:
        """den times the action of g on the class of f^s v, as ints, memoised:
        the parent's int action, in one weight space, reduced modulo the
        submodule and brought to den by exact division."""
        cached = self._memo.get((g, s))
        if cached is None:
            vec, cached = self.parent.int_action(g, s), {}
            if vec:
                labels, echelon, pivots, p = self._reduction[
                    self.parent.label_drop(next(iter(vec)))]
                reduced = reduce_against([vec.get(u, 0) for u in labels], echelon, pivots)
                cached = {u: _scaled(x, self.den, p * self.parent.den)
                          for u, x in zip(labels, reduced) if x}
            self._memo[(g, s)] = cached
        return cached


# -- oracles -----------------------------------------------------------------


def _kostant_table(rs: RootSystem, drops: list[tuple],
                   seeds: dict[tuple, int] | None = None) -> dict[tuple, int]:
    """Kostant's partition function P(nu), the number of ways to write nu
    as an N0-combination of positive roots, at every nu in drops: a set
    closed under subtracting a positive root while no coordinate goes
    negative, listed so that nu - beta comes before nu, as lexicographic
    order does.  One pass per positive root beta, P[nu] += P[nu - beta] in
    that order, so P[nu - beta] has already counted beta any number of
    times.  The recursion is linear, so seeds {shift: sign} (default
    {0: 1}), each shift a drop, give sum sign P(nu - shift) at every nu.
    A drop's key is one int, its digits in base (largest drop coordinate)
    + (largest coefficient of a positive root) + 1, so the digits of
    nu - beta fit a window narrower than the base, and nu - beta has a
    drop's key only when it is that drop: no tuple is formed per step."""
    base = max(map(max, drops)) + max(map(max, rs.positive_roots)) + 1
    powers = [base ** j for j in range(rs.rank)]
    index = {nu: sum(map(operator.mul, nu, powers)) for nu in drops}
    table = dict.fromkeys(index.values(), 0)
    for shift, sign in ({(0,) * rs.rank: 1} if seeds is None else seeds).items():
        if shift not in index:  # the tuple, so a negative digit cannot alias
            raise ValueError(f"seed shift {tuple(shift)} is not one of the "
                             f"table's drops")
        table[index[shift]] = sign
    for beta in rs.positive_roots:
        step = sum(map(operator.mul, beta, powers))
        for k in index.values():
            below = table.get(k - step)
            if below:
                table[k] += below
    return dict(zip(index, table.values()))


def kostant_partition(rs: RootSystem, nu: tuple) -> int:
    """Number of ways to write nu as an N0-combination of positive roots:
    0 for nu with a negative coordinate, else read from the Kostant table
    filled over the box of drops below nu, which is refused past
    MAX_BASIS_LABELS entries."""
    if len(nu) != rs.rank:
        raise ValueError(f"nu {tuple(nu)} needs {rs.rank} coordinates "
                         f"(rank {rs.rank}), got {len(nu)}")
    if min(nu) < 0:
        return 0
    size = math.prod(n + 1 for n in nu)  # the box's entries
    if size > MAX_BASIS_LABELS:
        raise ValueError(f"nu {tuple(nu)} has {size} remainders below it, "
                         f"over the budget of {MAX_BASIS_LABELS}")
    box = list(itertools.product(*(range(n + 1) for n in nu)))  # lexicographic
    return _kostant_table(rs, box)[tuple(nu)]


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Finite-dimensional simple dimension by the product formula."""
    shifted = shifted_pairings(rs, lam)
    if not lam.is_dominant_integral():
        raise ValueError("weyl_dim needs a dominant integral weight")
    rho = shifted_pairings(rs, Weight.of(*[0] * rs.rank))  # <rho, alpha^v>
    num = math.prod(q / rho[alpha] for alpha, q in shifted.items())
    if num.denominator != 1:
        raise RuntimeError(f"Weyl product {num} at {lam} is not an integer")
    return int(num)


# -- closed-form checks ----------------------------------------------------------


def reflection_formula_check(alg: EnvelopingAlgebra, lam: Weight, i: int,
                             s: int) -> bool:
    """The divided-power reflection identity in the Verma module M(lam):
    for the simple root alpha_i, with a = lam(h_i) and f^[s] = f^s / s!,

        e_i . f_i^[s] v = (a + 1 - s) f_i^[s-1] v,

    engine value against closed form, exactly.  Applied at k = 1..s it gives
    e_i^s . f_i^[s] v = a(a - 1)...(a + 1 - s) v, nonzero unless a is a
    nonnegative integer: the sl2 step of the irreducibility criteria."""
    if s < 0:
        raise ValueError("the divided-power exponent must be nonnegative")
    module = VermaLikeModule(alg, lam, max(s, 1))
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


def _drops_within(rank: int, depth: int) -> list[tuple]:
    """Every root drop nu of height at most depth, in lexicographic order:
    the weights lam - nu a statement "within depth" quantifies over.  Each
    drop carries the height it has left as its coordinates are set."""
    drops = [((), depth)]
    for _ in range(rank):
        drops = [(nu + (k,), room - k) for nu, room in drops for k in range(room + 1)]
    return [nu for nu, _ in drops]


def _orbit_counts(rs: RootSystem, lam: Weight, subset: SimpleSubset,
                  depth: int) -> dict[tuple, int]:
    """{drop: count} within the depth of the signed Kostant sum over the dot
    orbit of lam under the subset, on which lam is dominant integral:
    sum_{w in W_subset} (-1)^l(w) ch M(w.lam), which is ch M_subset(lam),
    and ch L(lam) when the subset is every simple root (Weyl's formula in
    Kostant's form).  One Kostant table over the drops within the depth,
    seeded with each orbit shift lam - w.lam and its sign, gives every
    count in one pass per positive root.  Only the shifts of height at
    most the depth are seeded: every shift is a drop with nonnegative
    integer coordinates, so P(nu - shift) is 0 unless shift <= nu; the
    orbit walk itself stops at the depth."""
    seeds = dot_orbit(rs, lam, subset, depth)
    table = _kostant_table(rs, _drops_within(rs.rank, depth), seeds)
    return {nu: n for nu, n in table.items() if n}


def _induced_character_check(module: LeviInducedModule) -> None:
    """The drop table must count, at every drop within the depth, the
    signed Kostant sum over the dot orbit of lam under the inner subset J:
    ch M_J(lam) = sum_{w in W_J} (-1)^l(w) ch M(w.lam).
    This checks the quotient V and the free f-part without building a
    module."""
    counts = module.drop_counts()
    expect = _orbit_counts(module.rs, module.lam, module.inner, module.depth)
    if counts != expect:
        drop = min(d for d in counts.keys() | expect.keys()
                   if counts.get(d, 0) != expect.get(d, 0))
        raise RuntimeError(f"induced-basis count mismatch at drop {drop}: "
                           f"{counts.get(drop, 0)} != {expect.get(drop, 0)}")


# -- contravariant form and simple quotients -----------------------------------


def shapovalov_gram(module: VermaLikeModule, nu: tuple) -> list[list[Fraction]]:
    """Gram matrix of the contravariant form on the (lam - nu) weight space,
    in the sorted f-monomial basis: entry (s, t) is the coefficient of v in
    e^s f^t v, the e-word of s applied factor by factor."""
    labels = module.labels_by_drop.get(nu, [])
    zero, zero_h = (0,) * module.alg.npos, (0,) * module.rs.rank
    return [[module.apply_word(module.alg.word((zero, zero_h, s)),
                               {t: Fraction(1)}).get(zero, Fraction(0))
             for t in labels] for s in labels]


def simple_dims_table(module: VermaLikeModule) -> dict[tuple, int]:
    """Weight-space dimensions of the simple quotient L, keyed by root drop.

    At nu != 0 a vector of M_nu lies in the radical exactly when every
    simple e_i sends it into the radical, so dim L_nu is the rank of
    M_nu -> (+)_i L_{nu - alpha_i}.  Weight spaces are taken in order of
    height.  Where the map has full rank, L_nu = M_nu (as at every nu off
    the Shapovalov walls) and each label's image in L_nu is its unit
    vector; elsewhere it is its row of that map read on the pivot columns,
    a sparse int vector.  The rank reads each L_{nu - alpha_i} in its own
    coordinates, so the two kinds mix freely.  Only the levels one height
    below are kept.  On a Levi Verma module only J's simple roots lead to
    a drop below."""
    rs = module.rs
    simple = [(r, rs.root_index[r]) for r in map(rs.simple_root, range(rs.rank))]
    out: dict[tuple, int] = {}
    below: dict[tuple, dict] = {}  # drop -> label -> image, one height down
    level: dict[tuple, dict] = {}
    height = 0
    for nu in sorted(module.labels_by_drop, key=lambda d: (sum(d), d)):
        labels = module.labels_by_drop[nu]
        if not any(nu):  # v spans L_0
            out[nu], level[nu] = 1, {labels[0]: {0: 1}}
            continue
        if sum(nu) > height:
            below, level, height = level, {}, sum(nu)
        blocks, width = [], 0
        for root, idx in simple:
            images = below.get(drop := sub(nu, root))
            if images:
                blocks.append((idx, images, width))
                width += out[drop]
        rows = []
        for s in labels:
            row = [0] * width
            for idx, images, offset in blocks:
                for u, x in module.int_action(("e", idx), s).items():
                    for k, y in images[u].items():
                        row[offset + k] += x * y
            rows.append(row)
        pivots = rref(rows)[1]
        if pivots:
            out[nu] = len(pivots)
            if len(pivots) == len(labels):  # L_nu = M_nu: identity coordinates
                level[nu] = {s: {k: 1} for k, s in enumerate(labels)}
            else:
                level[nu] = {s: {k: row[c] for k, c in enumerate(pivots) if row[c]}
                             for s, row in zip(labels, rows)}
    return out


def simple_dims(alg: EnvelopingAlgebra, lam: Weight, depth: int) -> Character:
    """Character of the simple highest-weight module, truncated at depth.
    At dominant integral lam it is Weyl's, the signed Kostant sum over the
    dot orbit of lam under the whole Weyl group, and no module is built;
    at every other lam it is ``simple_dims_table`` of the Verma module."""
    rs = alg.rs
    _check_depth(rs, depth)
    check_weight(rs, lam)
    if lam.is_dominant_integral():
        counts = _orbit_counts(rs, lam, SimpleSubset.of(*range(rs.rank)), depth)
    else:
        counts = simple_dims_table(VermaLikeModule(alg, lam, depth))
    return _character(rs, lam, counts)


# -- generalised Verma modules as induced modules --------------------------------


class LeviInducedModule(HighestWeightModule):
    """Module over the Levi of a simple subset I, induced from the simple
    module V of an inner subset J, by default the interior of I, with free
    polynomial directions along the dual Cartan basis outside I.  With I
    all simple roots there are no such directions, and the module is the
    generalised Verma module U(g) (x)_{U(p_J)} L_J(lam).

    Labels are triples (s, t, b): f-exponents over the positive Levi roots
    outside the Levi of J, exponents over the dual-basis elements h^a for
    a outside I, and a basis label of V.  ``ScalarLeviModule`` is the same
    module with the dual-basis directions acting by scalars.
    """

    def __init__(self, alg: EnvelopingAlgebra, I: SimpleSubset, lam: Weight,
                 depth: int, inner: SimpleSubset | None = None):
        rs = alg.rs
        _check_depth(rs, depth)
        check_weight(rs, lam)
        check_subset(rs, I)
        self.alg = alg
        self.rs = rs
        self.I = I
        self.lam = lam
        self.depth = depth
        self.inner = interior(rs, I) if inner is None else inner
        io_roots = positive_subsystem(rs, self.inner)  # checks the indices
        if any(j not in I for j in self.inner):
            raise ValueError(f"inner subset {sorted(self.inner)} is not "
                             f"inside I = {sorted(I)}")
        levi_roots = positive_subsystem(rs, I)
        self.levi_idx = [rs.root_index[r] for r in levi_roots]
        self.outside = [j for j in range(rs.rank) if j not in I]
        self._generators = frozenset(
            [(kind, i) for kind in ("e", "f") for i in self.levi_idx]
            + [("h", i) for i in range(rs.rank)] + [("hd", j) for j in self.outside])
        self.kind = "levi_gvm"

        # lam(h^a), h^a dual to the simple roots: lam's coordinate on alpha_a,
        # solved against the Cartan rows (the alpha_a on the simple coroots)
        self.lam_dual = span_coordinates(rs.cartan, [lam.coords])[0]

        # V: the finite-dimensional simple module of J, whose lowest weight
        # lies sum_beta <lam, beta^v> below lam; cut at the depth, so that
        # no action leaves the basis.  V refuses lam not dominant integral on J.
        # <rho, beta^v> is the height of the coroot beta^v.
        shifted = shifted_pairings(rs, lam)
        v_depth = sum(int(shifted[r] - sum(rs.coroot_coefficients(r)))
                      for r in io_roots)
        self.V = QuotientModule(
            VermaLikeModule(alg, lam, max(min(v_depth, depth), 1), self.inner),
            self.inner)
        self.io_idx = self.V.parent.allowed
        self.free_idx = sorted(set(self.levi_idx) - set(self.io_idx))
        # one denominator clears every value of the action: lam_dual's and V's
        self.den = math.lcm(*(x.denominator for x in self.lam_dual), self.V.den)
        self.dual_num = [_scaled(x, self.den) for x in self.lam_dual]
        # t: every exponent vector of total degree <= depth
        self.t_labels = t_labels = _drops_within(len(self.outside), depth)
        # the free f-parts once, at the full depth and in lexicographic
        # order, each with its height and drop; a V label b keeps those
        # within depth - height(b), its drop's sum, still in that order,
        # and each (s, b) files its labels under one drop, in one pass
        free = _enum_f_labels(rs.positive_roots, self.free_idx, depth)
        self.basis, self.labels_by_drop, self._drop_of = basis, by_drop, drop_of = [], {}, {}
        for b in self.V.basis:
            v_drop = self.V._drop_of[b]
            room = depth - sum(v_drop)
            for s, height, s_drop in free:
                if height <= room:
                    drop = add(s_drop, v_drop)
                    filed = by_drop.setdefault(drop, [])
                    for t in t_labels:
                        label = (s, t, b)
                        basis.append(label)
                        filed.append(label)
                        drop_of[label] = drop
        self._memo: dict[tuple, dict[tuple, int]] = {}  # (g, label at t = 0)

    def hw_label(self):
        zero_s = (0,) * self.alg.npos
        zero_t = (0,) * len(self.outside)
        b0 = (0,) * self.alg.npos
        return (zero_s, zero_t, b0)

    # generators: ('e', idx) and ('f', idx) for a positive root of the Levi
    # of I, ('h', i) for a simple index, ('hd', j) for the dual-basis
    # element h^j, j outside I

    def act_label(self, g, label) -> Vec:
        return {a: Fraction(x, self.den) for a, x in self.int_action(g, label).items()}

    def int_action(self, g, label) -> dict[tuple, int]:
        """den times the action of g on the label, as ints.  The h^a are central
        in the Levi of I, so g acts on (s, t, b) as on (s, 0, b) with t
        added to each term, less the terms past the depth; the action at
        t = 0 is memoised."""
        s, t, b = label
        base = (s, (0,) * len(t), b) if any(t) else label
        cached = self._memo.get((g, base))
        if cached is None:
            self._check_generator(g)
            cached = self._memo[(g, base)] = self._int_action(g, base)
        if base is label:
            return cached
        room = self.depth - sum(t)
        return {(a, add(t, u), b2): x for (a, u, b2), x in cached.items()
                if sum(u) <= room}

    def _check_generator(self, g) -> None:
        if g not in self._generators:
            raise ValueError(
                f"{g} is not a generator: e and f take the index of a positive "
                f"root of the Levi subalgebra, in {self.levi_idx}, h a simple "
                f"index in 0..{self.rs.rank - 1} and hd one outside I, "
                f"in {self.outside}")

    def _int_action(self, g, label) -> dict[tuple, int]:
        """On a label with t = 0: hd and h read the label, a free f
        multiplies into s in U(n-), and an e or an inner f commutes past
        the leading free f of s."""
        s, t, b = label
        kind, i = g
        den = self.den
        if kind == "hd":  # [h^i, f_R] = 0 for every root R of the Levi of I
            return {(s, _bump(t, self.outside.index(i), 1), b): den}
        if kind == "h":  # h_i = sum_k a_ki h^k
            drop = self._drop_of[label]
            cartan = self.rs.cartan
            scalar = sum(cartan[k][i] * (self.dual_num[k] - den * drop[k]) for k in self.I)
            out = {label: scalar} if scalar else {}
            for j in self.outside:
                _vec_add(out, self.int_action(("hd", j), label), cartan[j][i])
            return _clean(out)
        if kind == "f" and i in self.free_idx:  # stays among the free roots
            return {a: den * x for a, x in self._free_f(i, label).items()}
        lead, rest = _split_lead(s)
        if lead is not None:
            return _commute_past_f(self.int_action, partial(self._free_f, lead),
                                   self.alg.sc.bracket(g, ("f", lead)), g, (rest, t, b))
        if i in self.io_idx:
            k = den // self.V.den
            return {(s, t, b2): k * x for b2, x in self.V.int_action(g, b).items()}
        return {}  # e of a free root kills the induced vacuum

    def _free_f(self, i: int, label) -> dict[tuple, int]:
        """f_i on (s, t, b) for a free root i, unscaled: the normal form of
        f_i f^s, cut where its height passes the depth less b's."""
        s, t, b = label
        budget = self.depth - sum(self.V._drop_of[b])
        return {(a, t, b): x for a, x in _f_product(self.alg, budget, i, s).items()}


class ScalarLeviModule(LeviInducedModule):
    """The scalar-action variant of a Levi-induced source, the target of
    the projection maps: each dual-basis direction h^a acts by the scalar
    lam(h^a) - c_a instead of freely, so t stays zero.  It shares the
    source's V, lam_dual and index lists, and its basis is the source's
    labels with t = 0, in source order, filed under the source's drops.
    It keeps ``source``, ``c`` and ``bases``, the scalars lam(h^a) - c_a
    over ``outside`` in order, and ``t_scalars``, prod_a base_a^t_a for
    each t of the source, as ints over ``t_den``: the projection data
    ``deform`` reads.  Its denominator also clears the bases."""

    def __init__(self, source: LeviInducedModule, c: dict):
        if isinstance(source, ScalarLeviModule):
            raise ValueError("source already has scalar dual-Cartan action")
        if set(c) != set(source.outside):
            raise ValueError("c must be indexed by the simple roots outside I")
        for name in ("alg", "rs", "I", "lam", "depth", "inner", "levi_idx",
                     "outside", "_generators", "lam_dual", "V", "io_idx", "free_idx"):
            setattr(self, name, getattr(source, name))
        self.source = source
        self.c = {j: Fraction(c[j]) for j in self.outside}
        self.bases = [self.lam_dual[j] - self.c[j] for j in self.outside]
        base_den = math.lcm(*(x.denominator for x in self.bases))
        self.den = math.lcm(source.den, base_den)
        self.dual_num = [_scaled(x, self.den) for x in self.lam_dual]
        nums = [_scaled(x, base_den) for x in self.bases]
        self.t_den = base_den ** self.depth
        self.t_scalars = {t: math.prod(n ** k for n, k in zip(nums, t))
                          * base_den ** (self.depth - sum(t)) for t in source.t_labels}
        self.kind = "levi_gvm_scalar"
        self._file_by_drop((x, source.label_drop(x)) for x in source.basis
                           if not any(x[1]))
        self._memo: dict[tuple, dict[tuple, int]] = {}

    def _int_action(self, g, label) -> dict[tuple, int]:
        kind, i = g
        if kind != "hd":
            return super()._int_action(g, label)
        x = _scaled(self.bases[self.outside.index(i)], self.den)
        return {label: x} if x else {}


def levi_gvm(alg: EnvelopingAlgebra, I: SimpleSubset, lam: Weight,
             depth: int) -> LeviInducedModule:
    return LeviInducedModule(alg, I, lam, depth)


def parabolic_verma(alg: EnvelopingAlgebra, J: SimpleSubset, lam: Weight,
                    depth: int) -> LeviInducedModule:
    """The generalised Verma module U(g) (x)_{U(p_J)} L_J(lam): the induced
    module over all simple roots with inner subset J, checked against
    Kostant partitions over the dot orbit of lam under W_J."""
    all_simple = SimpleSubset.of(*range(alg.rs.rank))
    module = LeviInducedModule(alg, all_simple, lam, depth, inner=J)
    module.kind = f"parabolic({sorted(J)})"
    _induced_character_check(module)
    return module


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
