"""Root systems, weights, the Weyl dot action and the good-prime test.

Roots are integer coefficient vectors over the simple roots.  Weights live in
fundamental-weight coordinates: ``coords[i]`` is the value of the weight on
the simple coroot ``h_i``.  All arithmetic is exact, no floats: root data are
ints, weights are Fractions.

``RootSystem`` computes each root's integer data once, in the root closure:
its simple-coroot pairings (those of beta + alpha_i are beta's plus row i of
the Cartan matrix), its norm (alpha, alpha) and, when first asked for, its
coroot.  ``simple_coroot_pairings``, ``norm``, ``coroot_coefficients``,
``weight_of_root`` and ``shifted_pairings`` read these tables for roots;
the general formulas stay for other vectors, such as the zero vector or a
dot-orbit drop.  ``inner`` and ``root_pairing`` stay a separate
``Fraction`` path over the symmetrised Cartan matrix.

Each root also has one packed integer key, ``RootSystem.key``: sum_i r_i B^i,
linear in the root and one to one on sums of up to three roots, so a root
sum, difference or string step is one int add and one lookup.  The root
closure and the Chevalley layer run on keys; tuples stay the public type.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

# rank is unused here but stays bound: the benchmark's tracer self-test
# checks that a function imported into several modules is patched in each
from .linalg import hermite_form, in_lattice, rank  # noqa: F401

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

# the base B of the root keys.  Every coordinate of a root of a supported type
# is at most 4 in absolute value (F4's highest root is 2342), so a sum of up
# to three roots has coordinates in -12..12 = -(B - 1)/2..(B - 1)/2, where
# sum_i v_i B^i is one to one
_KEY_BASE = 25


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
        label = type_label if len(type_label) <= MAX_ECHO else _quoted(type_label)
        raise ValueError(f"unsupported root system type {label}{_shown(rank_)}")
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


class Record:
    """Named fields, set in ``__init__`` in a fixed order; equality and
    ``repr`` read them in that order, as a dataclass's do."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable Record, hashed by its field tuple as a frozen dataclass
    is.  ``__init__`` fills ``__dict__``; assignment raises AttributeError."""

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(Value):
    """A weight in fundamental-weight coordinates (values on simple coroots)."""

    def __init__(self, coords: tuple[Fraction, ...]):
        self.__dict__["coords"] = coords

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


class SimpleSubset(Value):
    """A subset of the simple roots, by index."""

    def __init__(self, members: frozenset[int]):
        self.__dict__["members"] = members

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
        closure = self._close_positive_roots()
        self.positive_roots = [r for _, r, _, _ in closure]
        expected = _POSITIVE_COUNTS[type_label](rank_)
        if len(self.positive_roots) != expected:
            raise RuntimeError(
                f"closure produced {len(self.positive_roots)} positive roots, "
                f"expected {expected} for {type_label}{rank_}"
            )
        # heights[i]: the height of the i-th positive root, the weight of its
        # f in the height of a PBW label
        self.heights = [sum(r) for r in self.positive_roots]
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        negatives = [neg(r) for r in self.positive_roots]
        self.roots = self.positive_roots + negatives
        # keys[i] is the key of roots[i]; key_root inverts it, and key_index
        # maps the key of a positive root to its index in positive_roots
        positive_keys = [k for k, _, _, _ in closure]
        self.keys = positive_keys + [-k for k in positive_keys]
        self.key_root = dict(zip(self.keys, self.roots))
        self.key_index = {k: i for i, k in enumerate(positive_keys)}
        # every root -> (pairings, norm), read by is_root, norm and
        # simple_coroot_pairings: -r has the negated pairings, the same norm;
        # the coroots are kept as coroot_coefficients first computes them
        self._root_data: dict[Root, tuple[tuple[int, ...], int]] = {}
        for (_, r, p, n), m in zip(closure, negatives):
            self._root_data[r], self._root_data[m] = (p, n), (neg(p), n)
        self._coroots: dict[Root, tuple[int, ...]] = {}

    # -- construction -----------------------------------------------------

    def _close_positive_roots(self) -> list[tuple[int, Root, tuple[int, ...], int]]:
        """(key, root, simple-coroot pairings, norm) for each positive root,
        height then lex: from the simple roots, add alpha_i to beta whenever
        the alpha_i-string through beta reaches past it.  Sums, differences
        and string steps run on keys.  The pairings of alpha_i are row i of
        the Cartan matrix and those of beta + alpha_i are beta's plus row i;
        the norm is sum_i beta_i d_i <beta, alpha_i^v>, as ``norm`` says."""
        roots = {self.key(alpha): alpha for alpha in self._simple_roots}
        steps = list(roots)  # steps[i]: the key of alpha_i
        rows = [tuple(row) for row in self.cartan]
        pairings = dict(zip(steps, rows))
        frontier = steps
        while frontier:
            new: list[int] = []
            for beta in frontier:
                r, pb = roots[beta], pairings[beta]
                for i, step in enumerate(steps):
                    up = beta + step
                    if up in roots:
                        continue
                    # string through beta in direction alpha: q = p - <beta, a_i^v>
                    p = 0
                    down = beta - step
                    while down in roots:
                        p += 1
                        down -= step
                    if p - pb[i] >= 1:
                        roots[up] = r[:i] + (r[i] + 1,) + r[i + 1:]
                        pairings[up] = add(pb, rows[i])
                        new.append(up)
            frontier = new
        out = []
        for k, r in roots.items():
            p = pairings[k]
            out.append((k, r, p, sum(a * d * x for a, d, x in
                                     zip(r, self.symmetrizer, p))))
        return sorted(out, key=lambda t: (sum(t[1]), t[1]))

    def key(self, v: Root) -> int:
        """The packed key sum_i v_i B^i of an integer vector: linear in v, and
        one to one on the roots and on sums of up to three of them."""
        return sum(c * _KEY_BASE ** i for i, c in enumerate(v))

    # -- pairings ----------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The simple root alpha_i as a coefficient vector."""
        check_subset(self, (i,))
        return self._simple_roots[i]

    def is_root(self, r: Root) -> bool:
        return r in self._root_data

    def inner(self, beta: Root, gamma: Root) -> Fraction:
        """Symmetric bilinear form (beta, gamma), summed over the whole
        symmetrised Cartan matrix.  Its only reader is ``root_pairing``; the
        integer norm (alpha, alpha) is ``norm``."""
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

    def norm(self, alpha: Root) -> int:
        """(alpha, alpha) = sum_i alpha_i d_i <alpha, alpha_i^v>, on ints:
        (alpha, alpha_i) = d_i <alpha, alpha_i^v> since (alpha_i, alpha_i) = 2 d_i.
        Read from the table for a root."""
        data = self._root_data.get(alpha)
        if data is None:
            return sum(a * d * p for a, d, p in zip(
                alpha, self.symmetrizer, self.simple_coroot_pairings(alpha)))
        return data[1]

    def coroot_coefficients(self, alpha: Root) -> tuple[int, ...]:
        """alpha^v = 2 alpha / (alpha, alpha) over the simple coroots
        h_i = 2 alpha_i / (alpha_i, alpha_i): the coefficient on h_i is
        2 alpha_i d_i / (alpha, alpha), an exact integer quotient, kept on
        the instance once computed."""
        coeffs = self._coroots.get(alpha)
        if coeffs is not None:
            return coeffs
        if not self.is_root(alpha):
            raise ValueError(f"{alpha} is not a root")
        norm = self.norm(alpha)
        coeffs = []
        for i, (a, d) in enumerate(zip(alpha, self.symmetrizer)):
            c, r = divmod(2 * a * d, norm)
            if r:
                raise ValueError(f"coroot of {alpha} has the non-integer "
                                 f"coefficient {2 * a * d}/{norm} on h_{i}")
            coeffs.append(c)
        coeffs = self._coroots[alpha] = tuple(coeffs)
        return coeffs

    def simple_coroot_pairings(self, beta: Root) -> tuple:
        """(<beta, alpha_i^v>)_i, the values of beta on the simple coroots:
        sum_k beta_k a_ki, read off the Cartan matrix.  Read from the table
        for a root; summed for any other vector."""
        data = self._root_data.get(beta)
        if data is None:
            return tuple(sum(b * row[i] for b, row in zip(beta, self.cartan))
                         for i in range(self.rank))
        return data[0]

    def weight_of_root(self, alpha: Root) -> Weight:
        """The root alpha as a weight (values on simple coroots)."""
        return Weight(tuple(Fraction(x) for x in self.simple_coroot_pairings(alpha)))

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank})"


def _symmetrizer(cartan: list[list[int]]) -> list[int]:
    """d_i with d_j * cartan[i][j] == d_i * cartan[j][i]; (a_i, a_i) = 2 d_i."""
    n = len(cartan)
    # d_i = num[i] / den[i] in lowest terms, den[i] == 0 while unset
    num, den = [0] * n, [0] * n
    for start in range(n):
        if den[start]:
            continue
        num[start] = den[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and not den[j]:
                    # d_j = d_i * a_ji / a_ij, both entries negative
                    a, b = num[i] * -cartan[j][i], den[i] * -cartan[i][j]
                    g = math.gcd(a, b)
                    num[j], den[j] = a // g, b // g
                    stack.append(j)
    # rescale by the lcm of the denominators; every d_i is then an integer
    lcm_den = math.lcm(*den)
    return [x * (lcm_den // y) for x, y in zip(num, den)]


def add(a: Root, b: Root) -> Root:
    return tuple(map(operator.add, a, b))


def sub(a: Root, b: Root) -> Root:
    return tuple(map(operator.sub, a, b))


def neg(a: Root) -> Root:
    return tuple(-x for x in a)


# -- public operations ------------------------------------------------------


def parse_type(label: str) -> RootSystem:
    """Parse a label like 'A2' or 'G2' into a root system."""
    label = label.strip()
    if len(label) < 2 or not label[0].isalpha() or not label[1:].isdigit():
        raise ValueError(f"bad root system label {_quoted(label)}")
    return RootSystem(label[0].upper(), int(label[1:]))


MAX_RATIONAL_DIGITS = 4300  # the interpreter's default int-to-str limit
_RATIONAL_BOUND = 10 ** MAX_RATIONAL_DIGITS
_LONG_DIGIT_RUN = r"\d{%d}" % (MAX_RATIONAL_DIGITS + 1)  # compiled at first use
MAX_ECHO = 80  # longest literal an error message quotes


def _quoted(text: str) -> str:
    """A literal as an error message shows it: quoted, or by its length
    when it is too long to echo."""
    return repr(text) if len(text) <= MAX_ECHO else f"({len(text)} characters)"


def _shown(n: int) -> str:
    """An integer as an error message shows it: written out, or by its
    length when it is too long to echo (or to write out at all)."""
    if abs(n) >= _RATIONAL_BOUND:
        return f"(over {MAX_RATIONAL_DIGITS} digits)"
    text = str(n)
    return text if len(text) <= MAX_ECHO else _quoted(text)


def _oversized(values) -> int | None:
    """The index of the first value with more than MAX_RATIONAL_DIGITS digits
    above or below the line, or None; every weight check runs it."""
    for i, x in enumerate(values):
        if abs(x.numerator) >= _RATIONAL_BOUND or x.denominator >= _RATIONAL_BOUND:
            return i
    return None


def parse_rational(text: str, name: str = "the literal") -> Fraction:
    """Fraction(text), refused when its numerator or denominator would have
    more than MAX_RATIONAL_DIGITS digits.  A longer run of digits (underscores
    dropped), or an exponent past that plus the mantissa's length, always
    would, so either is refused before it is converted or expanded.  This
    refusal, and that of an invalid literal over MAX_ECHO characters, names
    the value as name with the literal's length instead of echoing it."""
    mantissa, _, exponent = text.upper().partition("E")
    try:
        shift = abs(int(exponent or 0))
    except ValueError:
        shift = 0  # not an exponent (Fraction names the bad literal) or too long
    fits = (shift <= MAX_RATIONAL_DIGITS + len(mantissa)
            and not re.search(_LONG_DIGIT_RUN, text.replace("_", "")))
    try:
        q = Fraction(text) if fits else None
    except ValueError:
        if len(text) <= MAX_ECHO:
            raise  # Fraction's message quotes the literal
        raise ValueError(f"{name} ({len(text)} characters) is not a rational "
                         f"literal") from None
    if q is None or _oversized((q,)) is not None:
        raise ValueError(f"{name} ({len(text.strip())} characters) is too large: "
                         f"numerators and denominators have at most "
                         f"{MAX_RATIONAL_DIGITS} digits")
    return q


def parse_weight(rs: RootSystem, text: str) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} coordinates, got {len(parts)}")
    return Weight(tuple(parse_rational(p, f"weight coordinate {i}")
                        for i, p in enumerate(parts)))


def shifted_pairings(rs: RootSystem, lam: Weight) -> dict[Root, Fraction]:
    """{beta: <lam + rho, beta^v>} over the positive roots, from the coroot
    table; lam is checked first, since a sum of weights zips coordinates.
    The sums run on ints over lam's common denominator, one Fraction a root."""
    check_weight(rs, lam)
    den = math.lcm(*(x.denominator for x in lam.coords))
    shifted = [x.numerator * (den // x.denominator) + den  # den <lam + rho, a_i^v>
               for x in lam.coords]
    return {beta: Fraction(sum(map(operator.mul, rs.coroot_coefficients(beta), shifted)),
                           den)
            for beta in rs.positive_roots}


def dot_reflect(rs: RootSystem, i: int, lam: Weight) -> Weight:
    """s_i . lam = lam - <lam + rho, a_i^v> a_i  (dot action of a simple reflection)."""
    check_weight(rs, lam)
    check_subset(rs, SimpleSubset.of(i))
    factor = lam.coords[i] + 1
    alpha_wt = rs.weight_of_root(rs.simple_root(i))
    return lam - alpha_wt.scale(factor)


def dot_orbit(rs: RootSystem, lam: Weight, subset: SimpleSubset | None = None,
              depth: int | None = None) -> dict[tuple, int]:
    """The dot orbit of lam under the reflections in the subset (default:
    all simple roots) as {lam - w.lam in simple-root coordinates: (-1)^k},
    k the fewest reflections that reach w.lam.  The drops are ints where lam
    is integral on the subset; where it is dominant integral, the orbit is
    free, k = l(w), and the signed sum of the ch M(lam - drop) is ch M_J(lam)
    (Lepowsky's generalised BGG resolution).

    With a depth, lam must be dominant integral on the subset, and only the
    drops of height at most depth are kept, found without walking past them:
    where s_i lengthens w it adds <w(lam + rho), a_i^v> a_i, a positive
    multiple of a_i, to the drop, so heights grow along reduced words and
    every drop within the depth is reached through drops within it."""
    check_weight(rs, lam)
    subset = SimpleSubset.of(*range(rs.rank)) if subset is None else subset
    check_subset(rs, subset)
    if depth is not None:
        check_dominant_on(lam, subset)
    shifted = [int(x) + 1 if x.denominator == 1 else x + 1  # <lam + rho, a_i^v>
               for x in lam.coords]
    signs = {(0,) * rs.rank: 1}
    frontier = list(signs)
    while frontier:
        nxt = []
        for drop in frontier:
            pairings = rs.simple_coroot_pairings(drop)
            for i in subset:
                # s_i.(lam - drop) = lam - drop - <lam - drop + rho, a_i^v> a_i
                x = drop[i] + shifted[i] - pairings[i]
                x = int(x) if x.denominator == 1 else x
                new = drop[:i] + (x,) + drop[i + 1:]
                if new not in signs and (depth is None or sum(new) <= depth):
                    signs[new] = -signs[drop]
                    nxt.append(new)
        frontier = nxt
    return signs


def check_dominant_on(lam: Weight, subset) -> None:
    """Raise ValueError unless lam is dominant integral on the subset."""
    for i in subset:
        v = lam.coords[i]
        if v.denominator != 1 or v < 0:
            raise ValueError(
                f"weight must be dominant integral on the subset; "
                f"coordinate {i} is {v}")


def is_singular(rs: RootSystem, lam: Weight) -> bool:
    return 0 in shifted_pairings(rs, lam).values()


def check_subset(rs: RootSystem, subset: SimpleSubset) -> None:
    """Raise ValueError unless every member is a simple-root index of rs."""
    for i in subset:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple-root index {_shown(i)} is not in "
                             f"0..{rs.rank - 1} (rank {rs.rank})")


def check_weight(rs: RootSystem, lam: Weight) -> None:
    """Raise ValueError unless lam has one coordinate per simple root of rs,
    each with at most MAX_RATIONAL_DIGITS digits above and below the line."""
    if (i := _oversized(lam.coords)) is not None:
        raise ValueError(f"weight coordinate {i} is too large: numerators and "
                         f"denominators have at most {MAX_RATIONAL_DIGITS} digits")
    if len(lam.coords) != rs.rank:
        raise ValueError(f"weight ({lam}) needs {rs.rank} coordinates "
                         f"(rank {rs.rank}), got {len(lam.coords)}")


def root_subsystem(rs: RootSystem, subset: SimpleSubset) -> set[Root]:
    """All roots supported on the given simple indices (both signs)."""
    positive = positive_subsystem(rs, subset)
    return set(positive) | {neg(r) for r in positive}


def positive_subsystem(rs: RootSystem, subset: SimpleSubset) -> list[Root]:
    check_subset(rs, subset)
    return [r for r in rs.positive_roots
            if all(r[i] == 0 for i in range(rs.rank) if i not in subset)]


def interior(rs: RootSystem, subset: SimpleSubset) -> SimpleSubset:
    """Members of the subset not adjacent (via the Cartan matrix) to its complement."""
    check_subset(rs, subset)
    outside = [j for j in range(rs.rank) if j not in subset]
    return SimpleSubset(frozenset(
        b for b in subset if all(rs.cartan[a][b] == 0 for a in outside)
    ))


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


def enumerate_closed_subsystems(rs: RootSystem) -> list[dict]:
    """All nonempty subsystems ZS n Phi, with a simple system and Cartan det each.

    Every such subsystem Psi is ZS n Phi for a linearly independent set S of
    positive roots, so only those sets are tried.  S lies in Psi and Psi in
    ZS, so ZPsi = ZS: the row Hermite normal form of S, which is canonical
    for its lattice, is a one-to-one key for Psi.  A set whose form has fewer
    rows than the set is dependent; a lattice already seen is skipped before
    any root is tested; Psi is the set of roots that lie in the lattice.  A
    Cartan matrix of finite type is nonsingular with a positive determinant,
    so its determinant is the product of the pivots of its Hermite form.
    All of it is integer arithmetic.  The result is sorted canonically and
    does not depend on the order of ``rs.positive_roots``.
    """
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for size in range(1, rs.rank + 1):
        for combo in itertools.combinations(rs.positive_roots, size):
            form = hermite_form(combo)
            if len(form) != size or form in seen:
                continue
            seen.add(form)
            subsystem = frozenset(gamma for gamma in rs.roots
                                  if in_lattice(gamma, form))
            simple = _simple_system_of(rs, subsystem)
            cmat = [[rs.root_pairing(b, a) for a in simple] for b in simple]
            pivot_rows = hermite_form(cmat)
            if len(pivot_rows) != len(cmat):
                raise RuntimeError(f"the Cartan matrix {cmat} of the closed "
                                   f"subsystem on {simple} is singular")
            out.append({
                "simple_system": simple,
                "cartan": cmat,
                "det": math.prod(row[i] for i, row in enumerate(pivot_rows)),
                "size": len(subsystem),
            })
    out.sort(key=lambda rec: (rec["size"], rec["simple_system"]))
    return out


def bad_primes(rs: RootSystem) -> set[int]:
    """Primes dividing the Cartan determinant of some closed root subsystem."""
    primes: set[int] = set()
    for rec in enumerate_closed_subsystems(rs):
        primes |= _prime_divisors(rec["det"])
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
