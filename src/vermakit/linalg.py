"""Exact linear algebra over Fraction: echelon forms, rank, span
coordinates, and integer lattices.

Everything here works on lists of lists of Fractions (or ints); no floats
anywhere.  ``rref``, a sparse row echelon elimination on Python ints, is the
one rational kernel: ``rank`` and ``span_coordinates`` read it, and
``reduce_against``, the one reduction step, reduces an int vector against
its rows on ints.  The lattice part is the row Hermite normal form of an
integer matrix (``hermite_form``) and membership of its row lattice
(``in_lattice``); the Hermite form also gives the Cartan determinants of
the closed root subsystems, as the product of its pivots.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse row echelon form on Python ints: structured Gaussian
    elimination (LaMacchia and Odlyzko, CRYPTO '90) over Z.

    A row, its denominators cleared, is a dict {column: int}.  While its
    lowest column c holds the pivot p of an echelon row top, r becomes
    (p r - r[c] top) / gcd(p, r[c]), then r / gcd(r); at a free lowest
    column it joins the echelon, primitive with a positive pivot.  Returns
    the rows and pivots (those of the reduced form) in pivot order.
    """
    n = len(rows[0]) if rows else 0
    echelon: dict[int, dict[int, int]] = {}
    pivots: list[int] = []
    for row in rows:
        if len(row) != n:
            raise ValueError(f"rref needs rows of equal length, got {n} and {len(row)}")
        m = math.lcm(*(x.denominator for x in row))
        vec = {c: x.numerator * (m // x.denominator) for c, x in enumerate(row) if x}
        while vec:
            c = min(vec)
            top = echelon.get(c)
            g = math.gcd(*vec.values())
            if top is None and vec[c] < 0:
                g = -g
            if g != 1:
                vec = {k: v // g for k, v in vec.items()}
            if top is None:
                echelon[c] = vec
                bisect.insort(pivots, c)
                break
            g = math.gcd(top[c], vec[c])
            p, x = top[c] // g, vec[c] // g
            if p != 1:
                vec = {k: p * v for k, v in vec.items()}
            for k, t in top.items():
                v = vec.get(k, 0) - x * t
                if v:
                    vec[k] = v
                else:
                    del vec[k]
    return [echelon[c] for c in pivots], pivots


def rank(rows: list[list[Fraction]]) -> int:
    """Pivot count of ``rref``, looked up at call time, so the benchmark's
    tracer counts the elimination behind every rank as ``rref`` work."""
    return len(rref(rows)[1])


def reduce_against(vec: list[int], rows: list[dict[int, int]],
                   pivots: list[int]) -> list[int]:
    """P times the one vector of the int vector vec's coset modulo the rows
    of ``rref`` that is zero on their pivots, P the product of the pivots:
    zero when vec is in their span.  vec is scaled by P and cleared in pivot
    order by exact division: by Cramer's rule the pivots not yet cleared
    divide what is left."""
    scale = math.prod(row[c] for row, c in zip(rows, pivots))
    vec = [scale * x for x in vec]
    for row, c in zip(rows, pivots):
        if vec[c]:
            q = vec[c] // row[c]
            for k, a in row.items():
                vec[k] -= q * a
    return vec


def span_coordinates(spanning: list, candidates: list) -> list[list[Fraction] | None]:
    """Each candidate's coordinates over the spanning vectors, or None for a
    candidate outside their span over Q.

    The spanning set is brought to echelon form once, next to an identity
    block that records each row as a combination of the spanning vectors.  A
    candidate over one denominator m, padded with zeros and reduced against
    every row (those with their pivot in the block are relations), leaves
    zero on the left exactly when it lies in the span, and -m P times its
    coordinates on the right, P the pivots' product.  The coordinates are
    unique, so integrality decides membership of the Z-span, when the
    spanning vectors are linearly independent.
    """
    k = len(spanning)
    rows, pivots = rref([list(v) + [int(i == j) for j in range(k)]
                         for i, v in enumerate(spanning)])
    scale = math.prod(row[c] for row, c in zip(rows, pivots))
    out: list[list[Fraction] | None] = []
    for x in candidates:
        m = math.lcm(*(a.denominator for a in x))
        resid = reduce_against([int(a * m) for a in x] + [0] * k, rows, pivots)
        out.append(None if any(resid[:len(x)]) else
                   [Fraction(-a, m * scale) for a in resid[len(x):]])
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g, g = +-gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_form(rows) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of an integer matrix: the nonzero rows of the
    echelon basis of the lattice the rows span over Z, each pivot positive
    and each entry above a pivot in [0, pivot).  This basis is unique, so two
    matrices span the same lattice exactly when their forms are equal, and
    the form has fewer rows than the input exactly when the rows are
    linearly dependent.

    In each column the rows not yet used fold, two at a time, into one row
    holding the gcd of their entries there, by the unimodular step
    (top, row) -> (x top + y row, (a/g) row - (b/g) top), where
    x a + y b = g for the entries a of top and b of row; the other row ends
    with a zero in that column.  The rows already in the form are then
    reduced against the new pivot row.
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValueError("hermite_form needs rows of equal length")
    form: list[list[int]] = []
    for c in range(ncols):
        top = None
        rest = []
        for row in mat:
            if not row[c]:
                rest.append(row)
            elif top is None:
                top = row
            else:
                g, x, y = _xgcd(top[c], row[c])
                a, b = top[c] // g, row[c] // g
                top, row = ([x * u + y * v for u, v in zip(top, row)],
                            [a * v - b * u for u, v in zip(top, row)])
                rest.append(row)
        mat = rest
        if top is None:
            continue
        if top[c] < 0:
            top = [-p for p in top]
        for i, prev in enumerate(form):
            q = prev[c] // top[c]
            if q:
                form[i] = [p - q * t for p, t in zip(prev, top)]
        form.append(top)
    return tuple(map(tuple, form))


def in_lattice(vec, form: tuple[tuple[int, ...], ...]) -> bool:
    """True when the integer vector vec lies in the row lattice of a form
    from ``hermite_form``: vec is reduced against each pivot row in turn,
    which leaves the remainder modulo the pivot in that column, and lies in
    the lattice exactly when nothing is left."""
    if form and len(vec) != len(form[0]):
        raise ValueError(f"vector of length {len(vec)} against a form with "
                         f"{len(form[0])} columns")
    vec = list(vec)
    for row in form:
        c = next(i for i, p in enumerate(row) if p)
        q = vec[c] // row[c]
        if q:
            vec = [v - q * p for v, p in zip(vec, row)]
    return not any(vec)
