"""Exact linear algebra over Fraction: echelon forms, rank, inverses, span
coordinates.

Everything here works on lists of lists of Fractions (or ints); no floats
anywhere.  Rank and determinant clear each row's denominators and run one
fraction-free (Bareiss) elimination on Python ints; the reduced rows that
quotients, inverses and span coordinates need come from a Gauss-Jordan
elimination over Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rref rows, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _clear_denominators(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row scaled by the lcm of its denominators, as Python ints, and
    the product of those scale factors."""
    out: list[list[int]] = []
    scale = 1
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    return out, scale


def _bareiss(mat: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the rank and the signed last pivot, which for a square matrix
    of full rank is its determinant.  After k pivots every entry below the
    pivot rows is a (k+1)-minor of the input, so each division by the
    previous pivot is exact and the integers stay as small as the minors.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            sign = -sign
        top = mat[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = mat[i]
            x = row[c]
            mat[i] = [(p * a - x * b) // prev for a, b in zip(row, top)]
        prev = p
        r += 1
    return r, sign * prev


def rank(rows: list[list[Fraction]]) -> int:
    return _bareiss(_clear_denominators(rows)[0])[0]


def invert(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q.  Raises ValueError if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix (fraction-free result is exact)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det_int needs a square matrix")
    mat, scale = _clear_denominators(rows)
    r, last = _bareiss(mat)
    d = Fraction(last, scale) if r == n else Fraction(0)
    if d.denominator != 1:
        raise ValueError(f"determinant {d} is not an integer: det_int needs "
                         f"an integer matrix")
    return int(d)


def span_coordinates(spanning: list, candidates: list
                     ) -> tuple[int, list[list[Fraction] | None]]:
    """Rank of the spanning vectors, and each candidate's coordinates over
    them, or None for a candidate outside their span over Q.

    The spanning set is row-reduced once, next to an identity block that
    records each reduced row as a combination of the spanning vectors; a
    candidate lies in the span when reducing it against the pivot rows
    leaves zero, and the multipliers it took give its coordinates.  The
    coordinates are unique, so integrality decides membership of the
    Z-span, when the rank equals the number of spanning vectors.
    """
    k = len(spanning)
    if not k:
        return 0, [None if any(x) else [] for x in candidates]
    n = len(spanning[0])
    reduced, pivots = rref([list(v) + [int(i == j) for j in range(k)]
                            for i, v in enumerate(spanning)])
    rows = [(row[:n], row[n:], c) for row, c in zip(reduced, pivots) if c < n]
    out: list[list[Fraction] | None] = []
    for x in candidates:
        resid = list(x)
        for vec, _, c in rows:
            factor = resid[c]
            if factor:
                resid = [a - factor * b for a, b in zip(resid, vec)]
        if any(resid):
            out.append(None)
            continue
        coords = [Fraction(0)] * k
        for _, comb, c in rows:
            if x[c]:
                coords = [a + x[c] * b for a, b in zip(coords, comb)]
        out.append(coords)
    return len(rows), out
