from fractions import Fraction

import pytest

from vermakit.chevalley import structure_constants
from vermakit.rootsys import parse_type
from vermakit.uea import EnvelopingAlgebra


def _alg(label):
    return EnvelopingAlgebra(structure_constants(parse_type(label)))


@pytest.fixture(scope="session")
def alg_a1():
    return _alg("A1")


@pytest.fixture(scope="session")
def alg_a2():
    return _alg("A2")


@pytest.fixture(scope="session")
def alg_a3():
    return _alg("A3")


@pytest.fixture(scope="session")
def alg_b2():
    return _alg("B2")


@pytest.fixture(scope="session")
def alg_g2():
    return _alg("G2")


def _fraction_rank_det(rows):
    """Rank, and determinant of a square matrix, by plain Gaussian
    elimination over Fraction: the reference for the fraction-free kernel."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    det, r = Fraction(1), 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            det = -det
        det *= mat[r][c]
        for i in range(r + 1, len(mat)):
            factor = mat[i][c] / mat[r][c]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r, (det if r == len(mat) == ncols else Fraction(0))


@pytest.fixture(scope="session")
def fraction_rank_det():
    return _fraction_rank_det


def _fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction:
    the reference for the fraction-free kernel behind linalg.rref."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
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


@pytest.fixture(scope="session")
def fraction_rref():
    return _fraction_rref
