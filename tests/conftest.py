import math
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
def alg_b3():
    return _alg("B3")


@pytest.fixture(scope="session")
def alg_c3():
    return _alg("C3")


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


def _bareiss_rref(rows):
    """Reduced row echelon form by dense fraction-free (Bareiss) Gauss-Jordan
    elimination on ints, each row's denominators cleared first: the kernel
    that linalg.rref ran before its sparse echelon, kept as a reference.

    At each pivot p every other row becomes (p*row - x*top) // prev, prev
    being the previous pivot; every entry stays a minor of the scaled input,
    so each division is exact.
    """
    mat = []
    for row in rows:
        m = math.lcm(*(Fraction(x).denominator for x in row))
        mat.append([int(Fraction(x) * m) for x in row])
    ncols = len(mat[0]) if mat else 0
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            if i != r:
                x = row[c]
                mat[i] = [(p * a - x * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return [[Fraction(a, row[c]) for a in row]
            for row, c in zip(mat, pivots)], pivots


@pytest.fixture(scope="session")
def bareiss_rref():
    return _bareiss_rref


def _reduced_remainder(vec, reduced, pivots):
    """What is left of vec after clearing each pivot column with its row of
    a reduced row echelon form (pivot entries 1)."""
    vec = list(vec)
    for row, c in zip(reduced, pivots):
        factor = vec[c]
        if factor:
            vec = [a - factor * b for a, b in zip(vec, row)]
    return vec


@pytest.fixture(scope="session")
def reduced_remainder():
    return _reduced_remainder


@pytest.fixture
def hypothesis(tmp_path):
    """The hypothesis package, or a skip when it is missing."""
    hypothesis = pytest.importorskip("hypothesis")
    # hypothesis caches what it reads from the source under its home
    # directory even without an example database: keep that out of the tree
    hypothesis.configuration.set_hypothesis_home_dir(tmp_path)
    yield hypothesis
    hypothesis.configuration.set_hypothesis_home_dir(None)
