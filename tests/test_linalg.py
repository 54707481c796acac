import random
from fractions import Fraction

import pytest

from vermakit.linalg import det_int, rank, span_coordinates


def _combine(vectors, coords):
    return tuple(sum(c * v[j] for c, v in zip(coords, vectors))
                 for j in range(len(vectors[0])))


def test_span_coordinates_independent():
    spanning = [(1, 1, 0), (1, -1, 0)]
    r, coords = span_coordinates(spanning, [(2, 0, 0), (1, 0, 0), (0, 0, 1)])
    assert r == 2
    assert coords[0] == [1, 1]
    # in the rational span but not the integer span
    assert coords[1] == [Fraction(1, 2), Fraction(1, 2)]
    assert coords[2] is None


def test_span_coordinates_dependent_and_empty():
    spanning = [(1, 2), (2, 4)]
    r, coords = span_coordinates(spanning, [(3, 6), (1, 0), (0, 0)])
    assert r == 1
    assert _combine(spanning, coords[0]) == (3, 6)
    assert coords[1] is None
    assert _combine(spanning, coords[2]) == (0, 0)
    assert span_coordinates([], [(0, 0), (1, 0)]) == (0, [[], None])


def _random_matrices(rng, entry):
    """Random matrices of every small shape, with dependent and zero rows
    mixed in, plus the empty, zero-column and 1x1 corner cases."""
    yield from ([], [[]], [[entry(rng)]], [[0]], [[0, 0, 0], [0, 0, 0]])
    for nrows in range(1, 7):
        for ncols in range(1, 7):
            for _ in range(3):
                k = rng.randint(0, min(nrows, ncols))
                base = [[entry(rng) for _ in range(ncols)] for _ in range(k)]
                rows = [row[:] for row in base]
                while len(rows) < nrows:
                    coeffs = [rng.randint(-3, 3) for _ in base]
                    rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), 0)
                                 for j in range(ncols)])
                rng.shuffle(rows)
                yield rows


def test_bareiss_rank_matches_fraction_elimination(fraction_rank_det):
    rng = random.Random(11)
    entry = lambda r: Fraction(r.randint(-9, 9), r.randint(1, 6))
    deficient = 0
    for rows in _random_matrices(rng, entry):
        before = [row[:] for row in rows]
        want = fraction_rank_det(rows)[0]
        assert rank(rows) == want, rows
        assert rows == before  # the input is left alone
        deficient += want < min(len(rows), len(rows[0])) if rows else 0
    assert deficient > 20


def test_det_int_matches_fraction_elimination(fraction_rank_det):
    rng = random.Random(12)
    entry = lambda r: r.randint(-9, 9)
    singular = 0
    for rows in _random_matrices(rng, entry):
        if all(len(row) == len(rows) for row in rows):
            want = fraction_rank_det(rows)[1]
            assert det_int(rows) == want, rows
            singular += want == 0
    assert singular > 5
    # rational entries are fine as long as the determinant is an integer
    assert det_int([[Fraction(1, 2), 0], [0, 2]]) == 1
    with pytest.raises(ValueError, match="not an integer"):
        det_int([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="square"):
        det_int([[1, 2]])
