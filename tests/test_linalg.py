import random
from fractions import Fraction

import pytest

from vermakit.linalg import det_int, invert, rank, rref, span_coordinates


def _combine(vectors, coords):
    return tuple(sum(c * v[j] for c, v in zip(coords, vectors))
                 for j in range(len(vectors[0])))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


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
    # vectors with no entries: the zero-column case
    assert span_coordinates([(), ()], [()]) == (0, [[0, 0]])


def _random_matrices(rng, entry):
    """Random matrices of every shape up to 6x8, with dependent and zero rows
    mixed in, plus the empty, zero-column and 1x1 corner cases."""
    yield from ([], [[]], [[], []], [[entry(rng)]], [[0]],
                [[0, 0, 0], [0, 0, 0]])
    for nrows in range(1, 7):
        for ncols in range(1, 9):
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


def test_rref_matches_fraction_gauss_jordan(fraction_rref):
    rng = random.Random(10)
    for entry in (_rational, lambda r: r.randint(-9, 9)):
        for rows in _random_matrices(rng, entry):
            before = [row[:] for row in rows]
            assert rref(rows) == fraction_rref(rows), rows
            assert rows == before  # the input is left alone


def test_bareiss_rank_matches_fraction_elimination(fraction_rank_det):
    rng = random.Random(11)
    deficient = 0
    for rows in _random_matrices(rng, _rational):
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


def test_invert_matches_fraction_gauss_jordan(fraction_rref):
    rng = random.Random(13)
    inverted = singular = 0
    dense = [[[_rational(rng) for _ in range(n)] for _ in range(n)]
             for n in range(1, 7) for _ in range(3)]
    for rows in [*_random_matrices(rng, _rational), *dense]:
        n = len(rows)
        if any(len(row) != n for row in rows):
            continue
        reduced, pivots = fraction_rref(
            [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError, match="singular"):
                invert(rows)
            singular += 1
            continue
        inv = invert(rows)
        assert inv == [row[n:] for row in reduced], rows
        assert all(sum(a * b for a, b in zip(inv[i], col)) == (i == j)
                   for i in range(n) for j, col in enumerate(zip(*rows)))
        inverted += 1
    assert inverted > 10 and singular > 5
    assert invert([]) == []
    with pytest.raises(ValueError, match="square"):
        invert([[1, 2]])


def test_span_coordinates_matches_fraction_rank(fraction_rank_det):
    rng = random.Random(14)
    inside = outside = 0
    for spanning in _random_matrices(rng, _rational):
        if not spanning:
            continue
        ncols = len(spanning[0])
        combos = [[sum((c * v[j] for c, v in zip(coeffs, spanning)), Fraction(0))
                   for j in range(ncols)]
                  for coeffs in ([rng.randint(-3, 3) for _ in spanning]
                                 for _ in range(2))]
        candidates = combos + [[_rational(rng) for _ in range(ncols)],
                               [0] * ncols]
        r, coords = span_coordinates(spanning, candidates)
        assert r == fraction_rank_det(spanning)[0], spanning
        for x, co in zip(candidates, coords):
            if fraction_rank_det(spanning + [x])[0] > r:
                assert co is None, (spanning, x)
                outside += 1
            else:
                assert len(co) == len(spanning)
                assert _combine(spanning, co) == tuple(x), (spanning, x)
                inside += 1
    assert inside > 100 and outside > 20
