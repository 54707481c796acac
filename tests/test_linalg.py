from fractions import Fraction

from vermakit.linalg import span_coordinates


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
