import math
import random
from fractions import Fraction

import pytest

from vermakit.linalg import (hermite_form, in_lattice, rank, reduce_against,
                             rref, span_coordinates)


def _combine(vectors, coords):
    return tuple(sum(c * v[j] for c, v in zip(coords, vectors))
                 for j in range(len(vectors[0])))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_span_coordinates_independent():
    spanning = [(1, 1, 0), (1, -1, 0)]
    coords = span_coordinates(spanning, [(2, 0, 0), (1, 0, 0), (0, 0, 1)])
    assert coords[0] == [1, 1]
    # in the rational span but not the integer span
    assert coords[1] == [Fraction(1, 2), Fraction(1, 2)]
    assert coords[2] is None


def test_span_coordinates_dependent_and_empty():
    spanning = [(1, 2), (2, 4)]
    coords = span_coordinates(spanning, [(3, 6), (1, 0), (0, 0)])
    assert _combine(spanning, coords[0]) == (3, 6)
    assert coords[1] is None
    assert _combine(spanning, coords[2]) == (0, 0)
    assert span_coordinates([], [(0, 0), (1, 0)]) == [[], None]
    # vectors with no entries: the zero-column case
    assert span_coordinates([(), ()], [()]) == [[0, 0]]


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


def _cleared(vec):
    """vec over one common denominator m: (its int entries, m)."""
    m = math.lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * m) for x in vec], m


def _check_echelon(rows, reference, vectors, reduced_remainder):
    """rref(rows) against a reference reduced row echelon form of rows: the
    same pivots, each echelon row primitive with a positive pivot and zero
    left of it, every reference row reducing to zero (so the rows span the
    same space), and for each vector, its denominators cleared by m, P m
    times the same remainder, P the product of the pivots, on ints.  The
    input is left alone."""
    before = [list(row) for row in rows]
    echelon, pivots = rref(rows)
    assert [list(row) for row in rows] == before
    reduced, want = reference(rows)
    assert pivots == want, rows
    for row, c in zip(echelon, pivots):
        assert min(row) == c and row[c] > 0, rows
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1, rows
    scale = math.prod(row[c] for row, c in zip(echelon, pivots))
    for row in reduced:
        assert not any(reduce_against(_cleared(row)[0], echelon, pivots)), rows
    for vec in vectors:
        ints, m = _cleared(vec)
        got = reduce_against(ints, echelon, pivots)
        assert all(type(x) is int for x in got)
        assert got == [scale * m * x for x in reduced_remainder(vec, reduced, pivots)], \
            (rows, vec)


def test_rref_matches_fraction_gauss_jordan(fraction_rref, bareiss_rref,
                                            reduced_remainder):
    rng = random.Random(10)
    for entry in (_rational, lambda r: r.randint(-9, 9)):
        for rows in _random_matrices(rng, entry):
            width = len(rows[0]) if rows else 0
            vectors = [[_rational(rng) for _ in range(width)] for _ in range(3)]
            _check_echelon(rows, fraction_rref, vectors, reduced_remainder)
            assert bareiss_rref(rows) == fraction_rref(rows), rows


def test_rref_property_on_sparse_matrices(hypothesis, bareiss_rref,
                                          reduced_remainder):
    """Random sparse integer and rational matrices up to 30x40, with integer
    combinations of their rows mixed in: rref against the dense Bareiss
    reference."""
    st = hypothesis.strategies
    integer = st.integers(-9, 9)
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

    @st.composite
    def cases(draw):
        entry = draw(st.sampled_from([integer, rational]))
        nrows, ncols = draw(st.integers(0, 27)), draw(st.integers(1, 40))
        # a few entries a row, and on request a nonzero diagonal, so that
        # matrices of full rank are common
        diagonal = draw(st.booleans())
        rows = []
        for i in range(nrows):
            cells = draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                         max_size=6))
            if diagonal and i < ncols:
                cells[i] = draw(entry.filter(bool))
            rows.append([cells.get(j, 0) for j in range(ncols)])
        for coeffs in draw(st.lists(st.lists(st.integers(-3, 3), min_size=nrows,
                                             max_size=nrows), max_size=3)):
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), 0)
                         for j in range(ncols)])
        rows = draw(st.permutations(rows))
        vectors = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                max_size=2))
        return rows, vectors

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        rows, vectors = case
        _check_echelon(rows, bareiss_rref, vectors, reduced_remainder)

    check()


@pytest.mark.parametrize("call,rows,lengths", [
    (rank, [[1, 2], [2, 4, 9]], (2, 3)), (rank, [[3], [1, 2]], (1, 2)),
    (rref, [[0, 1], [1]], (2, 1))], ids=["rank-long", "rank-short", "rref-short"])
def test_ragged_rows_are_refused(call, rows, lengths):
    # the first two used to give rank 1 and the third an IndexError
    with pytest.raises(ValueError, match="rref needs rows of equal length, "
                                         "got %d and %d" % lengths):
        call(rows)


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
        coords = span_coordinates(spanning, candidates)
        r = fraction_rank_det(spanning)[0]
        for x, co in zip(candidates, coords):
            if fraction_rank_det(spanning + [x])[0] > r:
                assert co is None, (spanning, x)
                outside += 1
            else:
                assert len(co) == len(spanning)
                assert _combine(spanning, co) == tuple(x), (spanning, x)
                inside += 1
    assert inside > 100 and outside > 20


def test_span_coordinates_are_those_of_the_reduced_form(fraction_rref,
                                                        reduced_remainder):
    """For dependent spanning vectors the coordinates are not unique: they
    stay the ones the reduced form of [spanning | identity] gives, reducing
    by its rows with a pivot left of the identity block."""
    rng = random.Random(16)
    dependent = 0
    for spanning in _random_matrices(rng, _rational):
        if not spanning:
            continue
        k, ncols = len(spanning), len(spanning[0])
        reduced, pivots = fraction_rref([list(v) + [int(i == j) for j in range(k)]
                                         for i, v in enumerate(spanning)])
        left = [c for c in pivots if c < ncols]
        dependent += len(left) < k
        candidates = [[sum((c * v[j] for c, v in zip(coeffs, spanning)), Fraction(0))
                       for j in range(ncols)]
                      for coeffs in ([rng.randint(-3, 3) for _ in spanning]
                                     for _ in range(2))]
        coords = span_coordinates(spanning, candidates)
        for x, co in zip(candidates, coords):
            resid = reduced_remainder(list(x) + [0] * k, reduced[:len(left)], left)
            assert co == [-a for a in resid[ncols:]], (spanning, x)
    assert dependent > 20


def test_hermite_form_examples():
    assert hermite_form([[2, 4], [1, 1]]) == ((1, 1), (0, 2))
    assert hermite_form([[0, -3], [0, 2]]) == ((0, 1),)
    assert hermite_form([[1, 2], [2, 4]]) == ((1, 2),)  # dependent
    assert hermite_form([]) == hermite_form([[0, 0]]) == ()
    assert in_lattice((1, 3), ((1, 1), (0, 2)))
    assert not in_lattice((0, 1), ((1, 1), (0, 2)))
    assert not in_lattice((0, 0, 1), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="equal length"):
        hermite_form([[1, 2], [3]])
    with pytest.raises(ValueError, match="2 columns"):
        in_lattice((1, 2, 3), ((1, 1), (0, 2)))


def test_hermite_form_is_reduced_echelon_over_the_rank():
    rng = random.Random(15)
    for rows in _random_matrices(rng, lambda r: r.randint(-9, 9)):
        before = [row[:] for row in rows]
        form = hermite_form(rows)
        assert rows == before  # the input is left alone
        assert len(form) == rank(rows), rows
        pivots = [next(c for c, x in enumerate(row) if x) for row in form]
        assert pivots == sorted(set(pivots))
        for k, (row, c) in enumerate(zip(form, pivots)):
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in form[:k])
        assert all(in_lattice(row, form) for row in rows)


def _integer_rows(st, nrows, ncols):
    return st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def test_hermite_membership_matches_span_coordinates(hypothesis):
    """A generating set of the lattice of an independent basis B, with
    integer combinations of B mixed in (so it is dependent when any are):
    its form is that of B, and a vector lies in it exactly when its
    span_coordinates over B exist and are integers."""
    st = hypothesis.strategies

    @st.composite
    def lattices(draw):
        ncols = draw(st.integers(1, 4))
        k = draw(st.integers(0, ncols))
        basis = draw(_integer_rows(st, k, ncols))
        hypothesis.assume(rank(basis) == k)
        combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k,
                                        max_size=k), max_size=3))
        members = [[sum(c * b[j] for c, b in zip(coeffs, basis))
                    for j in range(ncols)] for coeffs in combos]
        rows = draw(st.permutations(basis + members))
        others = draw(_integer_rows(st, 3, ncols))
        return basis, rows, members + others

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(lattices())
    def check(case):
        basis, rows, candidates = case
        form = hermite_form(rows)
        assert form == hermite_form(basis)
        coords = span_coordinates(basis, candidates)
        for x, co in zip(candidates, coords):
            integral = co is not None and all(c == int(c) for c in co)
            assert in_lattice(x, form) == integral, (basis, x)

    check()


def test_hermite_form_is_invariant_under_unimodular_row_operations(hypothesis):
    st = hypothesis.strategies
    ops = st.lists(st.tuples(st.sampled_from(["swap", "negate", "add"]),
                             st.integers(0, 4), st.integers(0, 4),
                             st.integers(-3, 3)), max_size=8)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda m: _integer_rows(st, n, m))),
        ops)
    def check(rows, steps):
        moved = [row[:] for row in rows]
        for kind, i, j, m in steps:
            i, j = i % len(moved), j % len(moved)
            if kind == "swap":
                moved[i], moved[j] = moved[j], moved[i]
            elif kind == "negate":
                moved[i] = [-x for x in moved[i]]
            elif i != j:
                moved[i] = [x + m * y for x, y in zip(moved[i], moved[j])]
        assert hermite_form(moved) == hermite_form(rows), (rows, steps)

    check()
