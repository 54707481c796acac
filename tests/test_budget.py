"""The basis budget: every module the library builds, and every Kostant
partition it counts, is refused past MAX_BASIS_LABELS before any work."""

import itertools
import math
import signal
import time
from fractions import Fraction

import pytest

from vermakit.chevalley import structure_constants
from vermakit.criteria import case3_additivity_check, classify_sl3
from vermakit.rootsys import SimpleSubset, Weight, parse_type, positive_subsystem
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import (MAX_BASIS_LABELS, VermaLikeModule, _drops_within,
                                _enum_f_labels, _verma_labels,
                                kostant_partition, levi_gvm, parabolic_verma,
                                reflection_formula_check, simple_dims)

_ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
              "F4", "G2"]

DEEP = 100000
GENERIC = Weight.of(Fraction(1, 2), Fraction(1, 3))


def _alarm(signum, frame):
    raise TimeoutError("no answer within the deadline")


@pytest.fixture
def deadline():
    """Turn a call that runs on past 3 s into a failure, not a hang."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(3)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda alg: VermaLikeModule(alg, GENERIC, DEEP),
    lambda alg: simple_dims(alg, GENERIC, DEEP),
    lambda alg: parabolic_verma(alg, SimpleSubset.of(0), Weight.of(2, 1), DEEP),
    lambda alg: levi_gvm(alg, SimpleSubset.of(0), Weight.of(2, 1), DEEP),
    lambda alg: case3_additivity_check(alg, Weight.of(0, 2), 0, DEEP),
    lambda alg: classify_sl3(alg, Weight.of(-2, 3), 5, 0, check_depth=DEEP),
    lambda alg: reflection_formula_check(alg, GENERIC, 0, DEEP)],
    ids=["verma", "simple_dims", "parabolic_verma", "levi_gvm",
         "case3_additivity_check", "classify_sl3", "reflection_formula_check"])
def test_library_refuses_a_depth_over_the_budget(alg_a2, call, deadline):
    # each call used to enumerate a basis to depth 100000, without bound
    size = _verma_labels(alg_a2.rs, DEEP, MAX_BASIS_LABELS)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"to depth {DEEP} has at least {size} "
                       f"basis labels, over the budget of {MAX_BASIS_LABELS}"):
        call(alg_a2)
    assert time.perf_counter() - start < 1


def test_kostant_partition_refuses_nu_over_the_budget(alg_a2, deadline):
    # (400, 400) used to take about half a minute; its memo keys are the
    # 401 * 401 remainders below nu at each root position
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"nu \(400, 400\) has 160801 remainders "
                       rf"below it, over the budget of {MAX_BASIS_LABELS}"):
        kostant_partition(alg_a2.rs, (400, 400))
    assert time.perf_counter() - start < 1
    assert kostant_partition(alg_a2.rs, (-1, 10 ** 6)) == 0


def _top_depth(rs):
    """The deepest truncation within the budget."""
    lo, hi = 1, MAX_BASIS_LABELS  # a Verma basis to depth d has > d labels
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _verma_labels(rs, mid, MAX_BASIS_LABELS) <= MAX_BASIS_LABELS:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("label", _ALL_TYPES)
def test_kostant_partition_answers_every_drop_within_the_budget(label):
    # the simple-root monomials below nu are distinct Verma labels of height
    # sum(nu), so no drop of a module within the budget is refused
    rs = parse_type(label)
    top = _top_depth(rs)
    nu = max(_drops_within(rs.rank, top), key=lambda d: math.prod(n + 1 for n in d))
    assert kostant_partition(rs, nu) >= 1


def _levi_bound(rs, I, depth):
    """N_I(depth) C(depth + |outside|, |outside|): the Verma labels of the
    Levi of I, times the exponent vectors over the dual-basis directions."""
    levi = sorted(rs.root_index[r] for r in positive_subsystem(rs, I))
    outside = rs.rank - len(I)
    n_levi = len(_enum_f_labels(rs.positive_roots, levi, depth))
    return n_levi * math.comb(depth + outside, outside)


def test_levi_module_can_pass_the_verma_count_within_the_stated_bound():
    # its t-labels spend no height: 13,134 labels where the Verma module to
    # the same depth has 7,652
    rs = parse_type("A4")
    alg = EnvelopingAlgebra(structure_constants(rs))
    I = SimpleSubset.of(0, 1, 2)
    module = levi_gvm(alg, I, Weight.of(4, 4, 0, Fraction(1, 3)), 10)
    assert len(module.basis) == 13134
    assert _verma_labels(rs, 10, MAX_BASIS_LABELS) == 7652
    assert len(module.basis) <= _levi_bound(rs, I, 10) <= 15774


def test_levi_bound_over_all_types_within_the_budget():
    # the largest N_I(d) C(d + |outside|, |outside|) a depth within the
    # budget allows, as the MAX_BASIS_LABELS comment states
    worst = 0
    for label in _ALL_TYPES:
        rs = parse_type(label)
        top = _top_depth(rs)
        for k in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), k):
                worst = max(worst, _levi_bound(rs, SimpleSubset.of(*I), top))
    assert worst == 15774
