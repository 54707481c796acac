import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from vermakit import chevalley
from vermakit.chevalley import (constants_to_json, structure_constants,
                                verify_chevalley)
from vermakit.deform import phi_c_homomorphism_check, phi_c_target
from vermakit.rootsys import SimpleSubset, Weight, add, neg, parse_type, sub
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import VermaLikeModule, levi_gvm, simple_dims_table


@pytest.fixture(scope="module")
def sc_a2():
    return structure_constants(parse_type("A2"))


# sha256 of each type's constants_to_json, recorded before the Chevalley
# layer cached its root norms and bracket table
CONSTANT_DIGESTS = json.loads(
    (Path(__file__).with_name("data") / "chevalley_constants_sha256.json").read_text())

# repr of each type's verify_chevalley report, on the built table and on the
# three mutations of mutated_tables, recorded when the build, the bracket and
# the checks still ran on root tuples
RECORDED_REPORTS = json.loads(
    (Path(__file__).with_name("data") / "chevalley_reports.json").read_text())


def reference_jacobi(sc) -> dict:
    """The Jacobi check on all n^3 ordered generator triples, with the first
    failing triple in product order: the reference for verify_chevalley,
    which evaluates only the sorted triples."""
    gens = sc.generators()
    for g1, g2, g3 in product(gens, gens, gens):
        acc = {}
        for x, y, z in ((g1, g2, g3), (g2, g3, g1), (g3, g1, g2)):
            for g, c in sc.bracket(x, y).items():
                for k, v in sc.bracket(g, z).items():
                    acc[k] = acc.get(k, 0) + c * v
        if any(acc.values()):
            return {"pass": False, "counterexample": (g1, g2, g3)}
    return {"pass": True, "counterexample": None}


def assert_report_matches_the_reference(sc) -> dict:
    report = verify_chevalley(sc)
    want = dict(report, jacobi=reference_jacobi(sc))
    want["all_pass"] = all(v["pass"] for k, v in want.items() if k != "all_pass")
    assert report == want
    return report


@pytest.mark.parametrize("label", sorted(CONSTANT_DIGESTS))
def test_every_type_verifies_with_the_recorded_constants(label):
    sc = structure_constants(parse_type(label))
    records = json.dumps(constants_to_json(sc), sort_keys=True).encode()
    assert hashlib.sha256(records).hexdigest() == CONSTANT_DIGESTS[label]
    assert assert_report_matches_the_reference(sc)["all_pass"]


def mutated_tables(label):
    """(name, StructureConstants) for the built table and, where a pair
    (a, b) of positive roots has a root sum (the first in table order), three
    corruptions of it: C[a,b], C[b,a], C[-b,-a], C[-a,-b] doubled; C[a,b]
    alone negated; C[a,b] deleted."""
    yield "honest", structure_constants(parse_type(label))
    first = structure_constants(parse_type(label))
    pair = next(((a, b) for a, b in first._table
                 if sum(a) > 0 and sum(b) > 0), None)
    if pair is None:
        return
    a, b = pair
    for key in ((a, b), (b, a), (neg(b), neg(a)), (neg(a), neg(b))):
        first._table[key] *= 2
    yield "doubled", first
    sc = structure_constants(parse_type(label))
    sc._table[a, b] *= -1
    yield "negated", sc
    sc = structure_constants(parse_type(label))
    del sc._table[a, b]
    yield "deleted", sc


@pytest.mark.parametrize("label", sorted(RECORDED_REPORTS))
def test_reports_match_the_recorded_ones(label):
    got = {name: repr(verify_chevalley(sc)) for name, sc in mutated_tables(label)}
    assert got == RECORDED_REPORTS[label]


def tuple_string_down(rs, alpha, beta) -> int:
    """Largest k with beta - k*alpha a root, by tuple arithmetic."""
    k, cur = 0, sub(beta, alpha)
    while rs.is_root(cur):
        k += 1
        cur = sub(cur, alpha)
    return k


@pytest.mark.parametrize("label", sorted(CONSTANT_DIGESTS))
def test_key_string_down_matches_the_tuple_walk(label):
    sc = structure_constants(parse_type(label))
    rs = sc.rs
    for (a, ka), (b, kb) in product(zip(rs.roots, rs.keys), repeat=2):
        assert sc._string_down(ka, kb) == tuple_string_down(rs, a, b), (a, b)


def count_jacobi_evaluations(monkeypatch) -> list[int]:
    """Count the triples verify_chevalley evaluates from now on."""
    evaluated, honest = [0], chevalley._jacobi_fails

    def counting(*args):
        evaluated[0] += 1
        return honest(*args)

    monkeypatch.setattr(chevalley, "_jacobi_fails", counting)
    return evaluated


def triple_weight(sc, triple) -> tuple:
    zero = (0,) * sc.rs.rank
    return add(add(sc.gen_root(triple[0]) or zero, sc.gen_root(triple[1]) or zero),
               sc.gen_root(triple[2]) or zero)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_doubled_constant_quadruple_fails_only_jacobi(label, monkeypatch):
    # doubling C[a,b], C[b,a], C[-b,-a], C[-a,-b] keeps antisymmetry, the
    # transpose symmetry and the support, and breaks only the Jacobi identity;
    # the table stays weight-graded, so the pruned scan runs, and the failing
    # triple has a root weight, so it still reports it
    sc = structure_constants(parse_type(label))
    a, b = sc.rs.simple_root(0), sc.rs.simple_root(1)
    for key in ((a, b), (b, a), (neg(b), neg(a)), (neg(a), neg(b))):
        sc._table[key] *= 2
    evaluated = count_jacobi_evaluations(monkeypatch)
    report = assert_report_matches_the_reference(sc)
    assert not report["jacobi"]["pass"]
    assert not report["all_pass"]
    assert all(v["pass"] for k, v in report.items()
               if k not in ("jacobi", "all_pass"))
    bad = report["jacobi"]["counterexample"]
    assert sc.rs.is_root(triple_weight(sc, bad))
    assert evaluated[0] < list(combinations(sc.generators(), 3)).index(bad) + 1


def test_bracket_term_of_the_wrong_weight_forces_the_full_scan(sc_a2, monkeypatch):
    # [e_0, e_2] = 0 in A2, since alpha_2 + (alpha_1 + alpha_2) is no root;
    # planting h_0 in both orders keeps the table antisymmetric but not
    # weight-graded, so every sorted triple is scanned.  The first failing
    # triple has weight 2 alpha_1 + 2 alpha_2, which a pruned scan would skip
    planted = {(("e", 0), ("e", 2)): {("h", 0): 1},
               (("e", 2), ("e", 0)): {("h", 0): -1}}
    honest = sc_a2.bracket
    monkeypatch.setattr(sc_a2, "bracket",
                        lambda g1, g2: planted.get((g1, g2)) or honest(g1, g2))
    evaluated = count_jacobi_evaluations(monkeypatch)
    report = assert_report_matches_the_reference(sc_a2)
    bad = (("e", 0), ("e", 1), ("e", 2))
    assert report["jacobi"] == {"pass": False, "counterexample": bad}
    assert triple_weight(sc_a2, bad) == (2, 2)
    assert evaluated[0] == list(combinations(sc_a2.generators(), 3)).index(bad) + 1


@pytest.mark.parametrize("label,count", [("A3", 219), ("B3", 558), ("C3", 558),
                                         ("G2", 190), ("F4", 6212)])
def test_graded_scan_evaluates_only_triples_of_root_or_zero_weight(
        label, count, monkeypatch):
    # of C(n, 3) sorted triples: 455 on A3, 1,330 on B3/C3, 364 on G2 and
    # 22,100 on F4
    sc = structure_constants(parse_type(label))
    evaluated = count_jacobi_evaluations(monkeypatch)
    assert verify_chevalley(sc)["all_pass"]
    assert evaluated[0] == count
    assert count == sum(1 for t in combinations(sc.generators(), 3)
                        if not any(w := triple_weight(sc, t))
                        or sc.rs.is_root(w))


def test_bracket_table_that_is_not_antisymmetric_fails_jacobi(sc_a2, monkeypatch):
    # [e_0, f_1] = 0 in A2; planting h_0 in one order only breaks
    # [x, y] = -[y, x], on which the sorted-triple Jacobi check rests
    honest = sc_a2.bracket

    def bracket(g1, g2):
        return {("h", 0): 1} if (g1, g2) == (("e", 0), ("f", 1)) else honest(g1, g2)

    monkeypatch.setattr(sc_a2, "bracket", bracket)
    report = verify_chevalley(sc_a2)
    assert report["jacobi"] == {"pass": False,
                                "counterexample": (("e", 0), ("f", 1))}
    assert all(v["pass"] for k, v in report.items()
               if k not in ("jacobi", "all_pass"))


def test_cartan_action_reports_the_first_mismatch(sc_a2, monkeypatch):
    # two planted wrong h-brackets; loop order is h index, then root, e before f
    planted = {(("h", 1), ("e", 0)), (("h", 0), ("f", 2))}
    honest = sc_a2.bracket

    def bracket(g1, g2):
        return {g2: 7} if (g1, g2) in planted else honest(g1, g2)

    monkeypatch.setattr(sc_a2, "bracket", bracket)
    report = verify_chevalley(sc_a2)
    assert report["cartan_action"] == {"pass": False,
                                       "counterexample": ("h", 0, "f", 2)}


def test_ef_coroot_is_rechecked_against_the_symmetric_form(monkeypatch):
    # [e_a, f_a] reads coroot_coefficients; the check re-derives the coroot
    # with its own double sum, so a wrong coroot there is still seen
    sc = structure_constants(parse_type("B2"))
    rs, honest = sc.rs, sc.rs.coroot_coefficients
    top = rs.positive_roots[-1]
    monkeypatch.setattr(rs, "coroot_coefficients", lambda alpha: tuple(
        2 * c for c in honest(alpha)) if alpha == top else honest(alpha))
    report = verify_chevalley(sc)
    assert report["ef_coroot"] == {"pass": False, "counterexample": top}


def test_ef_coroot_reads_neither_norm_nor_coroot_coefficients(monkeypatch):
    # once the brackets are memoised, the check runs with both gone; a
    # symmetrizer under which the coroot of a1 + a2 is 2 h_1 + 2/3 h_2 fails
    # it there, though every bracket is unchanged
    sc = structure_constants(parse_type("B2"))
    rs = sc.rs
    assert verify_chevalley(sc)["all_pass"]

    def gone(alpha):
        raise AssertionError("ef_coroot read the code that built the bracket")

    monkeypatch.setattr(rs, "norm", gone)
    monkeypatch.setattr(rs, "coroot_coefficients", gone)
    assert verify_chevalley(sc)["all_pass"]
    monkeypatch.setattr(rs, "symmetrizer", [3, 1])
    report = verify_chevalley(sc)
    assert report["ef_coroot"] == {"pass": False, "counterexample": (1, 1)}
    assert all(v["pass"] for k, v in report.items()
               if k not in ("ef_coroot", "all_pass"))


def test_all_relations_hold_small_types():
    for label in ("A1", "A2", "B2", "C3", "G2"):
        report = verify_chevalley(structure_constants(parse_type(label)))
        assert report["all_pass"], {k: v for k, v in report.items()
                                    if k != "all_pass" and not v["pass"]}


def test_constant_magnitudes_match_string_lengths(sc_a2):
    # in simply laced systems every constant is +-1
    assert {abs(v) for _, v in sc_a2.pairs()} == {1}
    sc_g2 = structure_constants(parse_type("G2"))
    assert {abs(v) for _, v in sc_g2.pairs()} == {1, 2, 3}


def test_transpose_symmetry(sc_a2):
    for (x, y), v in sc_a2.pairs():
        assert sc_a2.c(neg(y), neg(x)) == v


def test_support_only_on_root_sums(sc_a2):
    rs = sc_a2.rs
    for x in rs.roots:
        for y in rs.roots:
            s = add(x, y)
            expected = any(s) and rs.is_root(s)
            assert (sc_a2.c(x, y) != 0) == expected


def test_bracket_ef_gives_coroot(sc_a2):
    rs = sc_a2.rs
    long_root = (1, 1)
    idx = rs.root_index[long_root]
    got = sc_a2.bracket(("e", idx), ("f", idx))
    assert got == {("h", 0): 1, ("h", 1): 1}


def ad_matrix(sc, x) -> list[list[int]]:
    """Matrix of [x, -] on the basis (e-block, h-block, f-block)."""
    gens = sc.generators()
    index = {g: i for i, g in enumerate(gens)}
    mat = [[0] * len(gens) for _ in gens]
    for j, g in enumerate(gens):
        for target, coeff in sc.bracket(x, g).items():
            mat[index[target]][j] += coeff
    return mat


def test_ad_matrices_represent_the_bracket():
    # ad[x]ad[y] - ad[y]ad[x] = ad[[x,y]] on every generator pair: ad is a
    # homomorphism exactly when the Jacobi identity holds, so this checks it
    # with no code shared with verify_chevalley
    def matmul(a, b):
        n = len(a)
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for label in ("A2", "B2", "G2"):
        sc = structure_constants(parse_type(label))
        gens = sc.generators()
        n = len(gens)
        ad = {g: ad_matrix(sc, g) for g in gens}
        for x, y in product(gens, gens):
            xy, yx = matmul(ad[x], ad[y]), matmul(ad[y], ad[x])
            comm = [[xy[i][j] - yx[i][j] for j in range(n)] for i in range(n)]
            want = [[0] * n for _ in range(n)]
            for g, c in sc.bracket(x, y).items():
                for i in range(n):
                    for j in range(n):
                        want[i][j] += c * ad[g][i][j]
            assert comm == want, (label, x, y)


def test_json_export_round_trips(sc_a2):
    records = constants_to_json(sc_a2)
    assert len(records) == len(dict(sc_a2.pairs()))
    for rec in records:
        assert sc_a2.c(tuple(rec["alpha"]), tuple(rec["beta"])) == rec["value"]


@pytest.mark.parametrize("label", sorted(CONSTANT_DIGESTS))
def test_memoised_brackets_match_a_fresh_computation(label):
    # the Verma, Chevalley and Levi layers all read one bracket memo; a
    # caller that mutated a returned dict would leave a wrong entry behind
    sc = structure_constants(parse_type(label))
    rs, alg = sc.rs, EnvelopingAlgebra(sc)
    lam = Weight.of(1, *[Fraction(1, 2)] * (rs.rank - 1))
    simple_dims_table(VermaLikeModule(alg, lam, 3))
    assert verify_chevalley(sc)["all_pass"]
    source = levi_gvm(alg, SimpleSubset.of(0), lam, 2)
    c = {j: Fraction(-2) for j in source.outside}
    vec = {lab: Fraction(1) for lab in source.basis if not any(lab[1])}
    idx = rs.root_index[rs.simple_root(0)]
    target = phi_c_target(source, c)
    for g in (("e", idx), ("f", idx), ("h", 0)):
        assert phi_c_homomorphism_check(source, alg.gen(*g), vec, c, target)
    fresh = structure_constants(rs)
    assert len(sc._brackets) >= len(sc.generators()) ** 2
    for (g1, g2), value in sc._brackets.items():
        assert value == fresh.bracket(g1, g2), (g1, g2)


def test_zero_brackets_share_one_read_only_result():
    sc = structure_constants(parse_type("B2"))
    assert verify_chevalley(sc)["all_pass"]
    zeros = [v for v in sc._brackets.values() if not v]
    assert zeros and all(v is zeros[0] for v in zeros)
    zero = sc.bracket(("h", 0), ("h", 1))
    assert zero is zeros[0] and zero == {}
    with pytest.raises(TypeError):
        zero[("h", 0)] = 1
    with pytest.raises(AttributeError):
        zero.update({("h", 0): 1})
    assert sc.bracket(("e", 0), ("e", 0)) == {}
