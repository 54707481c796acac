"""Irreducibility criteria for generalised Verma modules and the complete
case classifier for non-dominant-integral sl3 weights.

Condition (*) asks, for every positive root beta outside the parabolic
with <lam+rho, beta^v> a positive integer, for a root gamma in the span
of the parabolic roots and beta with <lam+rho, gamma^v> = 0 whose
beta-reflection lands back in the parabolic roots.  Condition (**) is the
stronger statement that no such beta exists at all.  Both are sufficient
for irreducibility; neither ever certifies reducibility.  (*), (**) and
``compute_A`` read one table of lam's pairings, ``rootsys.shifted_pairings``.

The classifier walks the sl3 proof tree once for every case: while the
terminal test of the weight's case fails, it dot-reflects in simple root 0
when <cur+rho, a_0^v> is not a nonnegative integer and otherwise in root 1.
Singular and regular non-integral weights stop at a (*) or (**)
certificate; regular integral weights stop at s_gamma applied to a
dominant weight and attach a finite-depth character-additivity
certificate there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .deform import weight_admissible
# rank is unused here but stays bound: the benchmark's tracer self-test
# checks that a function imported into several modules is patched in each
from .linalg import rank  # noqa: F401
from .rootsys import (Record, Root, RootSystem, SimpleSubset, Weight,
                      bad_primes, check_subset, check_weight, dot_reflect,
                      interior, is_singular, positive_subsystem,
                      root_subsystem, shifted_pairings, sub)
from .uea import EnvelopingAlgebra, check_odd_prime
from .weightmod import (VermaLikeModule, _check_depth, _check_dominant_on,
                        _drops_within, parabolic_verma, simple_dims_table)


def _is_positive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q >= 1


def _in_n0(q: Fraction) -> bool:
    return q.denominator == 1 and q >= 0


def psi_plus(rs: RootSystem, I: SimpleSubset, lam: Weight) -> set[Root]:
    """Positive roots outside the parabolic whose rho-shifted pairing with
    lam is a positive integer."""
    return _psi_plus(shifted_pairings(rs, lam), root_subsystem(rs, I))


def _psi_plus(pairings: dict[Root, Fraction], levi: set[Root]) -> set[Root]:
    """psi_plus over the roots of a shifted_pairings table."""
    return {beta for beta, q in pairings.items()
            if beta not in levi and _is_positive_integer(q)}


def condition_star(rs: RootSystem, I: SimpleSubset, lam: Weight,
                   phi_pos: list[Root] | None = None
                   ) -> tuple[bool, dict[Root, Root]]:
    """Returns (holds, witness per offending root).  The optional positive
    roots restrict the search to a sub-root-system.  The witnesses gamma
    are positive: -gamma passes each test exactly when gamma does."""
    pairings = shifted_pairings(rs, lam)
    check_subset(rs, I)
    _check_dominant_on(rs, lam, I)
    if phi_pos is not None:
        pairings = {beta: pairings[beta] for beta in phi_pos}
    levi = root_subsystem(rs, I)
    outside = [j for j in range(rs.rank) if j not in I]
    witnesses: dict[Root, Root] = {}
    for beta in sorted(_psi_plus(pairings, levi)):
        found = next((gamma for gamma, q in pairings.items()
                      if q == 0 and _in_levi_span(beta, gamma, outside)
                      and tuple(g - rs.root_pairing(gamma, beta) * b
                                for g, b in zip(gamma, beta)) in levi), None)
        if found is None:
            return False, witnesses
        witnesses[beta] = found
    return True, witnesses


def _in_levi_span(beta: Root, gamma: Root, outside: list[int]) -> bool:
    """Whether gamma lies in the span of beta and the simple roots not in
    ``outside``: its coordinates on ``outside`` are proportional to beta's,
    which are not all zero (beta is outside the Levi)."""
    k = next(j for j in outside if beta[j])
    return all(gamma[j] * beta[k] == gamma[k] * beta[j] for j in outside)


def condition_star_star(rs: RootSystem, I: SimpleSubset, lam: Weight) -> bool:
    return not psi_plus(rs, I, lam)


def compute_A(rs: RootSystem, I: SimpleSubset, lam: Weight) -> int:
    """Minimal positive integer A with <lam+rho, a^v> - A never a positive
    integer, over all roots a of the parabolic subsystem (both signs, so
    the absolute value of each positive root's pairing)."""
    pairings = shifted_pairings(rs, lam)
    return max([1] + [int(abs(pairings[a])) for a in positive_subsystem(rs, I)
                      if pairings[a].denominator == 1])


def good_prime(p: int, rs: RootSystem) -> bool:
    """An odd prime that is not bad for the root system."""
    try:
        check_odd_prime(p)
    except ValueError:
        return False
    return p not in bad_primes(rs)


def gvm_region_irreducible(rs: RootSystem, I: SimpleSubset, lam: Weight,
                           c: dict[int, int]) -> bool:
    """Irreducibility of the interior generalised Verma module at
    lam - sum c_j a_j, certified by condition (*) inside the Levi
    subsystem.  Requires integer c_j <= -A."""
    A = compute_A(rs, I, lam)  # checks lam, then I
    _check_dominant_on(rs, lam, I)
    outside = [j for j in range(rs.rank) if j not in I]
    if set(c) != set(outside):
        raise ValueError("c must be indexed by the simple roots outside I")
    for j, cj in c.items():
        if Fraction(cj).denominator != 1 or cj > -A:
            raise ValueError(f"c_{j} must be an integer at most -{A}")
    shifted = lam
    for j, cj in c.items():
        shifted = shifted - rs.weight_of_root(rs.simple_root(j)).scale(cj)
    ok, _ = condition_star(rs, interior(rs, I), shifted,
                           positive_subsystem(rs, I))
    return ok


def reflection_step(rs: RootSystem, lam: Weight, i: int) -> tuple[Weight, dict]:
    """Dot reflection in a simple root, licensed only when the rho-shifted
    pairing is not a nonnegative integer."""
    check_weight(rs, lam)
    check_subset(rs, SimpleSubset.of(i))
    q = lam.coords[i] + 1
    if _in_n0(q):
        raise ValueError(
            f"reflection in simple root {i} not licensed: pairing {q} is a "
            f"nonnegative integer")
    out = dot_reflect(rs, i, lam)
    cert = {"kind": "reflection_step", "alpha": i, "pairing": str(q),
            "from": [str(x) for x in lam.coords],
            "to": [str(x) for x in out.coords]}
    return out, cert


# -- the sl3 classifier --------------------------------------------------------


class CaseReport(Record):
    def __init__(self, input: dict, case: str, certificates: list | None = None,
                 chain: list | None = None, checks: dict | None = None):
        self.input = input
        self.case = case
        self.certificates = [] if certificates is None else certificates
        self.chain = [] if chain is None else chain  # list of Weights
        self.checks = {} if checks is None else checks

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "case": self.case,
            "chain": [[str(x) for x in w.coords] for w in self.chain],
            "certificates": self.certificates,
            "checks": dict(sorted(self.checks.items())),
        }


def _terminal_certificate(rs: RootSystem, I: SimpleSubset, lam: Weight,
                          starstar: bool) -> dict:
    """The (**) certificate on I when starstar, else the (*) one."""
    ok, witnesses = ((condition_star_star(rs, I, lam), {}) if starstar
                     else condition_star(rs, I, lam))
    if not ok:
        raise RuntimeError(f"classifier reached the terminal weight {lam} "
                           f"without condition {'(**)' if starstar else '(*)'} "
                           f"on I={sorted(I)}")
    cert = {"kind": "condition_star_star" if starstar else "condition_star",
            "weight": [str(x) for x in lam.coords], "I": sorted(I)}
    if not starstar:
        cert["witnesses"] = [{"beta": list(b), "gamma": list(g)}
                             for b, g in sorted(witnesses.items())]
    return cert


def case3_additivity_check(alg: EnvelopingAlgebra, mu: Weight, gamma: int,
                           depth: int) -> bool:
    """Character additivity at finite depth: the generalised Verma module
    for the simple root other than gamma, at dominant mu, matches the sum
    of the simple characters of mu and of its gamma-dot-reflection at every
    weight within the depth.  Weights are compared as root drops: mu - nu
    is s_gamma.mu - (nu - (mu_gamma + 1) alpha_gamma), so the reflected
    module is read, and built, only to depth - (mu_gamma + 1): drop 0 alone
    when that is not positive."""
    rs = alg.rs
    lhs = parabolic_verma(alg, SimpleSubset.of(1 - gamma), mu, depth)
    counts = lhs.drop_counts()
    top = simple_dims_table(VermaLikeModule(alg, mu, depth))
    height = int(mu.coords[gamma]) + 1
    reflected = simple_dims_table(VermaLikeModule(
        alg, dot_reflect(rs, gamma, mu), max(depth - height, 1)))
    shift = tuple(height if i == gamma else 0 for i in range(rs.rank))
    return all(counts.get(drop, 0) == top.get(drop, 0)
               + reflected.get(sub(drop, shift), 0)
               for drop in _drops_within(rs.rank, depth))


def classify_sl3(alg: EnvelopingAlgebra, lam: Weight, p: int, n: int,
                 check_depth: int = 4) -> CaseReport:
    rs = alg.rs
    if (rs.type_label, rs.rank) != ("A", 2):
        raise ValueError("classifier is specific to the rank-2 type A system")
    check_weight(rs, lam)
    _check_depth(rs, check_depth)
    if lam.is_dominant_integral():
        raise ValueError("dominant integral weights are excluded "
                         "(finite-dimensional simple quotient)")
    check_odd_prime(p)
    if not good_prime(p, rs):
        raise ValueError(f"{p} is not a good prime here")
    if not weight_admissible(rs, lam, p, n):
        raise ValueError(f"weight {lam} is not admissible at p={p}, n={n}")

    terminal = _terminal_subset
    if is_singular(rs, lam):
        case = "singular"
    elif not lam.is_integral():
        case = "regular_nonintegral"
    else:
        case, terminal = "regular_integral", partial(_dominant_reflection, rs)
    report = CaseReport(
        input={"type": "A2", "weight": [str(x) for x in lam.coords],
               "p": p, "n": n, "check_depth": check_depth},
        case=case, chain=[lam])
    cur = lam
    while (end := terminal(cur)) is None:
        i = 1 if _in_n0(cur.coords[0] + 1) else 0  # root 0 whenever licensed
        cur, cert = reflection_step(rs, cur, i)
        report.certificates.append(cert)
        report.chain.append(cur)
    if case != "regular_integral":
        report.certificates.append(_terminal_certificate(rs, end[0], cur, end[1]))
        report.checks["all_certificates_hold"] = True
        return report
    gamma, mu = end
    verdicts, key = alg.case3_verdicts, (mu.coords, gamma, check_depth)
    if key not in verdicts:
        verdicts[key] = case3_additivity_check(alg, mu, gamma, check_depth)
    ok = verdicts[key]
    report.certificates.append({
        "kind": "case3_extension",
        "base": [str(x) for x in cur.coords],
        "mu": [str(x) for x in mu.coords],
        "gamma": gamma,
        "parabolic": 1 - gamma,
        "depth": check_depth,
    })
    report.checks["case3_character_additivity"] = ok
    report.checks["all_certificates_hold"] = ok
    return report


def _dominant_reflection(rs: RootSystem, cur: Weight) -> tuple[int, Weight] | None:
    """Terminal (gamma, mu) for a regular integral weight: the first simple
    dot reflection mu = s_gamma . cur that is dominant integral, or None."""
    for gamma in (0, 1):
        mu = dot_reflect(rs, gamma, cur)
        if mu.is_dominant_integral():
            return gamma, mu
    return None


def _terminal_subset(cur: Weight) -> tuple[SimpleSubset, bool] | None:
    """Terminal (I, is_star_star) for the rank-2 walk, or None when a
    licensed reflection is still needed."""
    a, b = cur.coords
    if b == -1:
        return ((SimpleSubset.of(), True) if not _in_n0(a)
                else (SimpleSubset.of(0), False))
    if a == -1:
        return ((SimpleSubset.of(), True) if not _in_n0(b)
                else (SimpleSubset.of(1), False))
    if a + b + 2 == 0:
        return None  # singular in the long root only: reflect first
    # regular non-integral from here on
    if _in_n0(a):
        return (SimpleSubset.of(0), False)
    if _in_n0(b):
        return (SimpleSubset.of(1), False)
    if a.denominator == 1 or b.denominator == 1:
        return None  # one negative-integer coordinate: reflect it away
    if not _is_positive_integer(a + b + 2):
        return (SimpleSubset.of(), True)
    return None


def verify_case_report(alg: EnvelopingAlgebra, report: CaseReport) -> bool:
    """Independently re-check every certificate in a report; a malformed
    field (a missing key, an index outside {0, 1}, a non-number) fails it,
    and so does a walk that stops short of a terminal certificate.

    A case3_extension needs no module.  With mu dominant integral and beta
    the simple root other than gamma, every Kazhdan-Lusztig polynomial of A2
    is 1, so at every weight and depth ch L(mu) + ch L(s_gamma.mu)
    = sum_W (-1)^l(w) ch M(w.mu) + sum_{w >= s_gamma} (-1)^(l(w)-1) ch M(w.mu)
    = ch M(mu) - ch M(s_beta.mu) = ch M_beta(mu).  So the certificate holds
    when s_gamma.mu is the chain weight and the report records the check."""
    if (alg.rs.type_label, alg.rs.rank) != ("A", 2):
        raise ValueError("case reports are specific to the rank-2 type A system")
    try:
        return _certificates_hold(alg.rs, report)
    except (LookupError, TypeError, ValueError):
        return False


def _certificates_hold(rs: RootSystem, report: CaseReport) -> bool:
    chain_pos = 0
    cur = report.chain[0]
    for cert in report.certificates:
        kind = cert["kind"]
        if kind == "reflection_step":
            i = cert["alpha"]
            if i not in (0, 1) or _in_n0(cur.coords[i] + 1):
                return False
            cur = dot_reflect(rs, i, cur)
            chain_pos += 1
            if (chain_pos >= len(report.chain)
                    or report.chain[chain_pos] != cur):
                return False
        elif kind == "condition_star":
            ok, _ = condition_star(rs, SimpleSubset.of(*cert["I"]), cur)
            if not ok:
                return False
        elif kind == "condition_star_star":
            if not condition_star_star(rs, SimpleSubset.of(*cert["I"]), cur):
                return False
        elif kind == "case3_extension":
            mu = Weight.of(*cert["mu"])
            gamma, depth = cert["gamma"], cert["depth"]
            if not (gamma in (0, 1) and isinstance(depth, int) and depth >= 1
                    and mu.is_dominant_integral()
                    and dot_reflect(rs, gamma, mu) == cur
                    and report.checks.get("case3_character_additivity") is True):
                return False
        else:
            return False
    # the walk must reach the chain's end and stop at a terminal certificate
    return (chain_pos == len(report.chain) - 1 and report.certificates[-1]["kind"]
            in ("condition_star", "condition_star_star", "case3_extension"))
