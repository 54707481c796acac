"""Command-line front end.

Verbs: classify (sl3 case report), character (Verma or parabolic character
table), primes (bad-prime set), verify (property suites), phi-check
(projection identities on a Levi-induced module).  Exit status 0 on
success, 1 on a verification failure, 2 on a parse error, 3 on a violated
precondition.  All output is deterministic; --json switches to a
machine-readable report carrying a schema version.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import criteria, deform, reflect_identities
from .chevalley import structure_constants, verify_chevalley
from .rootsys import (SimpleSubset, Weight, bad_primes, dot_orbit,
                      parse_type, parse_weight)
from .uea import (DeformationContext, EnvelopingAlgebra, exp_truncated,
                  iwasawa_generator_monomial, multiply, weight_components)
from .weightmod import (character_to_json, kostant_partition, levi_gvm,
                        parabolic_verma, verma)

SCHEMA = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class _CLIError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        report = {"schema": SCHEMA, **report}
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in lines:
            print(line)


def _parse_subset(rs, text: str) -> SimpleSubset:
    text = text.strip()
    if not text:
        return SimpleSubset.of()
    try:
        indices = [int(t) for t in text.split(",")]
    except ValueError as e:
        raise _CLIError(EXIT_PARSE, f"bad simple-root subset {text!r}: {e}")
    for i in indices:
        if not 0 <= i < rs.rank:
            raise _CLIError(EXIT_PARSE, f"bad simple-root subset {text!r}: "
                                        f"index {i} is not in 0..{rs.rank - 1}")
    return SimpleSubset.of(*indices)


def _parse_weight_arg(rs, text: str) -> Weight:
    try:
        return parse_weight(rs, text)
    except (ValueError, ZeroDivisionError) as e:
        raise _CLIError(EXIT_PARSE, f"bad weight {text!r}: {e}")


def _parse_type_arg(text: str):
    try:
        return parse_type(text)
    except ValueError as e:
        raise _CLIError(EXIT_PARSE, str(e))


# -- verbs -------------------------------------------------------------------


def _cmd_classify(args) -> int:
    rs = _parse_type_arg(args.type)
    lam = _parse_weight_arg(rs, args.weight)
    alg = EnvelopingAlgebra(structure_constants(rs))
    try:
        report = criteria.classify_sl3(alg, lam, args.prime, args.n,
                                       check_depth=args.depth)
    except ValueError as e:
        raise _CLIError(EXIT_PRECONDITION, str(e))
    verified = criteria.verify_case_report(alg, report)
    body = report.to_json()
    body["reverified"] = verified
    lines = [f"case: {report.case}",
             "chain: " + " -> ".join(str(w) for w in report.chain)]
    for cert in report.certificates:
        lines.append("certificate: " + json.dumps(cert))
    lines.append(f"reverified: {verified}")
    _emit(body, args.json, lines)
    if not verified or not report.checks.get("all_certificates_hold", False):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_character(args) -> int:
    rs = _parse_type_arg(args.type)
    lam = _parse_weight_arg(rs, args.weight)
    alg = EnvelopingAlgebra(structure_constants(rs))
    I = _parse_subset(rs, args.parabolic)
    try:
        if len(I):
            module = parabolic_verma(alg, I, lam, args.depth)
        else:
            module = verma(alg, lam, args.depth)
    except ValueError as e:
        raise _CLIError(EXIT_PRECONDITION, str(e))
    ch = character_to_json(module.character())
    body = {"type": args.type, "weight": [str(x) for x in lam.coords],
            "parabolic": sorted(I), "depth": args.depth, "character": ch}
    lines = [f"{entry['weight']}  dim {entry['dim']}" for entry in ch]
    _emit(body, args.json, lines)
    return EXIT_OK


def _cmd_primes(args) -> int:
    rs = _parse_type_arg(args.type)
    primes = sorted(bad_primes(rs))
    body = {"type": args.type, "bad_primes": primes}
    _emit(body, args.json, [f"bad primes for {args.type}: {primes}"])
    return EXIT_OK


def _cmd_phi_check(args) -> int:
    rs = _parse_type_arg(args.type)
    lam = _parse_weight_arg(rs, args.weight)
    I = _parse_subset(rs, args.parabolic)
    outside = [j for j in range(rs.rank) if j not in I]
    parts = args.c.split(",") if args.c.strip() else []
    if len(parts) != len(outside):
        raise _CLIError(EXIT_PARSE,
                        f"need {len(outside)} scalar(s) for c, got {len(parts)}")
    try:
        c = {j: Fraction(t) for j, t in zip(outside, parts)}
    except (ValueError, ZeroDivisionError) as e:
        raise _CLIError(EXIT_PARSE, f"bad scalar vector {args.c!r}: {e}")
    alg = EnvelopingAlgebra(structure_constants(rs))
    try:
        if args.samples < 1:
            raise ValueError("samples must be at least 1")
        if not deform.scalars_admissible(c, args.prime, args.n):
            raise ValueError(f"c is not admissible at p={args.prime}, n={args.n}")
        source = levi_gvm(alg, I, lam, args.depth)
        target = deform.phi_c_target(source, c)
    except ValueError as e:
        raise _CLIError(EXIT_PRECONDITION, str(e))
    checks = {}
    checks["surjective"] = deform.phi_c_surjective(source, c, target)
    checks["hw_scalars"] = all(deform.hw_scalar_check(target, c, j)
                               for j in outside)
    rng = random.Random(args.seed)
    gens = ([("e", i) for i in source.levi_idx]
            + [("f", i) for i in source.levi_idx]
            + [("h", i) for i in range(rs.rank)])
    ok = True
    for _ in range(args.samples):
        g = rng.choice(gens)
        label = rng.choice([m for m in source.basis
                            if sum(m[1]) + 1 <= source.depth])
        vec = {label: Fraction(rng.randint(1, 9))}
        if not deform.phi_c_homomorphism_check(source, alg.gen(*g), vec, c,
                                               target):
            ok = False
            break
    checks["homomorphism"] = ok
    body = {"type": args.type, "weight": [str(x) for x in lam.coords],
            "parabolic": sorted(I), "c": {str(j): str(v) for j, v in c.items()},
            "depth": args.depth, "checks": checks}
    lines = [f"{name}: {'pass' if v else 'FAIL'}" for name, v in checks.items()]
    _emit(body, args.json, lines)
    return EXIT_OK if all(checks.values()) else EXIT_VERIFY


# -- verify suites -----------------------------------------------------------


def _suite_chevalley(depth: int, rng) -> tuple[bool, str]:
    for label in ("A1", "A2", "B2"):
        report = verify_chevalley(structure_constants(parse_type(label)))
        if not report["all_pass"]:
            bad = next(k for k, v in report.items()
                       if k != "all_pass" and not v["pass"])
            return False, f"{label}: {bad} fails"
    return True, "relations hold for A1, A2, B2"


def _random_element(alg, rng, deg: int):
    gens = alg.sc.generators()
    out = alg.zero()
    for _ in range(3):
        term = alg.one()
        for _ in range(rng.randint(0, deg)):
            term = multiply(term, alg.gen(*rng.choice(gens)))
        out = out + term.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return out


def _suite_pbw(depth: int, rng) -> tuple[bool, str]:
    alg = EnvelopingAlgebra(structure_constants(parse_type("A2")))
    for k in range(25):
        x, y, z = (_random_element(alg, rng, 2) for _ in range(3))
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            return False, f"associativity fails on triple {k}"
        parts = weight_components(x)
        if sum(parts.values(), alg.zero()) != x:
            return False, "weight components do not resum"
    return True, "associativity and weight grading on 25 random triples"


def _suite_verma(depth: int, rng) -> tuple[bool, str]:
    rs = parse_type("A2")
    alg = EnvelopingAlgebra(structure_constants(rs))
    lam = Weight.of(Fraction(2, 7), Fraction(-3, 5))
    module = verma(alg, lam, depth)
    ch = module.character().as_dict()
    for s in module.basis:
        nu = module.label_drop(s)
        w = lam - rs.weight_of_root(nu)
        if ch[w] != kostant_partition(rs, nu):
            return False, f"multiplicity mismatch at drop {nu}"
    return True, f"Verma character matches the partition count to depth {depth}"


def _suite_jantzen(depth: int, rng) -> tuple[bool, str]:
    rs = parse_type("A2")
    for a in range(4):
        ok, _ = criteria.condition_star(rs, SimpleSubset.of(0),
                                        Weight.of(a, -1))
        if not ok:
            return False, f"condition (*) fails at a={a}"
    for a in (Fraction(1, 2), Fraction(-5, 4)):
        if not criteria.condition_star_star(rs, SimpleSubset.of(),
                                            Weight.of(a, -1)):
            return False, f"condition (**) fails at a={a}"
    for _ in range(50):
        lam = Weight.of(*[Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
                          for _ in range(2)])
        dom = [i for i in range(2) if lam.coords[i].denominator == 1
               and lam.coords[i] >= 0]
        I = SimpleSubset.of(*[i for i in dom if rng.random() < 0.5])
        if criteria.condition_star_star(rs, I, lam):
            ok, _ = criteria.condition_star(rs, I, lam)
            if not ok:
                return False, f"(**) without (*) at {lam}, I={sorted(I)}"
    return True, "witness rows and 50 (**)=>(*) samples"


def _suite_phi(depth: int, rng) -> tuple[bool, str]:
    rs = parse_type("A2")
    alg = EnvelopingAlgebra(structure_constants(rs))
    source = levi_gvm(alg, SimpleSubset.of(0), Weight.of(2, Fraction(1, 3)),
                      min(depth, 4))
    c = {1: Fraction(-3)}
    target = deform.phi_c_target(source, c)
    if not deform.phi_c_surjective(source, c, target):
        return False, "projection misses part of the target basis"
    if not deform.hw_scalar_check(target, c, 1):
        return False, "highest-weight scalar identity fails"
    gens = ([("e", i) for i in source.levi_idx]
            + [("f", i) for i in source.levi_idx] + [("h", 0), ("h", 1)])
    for k in range(15):
        g = rng.choice(gens)
        label = rng.choice([m for m in source.basis
                            if sum(m[1]) + 1 <= source.depth])
        if not deform.phi_c_homomorphism_check(
                source, alg.gen(*g), {label: Fraction(1)}, c, target):
            return False, f"homomorphism identity fails on sample {k}"
    return True, "surjectivity, scalar identity, 15 homomorphism samples"


def _suite_reflection(depth: int, rng) -> tuple[bool, str]:
    alg1 = EnvelopingAlgebra(structure_constants(parse_type("A1")))
    alg2 = EnvelopingAlgebra(structure_constants(parse_type("A2")))
    for a in (Fraction(5), Fraction(1, 2), Fraction(-3, 4), Fraction(-2)):
        for s in range(min(depth, 6) + 1):
            if not reflect_identities.reflection_formula_check(
                    alg1, Weight.of(a), 0, s):
                return False, f"sl2 identity fails at a={a}, s={s}"
            if not reflect_identities.reflection_formula_check(
                    alg2, Weight.of(a, Fraction(1, 3)), 0, s):
                return False, f"embedded identity fails at a={a}, s={s}"
    return True, "divided-power identity in sl2 and embedded"


def _suite_iwasawa(depth: int, rng) -> tuple[bool, str]:
    alg = EnvelopingAlgebra(structure_constants(parse_type("A1")))
    ctx = DeformationContext(5, 0, max(depth, 4))
    x = alg.gen("f", 0)
    prod = multiply(exp_truncated(x.scale(5), ctx),
                    exp_truncated(x.scale(-5), ctx), ctx)
    if prod != alg.one():
        return False, "exp(x)exp(-x) is not 1 to depth"
    basis = [alg.gen("f", 0), alg.gen("h", 0), alg.gen("e", 0)]
    for s in ((1, 0, 0), (0, 1, 1), (2, 0, 0)):
        elem = iwasawa_generator_monomial(s, basis, ctx)
        low = min(elem.terms, key=alg.degree)
        expect = (tuple(s[:1]), tuple(s[1:2]), tuple(s[2:]))
        if low != expect or elem.terms[low] != Fraction(5) ** sum(s):
            return False, f"lowest term wrong for s={s}"
    return True, "group-like generators have the predicted lowest terms"


def _suite_linkage(depth: int, rng) -> tuple[bool, str]:
    rs = parse_type("A2")
    for _ in range(50):
        lam = Weight.of(*[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
                          for _ in range(2)])
        dom = [w for w in dot_orbit(rs, lam) if w.is_dominant_integral()]
        if len(dom) > 1:
            return False, f"two dominant weights linked to {lam}"
    return True, "each sampled dot orbit has at most one dominant weight"


def _suite_classifier(depth: int, rng) -> tuple[bool, str]:
    rs = parse_type("A2")
    alg = EnvelopingAlgebra(structure_constants(rs))
    expect = {(Fraction(1, 2), Fraction(-1)): ("singular", "condition_star_star"),
              (Fraction(2), Fraction(-1)): ("singular", "condition_star"),
              (Fraction(-2), Fraction(3)): ("regular_integral",
                                            "case3_extension")}
    for coords, (case, kind) in expect.items():
        report = criteria.classify_sl3(alg, Weight.of(*coords), 5, 0,
                                       check_depth=min(depth, 4))
        if report.case != case or report.certificates[-1]["kind"] != kind:
            return False, f"unexpected report for {coords}"
        if not criteria.verify_case_report(alg, report):
            return False, f"certificates do not re-verify for {coords}"
    return True, "reference weights classify and re-verify"


_SUITES = {
    "chevalley": _suite_chevalley,
    "pbw": _suite_pbw,
    "verma": _suite_verma,
    "jantzen": _suite_jantzen,
    "phi": _suite_phi,
    "reflection": _suite_reflection,
    "iwasawa": _suite_iwasawa,
    "linkage": _suite_linkage,
    "classifier": _suite_classifier,
}


def _cmd_verify(args) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        rng = random.Random(args.seed)
        ok, detail = _SUITES[name](args.depth, rng)
        results.append({"suite": name, "pass": ok, "detail": detail})
    body = {"results": results, "pass": all(r["pass"] for r in results)}
    lines = [f"{r['suite']:<12} {'pass' if r['pass'] else 'FAIL'}  {r['detail']}"
             for r in results]
    _emit(body, args.json, lines)
    return EXIT_OK if body["pass"] else EXIT_VERIFY


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermakit",
        description="Exact computations with Verma modules, irreducibility "
                    "certificates, and p-adic deformation checks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, weight=True):
        p.add_argument("--type", default="A2",
                       help="root system label, e.g. A2 (default)")
        if weight:
            p.add_argument("--weight", required=True,
                           help="fundamental coordinates, e.g. 1/2,-1")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("classify", help="case report for an sl3 weight")
    common(p)
    p.add_argument("--prime", type=int, default=5)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--depth", type=int, default=4,
                   help="character-check depth for integral-case certificates")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("character", help="highest-weight character table")
    common(p)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--parabolic", default="",
                   help="comma-separated simple-root indices, empty for Verma")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("primes", help="bad primes of a root system")
    common(p, weight=False)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("phi-check", help="projection identities on a "
                                         "Levi-induced module")
    common(p)
    p.add_argument("--parabolic", required=True)
    p.add_argument("--c", required=True,
                   help="comma-separated scalars for the outside directions")
    p.add_argument("--prime", type=int, default=5)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_phi_check)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold '--weight -2,3' into '--weight=-2,3' so leading minus signs are
    not mistaken for option flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--weight", "--c") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.status
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
