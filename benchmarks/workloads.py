"""The four benchmark workloads.

Each workload is one closed loop with one client.  `passes(seed)` yields an
endless sequence of passes, each a list of ops whose composition is fixed and
whose parameters come from the seed; the loop runs whole passes, so the mix
of ops in a run does not depend on where the clock stops.  `setup()` imports
vermakit and builds what the ops share; it is the timed `setup_s`.  `run(op)`
is the timed op and `check(op, result)` its oracle, called after the timed
phase.  The program sees only the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).with_name("cli_child.py")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # children import from cached bytecode, as an installed vermakit would;
    # run.py's untimed warm-up child writes that cache inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _frac(rng: random.Random, dens=(1, 2, 3, 4, 6, 7)) -> F:
    return F(rng.randint(-8, 8), rng.choice(dens))


class Workload:
    # The speed kernel runs in this process, so it tracks the speed of ops
    # that run here window by window; a workload whose ops are child
    # processes scales by the run's median kernel time instead.
    scale_per_window = True


class ClassifyGrid(Workload):
    """classify_sl3 + verify_case_report on one shared A2 algebra, p=5, n=0.

    Each pass holds 16 singular, 12 regular non-integral and 12 regular
    integral weights, so the case mix is the same on every seed.
    """

    name = "classify-grid"
    trace_passes = 20
    MIX = (("singular", 16), ("regular_nonintegral", 12), ("regular_integral", 12))

    def setup(self) -> None:
        from vermakit import chevalley, criteria, rootsys, uea
        self.criteria, self.rootsys = criteria, rootsys
        rs = rootsys.parse_type("A2")
        self.alg = uea.EnvelopingAlgebra(chevalley.structure_constants(rs))

    @staticmethod
    def _weight(rng: random.Random, case: str) -> tuple[F, F]:
        while True:
            if case == "regular_integral":
                a, b = F(rng.randint(-7, 7)), F(rng.randint(-7, 7))
            elif case == "singular":
                form = rng.randrange(3)
                x = _frac(rng)
                a, b = [(x, F(-1)), (F(-1), x), (x, -2 - x)][form]
            else:
                a, b = _frac(rng), _frac(rng, (2, 3, 4, 6, 7))
                if rng.random() < 0.5:
                    a, b = b, a
            dominant = a.denominator == b.denominator == 1 and a >= 0 and b >= 0
            if not dominant and oracles.sl3_case(a, b) == case:
                return a, b

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            ops = [self._weight(rng, case) for case, k in self.MIX for _ in range(k)]
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        report = self.criteria.classify_sl3(self.alg, self.rootsys.Weight.of(*op), 5, 0)
        reverified = self.criteria.verify_case_report(self.alg, report)
        return report.case, reverified, report.checks.get("all_certificates_hold")

    def check(self, op, result) -> bool:
        return result == (oracles.sl3_case(*op), True, True)


class Modules(Workload):
    """Fresh algebra per job: simple characters from Shapovalov ranks,
    parabolic Verma characters, and Levi-induced phi_c checks."""

    name = "modules"
    trace_passes = 2
    DEEP = ("A2", (F(1, 2), F(-1, 3)), 18)  # ROADMAP item 3's A2 depth-18 case
    # (type, weight kind, depth).  At the seed commit the simple and parabolic
    # jobs cost 0.05-0.3 s and the Levi batches about 0.01 s, so the median of
    # a pass's 23 ops falls mid-cluster; a pass lasts about 4.7 s at the
    # reference speed, so a 20 s run makes 5 passes.  A2 generic at depth 12
    # (0.25-0.42 s) comes twice a pass, so that with the 5 deep cases above
    # them the tail falls in the middle of its 10 calls rather than on the
    # edge between them and the 0.2-0.25 s calls.
    SIMPLE = (("A2", "generic", 12), ("A2", "generic", 12), ("A2", "dominant", 10),
              ("A2", "dominant", 11), ("A3", "generic", 6), ("A3", "dominant", 6),
              ("A3", "dominant", 6), ("B2", "generic", 8), ("B2", "generic", 8),
              ("B2", "dominant", 8), ("B2", "dominant", 9), ("G2", "generic", 7),
              ("G2", "generic", 7), ("G2", "dominant", 8))
    PARABOLIC = (("A2", (0,), 14), ("A3", (0, 2), 8), ("B2", (1,), 12), ("G2", (0,), 10))
    LEVI = (("A2", (0,)), ("A3", (0, 1)), ("B2", (0,)), ("G2", (1,)))
    LEVI_DEPTH = 4
    LEVI_SAMPLES = 12

    def __init__(self):
        self._lie = {}

    def setup(self) -> None:
        from vermakit import chevalley, deform, rootsys, uea, weightmod
        self.chevalley, self.deform, self.rootsys = chevalley, deform, rootsys
        self.uea, self.weightmod = uea, weightmod

    def _algebra(self, label: str):
        rs = self.rootsys.parse_type(label)
        return self.uea.EnvelopingAlgebra(self.chevalley.structure_constants(rs))

    def lie(self, label: str) -> oracles.Lie:
        if label not in self._lie:
            self._lie[label] = oracles.Lie(label)
        return self._lie[label]

    @staticmethod
    def _generic(rng: random.Random, rank: int) -> tuple:
        # n + r/7 in every coordinate: each <lam + rho, alpha^v> is an integer
        # plus r*k/7 with 1 <= k <= 5 (coroot heights), never an integer
        r = rng.randint(1, 6)
        return tuple(F(7 * rng.randint(-2, 2) + r, 7) for _ in range(rank))

    @staticmethod
    def _dominant(rng: random.Random, rank: int) -> tuple:
        while True:
            lam = tuple(F(rng.randint(0, 2)) for _ in range(rank))
            if any(lam):
                return lam

    def _pass(self, rng: random.Random) -> list:
        ops = [("simple",) + self.DEEP]
        for label, kind, depth in self.SIMPLE:
            rank = len(oracles.CARTAN[label])
            gen = self._generic if kind == "generic" else self._dominant
            ops.append(("simple", label, gen(rng, rank), depth))
        for label, levi, depth in self.PARABOLIC:
            lam = list(self._generic(rng, len(oracles.CARTAN[label])))
            for i in levi:
                lam[i] = F(rng.randint(0, 2))
            ops.append(("parabolic", label, tuple(lam), depth, levi))
        for label, levi in self.LEVI:
            rank = len(oracles.CARTAN[label])
            lam = list(self._generic(rng, rank))
            for i in levi:
                lam[i] = F(rng.randint(0, 2))
            c = {j: F(-rng.randint(1, 4)) for j in range(rank) if j not in levi}
            ops.append(("levi", label, tuple(lam), self.LEVI_DEPTH, levi, c,
                        rng.randrange(2 ** 31)))
        rng.shuffle(ops)
        return ops

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield self._pass(rng)

    def run(self, op):
        kind, label, lam, depth = op[:4]
        alg = self._algebra(label)
        weight = self.rootsys.Weight.of(*lam)
        if kind == "simple":
            ch = self.weightmod.simple_dims(alg, weight, depth)
            return {w.coords: d for w, d in ch.dims}
        if kind == "parabolic":
            subset = self.rootsys.SimpleSubset.of(*op[4])
            module = self.weightmod.parabolic_verma(alg, subset, weight, depth)
            return {w.coords: d for w, d in module.character().dims}
        return self._phi_checks(alg, weight, depth, *op[4:])

    def _phi_checks(self, alg, weight, depth, levi, c, sample_seed) -> dict:
        deform = self.deform
        subset = self.rootsys.SimpleSubset.of(*levi)
        source = self.weightmod.levi_gvm(alg, subset, weight, depth)
        target = deform.phi_c_target(source, c)
        checks = {"surjective": deform.phi_c_surjective(source, c, target),
                  "hw_scalars": all(deform.hw_scalar_check(target, c, j)
                                    for j in source.outside)}
        rng = random.Random(sample_seed)
        gens = ([("e", i) for i in source.levi_idx] + [("f", i) for i in source.levi_idx]
                + [("h", i) for i in range(alg.rs.rank)])
        labels = [m for m in source.basis if sum(m[1]) + 1 <= source.depth]
        checks["homomorphism"] = all(
            deform.phi_c_homomorphism_check(
                source, alg.gen(*rng.choice(gens)),
                {rng.choice(labels): F(rng.randint(1, 9))}, c, target)
            for _ in range(self.LEVI_SAMPLES))
        return checks

    def check(self, op, result) -> bool:
        kind, label, lam, depth = op[:4]
        if kind == "levi":
            return result == {"surjective": True, "hw_scalars": True,
                              "homomorphism": True}
        levi = op[4] if kind == "parabolic" else None
        return oracles.check_character(self.lie(label), lam, depth, levi, result)


class LieData(Workload):
    """parse_type, structure_constants, verify_chevalley and bad_primes,
    each type once per pass on a fresh RootSystem."""

    name = "lie-data"
    trace_passes = 1
    TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "F4", "G2")
    # Ops that take over 0.4 s at the seed commit are left out, so that a pass
    # lasts about 2.5 s and every op is timed several times per run:
    # verify_chevalley on A4, B4, C4, D4, F4 (0.5-3.8 s) and bad_primes on A4,
    # D4 (1.5, 3.7 s) and B4, C4, F4 (17-146 s).  C2 is B2 relabelled, so its
    # bad primes are skipped too.  That leaves 41 ops a pass; the slowest five
    # (B3/C3 bad primes and verify, F4 constants) hold the tail.
    VERIFY = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
    PRIMES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")

    def __init__(self):
        self.golden = oracles.load_golden()
        self._live = {}

    def setup(self) -> None:
        from vermakit import chevalley, rootsys
        self.chevalley, self.rootsys = chevalley, rootsys

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.TYPES)
            rng.shuffle(order)
            ops = []
            for label in order:
                ops += [("parse", label), ("constants", label)]
                if label in self.VERIFY:
                    ops.append(("verify", label))
                if label in self.PRIMES:
                    ops.append(("bad_primes", label))
            yield ops

    def run(self, op):
        kind, label = op
        if kind == "parse":
            rs = self._live[label] = self.rootsys.parse_type(label)
            return rs.rank, len(rs.positive_roots)
        if kind == "constants":
            sc = self._live[label] = self.chevalley.structure_constants(self._live[label])
            return len(list(sc.pairs()))
        if kind == "verify":
            return self.chevalley.verify_chevalley(self._live[label])["all_pass"]
        return sorted(self.rootsys.bad_primes(self._live[label].rs))

    def check(self, op, result) -> bool:
        kind, label = op
        if kind == "parse":
            rank = int(label[1:])
            return result == (rank, oracles.POSITIVE_COUNTS[label[0]](rank))
        if kind == "constants":
            return result == self.golden["structure_constant_counts"][label]
        if kind == "verify":
            return result is True
        return result == self.golden["bad_primes"][label]


class CliVerbs(Workload):
    """One `python -m vermakit.cli` process per op, spawn to exit.

    A pass fills every slot below; the seed picks each slot's arguments from
    the recorded pool in golden.json, and the order.  The cheap slots appear
    twice so that the median of a pass falls in the middle of its eleven
    0.1-0.15 s calls, and so does `primes B3`, the dearest slot (0.35-0.45 s):
    a pass lasts about 2.7 s at the seed commit, so a 20 s run makes 7 or 8
    passes and 14 or 16 `primes B3` calls, and its tail falls among those
    rather than on the edge between them and the `verify` calls.
    """

    name = "cli-verbs"
    trace_passes = 2
    # per-op factors from this process widened its ten-seed spreads (tail
    # 0.09 to 0.24); unscaled, its median moved 16% in an hour
    scale_per_window = False
    traced = False
    SLOTS = ("classify-singular", "classify-singular", "classify-regular-integral",
             "classify-regular-integral", "character-parabolic", "character-parabolic",
             "primes-B3", "primes-B3", "primes-G2", "verify-all", "phi-check-A2", "phi-check-A2",
             "phi-check-A3", "phi-check-A3")

    def __init__(self):
        self.golden = oracles.load_golden()["cli"]
        self.envelopes = []  # traced children's timings and spans

    def setup(self) -> None:
        import vermakit.cli  # noqa: F401

    def passes(self, seed: int):
        rng = random.Random(seed)
        pools = {s: [e["argv"] for e in self.golden if e["slot"] == s] for s in self.SLOTS}
        while True:
            ops = [tuple(rng.choice(pools[s])) for s in self.SLOTS]
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        if self.traced:
            cmd = [sys.executable, str(CLI_CHILD), *op]
        else:
            cmd = [sys.executable, "-m", "vermakit.cli", *op]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=120)
        if not self.traced:
            return proc.returncode, proc.stdout.decode()
        envelope = json.loads(proc.stdout.decode().splitlines()[-1])
        self.envelopes.append(envelope)
        return envelope["exit"], envelope["stdout"]

    def check(self, op, result) -> bool:
        code, stdout = result
        want = next(e["stdout"] for e in self.golden if tuple(e["argv"]) == op)
        return code == 0 and stdout == want


WORKLOADS = {w.name: w for w in (ClassifyGrid, Modules, LieData, CliVerbs)}
