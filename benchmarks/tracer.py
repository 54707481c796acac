"""Per-layer spans recorded from outside the program.

The tracer wraps public entry points of each vermakit layer.  Each call
opens a span; when it closes, its duration goes to its parent's child time
and its self time (duration minus the time its child spans cover) to its
layer.  Spans are aggregated as they close instead of being stored, since
the rewriting engine alone opens millions of them.

A wrapped name is replaced in every vermakit module that binds it, because
`from .linalg import rank` copies the binding into the importing module.
A target that no longer exists is reported as missing, not raised.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from time import perf_counter

# span name -> (module, attribute path) targets whose calls it covers
TARGETS = {
    "rootsys.root_closure": [("vermakit.rootsys", "RootSystem._close_positive_roots")],
    "rootsys.closed_subsystems": [("vermakit.rootsys", "enumerate_closed_subsystems")],
    "rootsys.bad_primes": [("vermakit.rootsys", "bad_primes")],
    "chevalley.structure_constants": [("vermakit.chevalley", "StructureConstants.__init__")],
    "chevalley.verify": [("vermakit.chevalley", "verify_chevalley")],
    "chevalley.bracket": [("vermakit.chevalley", "StructureConstants.bracket")],
    "uea.gen_mul_mono": [("vermakit.uea", "EnvelopingAlgebra.gen_mul_mono")],
    "weightmod.module_build": [
        ("vermakit.weightmod", "VermaLikeModule.__init__"),
        ("vermakit.weightmod", "QuotientModule.__init__"),
        ("vermakit.weightmod", "LeviInducedModule.__init__"),
    ],
    "weightmod.act_label": [
        ("vermakit.weightmod", "VermaLikeModule.act_label"),
        ("vermakit.weightmod", "QuotientModule.act_label"),
        ("vermakit.weightmod", "LeviInducedModule.act_label"),
    ],
    "weightmod.gram": [("vermakit.weightmod", "shapovalov_gram")],
    "weightmod.kostant": [("vermakit.weightmod", "kostant_partition")],
    "linalg.rref": [("vermakit.linalg", "rref")],
    "linalg.rank": [("vermakit.linalg", "rank")],
    "criteria.classify": [("vermakit.criteria", "classify_sl3")],
    "criteria.reverify": [("vermakit.criteria", "verify_case_report")],
    "criteria.case3": [("vermakit.criteria", "case3_additivity_check")],
    "deform.phi_checks": [
        ("vermakit.deform", "phi_c_surjective"),
        ("vermakit.deform", "hw_scalar_check"),
        ("vermakit.deform", "phi_c_homomorphism_check"),
    ],
    "cli.main": [("vermakit.cli", "main")],
}

LAYER_MODULES = sorted({mod for targets in TARGETS.values() for mod, _ in targets})


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.counts = {"bad_primes_repeats": 0, "case3_repeats": 0,
                       "gen_mul_mono_distinct": 0, "basis_labels": 0,
                       "gram_entries": 0, "rref_cells": 0,
                       "rank_sum": 0, "rank_rows": 0}
        self.missing: dict[str, str] = {}
        self._stack: list[list[float]] = []
        self._seen_types: set = set()
        self._seen_case3: set = set()
        self._mono_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patched: list[tuple] = []
        self._observers = {
            "rootsys.bad_primes": self._on_bad_primes,
            "criteria.case3": self._on_case3,
            "uea.gen_mul_mono": self._on_gen_mul_mono,
            "weightmod.module_build": self._on_module_build,
            "weightmod.gram": self._on_gram,
            "linalg.rref": self._on_rref,
            "linalg.rank": self._on_rank,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for mod_name, path in targets:
                try:
                    owner, attr, original = _resolve(mod_name, path)
                except (ImportError, AttributeError) as e:
                    self.missing[f"{mod_name}.{path}"] = f"{type(e).__name__}: {e}"
                    continue
                wrapped = self._wrap(name, original)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                # rebind the function wherever a vermakit module imported it
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("vermakit")
                            and getattr(mod, attr, None) is original):
                        self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        observer = self._observers.get(name)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observer is not None:
                try:
                    observer(args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as e:
                    # the call's signature changed: keep timing, drop the counter
                    self.missing[f"{name} counter"] = f"{type(e).__name__}: {e}"
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # -- counters ---------------------------------------------------------------

    def _on_bad_primes(self, args, result) -> None:
        rs = args[0]
        key = (rs.type_label, rs.rank)
        if key in self._seen_types:
            self.counts["bad_primes_repeats"] += 1
        self._seen_types.add(key)

    def _on_case3(self, args, result) -> None:
        _, mu, gamma, depth = args
        key = (tuple(mu.coords), gamma, depth)
        if key in self._seen_case3:
            self.counts["case3_repeats"] += 1
        self._seen_case3.add(key)

    def _on_gen_mul_mono(self, args, result) -> None:
        alg, g, m = args
        keys = self._mono_keys.get(alg)
        if keys is None:
            keys = self._mono_keys[alg] = set()
            weakref.finalize(alg, self._retire_keys, keys)
        keys.add((g, m))

    def _retire_keys(self, keys: set) -> None:
        self.counts["gen_mul_mono_distinct"] += len(keys)

    def _on_module_build(self, args, result) -> None:
        self.counts["basis_labels"] += len(args[0].basis)

    def _on_gram(self, args, result) -> None:
        self.counts["gram_entries"] += len(result) * len(result[0]) if result else 0

    def _on_rref(self, args, result) -> None:
        rows = args[0]
        self.counts["rref_cells"] += len(rows) * len(rows[0]) if rows else 0

    def _on_rank(self, args, result) -> None:
        self.counts["rank_sum"] += result
        self.counts["rank_rows"] += len(args[0])

    # -- reporting ----------------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals, so several traced processes can be summed."""
        counts = dict(self.counts)
        counts["gen_mul_mono_distinct"] += sum(len(k) for k in self._mono_keys.values())
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": counts, "missing": dict(self.missing)}


def _resolve(mod_name: str, path: str):
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    original = vars(owner)[attr]
    if not callable(original):
        raise AttributeError(f"{path} is not callable")
    return owner, attr, original


def merge_raw(parts: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "counts": {}, "missing": {}}
    for part in parts:
        for key in ("calls", "self_s", "counts"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["missing"].update(part["missing"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values by name (without the cli.* and trace.* ones,
    which come from process timings)."""
    calls, self_s, counts = raw["calls"], raw["self_s"], raw["counts"]
    c = lambda n: calls.get(n, 0)
    s = lambda n: self_s.get(n, 0.0)
    return {
        "rootsys.root_closure.self_s": s("rootsys.root_closure"),
        "rootsys.closed_subsystems.calls": c("rootsys.closed_subsystems"),
        "rootsys.closed_subsystems.self_s": s("rootsys.closed_subsystems"),
        "rootsys.bad_primes.calls": c("rootsys.bad_primes"),
        "rootsys.bad_primes.self_s": s("rootsys.bad_primes"),
        "rootsys.bad_primes.repeat_ratio":
            _ratio(counts.get("bad_primes_repeats", 0), c("rootsys.bad_primes")),
        "chevalley.structure_constants.self_s": s("chevalley.structure_constants"),
        "chevalley.verify.self_s": s("chevalley.verify"),
        "chevalley.bracket.calls": c("chevalley.bracket"),
        "chevalley.bracket.self_s": s("chevalley.bracket"),
        "uea.gen_mul_mono.calls": c("uea.gen_mul_mono"),
        "uea.gen_mul_mono.self_s": s("uea.gen_mul_mono"),
        "uea.gen_mul_mono.distinct_ratio":
            _ratio(counts.get("gen_mul_mono_distinct", 0), c("uea.gen_mul_mono")),
        "weightmod.module_build.self_s": s("weightmod.module_build"),
        "weightmod.basis_labels": counts.get("basis_labels", 0),
        "weightmod.act_label.calls": c("weightmod.act_label"),
        "weightmod.act_label.self_s": s("weightmod.act_label"),
        "weightmod.gram.calls": c("weightmod.gram"),
        "weightmod.gram.self_s": s("weightmod.gram"),
        "weightmod.gram.entries": counts.get("gram_entries", 0),
        "weightmod.kostant.self_s": s("weightmod.kostant"),
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rref.self_s": s("linalg.rref"),
        "linalg.rref.cells": counts.get("rref_cells", 0),
        "linalg.rank.rank_ratio":
            _ratio(counts.get("rank_sum", 0), counts.get("rank_rows", 0)),
        "criteria.classify.self_s": s("criteria.classify"),
        "criteria.reverify.self_s": s("criteria.reverify"),
        "criteria.case3.calls": c("criteria.case3"),
        "criteria.case3.self_s": s("criteria.case3"),
        "criteria.case3.repeat_ratio":
            _ratio(counts.get("case3_repeats", 0), c("criteria.case3")),
        "deform.phi_checks.calls": c("deform.phi_checks"),
        "deform.phi_checks.self_s": s("deform.phi_checks"),
        "cli.main.self_s": s("cli.main"),
    }
