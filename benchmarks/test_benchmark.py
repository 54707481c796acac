"""Self-tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from statistics import median

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from workloads import ClassifyGrid, CliVerbs, LieData, Modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize("n, index, pct", [(100, 89, 90.0), (1000, 989, 99.0),
                                           (40, 29, 75.0), (11, 0, 100 / 11)])
def test_tail_leaves_exactly_ten_samples_beyond(n, index, pct):
    samples = list(range(n))[::-1]
    value, got_pct, got_n = run.tail_percentile(samples)
    assert (value, got_n) == (index, n)
    assert got_pct == pytest.approx(pct)
    assert sum(x > value for x in samples) == 10


def test_tail_without_ten_beyond_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- oracles reject perturbed results ----------------------------------------------


def test_classify_oracle_rejects_wrong_case_or_failed_reverify():
    wl = ClassifyGrid()
    op = (F(1, 2), F(-1))
    assert wl.check(op, ("singular", True, True))
    assert not wl.check(op, ("regular_nonintegral", True, True))
    assert not wl.check(op, ("singular", False, True))
    assert not wl.check((F(-2), F(3)), ("singular", True, True))


def _perturbed(table: dict) -> dict:
    w = next(iter(table))
    return {**table, w: table[w] + 1}


@pytest.mark.parametrize("op", [
    ("simple", "A2", (F(1, 2), F(-1, 3)), 6),          # generic: Kostant
    ("simple", "A3", (F(1), F(0), F(1)), 8),           # dominant: Weyl + Kostant
    ("simple", "G2", (F(1), F(0)), 6),
    ("parabolic", "B2", (F(2, 7), F(2)), 6, (1,)),    # parabolic: W_I alternating sum
])
def test_module_oracle_accepts_vermakit_and_rejects_perturbations(op):
    wl = Modules()
    wl.setup()
    got = wl.run(op)
    assert wl.check(op, got)
    assert not wl.check(op, _perturbed(got))
    assert not wl.check(op, dict(list(got.items())[1:]))


def test_weyl_dimension_check_catches_a_consistent_but_wrong_table():
    lie = oracles.Lie("A2")
    lam = (F(1), F(1))
    table = oracles.expected_character(lie, lam, 4, None)
    assert sum(table.values()) == lie.weyl_dim(lam) == 8
    assert oracles.check_character(lie, lam, 4, None, table)
    assert not oracles.check_character(lie, lam, 4, None, _perturbed(table))


def test_levi_oracle_rejects_any_failed_check():
    wl = Modules()
    op = ("levi", "A2", (F(2), F(1, 7)), 4, (0,), {1: F(-3)}, 0)
    good = {"surjective": True, "hw_scalars": True, "homomorphism": True}
    assert wl.check(op, good)
    for key in good:
        assert not wl.check(op, {**good, key: False})


def test_lie_data_oracles_reject_perturbations():
    wl = LieData()
    assert wl.check(("parse", "F4"), (4, 24))
    assert not wl.check(("parse", "F4"), (4, 23))
    assert wl.check(("bad_primes", "G2"), [2, 3])
    assert not wl.check(("bad_primes", "G2"), [2])
    assert not wl.check(("verify", "B3"), False)
    count = wl.golden["structure_constant_counts"]["B3"]
    assert wl.check(("constants", "B3"), count)
    assert not wl.check(("constants", "B3"), count - 1)


def test_cli_oracle_rejects_changed_bytes_or_exit_code():
    wl = CliVerbs()
    entry = wl.golden[0]
    op = tuple(entry["argv"])
    assert wl.check(op, (0, entry["stdout"]))
    assert not wl.check(op, (0, entry["stdout"].replace("\n", " \n", 1)))
    assert not wl.check(op, (1, entry["stdout"]))


def test_oracle_root_data_matches_the_classical_counts():
    for label, lie in ((t, oracles.Lie(t)) for t in oracles.CARTAN):
        assert len(lie.positive) == oracles.POSITIVE_COUNTS[label[0]](int(label[1:]))


# -- a planted wrong answer raises the failure count ------------------------------------


def test_planted_wrong_answer_is_counted_as_failed(monkeypatch):
    wl = ClassifyGrid()
    wl.setup()
    clean = worker.run_passes(wl, seed=3, seconds=float("inf"), max_passes=1)
    assert clean["failed"] == 0 and clean["attempted"] == 40

    original = wl.criteria.classify_sl3

    def planted(alg, lam, p, n, **kw):
        report = original(alg, lam, p, n, **kw)
        if report.case == "regular_integral":
            report.case = "singular"
        return report

    monkeypatch.setattr(wl.criteria, "classify_sl3", planted)
    dirty = worker.run_passes(wl, seed=3, seconds=float("inf"), max_passes=1)
    assert dirty["failed"] == 12  # every regular-integral op in the pass
    assert dirty["attempted"] == 40


def test_an_op_that_raises_is_counted_as_failed(monkeypatch):
    wl = LieData()
    wl.setup()
    monkeypatch.setattr(wl.chevalley, "verify_chevalley", lambda sc: 1 / 0)
    out = worker.run_passes(wl, seed=0, seconds=float("inf"), max_passes=1)
    assert out["failed"] == len(LieData.VERIFY)
    assert "ZeroDivisionError" in out["failures"][0]


# -- speed scaling ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", [ClassifyGrid, CliVerbs])
def test_run_scales_every_latency_by_its_factor(workload, monkeypatch):
    wl = workload()
    wl.setup()
    if workload is CliVerbs:  # one slot of the pass is enough here
        monkeypatch.setattr(CliVerbs, "SLOTS", CliVerbs.SLOTS[:1])
    out = worker.run_passes(wl, seed=3, seconds=float("inf"), max_passes=1)
    assert out["failed"] == 0
    assert len(out["latencies"]) == len(out["raw_latencies"]) == out["attempted"]
    assert sum(out["window_ops"]) == out["attempted"]
    kernel = out["kernel_s"]
    assert len(kernel) == len(out["factors"]) + 1
    if wl.scale_per_window:
        want = [2 * speed.REFERENCE_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    else:
        want = [speed.REFERENCE_S / median(kernel)] * len(out["factors"])
    assert out["factors"] == pytest.approx(want)
    per_op = [f for n, f in zip(out["window_ops"], out["factors"]) for _ in range(n)]
    assert out["latencies"] == pytest.approx([t * f for t, f in zip(out["raw_latencies"], per_op)])
    assert out["ops_s"] <= out["wall_s"]


# -- the tracer -------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_reports_missing_targets(monkeypatch):
    import tracer as tracing
    from vermakit import criteria, linalg, rootsys, weightmod

    monkeypatch.setitem(tracing.TARGETS, "gone.layer", [("vermakit.linalg", "no_such_fn"),
                                                         ("vermakit.uea", "EnvelopingAlgebra.gone"),
                                                         ("vermakit.no_such_module", "f")])
    t = tracing.Tracer()
    t.install()
    try:
        assert weightmod.rank is linalg.rank is criteria.rank is rootsys.rank
        assert linalg.rank.__wrapped__ is not None
        assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    finally:
        t.uninstall()
    assert not hasattr(linalg.rank, "__wrapped__")
    raw = t.raw()
    assert set(raw["missing"]) == {"vermakit.linalg.no_such_fn",
                                   "vermakit.uea.EnvelopingAlgebra.gone",
                                   "vermakit.no_such_module.f"}
    assert raw["calls"]["linalg.rank"] == 1 and raw["calls"]["linalg.rref"] == 1
    metrics = tracing.layer_metrics(raw)
    assert metrics["linalg.rank.rank_ratio"] == 0.5
    assert metrics["linalg.rref.cells"] == 4


def test_self_time_is_duration_minus_child_spans(monkeypatch):
    import time
    import types

    import tracer as tracing

    fake = types.ModuleType("vermakit_fake")
    exec("import time\n"
         "def inner():\n    time.sleep(0.05)\n"
         "def outer():\n    time.sleep(0.02)\n    inner()\n    inner()\n", fake.__dict__)
    monkeypatch.setitem(sys.modules, "vermakit_fake", fake)
    monkeypatch.setattr(tracing, "TARGETS", {"outer": [("vermakit_fake", "outer")],
                                             "inner": [("vermakit_fake", "inner")]})
    t = tracing.Tracer()
    t.install()
    start = time.perf_counter()
    fake.outer()
    total = time.perf_counter() - start
    t.uninstall()
    raw = t.raw()
    assert raw["calls"] == {"outer": 1, "inner": 2}
    assert 0.1 <= raw["self_s"]["inner"] < 0.1 + (total - 0.12)
    assert 0.02 <= raw["self_s"]["outer"] < 0.02 + (total - 0.12)
    assert sum(raw["self_s"].values()) == pytest.approx(total, abs=0.005)


# -- end to end ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric(workload, trace):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "modules",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
