"""vermakit benchmark: one workload, one closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): classify-grid, modules, lie-data, cli-verbs.

--trace 0 prints the end-to-end metrics: throughput, median and tail
latency, setup time (median of several fresh interpreters), peak RSS and
the share of ops that passed their oracle.  Every time in them is scaled to
a fixed reference host speed by a kernel timed between windows of ops
(speed.py); the times as measured are printed above the result.  --trace 1
runs the same ops untraced and then traced, each in a fresh interpreter, and
prints the per-layer metrics (as measured) plus the tracing overhead.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the lines above it
are for people.  Every process this starts is waited for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
import tracer as tracing
from workloads import ROOT, SRC, WORKLOADS, child_env

WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_SAMPLES = 11  # fresh interpreters timed per run for setup_s
DEADLINE_S = 170  # a run must exit within 180 s
TAIL_BEYOND = 10

E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, n): the highest sample with at least `beyond`
    samples above it, and the percentile it sits at.  With `beyond` samples
    or fewer no such percentile exists; the maximum is returned at 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        # the ceiling keeps git from looking above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"python": sys.version.split()[0], "executable": sys.executable,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "src_sha256": digest.hexdigest()[:16]}


class Runner:
    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = perf_counter() + DEADLINE_S

    def child(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--mode", mode, *extra]
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise RuntimeError("out of time before starting a child")
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runner: Runner, seed: int, seconds: int) -> tuple[dict, dict]:
    runner.child("setup")  # fills the bytecode cache; not counted
    # half the set-up samples before the timed phase and half after it, so
    # their median does not hang on one short stretch of machine speed
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES // 2)]
    main = runner.child("timed", "--seed", str(seed), "--seconds", str(seconds))
    setups.append(main)
    setups += [runner.child("setup") for _ in range(SETUP_SAMPLES // 2)]
    ok = main["attempted"] - main["failed"]
    tail, pct, n = tail_percentile(main["latencies"])
    metrics = {
        "throughput_ops_s": ok / main["scaled_s"],
        "latency_p50_ms": 1000 * median(main["latencies"]),
        "latency_tail_ms": 1000 * tail,
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": ok / main["attempted"],
    }
    print(f"latency_tail_ms is p{pct:.2f} of n={n} ops ({min(n - 1, TAIL_BEYOND)} beyond); "
          f"{main['passes']} passes in {main['wall_s']:.2f} s; "
          f"failed_frac {main['failed'] / main['attempted']:.6f}")
    print(f"as measured: {ok / main['ops_s']:.4f} ops/s, "
          f"p50 {1000 * median(main['raw_latencies']):.4f} ms, "
          f"tail {1000 * tail_percentile(main['raw_latencies'])[0]:.4f} ms, "
          f"setup {median(s['raw_setup_s'] for s in setups):.4f} s; "
          f"speed kernel median {1000 * median(main['kernel_s']):.3f} ms "
          f"over {len(main['kernel_s'])} runs, reference {1000 * speed.REFERENCE_S:.3f} ms")
    return metrics, main


def layered(runner: Runner, seed: int, seconds: int) -> tuple[dict, list]:
    passes = str(WORKLOADS[runner.workload].trace_passes)
    base = runner.child("timed", "--seed", str(seed), "--seconds", str(seconds / 2),
                        "--max-passes", passes)
    traced = runner.child("traced", "--seed", str(seed), "--max-passes", str(base["passes"]))
    children = traced["cli_children"]
    raw = tracing.merge_raw([traced["trace"]] + [c["trace"] for c in children])
    metrics = tracing.layer_metrics(raw)
    import_s = sum(c["import_s"] for c in children)
    main_s = sum(c["main_s"] for c in children)
    metrics["cli.import_s"] = import_s
    metrics["cli.interpreter_s"] = (sum(traced["raw_latencies"]) - import_s - main_s
                                    if children else 0.0)
    metrics["trace.overhead_ratio"] = traced["scaled_s"] / base["scaled_s"]
    missing = sorted(raw["missing"].items())
    for target, reason in missing:
        print(f"trace: missing {target} ({reason}); metrics fed by it read 0")
    print(f"traced {traced['passes']} passes, {traced['attempted']} ops: "
          f"{base['wall_s']:.2f} s untraced, {traced['wall_s']:.2f} s traced")
    return metrics, [base, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "vermakit" / "__init__.py").is_file():
        print(f"error: no vermakit sources under {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()))
    runner = Runner(args.workload)
    try:
        if args.trace:
            metrics, children = layered(runner, args.seed, args.seconds)
            units = {}
        else:
            metrics, main_child = end_to_end(runner, args.seed, args.seconds)
            children = [main_child]
            units = E2E_UNITS
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for failure in child["failures"]:
            print(f"FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
