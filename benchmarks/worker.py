"""One benchmark child process: set up one workload and run its ops.

    python3 benchmarks/worker.py --workload NAME --mode setup
    python3 benchmarks/worker.py --workload NAME --mode timed --seed N --seconds S [--max-passes K]
    python3 benchmarks/worker.py --workload NAME --mode traced --seed N --max-passes K

`setup` only times `setup()`.  `timed` starts whole passes while less than
--seconds of op time at the reference speed have elapsed, so a run measures
at least --seconds and at most one pass more, and the number of passes does
not follow the host's speed (it stops early at WALL_CAP times --seconds of
wall time).  `traced` installs the layer tracer first and runs exactly K
passes.  Times are reported both as measured and scaled to the reference
host speed (speed.py).  Every mode prints one JSON object as its last line;
run.py starts each mode in a fresh interpreter, so no memo or module-global
cache (criteria._CASE3_CACHE among them) carries from one run into the next.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import speed
from workloads import SRC, WORKLOADS

WALL_CAP = 1.5  # a timed run ends after this many times --seconds of wall time


def run_passes(wl, seed: int, seconds: float, max_passes: int) -> dict:
    """Closed loop: ops run back to back; results are checked afterwards.

    Ops run in windows of about WINDOW_S with the speed kernel run between
    windows, and each window's times are scaled by its own factor, or by
    one factor for the whole run where the workload's ops run in child
    processes (`scale_per_window` false; speed.py).
    `latencies` and `scaled_s` are at the reference speed, `raw_latencies`
    and `ops_s` as measured; neither total counts the kernel's own runs.
    """
    windows, done = [], []
    passes = 0
    budget_s = 0.0  # reference-speed time so far, from the kernel runs so far
    scale = speed.SpeedScale()
    start = perf_counter()
    for ops in wl.passes(seed):
        if max_passes and passes >= max_passes:
            break
        if budget_s >= seconds or perf_counter() - start >= WALL_CAP * seconds:
            break
        i = 0
        while i < len(ops):
            window = []
            t_window = perf_counter()
            while i < len(ops) and (not window or perf_counter() - t_window < speed.WINDOW_S):
                op = ops[i]
                i += 1
                t0 = perf_counter()
                try:
                    result, error = wl.run(op), None
                except Exception as e:  # an op that raises counts as failed
                    result, error = None, f"{type(e).__name__}: {e}"
                window.append(perf_counter() - t0)
                done.append((op, result, error))
            elapsed = perf_counter() - t_window
            factor = scale.next()
            windows.append((elapsed, window, factor))
            budget_s += elapsed * factor
        passes += 1
    wall = perf_counter() - start
    failures = []
    for op, result, error in done:
        if error is None:
            try:
                ok = wl.check(op, result)
            except Exception as e:
                ok, error = False, f"oracle raised {type(e).__name__}: {e}"
            if not ok and error is None:
                error = f"wrong result {result!r}"[:300]
        if error is not None:
            failures.append(f"{op!r}: {error}"[:400])
    if not wl.scale_per_window:
        run_factor = scale.run_factor()
        windows = [(e, ts, run_factor) for e, ts, _ in windows]
    return {"latencies": [t * f for _, ts, f in windows for t in ts],
            "raw_latencies": [t for _, ts, _ in windows for t in ts], "wall_s": wall,
            "ops_s": sum(e for e, _, _ in windows),
            "scaled_s": sum(e * f for e, _, f in windows),
            "kernel_s": scale.kernel_times, "factors": [f for _, _, f in windows],
            "window_ops": [len(ts) for _, ts, _ in windows],
            "passes": passes, "attempted": len(done), "failed": len(failures),
            "failures": failures[:5]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        for mod in tracing.LAYER_MODULES:
            try:
                __import__(mod)
            except ImportError:
                pass  # reported as missing by install()
        tracer = tracing.Tracer()
        tracer.install()
        wl.traced = True
    scale = speed.SpeedScale()
    t0 = perf_counter()
    wl.setup()
    raw_setup = perf_counter() - t0
    out = {"setup_s": raw_setup * scale.next(), "raw_setup_s": raw_setup}
    import vermakit
    if not vermakit.__file__.startswith(str(SRC)):
        raise SystemExit(f"vermakit imported from {vermakit.__file__}, not {SRC}")
    if args.mode != "setup":
        seconds = args.seconds if args.mode == "timed" else float("inf")
        out.update(run_passes(wl, args.seed, seconds, args.max_passes))
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.raw()
            out["cli_children"] = getattr(wl, "envelopes", [])
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-verbs" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
