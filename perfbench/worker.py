"""One benchmark process: import svdstop, build the instance, run timed passes.

``run.py`` starts this script in a fresh interpreter, so the time from
its start to ``ready_at`` is the set-up a command-line user pays. Then
it runs passes back to back for ``--seconds`` (one caller, closed loop),
timing the reference computations of ``workloads.ReferenceClock`` after
each, checks every pass against the reference outputs, and prints one
JSON line of raw results for ``run.py`` to pool. With ``--trace 1`` it
alternates untraced and traced passes, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", default=None)
    return parser.parse_args(argv)


def _install(tracer) -> None:
    from svdstop import cli, harness, lazysvd, lowerbound

    def note_stop(t, span, args, tau):
        t.counts["stopping.coeffs_read"] += tau
        t.counts["stopping.coeffs_touched"] += len(args[0])

    def note_csv(t, span, args, result):
        t.counts["harness.csv_bytes"] += os.path.getsize(args[0])

    def note_solve(t, span, args, result):
        rows, cols = args[0].entries.shape
        t.counts["lazysvd.matvecs"] += result.matvec_count
        t.counts["lazysvd.matvec_entries"] += rows * cols * result.matvec_count
        t.samples["lazysvd.iterations"].extend(result.state.iterations)

    def note_tv(t, span, args, result):
        if args[0] != args[1]:  # equal norms take the shortcut
            t.samples["lowerbound.tv_ms"].append((span[2] - span[1]) * 1e3)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "resolve_experiment", "signals.resolve")
    tracer.wrap(harness, "oracle_payload", "oracles.payload")
    tracer.wrap(harness, "simulate_observation", "model.simulate")
    tracer.wrap(harness, "stop_index", "stopping.stop", note_stop)
    tracer.wrap(harness, "aic_select", "stopping.aic")
    tracer.wrap(harness, "estimate_at", "estimator.estimate")
    tracer.wrap(harness, "write_records_csv", "harness.csv", note_csv)
    tracer.wrap(lazysvd, "sequential_solve", "lazysvd.solve", note_solve)
    tracer.wrap(lazysvd, "next_triplet", "lazysvd.triplet")
    tracer.wrap(lowerbound, "tv_numeric", "lowerbound.tv_numeric", note_tv)
    tracer.wrap(lowerbound, "tv_bound", "lowerbound.tv_bound")


def _layer_metrics(tracer) -> dict:
    """Per-module numbers of one traced pass."""
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    iterations = tracer.samples["lazysvd.iterations"]
    tv_ms = sorted(tracer.samples["lowerbound.tv_ms"])
    triplets = calls["lazysvd.triplet"]
    gb = 8e-9 * counts["lazysvd.matvec_entries"]
    return {
        "cli.self_s": self_s["cli.main"],
        "signals.resolve_s": self_s["signals.resolve"],
        "oracles.payload_s": self_s["oracles.payload"],
        "model.simulate_s": self_s["model.simulate"],
        "model.simulate_calls": calls["model.simulate"],
        "stopping.stop_s": self_s["stopping.stop"],
        "stopping.stop_calls": calls["stopping.stop"],
        "stopping.coeffs_read": counts["stopping.coeffs_read"],
        "stopping.read_ratio": _ratio(counts["stopping.coeffs_read"], counts["stopping.coeffs_touched"]),
        "stopping.aic_s": self_s["stopping.aic"],
        "stopping.aic_calls": calls["stopping.aic"],
        "estimator.estimate_s": self_s["estimator.estimate"],
        "estimator.estimate_calls": calls["estimator.estimate"],
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.csv_s": self_s["harness.csv"],
        "harness.csv_bytes": counts["harness.csv_bytes"],
        "lazysvd.triplet_s": self_s["lazysvd.triplet"],
        "lazysvd.triplets": triplets,
        "lazysvd.iterations": sum(iterations),
        "lazysvd.iterations_max": max(iterations, default=0),
        "lazysvd.matvecs_per_triplet": _ratio(counts["lazysvd.matvecs"], triplets),
        "lazysvd.solve_self_s": self_s["lazysvd.solve"],
        "lazysvd.matvec_gflop_computed": 2e-9 * counts["lazysvd.matvec_entries"],
        "lazysvd.matvec_gb_computed": gb,
        "lazysvd.achieved_gbps": _ratio(gb, self_s["lazysvd.triplet"]),
        "lowerbound.tv_numeric_s": self_s["lowerbound.tv_numeric"],
        "lowerbound.tv_calls": calls["lowerbound.tv_numeric"],
        "lowerbound.tv_p50_ms": _quantile(tv_ms, 0.5),
        "lowerbound.tv_p80_ms": _quantile(tv_ms, 0.8),
        "lowerbound.tv_bound_s": self_s["lowerbound.tv_bound"],
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "svdstop" / "__init__.py").is_file():
        print(json.dumps({"error": "missing", "message": f"no svdstop sources under {SRC}"}), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import svdstop.cli  # noqa: F401  (the import a command-line user pays)

    import_s = time.perf_counter() - start
    import svdstop

    if Path(svdstop.__file__).resolve().parent != SRC / "svdstop":
        print(json.dumps({"error": "missing", "message": f"imported svdstop from {svdstop.__file__}"}), file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    workload = workloads.make_workload(args.workload, args.seed, args.smoke)
    workload.setup()
    ready_at = time.monotonic()

    reference = workloads.load_reference(args.reference)[workloads.size_key(args.smoke)]
    passes = []  # (traced, seconds, outcome) in run order
    layers = []
    tracer = None
    clock = workloads.ReferenceClock(args.smoke, workload.yardstick)
    begin = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and 2 * sum(p[0] for p in passes) < len(passes)
            if traced:
                with Tracer() as tracer:
                    _install(tracer)
                    t0 = time.perf_counter()
                    outcome = workload.run_pass()
                    elapsed = time.perf_counter() - t0
                layers.append(_layer_metrics(tracer))
            else:
                t0 = time.perf_counter()
                outcome = workload.run_pass()
                elapsed = time.perf_counter() - t0
            passes.append((traced, elapsed, outcome))
            clock.keep_up(sum(p[1] for p in passes))
            enough = len(passes) >= (2 if args.trace else 1)
            typical = statistics.median(p[1] for p in passes)
            if enough and time.perf_counter() - begin + typical > args.seconds:
                break

        first = passes[0][2]
        attempted = failed = 0
        for _, _, outcome in passes:
            attempted += outcome.ops
            bad = workload.check(outcome, reference)
            if outcome.signature != first.signature:  # reruns, traced or not, must agree
                bad = outcome.ops
            failed += bad
    finally:
        workload.close()

    untraced = [p for p in passes if not p[0]]
    result = {
        "ready_at": ready_at,
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "signature": repr(first.signature),
        "work": first.work,
        "pass_seconds": {"untraced": [p[1] for p in untraced], "traced": [p[1] for p in passes if p[0]]},
        "untraced_ops": sum(p[2].ops for p in untraced),
        "scale": clock.scale(),
        "reference_seconds": {name: clock.seconds(name) if name in clock.jobs else 0.0 for name in workloads.NOMINAL_S},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
