#!/usr/bin/env python3
"""svdstop benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload mc-smooth --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/svdstop``. A run starts ``WORKERS`` fresh interpreters
one after another; each times its set-up and then runs passes for its
share of ``--seconds``. ``setup_s`` is the median set-up; the pass
figures pool every interpreter's passes. With ``--trace 0`` the last
line of standard output carries the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics. An
environment block and the full record also go to ``.bench_out/``. Exits
non-zero, without a result, when the program cannot be found or a
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run starts this many fresh interpreters, one after another. Each
# times its set-up, then runs passes for its share of --seconds, so the
# figures average over interpreters as well as over passes.
WORKERS = 3
DEADLINE_S = 170.0  # every process started here ends within this


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the benchmark's own tests")
    parser.add_argument("--reference", default=None, help="reference file in place of perfbench/reference.json")
    return parser.parse_args(argv)


def _worker(args, deadline: float) -> dict:
    """Start a worker in a fresh interpreter; return its result with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.reference:
        cmd += ["--reference", args.reference]
    spawned_at = time.monotonic()  # CLOCK_MONOTONIC is system-wide, so the worker's ready_at compares
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def _pool(results: list[dict], trace: int) -> dict:
    """Pooled figures of the workers: pass totals rescaled by each worker's own reference speed."""
    untraced = [t for r in results for t in r["pass_seconds"]["untraced"]]
    count = len(untraced)
    pooled = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ref_run_s": sum(r["scale"] * sum(r["pass_seconds"]["untraced"]) for r in results) / count,
        "ref_ops_per_s": sum(r["untraced_ops"] for r in results)
        / sum(r["scale"] * sum(r["pass_seconds"]["untraced"]) for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "work_count": results[0]["work"],
        "dense_ratio": sum(sum(r["pass_seconds"]["untraced"]) / r["reference_seconds"]["dense"] for r in results)
        / count,
        "wall.run_s": statistics.median(untraced),
        "wall.ops_per_s": sum(r["untraced_ops"] for r in results) / sum(untraced),
    }
    if trace:
        layers = [layer for r in results for layer in r["layers"]]
        pooled |= {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        pooled["cli.import_s"] = statistics.median(r["import_s"] for r in results)
        for name in results[0]["reference_seconds"]:
            pooled[f"ref.{name}_s"] = statistics.fmean(r["reference_seconds"][name] for r in results)
        traced = [t for r in results for t in r["pass_seconds"]["traced"]]
        pooled["trace.overhead_s"] = statistics.median(traced) - pooled["wall.run_s"]
    return pooled


def _cache_sizes() -> dict:
    """Per-instance data/unified cache sizes of CPU 0, as Linux reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas() -> dict:
    """Name, version and thread count of NumPy's BLAS, where it can be read."""
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    try:
        import ctypes
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        info["threads"] = get()
    except (IndexError, OSError, AttributeError):
        info["threads"] = None
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches_per_instance": _cache_sizes(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        results = [_worker(args, deadline) for _ in range(WORKERS)]
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results[1:]:  # every interpreter must reproduce the first one's outputs exactly
        if r["signature"] != results[0]["signature"]:
            failed += r["attempted"] - r["failed"]
    measured = _pool(results, args.trace) | {"pass_ratio": 1.0 - failed / attempted}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "workers": [{k: v for k, v in r.items() if k != "layers"} for r in results],
        "wall": {"run_s": measured["wall.run_s"], "ops_per_s": measured["wall.ops_per_s"]},
        **line,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name, metric in metrics.items():
        print(f"{args.workload:>10} {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    passes = sum(len(r["pass_seconds"]["untraced"]) for r in results)
    traced = sum(len(r["pass_seconds"]["traced"]) for r in results)
    print(f"{args.workload:>10} wall time: median pass {measured['wall.run_s']:.6g} s,"
          f" {measured['wall.ops_per_s']:.6g} ops/s; {passes} untraced passes ({traced} traced)"
          f" over {WORKERS} fresh interpreters, whose median set-up is setup_s")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
