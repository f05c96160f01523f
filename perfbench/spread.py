#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's median and quartile spread.

    python3 perfbench/spread.py --workloads mc-smooth tv-grid --seeds 10 --out spread.json

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; for
each end-to-end metric it is set against the bound in ``BENCHMARK.json``.
The runs are sequential, at seeds 0 to ``--seeds`` - 1, with the run
length ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write medians, quartiles and raw values as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failures = 0
        for seed in range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds[name]
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"{workload:>10} {name:<32} median {median:<14.6g} spread {spread:8.4f}  bound {bound:<5} {flag}")
        print(f"{workload:>10} failed operations: {failures}", flush=True)
        summary[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
