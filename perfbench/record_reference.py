#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the checkout's svdstop.

    python3 perfbench/record_reference.py            # writes perfbench/reference.json

Run it only at a commit whose outputs are known to be right: the
benchmark then fails any later commit whose Monte Carlo CSV bytes, lazy
singular values or total-variation values differ from these. It records,
for the full and the smoke sizes, the ``replications.csv`` sha256 of
both Monte Carlo workloads for every base seed of the pool, the dense
singular values of the lazy-solve matrix and the values over the
whole tv grid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def record(smoke: bool) -> dict:
    section = {}
    for name in ("mc-smooth", "mc-wide"):
        hashes = []
        for seed in range(workloads.POOL):
            workload = workloads.make_workload(name, seed, smoke)
            try:
                hashes.append(workload.run_pass().signature)
            finally:
                workload.close()
        section[name] = {"csv_sha256": hashes}
        print(f"{workloads.size_key(smoke)} {name}: {len(hashes)} hashes", flush=True)
    matrix = workloads.lazy_instance(*workloads.SIZES[smoke]["lazy-solve"])[0]
    section["lazy-solve"] = {"sigma": np.linalg.svd(matrix, compute_uv=False).tolist()}
    tv = workloads.TvGrid(0, smoke)
    section["tv-grid"] = {"values": [value for value, _ in tv.evaluate(tv.grid)]}
    return section


def main() -> int:
    reference = {"pool": workloads.POOL, "smoke": record(True), "full": record(False)}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
