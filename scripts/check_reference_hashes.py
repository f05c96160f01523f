#!/usr/bin/env python3
"""Check the Monte Carlo CSV bytes against the benchmark reference at every pool seed.

For each chosen pool seed this runs the ``mc-smooth`` and ``mc-wide``
workloads of ``perfbench/workloads.py`` (or those named with ``--names``)
through ``svdstop mc`` and compares the sha256 of each ``replications.csv``
with ``perfbench/reference.json``. The benchmark's files are only read.
One line per workload gives the seeds that match, the seeds that differ and
the seconds it took; the exit status is 1 if any seed differs. The Tier-1
test of these bytes runs two seeds at smoke size, where ``mc-wide`` has
D = 2000; full size (D = 10^5) is where numpy's dot products split over
BLAS threads.

    PYTHONPATH=src python3 scripts/check_reference_hashes.py                 # 256 seeds, full size, minutes
    PYTHONPATH=src python3 scripts/check_reference_hashes.py --names mc-wide # one workload's 256 seeds
    PYTHONPATH=src python3 scripts/check_reference_hashes.py --smoke --seeds 0-1
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from svdstop import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ("mc-smooth", "mc-wide")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _seed_range(text: str, pool: int) -> range:
    """``A-B`` as the range of pool seeds from ``A`` to ``B`` inclusive."""
    try:
        first, last = map(int, text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    seeds = range(first, last + 1)
    if not seeds or seeds.start < 0 or seeds.stop > pool:
        raise argparse.ArgumentTypeError(f"seeds {text!r}: need 0 <= A <= B <= {pool - 1}")
    return seeds


def csv_sha256(workloads, name: str, seed: int, smoke: bool, out: Path) -> str:
    """The sha256 of the ``replications.csv`` that workload ``name`` writes at pool seed ``seed``."""
    argv = ["mc", "--config", str(workloads.MC_CONFIG), "--out", str(out), "--seed", str(seed)]
    for dotted, value in workloads.SIZES[smoke][name]:
        argv += ["--set", f"{dotted}={json.dumps(value)}"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256((out / "replications.csv").read_bytes()).hexdigest()


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes")
    parser.add_argument(
        "--seeds",
        type=lambda text: _seed_range(text, workloads.POOL),
        default=range(workloads.POOL),
        help="pool seeds A-B, inclusive (default: all)",
    )
    parser.add_argument(
        "--names",
        action="append",
        choices=NAMES,
        help="check this workload; repeat for more (default: all)",
    )
    args = parser.parse_args(argv)
    size = workloads.size_key(args.smoke)
    reference = workloads.load_reference()[size]
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in (n for n in NAMES if n in (args.names or NAMES)):
            expected = reference[name]["csv_sha256"]
            start = time.perf_counter()
            bad = [s for s in args.seeds if csv_sha256(workloads, name, s, args.smoke, Path(tmp)) != expected[s]]
            elapsed = time.perf_counter() - start
            differing = f"; differ at {bad}" if bad else ""
            matching = f"{len(args.seeds) - len(bad)} of {len(args.seeds)} seeds match"
            print(f"{name} ({size}): {matching}{differing} ({elapsed:.1f} s)")
            differ = differ or bool(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
