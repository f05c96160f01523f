"""The example scripts, run end to end at a few replications."""

import os
import re
import subprocess
import sys
from pathlib import Path

from svdstop.harness import config_from_mapping, read_records_csv
from svdstop.signals import NAMED_PROFILES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout


def test_efficiency_study(tmp_path):
    stdout = run_script("run_efficiency_study.py", "--replications", 5, "--out", tmp_path)
    for name in NAMED_PROFILES:
        records, mapping = read_records_csv(tmp_path / f"{name}.csv")
        config = config_from_mapping(mapping)
        assert (config.signal_name, config.replications, config.dim) == (name, 5, 10_000)
        assert len(records) == 5 * len(config.procedures)
        assert (tmp_path / f"{name}.svg").read_text().lstrip().startswith("<svg")
        assert f"wrote {tmp_path / name}.svg" in stdout


def test_null_calibration():
    stdout = run_script("run_null_calibration.py", "--replications", 20, "--drifts", 0)
    match = re.search(r"drift \+0\.0: overrun fraction ([0-9.]+)  mean stopping index ([0-9.]+)", stdout)
    assert match is not None, stdout
    overrun, mean_index = float(match[1]), float(match[2])
    assert 0.0 <= overrun <= 1.0
    # the normal-quantile start at D=10000 is 329, and the rule never stops before it
    assert mean_index >= 329.0


def test_lazysvd_demo():
    """The figures the README quotes for the demo: 41 of 250 triplets, 240 matrix-vector products."""
    stdout = run_script("run_lazysvd_demo.py")
    assert "matrix 400x250, stopped after 41 triplets" in stdout
    assert "matrix-vector products: 240\n" in stdout


def test_check_reference_hashes():
    def line(name, seeds):
        return rf"{name} \(smoke\): {seeds} of {seeds} seeds match \([0-9.]+ s\)\n"

    stdout = run_script("check_reference_hashes.py", "--smoke", "--seeds", "0-1")
    assert re.fullmatch(line("mc-smooth", 2) + line("mc-wide", 2), stdout), stdout
    # --names picks workloads, each once
    stdout = run_script("check_reference_hashes.py", "--smoke", "--seeds", "0-0", *["--names", "mc-wide"] * 2)
    assert re.fullmatch(line("mc-wide", 1), stdout), stdout
