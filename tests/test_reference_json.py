"""``oracles``, ``bounds``, ``stop``, ``two-step``, ``adversary``, ``lazysvd`` and ``plot`` still write the recorded bytes.

Each output is a deterministic function of its config, so a change that
moves a single bit of an oracle level, a bias, a bound, a stop, an
adversarial signal or a drawn box fails here. The plot is drawn from the
``mc`` CSV of ``configs/efficiency_smooth.json`` as shipped, which is the
benchmark's recorded ``mc-smooth`` CSV at its seed 42, both by the ``plot``
command and as ``scripts/run_efficiency_study.py`` calls ``efficiency_plot``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from svdstop import cli
from svdstop.harness import read_records_csv
from svdstop.lazysvd import save_matrix
from svdstop.model import save_vector
from svdstop.svgplot import efficiency_plot

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# ``--set`` overrides of the shipped configs
ZERO_START = ("stopping.m0_mode=zero", "signal.name=rough")
DRIFTED = ("stopping.kappa=null", "stopping.kappa_drift=-1", "signal.name=super_smooth")


# (config, overrides, command) -> sha256 of the file ``<command>.json`` that the command writes
SHA256 = {
    ("efficiency_smooth", (), "oracles"): "db6ab4ee70234949dff9579b782eba2e7193dfd46b6448fd4897ebf21c056ee5",
    ("efficiency_smooth", (), "bounds"): "4dae54ef77355d390284775333cd8eed0e79143633a01cf09301411ce2109824",
    ("null_calibration", (), "oracles"): "5a31dc8bc3262ca4c6986c664f35df290962c9e22f5efbb69f30f729ce55a550",
    ("null_calibration", (), "bounds"): "75b0fd715826d2928a7d8dbad820ae9b2f6510db5137ecba018791370a8ea9b6",
    # the oracle levels from m0 = 0
    ("efficiency_smooth", ZERO_START, "oracles"): "883264778388216739ead3246b79c21c99281fed54c2de9d3d68d323aa3d83e4",
    ("efficiency_smooth", ZERO_START, "bounds"): "f1eeb89ed17b28c1c3c21b89efc551663239f6ee657e7cf0c88652cfcff5116d",
    # the default threshold with a drift: kappa = 0.9900000000000001, m0 = 329
    ("efficiency_smooth", DRIFTED, "oracles"): "c474f4317ddd813d4dc25774ac28bb646987b4dd18cd3b995f5eab92a169f588",
    ("efficiency_smooth", DRIFTED, "bounds"): "bf29d8d1bbbf87e0e9d989785a1f02a1f9928357e7380d1608e9917c83894fa6",
}


def run(command, config, out, *overrides):
    args = [command, "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args + [arg for item in overrides for arg in ("--set", item)]) == 0


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "config, overrides, command", sorted(SHA256), ids=["-".join((c, *o, m)) for c, o, m in sorted(SHA256)]
)
def test_json_bytes_match_the_recorded_hashes(tmp_path, config, overrides, command):
    run(command, CONFIGS / f"{config}.json", tmp_path, *overrides)
    assert sha256(tmp_path / f"{command}.json") == SHA256[config, overrides, command]


# (config, overrides, command, output file) -> sha256 of that file
OUTPUT_SHA256 = {
    ("adversary_hide", (), "adversary", "adversary.json"): (
        "7ff025e82049318ea4b3882b65a1f66931477f4f6b1c620df2f0a807ae1a1a52"
    ),
    ("adversary_hide", ("adversary.kind=residual_adversary",), "adversary", "adversary.json"): (
        "fb01f6ed68dee38b0831377b0d3165da83db2167477784ef710427088922d77a"
    ),
    ("efficiency_smooth", (), "stop", "stop.json"): "135ddcf1a2c284b2bab2606c687aec4fcb522c64cb6e24d1d7bb8320a2aa518b",
    ("efficiency_smooth", (), "two-step", "two_step.json"): (
        "0f17c7f1e92307b7500c88bbec6b7933daafc51f0f1527ffa19951bdb919bac0"
    ),
}
MC_CSV_SHA256 = "f5298e8ba9699e532fc48efcba3e7e33004407a3bc31697ba307c07e601565a3"  # perfbench's full mc-smooth, seed 42
PLOT_SHA256 = "6e50fc90cac3a9ce49d92f71c0fff7e5df04cedc43505c39887a8e5212fbf6a0"
SCRIPT_PLOT_SHA256 = "9f27c634225720773d180fd2fe59ad2b3fcf7ae186e71ff1831db763724a1cda"


@pytest.mark.parametrize(
    "config, overrides, command, name",
    sorted(OUTPUT_SHA256),
    ids=["-".join((c, *o, m)) for c, o, m, _ in sorted(OUTPUT_SHA256)],
)
def test_command_output_bytes_match_the_recorded_hashes(tmp_path, config, overrides, command, name):
    run(command, CONFIGS / f"{config}.json", tmp_path, *overrides)
    assert sha256(tmp_path / name) == OUTPUT_SHA256[config, overrides, command, name]


def test_plot_bytes_match_the_recorded_hashes(tmp_path):
    run("mc", CONFIGS / "efficiency_smooth.json", tmp_path)
    csv_path = tmp_path / "replications.csv"
    assert sha256(csv_path) == MC_CSV_SHA256
    mapping = {**json.loads((CONFIGS / "efficiency_smooth.json").read_text()), "plot": {"csv": "replications.csv"}}
    (tmp_path / "plot.json").write_text(json.dumps(mapping))
    run("plot", tmp_path / "plot.json", tmp_path / "plot")
    assert sha256(tmp_path / "plot" / "efficiency.svg") == PLOT_SHA256
    records, _ = read_records_csv(csv_path)
    svg = efficiency_plot(records, title="smooth")  # as the efficiency-study script draws it
    assert hashlib.sha256(svg.encode()).hexdigest() == SCRIPT_PLOT_SHA256


# an immediate stop at m0 = 5 under a huge threshold, so the AIC re-selection runs
RESELECT = ("lazysvd.selection_norm=strong", "stopping.m0_mode=explicit", "stopping.m0=5", "stopping.kappa=1000")

# (matrix file, overrides) -> sha256 of the lazysvd.json and the estimate.txt that ``lazysvd`` writes
LAZY_ESTIMATE_SHA256 = "42cd7f29299abc1a6b6508be0b9ab33c04fe40f504c8f36df42cac07a0fb1b97"  # tau = 29
RESELECTED_ESTIMATE_SHA256 = "994e665660935586ae5eaa8569c92327019f7f4711c12f58b8bd32f8f441f89c"  # tau = rho = 5
LAZY_SHA256 = {
    ("A.txt", ()): ("b00358e40ea69f82ae1a383d8e389dbf603f43064592dfa3cff4aaae9a093461", LAZY_ESTIMATE_SHA256),
    ("A.bin", ()): ("c5e2b83fef406503385d39a2c5939284a41d188dbab8c192cdf0db6ea2093bba", LAZY_ESTIMATE_SHA256),
    ("A.txt", RESELECT): (
        "ab5d070be75a9c650a6516c32bd58fb2fbe7ba80d14be1086da2656a4cbb8c67",
        RESELECTED_ESTIMATE_SHA256,
    ),
    ("A.bin", RESELECT): (
        "6b7630be27bdcc825ad561d10a3d3ec9b98b022bbf28adc2e24420fb7b062953",
        RESELECTED_ESTIMATE_SHA256,
    ),
}


@pytest.mark.parametrize(
    "matrix, overrides", sorted(LAZY_SHA256), ids=["-".join((m, *o)) for m, o in sorted(LAZY_SHA256)]
)
def test_lazysvd_output_bytes_match_the_recorded_hashes(tmp_path, matrix, overrides):
    """A 60x30 Gaussian matrix with columns scaled by ``1/i``, in text and in binary, and data from a random signal."""
    rng = np.random.default_rng(3)
    entries = rng.standard_normal((60, 30)) @ np.diag(np.arange(1, 31, dtype=float) ** -1.0)
    save_matrix(tmp_path / matrix, entries)
    save_vector(tmp_path / "y.txt", entries @ rng.standard_normal(30) + 0.05 * rng.standard_normal(60))
    config = {
        "matrix": {"file": matrix},
        "data": {"file": "y.txt"},
        "noise": {"delta": 0.05},
        "stopping": {"m0_mode": "zero"},
    }
    (tmp_path / "lazy.json").write_text(json.dumps(config))
    run("lazysvd", tmp_path / "lazy.json", tmp_path / "out", *overrides)
    hashes = sha256(tmp_path / "out" / "lazysvd.json"), sha256(tmp_path / "out" / "estimate.txt")
    assert hashes == LAZY_SHA256[matrix, overrides]
