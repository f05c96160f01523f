"""``svdstop oracles`` and ``svdstop bounds`` still write the recorded bytes on the shipped configs and variants.

Both outputs are deterministic functions of the config, so a change that
moves a single bit of an oracle level, a bias or a bound fails here.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from svdstop import cli

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


@pytest.mark.parametrize(
    "config, overrides, command", sorted(SHA256), ids=["-".join((c, *o, m)) for c, o, m in sorted(SHA256)]
)
def test_json_bytes_match_the_recorded_hashes(tmp_path, config, overrides, command):
    args = [command, "--config", str(CONFIGS / f"{config}.json"), "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args + [arg for item in overrides for arg in ("--set", item)]) == 0
    assert hashlib.sha256((tmp_path / f"{command}.json").read_bytes()).hexdigest() == SHA256[config, overrides, command]
