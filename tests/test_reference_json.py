"""``svdstop oracles`` and ``svdstop bounds`` still write the recorded bytes on the shipped configs.

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


# (config, command) -> sha256 of the file ``<command>.json`` that the command writes
SHA256 = {
    ("efficiency_smooth", "oracles"): "db6ab4ee70234949dff9579b782eba2e7193dfd46b6448fd4897ebf21c056ee5",
    ("efficiency_smooth", "bounds"): "4dae54ef77355d390284775333cd8eed0e79143633a01cf09301411ce2109824",
    ("null_calibration", "oracles"): "5a31dc8bc3262ca4c6986c664f35df290962c9e22f5efbb69f30f729ce55a550",
    ("null_calibration", "bounds"): "75b0fd715826d2928a7d8dbad820ae9b2f6510db5137ecba018791370a8ea9b6",
}


@pytest.mark.parametrize("config, command", sorted(SHA256))
def test_json_bytes_match_the_recorded_hashes(tmp_path, config, command):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(CONFIGS / f"{config}.json"), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / f"{command}.json").read_bytes()).hexdigest() == SHA256[config, command]
