"""Command line interface: file outputs, overrides, exit codes."""

import json

import numpy as np
import pytest

from svdstop.cli import main
from svdstop.lazysvd import save_matrix
from svdstop.model import load_vector

BASE_CONFIG = {
    "dim": 120,
    "spectrum": {"p": 0.5},
    "noise": {"delta": 0.05},
    "signal": {"name": "smooth", "target": 25.0},
    "stopping": {"m0_mode": "zero"},
    "replications": 8,
    "base_seed": 11,
    "procedures": ["plain_stop", "two_step_strong"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def run(args, capsys=None):
    code = main([str(a) for a in args])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def test_oracles_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code, captured = run(["oracles", "--config", config_path, "--out", out], capsys)
    assert code == 0
    assert "oracles.json" in captured.out
    payload = json.loads((out / "oracles.json").read_text())
    assert payload["oracle"]["weak_time"] == pytest.approx(25.0, abs=1e-6)
    assert payload["config"]["dim"] == 120


def test_stop_command_writes_estimate(config_path, tmp_path):
    out = tmp_path / "run"
    assert run(["stop", "--config", config_path, "--out", out]) == 0
    meta = json.loads((out / "stop.json").read_text())
    estimate = load_vector(out / "estimate.txt")
    assert estimate.shape == (120,)
    assert meta["outcome"]["tau"] >= 0
    assert meta["config"]["base_seed"] == 11


def test_two_step_command(config_path, tmp_path):
    out = tmp_path / "run"
    assert run(["two-step", "--config", config_path, "--out", out]) == 0
    meta = json.loads((out / "two_step.json").read_text())
    assert "selection" in meta["config"]
    assert meta["outcome"]["rho"] is not None
    assert load_vector(out / "estimate.txt").shape == (120,)

    rescue = ["--set", "stopping.kappa=1000", "--set", "stopping.m0_mode=explicit", "--set", "stopping.m0=100"]
    assert run(["two-step", "--config", config_path, "--out", out, *rescue]) == 0
    outcome = json.loads((out / "two_step.json").read_text())["outcome"]
    assert outcome["tau"] == 100 and outcome["immediate_stop"]
    estimate = load_vector(out / "estimate.txt")
    # the estimate truncates at the AIC index, not at the stopped index
    assert outcome["rho"] < 100
    assert np.all(estimate[outcome["rho"] :] == 0.0)


def test_mc_command_then_plot(config_path, tmp_path):
    out = tmp_path / "mc"
    assert run(["mc", "--config", config_path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["replications"] == 8
    assert {p["procedure"] for p in report["procedures"]} == {"plain_stop", "two_step_strong"}

    plot_config = dict(BASE_CONFIG)
    plot_config["plot"] = {"csv": str(out / "replications.csv"), "title": "efficiency check"}
    plot_path = tmp_path / "plot.json"
    plot_path.write_text(json.dumps(plot_config))
    assert run(["plot", "--config", plot_path, "--out", out]) == 0
    svg = (out / "efficiency.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "efficiency check" in svg


def test_mc_reruns_are_byte_identical(config_path, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["mc", "--config", config_path, "--out", out]) == 0
        outs.append((out / "replications.csv").read_bytes())
    assert outs[0] == outs[1]


def test_set_override_changes_dimension(config_path, tmp_path):
    out = tmp_path / "o"
    code = run(["oracles", "--config", config_path, "--out", out, "--set", "dim=60", "--set", "signal.target=15"])
    assert code == 0
    payload = json.loads((out / "oracles.json").read_text())
    assert payload["config"]["dim"] == 60
    assert payload["oracle"]["weak_time"] == pytest.approx(15.0, abs=1e-6)


def test_seed_flag_overrides_base_seed(config_path, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["stop", "--config", config_path, "--out", out1, "--seed", 99]) == 0
    assert run(["stop", "--config", config_path, "--out", out2]) == 0
    meta1 = json.loads((out1 / "stop.json").read_text())
    meta2 = json.loads((out2 / "stop.json").read_text())
    assert meta1["config"]["base_seed"] == 99
    assert meta2["config"]["base_seed"] == 11
    assert not np.array_equal(load_vector(out1 / "estimate.txt"), load_vector(out2 / "estimate.txt"))


def test_bounds_command(config_path, tmp_path):
    out = tmp_path / "b"
    assert run(["bounds", "--config", config_path, "--out", out]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert set(payload["bounds"]) == {
        "discretization_err",
        "weak_dev_rhs",
        "strong_bias_rhs",
        "stochastic_factor",
        "strong_oracle_rhs",
    }


def test_adversary_command(config_path, tmp_path):
    out = tmp_path / "adv"
    config = dict(BASE_CONFIG)
    config["adversary"] = {"kind": "hide_signal", "i0": 30, "alpha": 0.5, "r_bar": 2.0}
    path = tmp_path / "adv.json"
    path.write_text(json.dumps(config))
    assert run(["adversary", "--config", path, "--out", out]) == 0
    payload = json.loads((out / "adversary.json").read_text())
    assert payload["adversary"]["i0"] == 30
    assert payload["config"]["adversary"]["kind"] == "hide_signal"
    assert load_vector(out / "mu_bar.txt").shape == (120,)


def test_lazysvd_command(tmp_path):
    rows, cols = 40, 25
    sigmas = np.arange(1, cols + 1, dtype=float) ** -0.5
    a = np.zeros((rows, cols))
    a[:cols, :] = np.diag(sigmas)
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(cols)
    y = a @ mu + 0.05 * rng.standard_normal(rows)
    save_matrix(tmp_path / "A.txt", a)
    np.savetxt(tmp_path / "y.txt", y)
    config = {
        "matrix": {"file": "A.txt"},
        "data": {"file": "y.txt"},
        "noise": {"delta": 0.05},
        "stopping": {"m0_mode": "zero"},
        "lazysvd": {"tolerance": 1e-12},
    }
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "lz"
    assert run(["lazysvd", "--config", path, "--out", out]) == 0
    payload = json.loads((out / "lazysvd.json").read_text())
    assert payload["outcome"]["tau"] == len(payload["singular_values"])
    assert payload["matvec_count"] > 0
    assert payload["kappa"] == pytest.approx(rows * 0.05**2)
    assert load_vector(out / "estimate.txt").shape == (cols,)


def test_lazysvd_nonfinite_data_exits_three(tmp_path, capsys):
    save_matrix(tmp_path / "A.txt", np.random.default_rng(2).standard_normal((12, 8)))
    y = np.ones(12)
    y[5] = np.nan
    np.savetxt(tmp_path / "y.txt", y)
    config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.01}}
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert not (tmp_path / "estimate.txt").exists()


def test_unknown_command_exits_two(capsys):
    code, captured = run(["frobnicate"], capsys)
    assert code == 2
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "UsageError"


def test_missing_config_exits_three(tmp_path, capsys):
    code, captured = run(["oracles", "--config", tmp_path / "nope.json", "--out", tmp_path], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"]


def test_invalid_config_exits_three(tmp_path, capsys):
    bad = dict(BASE_CONFIG)
    del bad["noise"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, captured = run(["oracles", "--config", path, "--out", tmp_path], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert "delta" in record["message"]


def test_numeric_failure_exits_four(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((12, 8))
    save_matrix(tmp_path / "A.txt", a)
    np.savetxt(tmp_path / "y.txt", np.ones(12))
    config = {
        "matrix": {"file": "A.txt"},
        "data": {"file": "y.txt"},
        "noise": {"delta": 0.01},
        "lazysvd": {"max_iterations": 1, "tolerance": 1e-15},
    }
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path], capsys)
    assert code == 4
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ConvergenceError"


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("mc", ["stopping.kapa=5"]),
        ("oracles", ["noise.delt=3"]),
        ("two-step", ["selection.nrom=weak"]),
        ("adversary", ["adversary.alpah=0.5"]),
        ("plot", ["plot.csv=r.csv", "plot.titel=x"]),
    ],
)
def test_misspelled_nested_key_exits_three(config_path, tmp_path, command, overrides, capsys):
    out = tmp_path / "out"
    args = [command, "--config", config_path, "--out", out]
    for item in overrides:
        args += ["--set", item]
    code, captured = run(args, capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    misspelled = overrides[-1].split("=")[0].split(".")[-1]
    assert misspelled in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "section, key", [("lazysvd", "tolerence"), ("stopping", "kapa"), ("noise", "delt"), ("matrix", "fiel")]
)
def test_lazysvd_misspelled_key_exits_three(tmp_path, section, key, capsys):
    save_matrix(tmp_path / "A.txt", np.eye(4))
    np.savetxt(tmp_path / "y.txt", np.ones(4))
    config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.01}}
    config.setdefault(section, {})[key] = 1
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path / "out"], capsys)
    assert code == 3
    assert key in json.loads(captured.err.strip().splitlines()[-1])["message"]
    assert not (tmp_path / "out" / "lazysvd.json").exists()


def test_lazysvd_truncated_binary_matrix_exits_three(tmp_path, capsys):
    (tmp_path / "A.bin").write_bytes(b"SVDM" + b"\x02\x00")
    np.savetxt(tmp_path / "y.txt", np.ones(2))
    config = {"matrix": {"file": "A.bin"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.01}}
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "header" in record["message"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = dict(BASE_CONFIG)
    config["extra_section"] = {"a": 1}
    path = tmp_path / "weird.json"
    path.write_text(json.dumps(config))
    code, captured = run(["mc", "--config", path, "--out", tmp_path], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert "extra_section" in record["message"]
