"""Command line interface: file outputs, overrides, exit codes."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from svdstop import harness, lazysvd, svgplot
from svdstop.cli import main
from svdstop.harness import read_records_csv
from svdstop.lazysvd import MatrixOperator, load_matrix, save_matrix, sequential_solve
from svdstop.model import NoiseModel, load_vector
from svdstop.stopping import StoppingConfig

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

# a huge threshold with m0 = 100 stops immediately, so the two-step rule re-selects by AIC
RESCUE = ["--set", "stopping.kappa=1000", "--set", "stopping.m0_mode=explicit", "--set", "stopping.m0=100"]


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

    assert run(["two-step", "--config", config_path, "--out", out, *RESCUE]) == 0
    outcome = json.loads((out / "two_step.json").read_text())["outcome"]
    assert outcome["tau"] == 100 and outcome["immediate_stop"]
    estimate = load_vector(out / "estimate.txt")
    # the estimate truncates at the AIC index, not at the stopped index
    assert outcome["rho"] < 100
    assert np.all(estimate[outcome["rho"] :] == 0.0)


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "command, config, overrides, name, outcome, kappa, m0, estimate_sha256",
    [
        (
            "stop",
            "efficiency_smooth",
            [],
            "stop.json",
            {"tau": 329, "rho": None, "coefficients_consumed": 329, "immediate_stop": True},
            1.0,
            329,
            "b98b3a9d2e85052b828630180e040c39355a20dafc32c3ec152fb8329ee624c7",
        ),
        (
            "two-step",
            "efficiency_smooth",
            [],
            "two_step.json",
            {"tau": 329, "rho": 296, "coefficients_consumed": 329, "immediate_stop": True},
            1.0,
            329,
            "7e7c08008c2544d2563d31dbe39e0141b6ef468827738c90d82ed86edd3c46ac",
        ),
        (
            "two-step",
            None,
            ["--set", "selection.norm=weak", *RESCUE],
            "two_step.json",
            {"tau": 100, "rho": 35, "coefficients_consumed": 100, "immediate_stop": True},
            1000.0,
            100,
            "0f43edaa31d22fd930b4dd2de31f4a738a9e25ae521353b45e009e03bc1ce5ee",
        ),
    ],
)
def test_stop_records_are_pinned(
    config_path, tmp_path, command, config, overrides, name, outcome, kappa, m0, estimate_sha256
):
    """Plain and strong two-step runs of the shipped smooth config, and a weak rescue of the test config,
    keep their records and estimate bytes; a rerun from the echoed config gives the same files."""
    path = config_path if config is None else SHIPPED / f"{config}.json"
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out, *overrides]) == 0
    payload = json.loads((out / name).read_text())
    assert (payload["outcome"], payload["kappa"], payload["m0"]) == (outcome, kappa, m0)
    assert hashlib.sha256((out / "estimate.txt").read_bytes()).hexdigest() == estimate_sha256

    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(payload["config"]))
    rerun = tmp_path / "rerun"
    assert run([command, "--config", echoed, "--out", rerun]) == 0
    assert _outputs(rerun) == _outputs(out)


@pytest.mark.parametrize(
    "command, config, selection, overrides, procedure",
    [
        ("stop", "efficiency_smooth", [], [], "plain_stop"),
        ("two-step", "efficiency_smooth", [], [], "two_step_strong"),
        ("two-step", None, ["--set", "selection.norm=weak"], RESCUE, "two_step_weak"),
    ],
)
def test_stop_is_replication_zero_of_mc(config_path, tmp_path, command, config, selection, overrides, procedure):
    """``stop`` and ``two-step`` echo the ``mc`` config whose one record is their run: ``mc`` on the echo,
    less ``selection``, gives the same stop, selection and estimate."""
    path = config_path if config is None else SHIPPED / f"{config}.json"
    out = tmp_path / "stop"
    assert run([command, "--config", path, "--out", out, *selection, *overrides]) == 0
    payload = json.loads(next(out.glob("*.json")).read_text())
    experiment = {key: value for key, value in payload["config"].items() if key != "selection"}
    assert (experiment["procedures"], experiment["replications"]) == ([procedure], 1)
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(experiment))
    assert run(["mc", "--config", echoed, "--out", tmp_path / "mc"]) == 0
    [record], _ = read_records_csv(tmp_path / "mc" / "replications.csv")

    outcome = payload["outcome"]
    assert (outcome["tau"], outcome["rho"], outcome["immediate_stop"]) == (record.tau, record.rho, record.immediate)
    mu = harness.resolve_experiment(harness.config_from_mapping(experiment)).signal.coefficients
    gap = load_vector(out / "estimate.txt") - mu
    assert math.sqrt(float(np.dot(gap, gap))) == record.err_strong


def test_stop_echoes_the_procedure_it_ran(tmp_path):
    """``stop`` reads neither ``procedures`` nor ``replications``; it runs the plain stop once and says so."""
    out = tmp_path / "out"
    unread = ["--set", 'procedures=["fixed_oracle"]', "--set", "replications=7"]
    assert run(["stop", "--config", SHIPPED / "efficiency_smooth.json", "--out", out, *unread]) == 0
    payload = json.loads((out / "stop.json").read_text())
    assert payload["outcome"]["tau"] == 329
    assert (payload["config"]["procedures"], payload["config"]["replications"]) == (["plain_stop"], 1)


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


def test_mc_quartiles_between_infinities_are_infinite(tmp_path):
    """Pure noise from m0 = 0 stops at 0 with zero error often enough that two infinite
    efficiencies bracket the upper quartile; it is recorded as inf, not NaN."""
    config = SHIPPED / "null_calibration.json"
    out = tmp_path / "null"
    assert run(["mc", "--config", config, "--out", out, "--set", "stopping.m0_mode=zero", "--set", "replications=20"]) == 0
    report = json.loads((out / "report.json").read_text())
    summary = report["procedures"][0]
    assert summary["eff_strong_quartiles"] == summary["eff_weak_quartiles"] == [0.0, 0.0, "inf"]


def test_plot_draws_a_box_of_infinite_efficiencies_as_its_label(tmp_path):
    """``fixed_oracle`` on the zero signal has zero error, so each of its efficiencies is inf: its boxes hold no glyph."""
    config = json.loads((SHIPPED / "null_calibration.json").read_text())
    overrides = ["--set", "replications=20", "--set", 'procedures=["plain_stop","fixed_oracle"]']
    assert run(["mc", "--config", SHIPPED / "null_calibration.json", "--out", tmp_path, *overrides]) == 0
    records, _ = read_records_csv(tmp_path / "replications.csv")
    assert all(math.isinf(r.eff_strong) and math.isinf(r.eff_weak) for r in records if r.procedure == "fixed_oracle")
    path = tmp_path / "plot.json"
    path.write_text(json.dumps({**config, "plot": {"csv": "replications.csv"}}))
    assert run(["plot", "--config", path, "--out", tmp_path / "plot"]) == 0
    svg = (tmp_path / "plot" / "efficiency.svg").read_text()
    for norm in ("strong", "weak"):
        group = f'<g class="box" data-label="fixed_oracle {norm}" data-dropped="20" data-norm="{norm}" '
        assert group + 'data-procedure="fixed_oracle">\n</g>\n' in svg
    assert svg.count('data-procedure="plain_stop"') == 2 and svg.count("<rect") == 4  # background, frame, 2 boxes


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_json_writes_infinite_efficiencies_as_strings(tmp_path):
    """At ``noise.delta = 0`` every error and every oracle risk is zero, so every efficiency is infinite;
    ``report.json`` writes them as the CSV's literal ``inf``, in strict JSON."""
    out = tmp_path / "exact"
    overrides = ["noise.delta=0", "stopping.m0_mode=zero", "replications=3"]
    args = ["mc", "--config", SHIPPED / "null_calibration.json", "--out", out]
    assert run(args + [arg for item in overrides for arg in ("--set", item)]) == 0
    summary = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)["procedures"][0]
    assert summary["eff_strong_mean"] == summary["eff_weak_mean"] == "inf"
    assert summary["eff_strong_quartiles"] == summary["eff_weak_quartiles"] == ["inf"] * 3
    records, _ = read_records_csv(out / "replications.csv")
    assert [r.eff_strong for r in records] == [math.inf] * 3


def test_report_json_writes_a_procedure_without_records_as_nan(config_path, tmp_path, monkeypatch, capsys):
    def overflow(y, k, mu, lam, gaps):
        raise FloatingPointError("overflow in the estimate")

    monkeypatch.setattr(harness, "_errors", overflow)
    out = tmp_path / "mc"
    assert run(["mc", "--config", config_path, "--out", out], capsys)[0] == 4
    report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
    assert len(report["failures"]) == BASE_CONFIG["replications"]
    for summary in report["procedures"]:
        assert summary["eff_strong_mean"] == summary["tau_mean"] == "nan"
        assert summary["eff_weak_quartiles"] == ["nan"] * 3


def test_mc_reruns_are_byte_identical(config_path, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["mc", "--config", config_path, "--out", out]) == 0
        outs.append((out / "replications.csv").read_bytes())
    assert outs[0] == outs[1]


def _outputs(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["mc", "stop"])
def test_reruns_into_one_out_are_byte_identical(config_path, tmp_path, command):
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert run([command, "--config", config_path, "--out", out]) == 0
        runs.append(_outputs(out))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 2


def test_stale_longer_outputs_are_fully_replaced(config_path, tmp_path):
    clean = tmp_path / "clean"
    assert run(["mc", "--config", config_path, "--out", clean]) == 0
    expected = _outputs(clean)
    out = tmp_path / "stale"
    out.mkdir()
    for name, data in expected.items():
        (out / name).write_bytes(b"stale\n" * (len(data) + 100))
    assert run(["mc", "--config", config_path, "--out", out]) == 0
    assert _outputs(out) == expected


def test_output_links_are_replaced_not_written_through(config_path, tmp_path):
    target = tmp_path / "elsewhere.json"
    target.write_text("keep\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").symlink_to(target)
    assert run(["mc", "--config", config_path, "--out", out]) == 0
    assert target.read_text() == "keep\n"
    assert not (out / "report.json").is_symlink()
    assert json.loads((out / "report.json").read_text())["replications"] == BASE_CONFIG["replications"]


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


@pytest.mark.parametrize("override", ["noise.delta=1e-155", "stopping.kappa=1e308"])
def test_bounds_write_inf_where_kappa_over_delta_squared_overflows(tmp_path, override):
    """The shipped config has kappa = 1 and delta = 0.01; either override makes ``kappa / delta**2`` infinite."""
    assert run(["bounds", "--config", SHIPPED / "efficiency_smooth.json", "--out", tmp_path, "--set", override]) == 0
    bounds = json.loads((tmp_path / "bounds.json").read_text())["bounds"]
    assert bounds["strong_bias_rhs"] == bounds["strong_oracle_rhs"] == "inf"
    assert all(math.isfinite(bounds[key]) for key in ("discretization_err", "weak_dev_rhs", "stochastic_factor"))


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


def write_lazy_inputs(tmp_path, rows=40, cols=25):
    """``A.txt`` with singular values ``i**-0.5`` and noisy data ``y.txt`` for the ``lazysvd`` command."""
    sigmas = np.arange(1, cols + 1, dtype=float) ** -0.5
    a = np.zeros((rows, cols))
    a[:cols, :] = np.diag(sigmas)
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(cols)
    save_matrix(tmp_path / "A.txt", a)
    np.savetxt(tmp_path / "y.txt", a @ mu + 0.05 * rng.standard_normal(rows))


def test_lazysvd_command(tmp_path):
    rows, cols = 40, 25
    write_lazy_inputs(tmp_path, rows, cols)
    config = {
        "matrix": {"file": "A.txt"},
        "data": {"file": "y.txt"},
        "noise": {"delta": 0.05},
        "stopping": {"m0_mode": "zero"},
        "lazysvd": {"tolerance": 1e-12, "max_iterations": 1e4},  # an integral float is accepted
    }
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "lz"
    assert run(["lazysvd", "--config", path, "--out", out]) == 0
    payload = json.loads((out / "lazysvd.json").read_text())
    assert payload["outcome"]["tau"] == len(payload["singular_values"])
    assert payload["matvec_count"] == 2 * sum(payload["iterations"]) > 0
    assert len(payload["release_residuals"]) == len(payload["singular_values"])
    for residual, sigma in zip(payload["release_residuals"], payload["singular_values"]):
        assert 0 <= residual <= 1e-12 * sigma
    assert payload["kappa"] == pytest.approx(rows * 0.05**2)
    assert load_vector(out / "estimate.txt").shape == (cols,)


def test_lazysvd_null_calibration_on_rows(tmp_path):
    """The quantile start is taken from the data length: ``floor(q_0.99 sqrt(2 * 400)) + 1 = 66``, not the
    33 of the column count. Pure noise then runs past ``m0`` at the configured rate: the residual at ``m0`` is
    ``delta**2 chi2_{rows - m0}`` and ``P(chi2_334 > 400) = 0.76%``, against 11.4% with ``m0 = 33``."""
    rows, cols, delta = 400, 100, 0.05
    write_lazy_inputs(tmp_path, rows, cols)
    config = {
        "matrix": {"file": "A.txt"},
        "data": {"file": "y.txt"},
        "noise": {"delta": delta},
        "stopping": {"m0_mode": "normal_quantile"},
    }
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "lz"
    assert run(["lazysvd", "--config", path, "--out", out]) == 0
    payload = json.loads((out / "lazysvd.json").read_text())
    kappa, m0 = payload["kappa"], payload["m0"]
    assert (kappa, m0) == (rows * delta**2, 66)

    operator = MatrixOperator(load_matrix(tmp_path / "A.txt"))
    solve = sequential_solve(operator, load_vector(tmp_path / "y.txt"), NoiseModel(delta), StoppingConfig(kappa, m0))
    basis = np.array([t.u for t in solve.state.triplets[:m0]])
    rng = np.random.default_rng(2024)
    draws, overruns = 20_000, 0
    for _ in range(4):
        noise = delta * rng.standard_normal((draws // 4, rows))
        kept = noise @ basis.T
        residual = np.einsum("ij,ij->i", noise, noise) - np.einsum("ij,ij->i", kept, kept)
        overruns += int(np.count_nonzero(residual > kappa))
    assert 0.004 <= overruns / draws <= 0.013


def test_lazysvd_start_beyond_columns_exits_three(tmp_path, capsys):
    """On 200x20 the quantile start from the data length is 47, within the rows but beyond the 20 columns, as
    is an explicit start of 30: exit 3 naming the key that set the start, no output."""
    write_lazy_inputs(tmp_path, 200, 20)
    starts = [
        ("stopping.m0_mode", {"m0_mode": "normal_quantile"}, 47),
        ("stopping.m0", {"m0_mode": "explicit", "m0": 30}, 30),
    ]
    for key, stopping, start in starts:
        config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.05}}
        config["stopping"] = stopping
        path = tmp_path / "lazy.json"
        path.write_text(json.dumps(config))
        out = tmp_path / key
        code, captured = run(["lazysvd", "--config", path, "--out", out], capsys)
        assert code == 3
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "ValueError" and record["message"].startswith(key + " "), record["message"]
        assert str(start) in record["message"]
        assert not any(out.iterdir())


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


def config_for(tmp_path, command):
    """A config file that ``command`` runs on: ``BASE_CONFIG``, with an adversary, or the ``lazysvd`` inputs."""
    if command == "lazysvd":
        write_lazy_inputs(tmp_path)
        config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.05}}
    else:
        config = dict(BASE_CONFIG)
        if command == "adversary":
            config["adversary"] = {"kind": "hide_signal", "i0": 30, "alpha": 0.5, "r_bar": 2.0}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    return path


# each number key, and a command that reads it
NUMBER_KEYS = {
    "noise.delta": "oracles",
    "stopping.level": "oracles",
    "stopping.kappa_drift": "oracles",
    "lazysvd.tolerance": "lazysvd",
    "adversary.alpha": "adversary",
    "adversary.r_bar": "adversary",
}


@pytest.mark.parametrize(
    "key, raw, error",
    [pytest.param(key, "null", "TypeError", id=key) for key in NUMBER_KEYS]
    + [pytest.param(key, "ten", "ValueError", id=f"{key}-string") for key in NUMBER_KEYS],
)
def test_null_number_exits_three_naming_the_key(tmp_path, key, raw, error, capsys):
    """A JSON ``null`` or a string where a number belongs exits 3, naming the key, before anything is written."""
    out = tmp_path / "out"
    command = NUMBER_KEYS[key]
    args = [command, "--config", config_for(tmp_path, command), "--out", out, "--set", f"{key}={raw}"]
    code, captured = run(args, capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == error and key in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "key, raw",
    [
        ("lazysvd.tolerance", "NaN"),
        ("lazysvd.tolerance", "Infinity"),
        ("lazysvd.max_iterations", "0"),
        ("lazysvd.triplet_budget", "-1"),
        ("adversary.alpha", "NaN"),
        ("adversary.r_bar", "NaN"),
        ("adversary.r_bar", "Infinity"),
    ],
)
def test_out_of_range_number_exits_three_naming_the_key(tmp_path, key, raw, capsys, monkeypatch):
    """A NaN or infinite tolerance, no iterations, a negative triplet budget and a NaN or infinite smoothness
    parameter exit 3, naming the key, before any triplet is computed or anything is written; with a NaN
    tolerance no triplet would ever converge, so ``next_triplet`` is patched to record calls instead of running."""
    calls = []
    monkeypatch.setattr(lazysvd, "next_triplet", lambda *args: calls.append(args))
    out = tmp_path / "out"
    command = key.split(".")[0]
    args = [command, "--config", config_for(tmp_path, command), "--out", out, "--set", f"{key}={raw}"]
    code, captured = run(args, capsys)
    assert code == 3 and calls == []
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and key in record["message"]
    assert not any(out.iterdir())


def test_non_string_plot_title_exits_three(config_path, tmp_path, capsys):
    """A title that is not a string is a config error, not an ``AttributeError`` from the SVG escaping."""
    assert run(["mc", "--config", config_path, "--out", tmp_path]) == 0
    config = dict(BASE_CONFIG, plot={"csv": "replications.csv", "title": 5})
    path = tmp_path / "plot.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, captured = run(["plot", "--config", path, "--out", out], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "plot.title" in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["mc", "oracles", "stop", "lazysvd"])
def test_noise_level_whose_square_overflows_exits_three(tmp_path, command, capsys):
    """``1e160`` is finite, but ``delta**2`` is not: the config is refused before any ``OverflowError``."""
    out = tmp_path / "out"
    args = [command, "--config", config_for(tmp_path, command), "--out", out, "--set", "noise.delta=1e160"]
    code, captured = run(args, capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "noise.delta" in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command, signal",
    [(command, signal) for command in ("oracles", "mc", "stop", "bounds") for signal in ("smooth", "zero")]
    + [("lazysvd", "zero")],
)
def test_noise_level_whose_products_overflow_exits_three(tmp_path, command, signal, capsys):
    """``1e154`` has a finite square, but the calibrated amplitude ``sqrt(target * delta**2 / W)`` of a named
    signal and the default threshold ``dim * delta**2`` of the zero signal (``lazysvd``'s, at 40 rows) do not:
    the config is refused naming ``noise.delta``, before anything is written."""
    out = tmp_path / "out"
    path = config_for(tmp_path, command)
    if signal == "zero" and command != "lazysvd":
        path.write_text(json.dumps({**BASE_CONFIG, "signal": {"name": "zero"}}))
    code, captured = run([command, "--config", path, "--out", out, "--set", "noise.delta=1e154"], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "noise.delta" in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["oracles", "bounds", "mc", "stop", "two-step", "adversary"])
@pytest.mark.parametrize("key", ["spectrum.p", "spectrum.file"])
def test_spectrum_whose_inverse_square_overflows_exits_three(tmp_path, command, key, capsys):
    """``120**-100`` and a file ending at ``1e-160`` are positive floats, but their inverse squares, which every
    strong variance sums, overflow: the config is refused naming the key, with no warning and nothing written."""
    out = tmp_path / "out"
    np.savetxt(tmp_path / "lam.txt", np.geomspace(1.0, 1e-160, 120))
    spectrum = "spectrum.p=100" if key == "spectrum.p" else 'spectrum={"file":"lam.txt"}'
    code, captured = run([command, "--config", config_for(tmp_path, command), "--out", out, "--set", spectrum], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and key in record["message"] and "overflows" in record["message"]
    assert not any(out.iterdir())


def test_out_defaults_to_the_working_directory(config_path, tmp_path, monkeypatch):
    """Without ``--out`` the outputs go to ``.``; no environment variable moves them."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SVDSTOP_OUT", str(tmp_path / "elsewhere"))
    assert run(["oracles", "--config", config_path]) == 0
    assert (tmp_path / "oracles.json").is_file() and not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("command", ["oracles", "mc", "stop", "bounds"])
@pytest.mark.parametrize("exponent", ["1000", "-0.5"])
def test_spectrum_exponent_that_underflows_or_is_negative_exits_three(tmp_path, command, exponent, capsys):
    """``120**-1000`` underflows to zero, and a negative exponent grows: both exit 3 naming ``spectrum.p``."""
    out = tmp_path / "out"
    args = [command, "--config", config_for(tmp_path, command), "--out", out, "--set", f"spectrum.p={exponent}"]
    code, captured = run(args, capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "spectrum.p" in record["message"]
    assert not any(out.iterdir())


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
        # keys that the other settings would leave unread: m0 outside explicit mode, a drift next to kappa
        ("stop", ["stopping.m0=50"]),
        ("mc", ["stopping.m0_mode=normal_quantile", "stopping.m0=50"]),
        ("mc", ["stopping.kappa=1.0", "stopping.kappa_drift=3"]),
        ("two-step", ["stopping.kappa=1.0", "stopping.kappa_drift=3"]),
        # values the config rejects: a procedure listed twice, a negative seed
        ("mc", ['procedures=["plain_stop","plain_stop"]']),
        ("oracles", ["base_seed=-1"]),
        ("mc", ["base_seed=-1"]),
        ("stop", ["base_seed=-1"]),
        # left unread too: a calibration target next to a signal file, or for the zero signal
        ("oracles", ['signal={"file":"mu.txt"}', "signal.target=25"]),
        ("mc", ["signal.name=zero", "signal.target=25"]),
        # rejected too: procedures that are not a list, an empty spectrum file name
        ("mc", ["procedures=plain_stop"]),
        ("oracles", ['spectrum={"file":""}']),
        # a quantile level outside [0.5, 1) in a mode that does not read it
        ("oracles", ["stopping.m0_mode=zero", "stopping.level=5"]),
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
    "overrides",
    [
        ["spectrum.p=NaN"],
        ["stopping.kappa=-1"],
        ["stopping.kappa=NaN"],
        ["stopping.kappa=Infinity"],
        ["stopping.level=NaN"],
        ["dim=10000", "stopping.m0_mode=explicit", "stopping.m0=20000"],
        ["stopping.m0_mode=explicit", "stopping.m0=-1"],
        ["signal.target=0"],
        ["signal.target=NaN"],
        ["signal.name=bogus"],
        ["stopping.m0_mode=bogus"],
        # the quantile start floor(2.33 * sqrt(2)) + 1 = 4 lies beyond the one coefficient
        ["dim=1", "signal.target=0.5", "stopping.m0_mode=normal_quantile"],
        ["replications=0"],
    ],
    ids=lambda overrides: overrides[-1],
)
def test_a_bad_value_names_its_dotted_key(config_path, tmp_path, overrides, capsys):
    """The library's message names its argument; the config's section is put in front of it."""
    out = tmp_path / "out"
    args = ["oracles", "--config", config_path, "--out", out]
    code, captured = run(args + [arg for item in overrides for arg in ("--set", item)], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"].count(overrides[-1].split("=")[0]) == 1, record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command, config, override, key",
    [
        ("oracles", "efficiency_smooth.json", "dim=0", "dim"),
        # the explicit mode reads an m0 that the shipped config leaves out
        ("oracles", "efficiency_smooth.json", "stopping.m0_mode=explicit", "stopping.m0"),
        ("adversary", "adversary_hide.json", "adversary.i0=5000", "adversary.i0"),
        # a named signal cannot be calibrated without noise, and the bounds need noise too
        ("oracles", "efficiency_smooth.json", "noise.delta=0", "noise.delta"),
        ("bounds", "null_calibration.json", "noise.delta=0", "noise.delta"),
        # a positive delta whose square underflows to zero: the bounds divide by delta**2
        ("bounds", "efficiency_smooth.json", "noise.delta=1e-170", "noise.delta"),
    ],
    ids=[
        "dim=0",
        "stopping.m0_mode=explicit",
        "adversary.i0=5000",
        "oracles-noise.delta=0",
        "bounds-noise.delta=0",
        "bounds-noise.delta=1e-170",
    ],
)
def test_a_bad_value_of_a_shipped_config_names_its_dotted_key(tmp_path, command, config, override, key, capsys):
    """The message names ``key`` whole: ``dim`` inside ``dimension`` does not count."""
    out = tmp_path / "out"
    code, captured = run([command, "--config", SHIPPED / config, "--out", out, "--set", override], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert len(re.findall(rf"(?<![\w.]){re.escape(key)}(?![\w.])", record["message"])) == 1, record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "overrides",
    [
        ["adversary.kind=residual_adversary", "adversary.r_bar=1e200"],
        ["adversary.r_bar=1e308", "adversary.alpha=0"],
    ],
    ids=["residual_adversary", "hide_signal"],
)
def test_a_radius_whose_square_overflows_exits_three(tmp_path, overrides, capsys):
    """Both adversaries square ``r_bar``: a finite radius whose square is not finite is refused naming the key,
    rather than raising ``OverflowError`` or writing an infinite floor."""
    out = tmp_path / "out"
    args = ["adversary", "--config", SHIPPED / "adversary_hide.json", "--out", out]
    code, captured = run(args + [arg for item in overrides for arg in ("--set", item)], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "adversary.r_bar" in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "section, key",
    [
        ("lazysvd", "tolerence"),
        ("stopping", "kapa"),
        ("noise", "delt"),
        ("matrix", "fiel"),
        ("stopping", "kappa_drift"),
        ("stopping", "m0"),  # read only in explicit m0 mode, and the mode defaults to zero
    ],
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


@pytest.mark.parametrize(
    "command, override",
    [
        ("mc", "replications=1.5"),
        ("oracles", "dim=60.5"),
        ("stop", "base_seed=2.5"),
        ("two-step", "stopping.m0=3.5"),
        ("bounds", "dim=true"),
        ("adversary", "adversary.i0=30.5"),
    ],
)
def test_fractional_integer_key_exits_three(tmp_path, command, override, capsys):
    config = dict(BASE_CONFIG, adversary={"kind": "hide_signal", "i0": 30, "alpha": 0.5, "r_bar": 2.0})
    if command != "adversary":
        del config["adversary"]
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, captured = run([command, "--config", path, "--out", out, "--set", override], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert override.split("=")[0] in record["message"]
    assert not any(out.iterdir())


def test_integral_float_is_accepted(config_path, tmp_path):
    out = tmp_path / "mc"
    assert run(["mc", "--config", config_path, "--out", out, "--set", "replications=3.0", "--set", "dim=1.2e2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["replications"] == 3
    assert report["config"]["dim"] == 120


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("lazysvd", "max_iterations", 10.5),
        ("lazysvd", "triplet_budget", 2.5),
        ("stopping", "m0", 1.5),
        (None, "base_seed", 0.5),
    ],
)
def test_lazysvd_fractional_integer_key_exits_three(tmp_path, section, key, value, capsys):
    save_matrix(tmp_path / "A.txt", np.eye(4))
    np.savetxt(tmp_path / "y.txt", np.ones(4))
    config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.01}}
    (config.setdefault(section, {}) if section else config)[key] = value
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path / "out"], capsys)
    assert code == 3
    assert key in json.loads(captured.err.strip().splitlines()[-1])["message"]
    assert not (tmp_path / "out" / "lazysvd.json").exists()


@pytest.mark.parametrize(
    "body, message",
    [("rep,tau\n0,1\n", "missing expected CSV header"), (f"{harness.CSV_HEADER}\n0,1,,0\n", "malformed CSV row")],
)
def test_plot_of_a_bad_csv_exits_three(tmp_path, body, message, capsys):
    (tmp_path / "r.csv").write_text(body)
    path = tmp_path / "plot.json"
    path.write_text(json.dumps({**BASE_CONFIG, "plot": {"csv": "r.csv"}}))
    code, captured = run(["plot", "--config", path, "--out", tmp_path / "out"], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and message in record["message"]
    assert not (tmp_path / "out" / "efficiency.svg").exists()


def test_an_unknown_signal_name_lists_the_names_that_run(tmp_path, capsys):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({**BASE_CONFIG, "signal": {"name": "bogus"}}))
    code, captured = run(["oracles", "--config", path, "--out", tmp_path / "out"], capsys)
    assert code == 3
    message = json.loads(captured.err.strip().splitlines()[-1])["message"]
    names = json.loads(re.search(r"one of (\[.*?\])", message).group(1).replace("'", '"'))
    assert "zero" in names and "smooth" in names
    for name in names:
        assert run(["oracles", "--config", path, "--out", tmp_path / name, "--set", f"signal.name={name}"]) == 0


@pytest.mark.parametrize("rows", [3, 0])
def test_lazysvd_matrix_without_columns_exits_three(tmp_path, rows, capsys):
    save_matrix(tmp_path / "A.bin", np.zeros((rows, 0)))
    np.savetxt(tmp_path / "y.txt", np.ones(3))
    config = {"matrix": {"file": "A.bin"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.01}}
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    code, captured = run(["lazysvd", "--config", path, "--out", tmp_path / "out"], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "at least one column" in record["message"]
    assert not any((tmp_path / "out").iterdir())


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


def key_paths(node, prefix=""):
    """Dotted paths of every mapping key in a JSON payload; list items share the path ``name[]``."""
    if isinstance(node, dict):
        paths = set()
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(value, path)
        return paths
    if isinstance(node, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in node))
    return set()


EXPERIMENT_PATHS = {"config"} | {
    f"config.{key}"
    for key in (
        "base_seed",
        "dim",
        "noise",
        "noise.delta",
        "procedures",
        "replications",
        "signal",
        "signal.name",
        "signal.target",
        "spectrum",
        "spectrum.p",
        "stopping",
        "stopping.kappa",
        "stopping.kappa_drift",
        "stopping.level",
        "stopping.m0",
        "stopping.m0_mode",
    )
}
ORACLE_PATHS = {"oracle"} | {
    f"oracle.{key}"
    for key in (
        "balanced_discrete",
        "classical_index",
        "classical_risk",
        "classical_weak_index",
        "classical_weak_risk",
        "kappa",
        "m0",
        "proxy_time",
        "strong_time",
        "weak_time",
    )
}
OUTCOME_PATHS = {
    "kappa",
    "m0",
    "outcome",
    "outcome.coefficients_consumed",
    "outcome.immediate_stop",
    "outcome.rho",
    "outcome.tau",
}
SUMMARY_KEYS = (
    "eff_strong_mean",
    "eff_strong_quartiles",
    "eff_weak_mean",
    "eff_weak_quartiles",
    "immediate_fraction",
    "procedure",
    "tau_mean",
)
ADVERSARY_PATHS = {
    "adversary",
    "adversary.conditions_met",
    "adversary.conditions_met.prefix_equal",
    "adversary.i0",
    "adversary.mu_bar",
    "adversary.predicted_floor",
    "config.adversary",
    "config.adversary.alpha",
    "config.adversary.i0",
    "config.adversary.kind",
    "config.adversary.r_bar",
}
RESIDUAL_ADVERSARY_PATHS = {"adversary.conditions_met.weak_bias_close", "adversary.conditions_met.weak_bias_large"}


@pytest.mark.parametrize(
    "command, overrides, name, expected",
    [
        ("oracles", [], "oracles.json", EXPERIMENT_PATHS | ORACLE_PATHS),
        ("stop", [], "stop.json", EXPERIMENT_PATHS | OUTCOME_PATHS),
        (
            "two-step",
            RESCUE,
            "two_step.json",
            EXPERIMENT_PATHS
            | OUTCOME_PATHS
            | {"config.selection", "config.selection.norm"},
        ),
        (
            "mc",
            [],
            "report.json",
            EXPERIMENT_PATHS
            | ORACLE_PATHS
            | {"failures", "procedures", "replications"}
            | {f"procedures[].{key}" for key in SUMMARY_KEYS},
        ),
        (
            "bounds",
            [],
            "bounds.json",
            EXPERIMENT_PATHS
            | {"kappa", "m0", "bounds"}
            | {
                f"bounds.{key}"
                for key in (
                    "discretization_err",
                    "stochastic_factor",
                    "strong_bias_rhs",
                    "strong_oracle_rhs",
                    "weak_dev_rhs",
                )
            },
        ),
        ("adversary", [], "adversary.json", EXPERIMENT_PATHS | ADVERSARY_PATHS),
        (
            "adversary",
            ["--set", "adversary.kind=residual_adversary"],
            "adversary.json",
            EXPERIMENT_PATHS | ADVERSARY_PATHS | RESIDUAL_ADVERSARY_PATHS,
        ),
    ],
)
def test_json_key_paths_are_pinned(tmp_path, command, overrides, name, expected):
    config = dict(BASE_CONFIG)
    if command == "adversary":
        config["adversary"] = {"kind": "hide_signal", "i0": 30, "alpha": 0.5, "r_bar": 2.0}
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out, *overrides]) == 0
    assert key_paths(json.loads((out / name).read_text())) == expected


def test_lazysvd_json_key_paths_are_pinned(tmp_path):
    write_lazy_inputs(tmp_path)
    config = {
        "matrix": {"file": "A.txt"},
        "data": {"file": "y.txt"},
        "noise": {"delta": 0.05},
        "stopping": {"m0_mode": "zero"},
        "lazysvd": {"selection_norm": "weak"},
    }
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["lazysvd", "--config", path, "--out", out]) == 0
    # the raw config is echoed, so its paths are the input's
    expected = key_paths({"config": config}) | OUTCOME_PATHS
    expected |= {"iterations", "matvec_count", "release_residuals", "singular_values"}
    assert key_paths(json.loads((out / "lazysvd.json").read_text())) == expected


# an unknown norm, and the retired penalty multiplier, which is an unknown key whatever its value
BAD_SELECTIONS = [
    ["selection.norm=stronk"],
    ["selection.penalty_multiplier=2"],
    ["selection.norm=weak", "selection.penalty_multiplier=1"],
    ["selection.norm=stronk", "selection.penalty_multiplier=-3"],
]


@pytest.mark.parametrize("immediate", [False, True])
@pytest.mark.parametrize("bad", BAD_SELECTIONS)
def test_two_step_bad_selection_exits_three(config_path, tmp_path, immediate, bad, capsys):
    out = tmp_path / "out"
    args = ["two-step", "--config", config_path, "--out", out, *(RESCUE if immediate else [])]
    for item in bad:
        args += ["--set", item]
    code, captured = run(args, capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    retired = any(item.startswith("selection.penalty_multiplier=") for item in bad)
    expected = "unknown selection keys: ['penalty_multiplier']" if retired else "unknown norm 'stronk'"
    assert record["error"] == "ValueError" and expected in record["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("immediate", [False, True])
@pytest.mark.parametrize(
    "section",
    [{"selection_norm": "stronk"}, {"selection_norm": "weak", "penalty_multiplier": 2}, {"penalty_multiplier": 2}],
)
def test_lazysvd_bad_selection_exits_three(tmp_path, immediate, section, capsys):
    """An unknown norm, and the retired penalty multiplier as an unknown key, exit 3 before anything is written."""
    write_lazy_inputs(tmp_path)
    config = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.05}, "lazysvd": section}
    if immediate:
        config["stopping"] = {"kappa": 1000.0, "m0_mode": "explicit", "m0": 5}
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, captured = run(["lazysvd", "--config", path, "--out", out], capsys)
    assert code == 3
    record = json.loads(captured.err.strip().splitlines()[-1])
    expected = "unknown lazysvd keys: ['penalty_multiplier']" if "penalty_multiplier" in section else "unknown norm"
    assert record["error"] == "ValueError" and expected in record["message"]
    assert not any(out.iterdir())


def test_a_bad_selection_norm_names_its_key(config_path, tmp_path, capsys):
    """``two-step``'s ``selection.norm`` and ``lazysvd``'s ``selection_norm`` share one check, which names the key."""
    write_lazy_inputs(tmp_path)
    lazy = {"matrix": {"file": "A.txt"}, "data": {"file": "y.txt"}, "noise": {"delta": 0.05}}
    lazy_path = tmp_path / "lazy.json"
    lazy_path.write_text(json.dumps(lazy))
    cases = [("two-step", config_path, "selection.norm"), ("lazysvd", lazy_path, "lazysvd.selection_norm")]
    for command, path, key in cases:
        out = tmp_path / command
        code, captured = run([command, "--config", path, "--out", out, "--set", f"{key}=5"], capsys)
        assert code == 3
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "ValueError" and f"{key}: unknown norm 5" in record["message"]
        assert not any(out.iterdir())


def test_plot_without_a_title_writes_the_default_titles_bytes(config_path, tmp_path):
    """With no ``plot.title`` the SVG is the one written when the CLI passed ``"Relative efficiency"`` itself."""
    assert run(["mc", "--config", config_path, "--out", tmp_path]) == 0
    config = dict(BASE_CONFIG, plot={"csv": "replications.csv"})
    path = tmp_path / "plot.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["plot", "--config", path, "--out", out]) == 0
    records, _ = read_records_csv(tmp_path / "replications.csv")
    expected = svgplot.efficiency_plot(records, config_mapping=config, title="Relative efficiency")
    assert (out / "efficiency.svg").read_text() == expected
    assert "Relative efficiency" in expected


def test_failed_replication_exits_four_after_writing(config_path, tmp_path, monkeypatch, capsys):
    reps = []
    errors, replication_seed = harness._errors, harness.replication_seed

    def seed_of(base_seed, rep):
        reps.append(rep)
        return replication_seed(base_seed, rep)

    def flaky(y, k, mu, lam, gaps):
        if reps[-1] == 3:  # the first index replication 3 scores
            raise FloatingPointError("overflow in the estimate")
        return errors(y, k, mu, lam, gaps)

    monkeypatch.setattr(harness, "replication_seed", seed_of)
    monkeypatch.setattr(harness, "_errors", flaky)
    out = tmp_path / "mc"
    code, captured = run(["mc", "--config", config_path, "--out", out], capsys)
    assert code == 4
    assert "[3]" in json.loads(captured.err.strip().splitlines()[-1])["message"]
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == [[3, "FloatingPointError: overflow in the estimate"]]
    records, _ = read_records_csv(out / "replications.csv")
    assert sorted({r.rep for r in records}) == [0, 1, 2, 4, 5, 6, 7]
