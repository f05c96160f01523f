"""Experiment configs, the Monte Carlo driver, and the CSV record format."""

import numpy as np
import pytest

from svdstop.harness import (
    CSV_HEADER,
    PROCEDURES,
    ExperimentConfig,
    config_from_mapping,
    oracle_payload,
    read_records_csv,
    resolve_experiment,
    run_experiment,
    write_records_csv,
)
from svdstop.model import save_vector


def small_config(**overrides):
    base = dict(
        dim=80,
        delta=0.1,
        signal_name="smooth",
        signal_target=20.0,
        replications=12,
        base_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_requires_exactly_one_spectrum_source():
    with pytest.raises(ValueError):
        small_config(spectrum_p=None)
    with pytest.raises(ValueError):
        small_config(spectrum_file="spec.txt")


def test_config_requires_exactly_one_signal_source():
    with pytest.raises(ValueError):
        small_config(signal_name=None)
    with pytest.raises(ValueError):
        small_config(signal_file="mu.txt")


def test_config_rejects_unknown_procedure():
    with pytest.raises(ValueError):
        small_config(procedures=("plain_stop", "magic"))
    with pytest.raises(ValueError):
        small_config(procedures=())


def test_mapping_roundtrip():
    config = small_config(procedures=("plain_stop", "two_step_strong"), kappa=0.9, m0=4, m0_mode="explicit")
    assert config_from_mapping(config.to_mapping()) == config


def test_mapping_rejects_unknown_keys():
    mapping = small_config().to_mapping()
    mapping["procedure"] = ["plain_stop"]
    with pytest.raises(ValueError):
        config_from_mapping(mapping)


def test_mapping_requires_noise_delta():
    mapping = small_config().to_mapping()
    del mapping["noise"]["delta"]
    with pytest.raises(ValueError):
        config_from_mapping(mapping)


def test_resolve_zero_signal():
    exp = resolve_experiment(small_config(signal_name="zero", signal_target=None))
    assert np.all(exp.signal.coefficients == 0.0)
    assert exp.spectrum.dim == 80
    assert exp.stopping.kappa == pytest.approx(80 * 0.01)


def test_resolve_file_based_inputs(tmp_path):
    dim = 30
    mu = np.linspace(1.0, 0.1, dim)
    lam = np.linspace(2.0, 0.5, dim)
    save_vector(tmp_path / "mu.txt", mu)
    save_vector(tmp_path / "lam.txt", lam)
    config = ExperimentConfig(
        dim=dim,
        delta=0.2,
        spectrum_p=None,
        spectrum_file="lam.txt",
        signal_name=None,
        signal_file="mu.txt",
        replications=3,
    )
    exp = resolve_experiment(config, base_dir=tmp_path)
    assert exp.signal.coefficients == pytest.approx(mu)
    assert exp.spectrum.values == pytest.approx(lam)


def test_resolve_missing_file_raises(tmp_path):
    config = small_config(signal_name=None, signal_target=None, signal_file="missing.txt")
    with pytest.raises(ValueError):
        resolve_experiment(config, base_dir=tmp_path)


def test_resolve_dimension_mismatch(tmp_path):
    save_vector(tmp_path / "mu.txt", np.ones(5))
    config = small_config(signal_name=None, signal_target=None, signal_file="mu.txt")
    with pytest.raises(ValueError):
        resolve_experiment(config, base_dir=tmp_path)


def test_oracle_payload_keys():
    exp = resolve_experiment(small_config())
    payload = oracle_payload(exp)
    assert set(payload) == {
        "balanced_discrete",
        "weak_time",
        "strong_time",
        "proxy_time",
        "classical_index",
        "classical_risk",
        "classical_weak_index",
        "classical_weak_risk",
        "kappa",
        "m0",
    }
    assert payload["kappa"] == pytest.approx(0.8)
    assert payload["weak_time"] == pytest.approx(20.0, abs=1e-6)


def test_run_experiment_record_shape():
    config = small_config(procedures=("plain_stop", "two_step_strong", "fixed_oracle"))
    report = run_experiment(config)
    assert len(report.records) == 12 * 3
    assert {r.procedure for r in report.records} == {"plain_stop", "two_step_strong", "fixed_oracle"}
    assert [s.procedure for s in report.summaries] == ["plain_stop", "two_step_strong", "fixed_oracle"]
    assert report.failures == ()
    for record in report.records:
        if record.procedure == "fixed_oracle":
            assert record.tau == report.oracle["classical_index"]
        assert record.eff_strong >= 0.0
        assert record.eff_weak >= 0.0


def test_run_experiment_is_rerun_invariant():
    config = small_config(replications=10, procedures=("plain_stop", "two_step_weak"))
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.records == second.records
    assert first.summaries == second.summaries


def test_run_experiment_seed_sensitivity():
    base = run_experiment(small_config(replications=6))
    moved = run_experiment(small_config(replications=6, base_seed=6))
    taus_base = [r.tau for r in base.records]
    taus_moved = [r.tau for r in moved.records]
    assert taus_base != taus_moved


def test_summaries_match_percentiles():
    config = small_config(replications=25)
    report = run_experiment(config)
    summary = report.summaries[0]
    eff = np.array([r.eff_strong for r in report.records])
    assert summary.eff_strong_quartiles == pytest.approx(
        tuple(np.percentile(eff, [25.0, 50.0, 75.0]))
    )
    assert summary.eff_strong_mean == pytest.approx(float(np.mean(eff)))
    imm = np.array([r.immediate for r in report.records])
    assert summary.immediate_fraction == pytest.approx(float(np.mean(imm)))
    assert summary.tau_mean == pytest.approx(float(np.mean([r.tau for r in report.records])))


def test_report_as_record_structure():
    report = run_experiment(small_config(replications=4))
    record = report.as_record()
    assert set(record) == {"config", "oracle", "procedures", "replications", "failures"}
    assert record["replications"] == 4
    assert record["config"]["dim"] == 80


def test_csv_roundtrip(tmp_path):
    config = small_config(replications=8, procedures=("plain_stop", "two_step_strong"))
    report = run_experiment(config)
    path = tmp_path / "records.csv"
    write_records_csv(path, report.records, config.to_mapping())
    records, mapping = read_records_csv(path)
    assert list(records) == list(report.records)
    assert config_from_mapping(mapping) == config
    body = path.read_text().splitlines()
    header_at = next(i for i, line in enumerate(body) if not line.startswith("#"))
    assert body[header_at] == CSV_HEADER


def test_csv_bytes_are_rerun_invariant(tmp_path):
    config = small_config(replications=10)
    for name in ("a.csv", "b.csv"):
        report = run_experiment(config)
        write_records_csv(tmp_path / name, report.records, config.to_mapping())
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_procedures_constant_is_complete():
    assert PROCEDURES == ("plain_stop", "two_step_weak", "two_step_strong", "fixed_oracle")
