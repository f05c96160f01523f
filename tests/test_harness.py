"""Experiment configs, the Monte Carlo driver, and the CSV record format."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop import harness
from svdstop.estimator import estimate_at
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
from svdstop.model import replication_seed, save_vector, simulate_observation
from svdstop.signals import NAMED_PROFILES
from svdstop.stopping import stop_index

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "efficiency_smooth.json"
NULL_CONFIG = REFERENCE_CONFIG.with_name("null_calibration.json")


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


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"procedures": ("plain_stop", "two_step_weak", "plain_stop")}, "procedures"),
        ({"base_seed": -1}, "base_seed"),
        ({"dim": 0}, "dimension"),
        ({"delta": -0.1}, "noise level"),
        ({"replications": 0}, "replication"),
        ({"delta": 1e160}, "noise.delta"),
    ],
)
def test_config_rejects_repeated_procedures_and_negative_seeds(overrides, key):
    """And the other out-of-range values: a dimension or a replication count below 1, a negative noise level
    or one whose square overflows."""
    with pytest.raises(ValueError, match=key):
        small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"dim": 40.5}, "dim"),
        ({"m0_mode": "explicit", "m0": 3.7}, "m0"),
        ({"base_seed": 1.5}, "base_seed"),
        ({"replications": True}, "replications"),
    ],
)
def test_config_rejects_non_integral_integer_fields(overrides, key):
    """Direct construction checks the integer fields as ``config_from_mapping`` always did."""
    with pytest.raises(ValueError, match=key):
        small_config(**{"dim": 40, "signal_target": 10.0, **overrides})


def test_config_stores_integral_floats_as_int():
    config = small_config(dim=40.0, signal_target=10.0, replications=3.0, base_seed=2.0, m0_mode="explicit", m0=4.0)
    assert [type(v) for v in (config.dim, config.replications, config.base_seed, config.m0)] == [int] * 4
    assert config_from_mapping(config.to_mapping()) == config


SPECTRA = st.one_of(
    st.fixed_dictionaries({"spectrum_p": st.floats(0.0, 4.0)}),
    st.fixed_dictionaries({"spectrum_p": st.none(), "spectrum_file": st.text(max_size=8)}),
)
SIGNALS = st.one_of(
    st.fixed_dictionaries(
        {"signal_name": st.sampled_from(sorted(NAMED_PROFILES)), "signal_target": st.none() | st.floats(1.0, 1e4)}
    ),
    st.just({"signal_name": "zero"}),
    st.fixed_dictionaries({"signal_name": st.none(), "signal_file": st.text(max_size=8)}),
)
STARTS = st.one_of(
    st.just({}),  # m0_mode "zero"
    st.fixed_dictionaries({"m0_mode": st.just("normal_quantile"), "level": st.floats(0.5, 0.999)}),
    st.fixed_dictionaries({"m0_mode": st.just("explicit"), "m0": st.integers(0, 10**4)}),
)
THRESHOLDS = st.one_of(
    st.fixed_dictionaries({"kappa": st.floats(0.0, 1e4)}), st.fixed_dictionaries({"kappa_drift": st.floats(-3.0, 3.0)})
)


@given(SPECTRA, SIGNALS, STARTS, THRESHOLDS, st.lists(st.sampled_from(PROCEDURES), min_size=1, unique=True))
def test_mapping_roundtrip(spectrum, signal, start, threshold, procedures):
    config = ExperimentConfig(
        dim=10**4, delta=0.01, **spectrum, **signal, **start, **threshold, procedures=procedures, replications=7
    )
    assert config_from_mapping(config.to_mapping()) == config


@pytest.mark.parametrize(
    "section, key, error",
    [
        (None, "dim", ValueError),
        ("noise", "delta", TypeError),
        ("stopping", "level", TypeError),
        ("stopping", "kappa_drift", TypeError),
    ],
)
def test_mapping_rejects_a_missing_dim_and_null_settings(section, key, error):
    """``dim`` is required, and these fields have no unset state: a null for one of them fails."""
    mapping = small_config().to_mapping()
    if section is None:
        del mapping[key]
    else:
        mapping[section][key] = None
    with pytest.raises(error):
        config_from_mapping(mapping)


def test_mapping_rejects_unknown_keys():
    mapping = small_config().to_mapping()
    mapping["procedure"] = ["plain_stop"]
    with pytest.raises(ValueError):
        config_from_mapping(mapping)


@pytest.mark.parametrize(
    "section, key",
    [("stopping", "kapa"), ("noise", "delt"), ("spectrum", "q"), ("signal", "nmae")],
)
def test_mapping_rejects_unknown_nested_keys(section, key):
    mapping = small_config().to_mapping()
    mapping[section][key] = 5
    with pytest.raises(ValueError, match=key):
        config_from_mapping(mapping)


def test_mapping_rejects_non_mapping_section():
    mapping = small_config().to_mapping()
    mapping["noise"] = 0.1
    with pytest.raises(ValueError, match="noise"):
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


def test_oracle_payload_of_reference_config_is_pinned():
    """The values ``svdstop oracles`` and the ``mc`` report write for the reference config."""
    config = config_from_mapping(json.loads(REFERENCE_CONFIG.read_text()))
    payload = oracle_payload(resolve_experiment(config, REFERENCE_CONFIG.parent))
    integers = {"balanced_discrete": 734, "classical_index": 321, "classical_weak_index": 321, "m0": 329}
    floats = {
        "weak_time": 329.0,
        "strong_time": 733.9282403495163,
        "proxy_time": 329.0,
        "classical_risk": 40.6704596288891,
        "classical_weak_risk": 0.06319249263507348,
        "kappa": 1.0,
    }
    assert set(payload) == set(integers) | set(floats)
    for key, value in integers.items():
        assert type(payload[key]) is int and payload[key] == value, key
    for key, value in floats.items():
        assert payload[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


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
    # on pure noise from m0 = 0 the fixed index is 0 = m0, but no rule stopped there: only plain stops are immediate
    null = {**json.loads(NULL_CONFIG.read_text()), "stopping": {"m0_mode": "zero"}, "replications": 40}
    report = run_experiment(config_from_mapping({**null, "procedures": ["plain_stop", "fixed_oracle"]}))
    rows = {(r.procedure, r.tau == 0, r.immediate) for r in report.records}
    assert rows == {("fixed_oracle", True, False), ("plain_stop", True, True), ("plain_stop", False, False)}


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


def test_quartiles_between_infinities_are_infinite():
    """numpy interpolates ``inf - inf`` into NaN there; finite quartiles are numpy's own."""
    records = [
        harness.ReplicationRecord(rep, "plain_stop", 0, None, True, 1.0, 1.0, eff, eff)
        for rep, eff in enumerate([0.0, 0.0, math.inf, math.inf])
    ]
    summary = harness._summarise("plain_stop", records)
    assert summary.eff_strong_quartiles == summary.eff_weak_quartiles == (0.0, math.inf, math.inf)
    records = [r for r in records if r.rep < 3]
    assert harness._summarise("plain_stop", records).eff_strong_quartiles == (0.0, 0.0, math.inf)
    eff = np.array([0.3, 1.7, 0.9, 2.2, 1.1])
    records = [harness.ReplicationRecord(rep, "plain_stop", 0, None, False, 1.0, 1.0, e, e) for rep, e in enumerate(eff)]
    assert harness._summarise("plain_stop", records).eff_strong_quartiles == tuple(np.percentile(eff, [25, 50, 75]))


def test_report_as_record_structure():
    report = run_experiment(small_config(replications=4))
    record = report.as_record()
    assert set(record) == {"config", "oracle", "procedures", "replications", "failures"}
    assert record["replications"] == 4
    assert record["config"]["dim"] == 80


def test_only_numeric_replication_failures_are_recorded(monkeypatch):
    def broken(y, k, mu, lam, gaps):
        raise TypeError("a programming error")

    monkeypatch.setattr(harness, "_errors", broken)
    with pytest.raises(TypeError):
        run_experiment(small_config(replications=2))


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


KAPPAS = {"zero": 0.0, "default": None, "huge": 1e12}  # stop at D, in between, at m0


def _file_config(base: Path, lam, mu, delta: float, kappa: str, m0: int, procedures, replications: int, seed: int):
    save_vector(base / "lam.txt", lam)
    save_vector(base / "mu.txt", mu)
    return ExperimentConfig(
        dim=len(mu),
        delta=delta,
        spectrum_p=None,
        spectrum_file="lam.txt",
        signal_name=None,
        signal_file="mu.txt",
        kappa=KAPPAS[kappa],
        m0_mode="explicit",
        m0=m0,
        replications=replications,
        base_seed=seed,
        procedures=tuple(procedures),
    )


def _full_length_errors(obs, exp, k: int) -> tuple[float, float]:
    """The errors of the estimate at ``k`` built in full, the way scoring once worked."""
    mu, lam = exp.signal.coefficients, exp.spectrum.values
    diff = estimate_at(obs, exp.spectrum, float(k)).values - mu
    weighted = lam * diff
    return math.sqrt(float(np.dot(diff, diff))), math.sqrt(float(np.dot(weighted, weighted)))


def _check_errors_the_old_way(config: ExperimentConfig, base: Path) -> set[int]:
    """Every record's errors equal those of ``estimate - mu`` built in full; returns the chosen indices.

    Scoring from the head of ``y`` also matches the full estimate at 0,
    ``m0``, ``tau``, the classical index and ``D`` in every replication, and
    leaves the gap vectors as it found them.
    """
    exp = resolve_experiment(config, base)
    mu, lam = exp.signal.coefficients, exp.spectrum.values
    oracle = oracle_payload(exp)
    gaps = (-mu, lam * -mu)
    pristine = tuple(g.copy() for g in gaps)
    report = run_experiment(config, base_dir=base)
    chosen_seen = set()
    for rep in range(config.replications):
        obs = simulate_observation(lam * mu, exp.noise, replication_seed(config.base_seed, rep))
        tau = stop_index(obs.y, obs.y_norm_sq, exp.stopping)
        for k in {0, exp.stopping.m0, tau, oracle["classical_index"], config.dim}:
            assert harness._errors(obs.y, k, mu, lam, gaps) == _full_length_errors(obs, exp, k)
            assert all(np.array_equal(g, p) for g, p in zip(gaps, pristine))
        for record in (r for r in report.records if r.rep == rep):
            chosen = record.rho if record.procedure.startswith("two_step") else record.tau
            chosen_seen.add(chosen)
            assert (record.err_strong, record.err_weak) == _full_length_errors(obs, exp, chosen)
    # the gap vectors are restored after every procedure: the order of the procedures changes nothing
    permuted = run_experiment(dataclasses.replace(config, procedures=config.procedures[::-1]), base_dir=base)
    assert sorted(permuted.records, key=lambda r: (r.rep, r.procedure)) == sorted(
        report.records, key=lambda r: (r.rep, r.procedure)
    )
    # and running one replication twice on the same gap vectors gives the same records
    numerators = (math.sqrt(oracle["classical_risk"]), math.sqrt(oracle["classical_weak_risk"]))
    runs = [harness._run_one(0, exp, oracle["classical_index"], numerators, gaps) for _ in range(2)]
    assert runs[0] == runs[1] == ([r for r in report.records if r.rep == 0], None)
    assert all(np.array_equal(g, p) for g, p in zip(gaps, pristine))
    return chosen_seen


@st.composite
def _instances(draw):
    dim = draw(st.integers(1, 30))
    lam = sorted(draw(st.lists(st.floats(0.05, 2.0), min_size=dim, max_size=dim)), reverse=True)
    # exact zeros, and no entries so tiny that an error vanishes or an efficiency overflows: the
    # quartiles of infinite efficiencies warn
    entries = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
    mu = draw(st.lists(entries, min_size=dim, max_size=dim).filter(any))
    return (
        lam,
        mu,
        draw(st.floats(0.05, 1.0)),
        draw(st.sampled_from(sorted(KAPPAS))),
        draw(st.integers(0, dim)),
        draw(st.permutations(PROCEDURES)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 2**32 - 1)),
    )


@given(_instances())
def test_errors_are_bit_identical_to_full_length_differences(instance):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        _check_errors_the_old_way(_file_config(base, *instance), base)


@pytest.mark.parametrize(
    "kappa, m0, expected",
    [("huge", 0, {0}), ("huge", 4, {4}), ("default", 0, None), ("zero", 0, {12})],
)
def test_errors_are_bit_identical_at_the_edges(tmp_path, kappa, m0, expected):
    """The chosen index at 0, at ``m0``, at an ordinary stop, and at ``D``; ``mu`` has exact zeros."""
    mu = np.where(np.arange(12) % 3 == 0, 0.0, np.linspace(2.0, -1.0, 12))
    lam = np.arange(1, 13, dtype=float) ** -0.5
    config = _file_config(tmp_path, lam, mu, 0.3, kappa, m0, ("plain_stop",), 5, 3)
    chosen = _check_errors_the_old_way(config, tmp_path)
    if expected is None:
        assert chosen - {0, 12}
    else:
        assert chosen == expected
    full = dataclasses.replace(config, procedures=PROCEDURES)
    assert _check_errors_the_old_way(full, tmp_path) >= chosen


def test_procedures_that_choose_one_index_share_its_estimate(tmp_path, monkeypatch):
    """The ``mc-wide`` shape at D = 2000: four procedures, no immediate stop, so both two-steps keep ``tau``.

    Each replication builds one estimate at ``tau`` and one at the classical
    index, or a single one where the two coincide (replication 34 at this
    seed).
    """
    mapping = {
        **json.loads(REFERENCE_CONFIG.read_text()),
        "dim": 2000,
        "signal": {"name": "rough"},
        "stopping": {"m0_mode": "normal_quantile"},
        "replications": 40,
        "base_seed": 3,
        "procedures": list(PROCEDURES),
    }
    config = config_from_mapping(mapping)
    _check_errors_the_old_way(config, tmp_path)
    fixed = oracle_payload(resolve_experiment(config))["classical_index"]

    levels = []  # per replication, the indices scored in it, in order
    errors, replication_seed = harness._errors, harness.replication_seed

    def seed_of(base_seed, rep):
        levels.append([])
        return replication_seed(base_seed, rep)

    def spy(y, k, mu, lam, gaps):
        levels[-1].append(k)
        return errors(y, k, mu, lam, gaps)

    monkeypatch.setattr(harness, "replication_seed", seed_of)
    monkeypatch.setattr(harness, "_errors", spy)
    report = run_experiment(config)
    assert not any(r.immediate for r in report.records)
    taus = [r.tau for r in report.records if r.procedure == "plain_stop"]
    assert [rep for rep, tau in enumerate(taus) if tau == fixed] == [34]
    assert levels == [[tau] if tau == fixed else [tau, fixed] for tau in taus]


def test_run_experiment_builds_no_estimate_vector(monkeypatch):
    """Replications are scored from the head of ``y``: ``estimate_at`` is left to the commands that write one."""
    # a huge threshold stops immediately at m0 = 5, so the AIC re-selection runs too
    config = small_config(replications=6, m0_mode="explicit", m0=5, kappa=100.0, procedures=PROCEDURES)
    expected = run_experiment(config)
    assert all(r.immediate for r in expected.records if r.procedure == "plain_stop")

    def forbidden(obs, spectrum, t):
        raise AssertionError("run_experiment built an estimate vector")

    monkeypatch.setattr(harness, "estimate_at", forbidden)
    assert run_experiment(config) == expected


def test_gap_vectors_are_restored_after_a_numeric_error():
    mu = np.array([1e308, -2.0, 0.0])
    lam = np.array([1.0, 0.5, 0.25])
    gaps = (-mu, lam * -mu)
    pristine = tuple(g.copy() for g in gaps)
    y = np.array([-1e308, 0.5, 0.0])  # the estimate's head y / lam is [-1e308, 1, 0]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        harness._errors(y, 3, mu, lam, gaps)
    assert all(np.array_equal(g, p) for g, p in zip(gaps, pristine))
