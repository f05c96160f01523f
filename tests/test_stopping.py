"""The residual stopping rule over coefficient blocks, AIC selection and the two-step rule."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop.model import Observation, make_polynomial_spectrum
from svdstop.stopping import (
    M0_MODES,
    StoppingConfig,
    TruncatedStreamError,
    aic_select,
    conservative_start,
    default_threshold,
    early_stop,
    make_stopping_config,
    normal_quantile_start,
    residual_rule,
    stop_index,
    two_step,
)

Y3 = np.array([2.0, 1.0, 0.5])
OBS3 = Observation(y=Y3, y_norm_sq=float(np.sum(Y3**2)), delta=1.0)
LAM3 = np.array([1.0, 0.5, 0.25])


def observations(max_dim=40):
    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_dim))
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(d) * draw(st.floats(0.1, 4.0))
        kappa = draw(st.floats(0.0, 2.0)) * float(np.sum(y**2)) + draw(st.floats(0.0, 1.0))
        m0 = draw(st.integers(0, d))
        obs = Observation(y=y, y_norm_sq=float(np.sum(y**2)), delta=1.0)
        return obs, StoppingConfig(kappa=kappa, m0=m0)

    return build()


def test_hand_example_stops_at_two():
    out = early_stop(OBS3, StoppingConfig(kappa=1.0))
    # residuals after 0,1,2 coefficients: 5.25, 1.25, 0.25
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert not out.immediate_stop
    assert out.rho is None


def test_generous_threshold_stops_before_reading():
    out = early_stop(OBS3, StoppingConfig(kappa=10.0))
    assert out.tau == 0
    assert out.coefficients_consumed == 0
    assert out.immediate_stop


def test_start_index_is_binding():
    out = early_stop(OBS3, StoppingConfig(kappa=10.0, m0=2))
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert out.immediate_stop


def test_threshold_never_met_runs_to_dimension():
    out = early_stop(OBS3, StoppingConfig(kappa=0.1))
    assert out.tau == 3
    assert not out.immediate_stop


def loop_tau(y, y_norm_sq, config):
    """The rule as a plain scalar loop: the reference for every blocking of the data."""
    if config.m0 == 0 and y_norm_sq <= config.kappa:
        return 0
    running = 0.0
    for m, value in enumerate(y, start=1):
        running += float(value) * float(value)
        if m >= config.m0 and (y_norm_sq - running <= config.kappa or m == len(y)):
            return m


def singletons(y, pulled):
    """One-coefficient blocks of ``y``, counting in ``pulled`` how many were taken."""
    for value in y:
        pulled.append(value)
        yield [value]


def test_truncated_stream_raises():
    with pytest.raises(TruncatedStreamError):
        residual_rule([np.array([2.0])], y_norm_sq=5.25, dim=3, config=StoppingConfig(kappa=0.0))


@given(observations(), st.lists(st.integers(0, 40), max_size=6))
def test_stop_index_matches_streaming_rule(case, cuts):
    """One block, one-coefficient blocks and random splits give the same index."""
    obs, config = case
    tau = stop_index(obs.y, obs.y_norm_sq, config)
    assert tau == loop_tau(obs.y, obs.y_norm_sq, config)
    assert config.m0 <= tau <= obs.y.size
    assert early_stop(obs, config).tau == tau
    assert residual_rule(singletons(obs.y, []), obs.y_norm_sq, obs.dim, config) == tau
    split = np.split(obs.y, sorted(c for c in cuts if c <= obs.dim))
    assert residual_rule(iter(split), obs.y_norm_sq, obs.dim, config) == tau


def test_blocks_carry_the_sum_exactly_at_the_threshold():
    """A threshold equal to a running residual is met at the same index by every blocking."""
    y = np.random.default_rng(3).standard_normal(1000) * np.geomspace(1e3, 1e-3, 1000)
    y_norm_sq = float(np.dot(y, y))
    running = np.cumsum(y * y)
    for m in range(100, 1000, 37):
        config = StoppingConfig(kappa=y_norm_sq - running[m - 1])
        tau = loop_tau(y, y_norm_sq, config)
        assert stop_index(y, y_norm_sq, config) == tau
        assert residual_rule(singletons(y, []), y_norm_sq, y.size, config) == tau
        assert residual_rule(np.array_split(y, 7), y_norm_sq, y.size, config) == tau


@given(observations())
def test_rule_reads_exactly_tau_coefficients(case):
    obs, config = case
    pulled = []
    tau = residual_rule(singletons(obs.y, pulled), obs.y_norm_sq, obs.dim, config)
    assert len(pulled) == tau
    assert early_stop(obs, config).coefficients_consumed == tau


@given(observations())
def test_decision_is_measurable_in_prefix(case):
    """Rewriting coefficients past tau, keeping the norm, cannot change tau."""
    obs, config = case
    out = early_stop(obs, config)
    tau = out.tau
    if tau >= obs.y.size:
        return
    y2 = obs.y.copy()
    tail = y2[tau:]
    # reflect the tail: same energy, different values
    y2[tau:] = tail[::-1] * np.where(np.arange(tail.size) % 2 == 0, 1.0, -1.0)
    obs2 = Observation(y=y2, y_norm_sq=obs.y_norm_sq, delta=obs.delta)
    assert early_stop(obs2, config).tau == tau


def test_aic_hand_example_prefers_first_coefficient():
    y, lam = np.array([2.0, 0.1]), np.array([1.0, 0.5])
    assert aic_select(y, lam, 1.0, m0=2, norm="weak") == 1
    assert aic_select(y, lam, 1.0, m0=2, norm="strong") == 1


def test_aic_zero_noise_keeps_everything():
    assert aic_select(np.array([2.0, 0.1]), np.array([1.0, 0.5]), 0.0, m0=2, norm="strong") == 2


def test_aic_ties_resolve_to_smallest():
    # y2=0 with positive penalty: criterion strictly favours truncation at 0..
    assert aic_select(np.zeros(2), np.ones(2), 1.0, m0=2, norm="strong") == 0


def test_aic_penalty_multiplier_shrinks_selection():
    d = 40
    spec = make_polynomial_spectrum(d, 0.5)
    rng = np.random.default_rng(7)
    y = spec.values * (3.0 * np.arange(1, d + 1, dtype=float) ** -1.0) + 0.3 * rng.standard_normal(d)
    loose = aic_select(y, spec.values, 0.3, m0=d, norm="strong", penalty_multiplier=1.0)
    tight = aic_select(y, spec.values, 0.3, m0=d, norm="strong", penalty_multiplier=8.0)
    assert tight <= loose



def test_two_step_keeps_late_stop():
    config = StoppingConfig(kappa=1.0, m0=1)
    outcome = early_stop(OBS3, config)
    assert outcome.tau == 2
    assert not outcome.immediate_stop
    assert two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0) == outcome.tau


def test_two_step_rescues_immediate_stop():
    config = StoppingConfig(kappa=50.0, m0=2)
    outcome = early_stop(OBS3, config)
    assert outcome.tau == 2
    assert outcome.immediate_stop
    rho = two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0)
    assert rho == aic_select(OBS3.y, LAM3, 1.0, m0=2, norm="strong")
    assert rho < outcome.tau


@pytest.mark.parametrize("kappa, m0", [(1.0, 1), (50.0, 2)])  # a late stop, then an immediate one
@pytest.mark.parametrize("norm, multiplier", [("stronk", 1.0), ("weak", -3.0), ("strong", 0.0), ("strong", math.nan)])
def test_two_step_checks_the_selection_either_way(kappa, m0, norm, multiplier):
    tau = early_stop(OBS3, StoppingConfig(kappa=kappa, m0=m0)).tau
    with pytest.raises(ValueError):
        two_step(tau, OBS3.y, LAM3, 1.0, m0, norm, multiplier)


def test_normal_quantile_start_reference_value():
    assert normal_quantile_start(10_000) == 329
    assert normal_quantile_start(10_000, level=0.99) == 329


def test_conservative_start_formula():
    assert conservative_start(10_000) == int(math.floor(128.0 * math.log(10_000) * 100.0)) + 1


def test_default_threshold_formula():
    assert default_threshold(100, 0.1) == pytest.approx(1.0)
    assert default_threshold(100, 0.1, drift=0.5) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        default_threshold(0, 0.1)


def test_make_stopping_config_modes():
    assert set(M0_MODES) == {"explicit", "zero", "normal_quantile", "conservative"}
    cfg = make_stopping_config(10_000, 0.01, m0_mode="normal_quantile")
    assert cfg.m0 == 329
    assert cfg.kappa == pytest.approx(1.0)
    cfg0 = make_stopping_config(100, 0.1)
    assert cfg0.m0 == 0
    explicit = make_stopping_config(100, 0.1, m0_mode="explicit", m0=7)
    assert explicit.m0 == 7
    with pytest.raises(ValueError):
        make_stopping_config(100, 0.1, m0_mode="explicit")
    with pytest.raises(ValueError):
        make_stopping_config(100, 0.1, m0_mode="quantile")

