"""Lower-bound machinery: adversarial signals, TV bounds, tail checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop.lowerbound import (
    SIMPLIFIED_NORM_THRESHOLD,
    adversary_conditions,
    hide_signal,
    laurent_massart_tails,
    overrun_check,
    residual_adversary,
    tv_bound,
    tv_numeric,
    weak_oracle_gap_instance,
)
from svdstop.model import NoiseModel, Signal, make_polynomial_spectrum
from svdstop.stopping import StoppingConfig, stop_index


def test_hide_signal_flat_budget():
    res = hide_signal(Signal(np.zeros(30)), i0=3, alpha=0.0, r_bar=2.0)
    expected = np.zeros(30)
    expected[3] = 1.0
    assert res.mu_bar.coefficients == pytest.approx(expected)
    assert res.i0 == 3
    assert res.predicted_floor == pytest.approx(1.0 / 3.0)
    assert res.conditions_met == {"prefix_equal": True}


def test_hide_signal_decaying_budget():
    res = hide_signal(Signal(np.zeros(30)), i0=20, alpha=0.5, r_bar=2.0)
    assert res.mu_bar.coefficients[20] == pytest.approx(1.0 / math.sqrt(21.0))
    assert np.count_nonzero(res.mu_bar.coefficients) == 1


def test_hide_signal_preserves_prefix():
    rng = np.random.default_rng(3)
    mu = Signal(rng.standard_normal(20))
    res = hide_signal(mu, i0=7, alpha=0.25, r_bar=1.0)
    assert np.array_equal(res.mu_bar.coefficients[:7], mu.coefficients[:7])
    assert res.mu_bar.coefficients[7] == pytest.approx(0.5 * 8.0**-0.25)


def test_hide_signal_validation():
    mu = Signal(np.zeros(5))
    with pytest.raises(ValueError):
        hide_signal(mu, i0=5, alpha=0.0, r_bar=1.0)
    with pytest.raises(ValueError):
        hide_signal(mu, i0=2, alpha=-0.5, r_bar=1.0)
    with pytest.raises(ValueError):
        hide_signal(mu, i0=2, alpha=0.0, r_bar=0.0)


def test_residual_adversary_quadrature_bump():
    dim = 40
    rng = np.random.default_rng(5)
    mu = Signal(rng.standard_normal(dim))
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(0.1)
    res = residual_adversary(mu, spec, noise, i0=9, alpha=0.25, r_bar=1.5)
    bump = 0.25 * 1.5**2 * 10.0**-0.5
    assert res.mu_bar.coefficients[9] ** 2 == pytest.approx(mu.coefficients[9] ** 2 + bump)
    assert math.copysign(1.0, res.mu_bar.coefficients[9]) == math.copysign(1.0, mu.coefficients[9])
    assert np.array_equal(res.mu_bar.coefficients[:9], mu.coefficients[:9])
    assert set(res.conditions_met) == {"prefix_equal", "weak_bias_close", "weak_bias_large"}
    assert res.conditions_met["prefix_equal"]


def test_residual_adversary_floor_fraction():
    dim = 30
    mu = Signal(np.zeros(dim))
    spec = make_polynomial_spectrum(dim, 0.0)
    res = residual_adversary(mu, spec, NoiseModel(1.0), i0=5, alpha=0.0, r_bar=2.0)
    # bump of 1.0 sits alone past i0, so the floor is 5% of it
    assert res.predicted_floor == pytest.approx(0.05)


def test_adversary_conditions_on_identical_pair():
    dim = 25
    mu = Signal(np.zeros(dim))
    spec = make_polynomial_spectrum(dim, 0.5)
    cond = adversary_conditions(mu, mu, spec, NoiseModel(0.1), i0=4)
    assert cond["prefix_equal"]
    assert cond["weak_bias_close"]
    assert not cond["weak_bias_large"]  # both biases vanish


def test_tv_bound_hand_values():
    res = tv_bound(6.0, 5.25, 100)
    assert res.bound_simplified == pytest.approx(2.0 * abs(36.0 - 27.5625) / 10.0)
    e = math.e
    general = e * (abs(36.0 - 27.5625) + math.sqrt(8.0 / math.pi) * 0.75) / math.sqrt(math.pi * 100.0)
    assert res.bound_general == pytest.approx(general)
    assert res.tv_numeric is None


def test_tv_bound_threshold_constant():
    e = math.e
    assert SIMPLIFIED_NORM_THRESHOLD == pytest.approx(
        math.sqrt(8.0) * e / (2.0 * math.pi - math.sqrt(math.pi) * e)
    )


def test_tv_bound_simplified_requires_large_norms():
    small = tv_bound(1.0, 0.5, 50)
    assert small.bound_simplified is None
    big = tv_bound(SIMPLIFIED_NORM_THRESHOLD + 1.0, SIMPLIFIED_NORM_THRESHOLD, 50)
    assert big.bound_simplified is not None


def test_tv_bound_validation():
    with pytest.raises(ValueError):
        tv_bound(-1.0, 0.5, 10)
    with pytest.raises(ValueError):
        tv_bound(1.0, 0.5, 0)


def test_tv_numeric_basic_properties():
    assert tv_numeric(2.0, 2.0, 25) == pytest.approx(0.0, abs=1e-12)
    a = tv_numeric(3.0, 2.0, 25)
    b = tv_numeric(2.0, 3.0, 25)
    assert a == pytest.approx(b, abs=1e-9)
    assert 0.0 < a < 1.0


@given(
    st.floats(0.0, 8.0),
    st.floats(0.0, 8.0),
    st.integers(5, 400),
)
def test_tv_numeric_below_general_bound(theta, theta_bar, num_terms):
    numeric = tv_numeric(theta, theta_bar, num_terms)
    res = tv_bound(theta, theta_bar, num_terms)
    assert numeric <= min(res.bound_general, 1.0) + 1e-7
    if res.bound_simplified is not None:
        assert numeric <= res.bound_simplified + 1e-7


def test_laurent_massart_report_fields():
    weights = np.ones(20)
    rep = laurent_massart_tails(weights, x=3.0, replications=20_000, seed=4)
    again = laurent_massart_tails(weights, x=3.0, replications=20_000, seed=4)
    assert rep == again  # deterministic given the seed
    assert rep.x == 3.0
    assert rep.replications == 20_000
    assert 0.0 <= rep.lower_frequency <= rep.bound
    assert 0.0 <= rep.upper_frequency <= rep.bound
    assert rep.bound == pytest.approx(math.exp(-3.0))
    assert rep.lower_se > 0 or rep.lower_frequency == 0.0
    assert rep.upper_se > 0 or rep.upper_frequency == 0.0


def test_laurent_massart_rejects_bad_input():
    with pytest.raises(ValueError):
        laurent_massart_tails(np.array([-1.0, 2.0]), x=1.0)
    with pytest.raises(ValueError):
        laurent_massart_tails(np.ones(3), x=-0.5)


def test_overrun_check_report_fields():
    dim = 120
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(0.1)
    mu = Signal(np.zeros(dim))
    config = StoppingConfig(kappa=dim * noise.delta**2)

    def rule(obs):
        return stop_index(obs.y, obs.y_norm_sq, config)

    rep = overrun_check(rule, mu, spec, noise, m=40, replications=400, seed=2)
    assert rep.m == 40
    assert rep.variance_at_m > 0
    assert rep.risk_sq_estimate >= 0
    assert 0.0 <= rep.overrun_probability <= 1.0
    assert rep.risk_sq_se >= 0 and rep.overrun_se >= 0
    assert isinstance(rep.premise_holds, bool)
    if rep.premise_holds:
        assert isinstance(rep.implication_ok, bool)
    else:
        assert rep.implication_ok is None  # nothing to check without the premise


def test_weak_oracle_gap_flat_spectrum_ratio():
    report = weak_oracle_gap_instance(p=2.0, dim=400)
    assert report.feasible
    assert report.bias_ratio == pytest.approx(4.0, abs=1e-9)
    assert report.strong_time >= report.weak_time


def test_weak_oracle_gap_infeasible_instance():
    report = weak_oracle_gap_instance(p=0.0, dim=50)
    assert not report.feasible
    assert report.reason == "weak balanced level would exceed dimension minus one"
