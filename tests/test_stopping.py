"""The residual stopping rule over coefficient blocks, AIC selection and the two-step rule."""

import itertools
import math
import operator
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop.model import Observation, make_polynomial_spectrum
from svdstop.stopping import (
    M0_MODES,
    StopOutcome,
    StoppingConfig,
    TruncatedStreamError,
    aic_select,
    default_threshold,
    make_stopping_config,
    normal_quantile_start,
    residual_rule,
    stop_index,
    two_step,
)

Y3 = np.array([2.0, 1.0, 0.5])
OBS3 = Observation(y=Y3, delta=1.0)
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
        obs = Observation(y=y, delta=1.0)
        return obs, StoppingConfig(kappa=kappa, m0=m0)

    return build()


def plain_stop(obs, config):
    """The record of a plain stop, built as the CLI builds it."""
    return StopOutcome(tau=stop_index(obs.y, obs.y_norm_sq, config), rho=None, m0=config.m0)


def test_hand_example_stops_at_two():
    out = plain_stop(OBS3, StoppingConfig(kappa=1.0))
    # residuals after 0,1,2 coefficients: 5.25, 1.25, 0.25
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert not out.immediate_stop
    assert out.rho is None


def test_generous_threshold_stops_before_reading():
    out = plain_stop(OBS3, StoppingConfig(kappa=10.0))
    assert out.tau == 0
    assert out.coefficients_consumed == 0
    assert out.immediate_stop


def test_start_index_is_binding():
    out = plain_stop(OBS3, StoppingConfig(kappa=10.0, m0=2))
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert out.immediate_stop


def test_threshold_never_met_runs_to_dimension():
    out = plain_stop(OBS3, StoppingConfig(kappa=0.1))
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
    assert residual_rule(singletons(obs.y, []), obs.y_norm_sq, obs.dim, config) == tau
    split = np.split(obs.y, sorted(c for c in cuts if c <= obs.dim))
    assert residual_rule(iter(split), obs.y_norm_sq, obs.dim, config) == tau


def exact_residuals(y, y_norm_sq):
    """``y_norm_sq - sum_{i<=m} Y_i**2`` for ``m = 0..D`` in exact arithmetic, scaled by ``2**-base``.

    Every float is ``M * 2**e`` with an integer mantissa ``M`` (``np.frexp``).
    The squares and the norm are scaled by the smallest of their
    exponents, so each of them and every sum is a Python integer. Returns
    the residuals, ``ulp(y_norm_sq)`` on the same scale, and ``base``.
    """
    mant, exp = np.frexp(np.append(y, y_norm_sq))
    mant = (mant * 2.0**53).astype(np.int64).tolist()
    exp = exp.astype(np.int64) - 53
    scales = np.append(2 * exp[:-1], exp[-1])
    base = int(scales[np.nonzero(mant)[0]].min())
    shifts = (scales - base).tolist()
    squares = (m * m << sh for m, sh in zip(mant[:-1], shifts[:-1]))
    norm = mant[-1] << shifts[-1]
    residuals = [norm - total for total in itertools.accumulate(squares, initial=0)]
    return residuals, 1 << (int(exp[-1]) - base), base


def check_against_exact(y, y_norm_sq, config, exact=None):
    """The rule's index against the exact one: equal, or one apart with the residual between within 4 ulps of |Y|^2."""
    tau = stop_index(y, y_norm_sq, config)
    residuals, ulp, base = exact or exact_residuals(y, y_norm_sq)
    kappa = Fraction(config.kappa) / Fraction(2) ** base
    if config.m0 == 0 and residuals[0] <= kappa:
        first = 0
    else:
        # the exact residuals never increase, so the first one at or below kappa is a bisection away
        first = min(bisect_left(residuals, -kappa, lo=max(config.m0, 1), key=operator.neg), y.size)
    assert tau == first or (abs(tau - first) == 1 and abs(residuals[min(tau, first)] - kappa) <= 4 * ulp), (tau, first)
    return tau


def test_blocks_carry_the_sum_exactly_at_the_threshold():
    """A threshold equal to a running residual is met at the same index by every blocking, and the exact one."""
    y = np.random.default_rng(3).standard_normal(1000) * np.geomspace(1e3, 1e-3, 1000)
    y_norm_sq = float(np.dot(y, y))
    running = np.cumsum(y * y)
    exact = exact_residuals(y, y_norm_sq)
    residuals, _, base = exact
    for m in range(100, 1000, 37):
        # the float running residual, and the exact residual rounded to a float
        for kappa in (y_norm_sq - running[m - 1], math.ldexp(float(residuals[m]), base)):
            config = StoppingConfig(kappa=kappa)
            tau = check_against_exact(y, y_norm_sq, config, exact)
            assert residual_rule(singletons(y, []), y_norm_sq, y.size, config) == tau
            assert residual_rule(np.array_split(y, 7), y_norm_sq, y.size, config) == tau


def test_rule_matches_exact_residuals_at_a_million():
    """At D = 10**6: a typical stop, a norm 10**12 times kappa, and kappa within a few ulps of a residual."""
    dim, delta = 10**6, 1e-3
    index = np.arange(1.0, dim + 1.0)
    noise = delta * np.random.default_rng(11).standard_normal(dim)
    kappa = dim * delta**2
    loud = 1e6 * index**-2.0 + noise
    loud_norm_sq = float(np.dot(loud, loud))
    assert 1e12 < loud_norm_sq / kappa < 2e12
    # a plain float running sum stalls here: each late square is below half an ulp of the sum
    loud_exact = exact_residuals(loud, loud_norm_sq)
    loud_tau = check_against_exact(loud, loud_norm_sq, StoppingConfig(kappa=kappa), loud_exact)
    assert 1_000 < loud_tau < 100_000
    # thresholds 1e-10 (relative) either side of a residual, under 1e-6 ulps of |Y|^2 here: the
    # index is exact, which needs the exact parts of the squares, and so is a 1000-way split
    residuals, _, base = loud_exact
    for m in (loud_tau - 1, loud_tau, loud_tau + 40):
        on = math.ldexp(float(residuals[m]), base)
        for value, expected in ((on * (1.0 + 1e-10), m), (on * (1.0 - 1e-10), m + 1)):
            config = StoppingConfig(kappa=value)
            assert stop_index(loud, loud_norm_sq, config) == expected
            assert residual_rule(np.array_split(loud, 1000), loud_norm_sq, dim, config) == expected
    typical = 10.0 * index**-1.0 + noise
    y_norm_sq = float(np.dot(typical, typical))
    exact = exact_residuals(typical, y_norm_sq)
    residuals, _, base = exact
    tau = check_against_exact(typical, y_norm_sq, StoppingConfig(kappa=kappa), exact)
    assert 1_000 < tau < 100_000
    on_residual = math.ldexp(float(residuals[tau]), base)
    near = [on_residual]
    for direction in (-math.inf, math.inf):
        value = on_residual
        for _ in range(3):
            value = float(np.nextafter(value, direction))
            near.append(value)
    for value in near:
        assert check_against_exact(typical, y_norm_sq, StoppingConfig(kappa=value), exact) in (tau, tau + 1)


@given(observations())
def test_rule_reads_exactly_tau_coefficients(case):
    obs, config = case
    pulled = []
    tau = residual_rule(singletons(obs.y, pulled), obs.y_norm_sq, obs.dim, config)
    assert len(pulled) == tau
    assert plain_stop(obs, config).coefficients_consumed == tau


@given(observations())
def test_decision_is_measurable_in_prefix(case):
    """Rewriting coefficients past tau, keeping the norm, cannot change tau."""
    obs, config = case
    tau = stop_index(obs.y, obs.y_norm_sq, config)
    if tau >= obs.y.size:
        return
    y2 = obs.y.copy()
    tail = y2[tau:]
    # reflect the tail: same energy, different values
    y2[tau:] = tail[::-1] * np.where(np.arange(tail.size) % 2 == 0, 1.0, -1.0)
    assert stop_index(y2, obs.y_norm_sq, config) == tau


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
    outcome = plain_stop(OBS3, config)
    assert outcome.tau == 2
    assert not outcome.immediate_stop
    assert two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0) == outcome.tau


def test_two_step_rescues_immediate_stop():
    config = StoppingConfig(kappa=50.0, m0=2)
    outcome = plain_stop(OBS3, config)
    assert outcome.tau == 2
    assert outcome.immediate_stop
    rho = two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0)
    assert rho == aic_select(OBS3.y, LAM3, 1.0, m0=2, norm="strong")
    assert rho < outcome.tau


@pytest.mark.parametrize("kappa, m0", [(1.0, 1), (50.0, 2)])  # a late stop, then an immediate one
@pytest.mark.parametrize("norm, multiplier", [("stronk", 1.0), ("weak", -3.0), ("strong", 0.0), ("strong", math.nan)])
def test_two_step_checks_the_selection_either_way(kappa, m0, norm, multiplier):
    tau = stop_index(OBS3.y, OBS3.y_norm_sq, StoppingConfig(kappa=kappa, m0=m0))
    with pytest.raises(ValueError):
        two_step(tau, OBS3.y, LAM3, 1.0, m0, norm, multiplier)


def test_normal_quantile_start_reference_value():
    assert normal_quantile_start(10_000) == 329
    assert normal_quantile_start(10_000, level=0.99) == 329


def test_default_threshold_formula():
    assert default_threshold(100, 0.1) == pytest.approx(1.0)
    assert default_threshold(100, 0.1, drift=0.5) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        default_threshold(0, 0.1)


def test_make_stopping_config_modes():
    assert set(M0_MODES) == {"explicit", "zero", "normal_quantile"}
    cfg = make_stopping_config(10_000, 0.01, m0_mode="normal_quantile")
    assert cfg.m0 == 329
    assert cfg.kappa == pytest.approx(1.0)
    cfg0 = make_stopping_config(100, 0.1)
    assert cfg0.m0 == 0
    explicit = make_stopping_config(100, 0.1, m0_mode="explicit", m0=7)
    assert explicit.m0 == 7
    with pytest.raises(ValueError):
        make_stopping_config(100, 0.1, m0_mode="explicit")
    for unknown in ("quantile", "conservative"):
        with pytest.raises(ValueError):
            make_stopping_config(100, 0.1, m0_mode=unknown)
    # a setting the others leave unread is an error, not a silent no-op
    assert make_stopping_config(100, 0.1, kappa_drift=3.0).kappa == pytest.approx(1.3)
    assert make_stopping_config(100, 0.1, kappa=1.0, kappa_drift=0.0).kappa == 1.0
    # and so are a start beyond the dimension and a quantile level outside [0.5, 1)
    for settings in (
        {"m0": 50},
        {"m0_mode": "normal_quantile", "m0": 0},
        {"kappa": 1.0, "kappa_drift": 3.0},
        {"m0_mode": "explicit", "m0": 101},
        {"m0_mode": "normal_quantile", "level": 0.4},
        {"m0_mode": "normal_quantile", "level": 1.0},
    ):
        with pytest.raises(ValueError):
            make_stopping_config(100, 0.1, **settings)
