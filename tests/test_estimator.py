"""Error functionals checked against direct re-implementations.

Every closed-form value below was worked out by hand before the library
code existed; the hypothesis tests then compare the per-level functions
with the profile's integer-level arrays on random instances.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop import estimator
from svdstop.estimator import (
    EstimateVector,
    FunctionalProfile,
    estimate_at,
    split_level,
    strong_bias_sq,
    weak_bias_sq,
)
from svdstop.model import NoiseModel, Observation, Signal, Spectrum, _frozen_vector, simulate_observation

from claims import stochastic_error, strong_variance, weak_variance

LAM3 = Spectrum(np.array([1.0, 0.5, 0.25]))
MU3 = Signal(np.array([3.0, 2.0, 1.0]))


def make_obs(y):
    return Observation(y=y)


def test_split_level_boundaries():
    assert split_level(0.0, 5) == (0, 0.0)
    assert split_level(2.25, 5) == (2, 0.25)
    assert split_level(5.0, 5) == (5, 0.0)
    with pytest.raises(ValueError):
        split_level(5.1, 5)
    with pytest.raises(ValueError):
        split_level(-0.1, 5)


def test_estimate_at_fractional_level():
    obs = make_obs([2.0, 1.0, 0.5])
    est = estimate_at(obs, LAM3, 1.5)
    assert np.allclose(est.values, [2.0, math.sqrt(0.5) * 1.0 / 0.5, 0.0])


def test_estimate_at_endpoints():
    obs = make_obs([2.0, 1.0, 0.5])
    assert np.array_equal(estimate_at(obs, LAM3, 0.0).values, np.zeros(3))
    assert np.allclose(estimate_at(obs, LAM3, 3.0).values, [2.0, 2.0, 2.0])


def test_estimate_values_are_frozen_own_their_data_and_are_not_copied(monkeypatch):
    kept = []

    def spy(values):
        frozen = _frozen_vector(values)
        kept.append(frozen is values)
        return frozen

    obs = make_obs([1.0, 0.5, 0.25])
    monkeypatch.setattr(estimator, "_frozen_vector", spy)
    values = estimate_at(obs, LAM3, 1.25).values
    assert kept == [True]
    assert not values.flags.writeable
    assert values.base is None


@pytest.mark.parametrize("view", [False, True])
def test_estimate_vector_copies_caller_arrays(view):
    caller = np.array([1.0, 2.0, 0.0])
    source = caller
    if view:
        source = caller[:]
        source.setflags(write=False)
    estimate = EstimateVector(values=source)
    assert caller.flags.writeable
    caller[:] = 7.0
    assert np.array_equal(estimate.values, [1.0, 2.0, 0.0])
    assert not estimate.values.flags.writeable


def test_bias_hand_values():
    assert strong_bias_sq(MU3, 1.25) == pytest.approx(2.0)  # (1-0.5)**2*4 + 1
    assert weak_bias_sq(MU3, LAM3, 1.25) == pytest.approx(0.3125)
    assert strong_bias_sq(MU3, 3.0) == 0.0


def test_variance_hand_values():
    noise = NoiseModel(delta=2.0)
    assert strong_variance(LAM3, noise, 1.25) == pytest.approx(8.0)
    assert weak_variance(noise, 1.25) == pytest.approx(5.0)


def test_stochastic_error_hand_value():
    eps = np.array([0.5, -2.0, 1.0])
    assert stochastic_error(eps, LAM3, NoiseModel(delta=2.0), 1.25) == pytest.approx(17.0)


def instances():
    return st.integers(2, 30).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d),
            st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
            st.floats(0.0, float(d)),
        )
    )


@given(instances())
def test_profile_matches_direct_eval(data):
    d, lam_raw, mu_raw, t = data
    spec = Spectrum(np.sort(np.asarray(lam_raw))[::-1])
    sig = Signal(np.asarray(mu_raw))
    noise = NoiseModel(delta=0.7)
    prof = FunctionalProfile(sig, spec, noise)
    k, frac = split_level(t, d)
    w = 1.0 - math.sqrt(frac)
    # the per-level functions sum in the arrays' order, so they agree to the last bit
    assert weak_bias_sq(sig, spec, t) == (w * w * prof.wmu2[k] + prof.int_weak_bias_sq[k + 1] if k < d else 0.0)
    assert strong_bias_sq(sig, t) == (w * w * prof.mu2[k] + prof.int_strong_bias_sq[k + 1] if k < d else 0.0)
    assert strong_variance(spec, noise, float(k)) == prof.int_strong_variance[k]


@given(instances())
def test_profile_integer_arrays(data):
    d, lam_raw, mu_raw, _ = data
    spec = Spectrum(np.sort(np.asarray(lam_raw))[::-1])
    sig = Signal(np.asarray(mu_raw))
    noise = NoiseModel(delta=0.7)
    prof = FunctionalProfile(sig, spec, noise)
    for m in range(d + 1):
        assert prof.int_strong_bias_sq[m] == pytest.approx(strong_bias_sq(sig, float(m)), abs=1e-12)
        assert prof.int_weak_bias_sq[m] == pytest.approx(weak_bias_sq(sig, spec, float(m)), abs=1e-12)
        assert prof.int_strong_variance[m] == pytest.approx(
            strong_variance(spec, noise, float(m)), rel=1e-12
        )
    risks = prof.int_strong_bias_sq + prof.int_strong_variance
    assert risks[m] == pytest.approx(strong_bias_sq(sig, float(m)) + strong_variance(spec, noise, float(m)))


@given(instances())
def test_monotonicity_on_integer_grid(data):
    d, lam_raw, mu_raw, _ = data
    spec = Spectrum(np.sort(np.asarray(lam_raw))[::-1])
    sig = Signal(np.asarray(mu_raw))
    prof = FunctionalProfile(sig, spec, NoiseModel(delta=0.7))
    assert np.all(np.diff(prof.int_strong_bias_sq) <= 1e-12)
    assert np.all(np.diff(prof.int_weak_bias_sq) <= 1e-12)
    assert np.all(np.diff(prof.int_strong_variance) >= -1e-15)


@given(instances(), st.integers(0, 2**31 - 1))
def test_pathwise_error_decomposition(data, seed):
    """|mu_hat - mu|**2 == B_t**2 + S_t + cross term, exactly as derived.

    The cross term 2*delta*(frac - sqrt(frac))*lam**-1*mu*eps at the
    partial coordinate vanishes at integer levels.
    """
    d, lam_raw, mu_raw, t = data
    spec = Spectrum(np.sort(np.asarray(lam_raw))[::-1])
    sig = Signal(np.asarray(mu_raw))
    noise = NoiseModel(delta=0.4)
    obs = simulate_observation(spec.values * sig.coefficients, noise, seed)
    eps = np.random.default_rng(seed).standard_normal(d)
    err = estimate_at(obs, spec, t).values - sig.coefficients
    lhs = float(err @ err)
    k, frac = split_level(t, d)
    cross = 0.0
    if k < d:
        cross = (
            2.0
            * noise.delta
            * (frac - math.sqrt(frac))
            * sig.coefficients[k]
            * eps[k]
            / spec.values[k]
        )
    rhs = strong_bias_sq(sig, t) + stochastic_error(eps, spec, noise, t) + cross
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
