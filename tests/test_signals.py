"""Calibrated signal families."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop.estimator import weak_bias_sq
from svdstop.model import NoiseModel, Spectrum, make_polynomial_spectrum
from svdstop.oracles import oracle_set
from svdstop.stopping import StoppingConfig
from svdstop.signals import (
    NAMED_PROFILES,
    REFERENCE_DIM,
    calibrate_amplitude,
    calibrated_signal,
    family_shape,
)


def weak_time(sig, spec, noise):
    return oracle_set(sig, spec, noise, StoppingConfig(spec.dim * noise.delta**2)).weak_time


def test_family_shape_forms():
    exp = family_shape("exponential", 0.25, 5)
    assert exp == pytest.approx(np.exp(-0.25 * np.arange(1, 6)))
    pow_ = family_shape("power", 0.5, 4)
    assert pow_ == pytest.approx(np.arange(1, 5, dtype=float) ** -0.5)
    with pytest.raises(ValueError):
        family_shape("wavelet", 0.5, 4)


def test_named_profiles_cover_spec_targets():
    assert set(NAMED_PROFILES) == {"super_smooth", "smooth", "rough"}
    assert REFERENCE_DIM == 10_000
    targets = {name: NAMED_PROFILES[name][2] for name in NAMED_PROFILES}
    assert targets == {"super_smooth": 34.0, "smooth": 316.0, "rough": 1356.0}


@pytest.mark.parametrize("name", sorted(NAMED_PROFILES))
def test_calibration_hits_target_at_reference_dim(name):
    delta = 0.01
    spec = make_polynomial_spectrum(REFERENCE_DIM, 0.5)
    sig = calibrated_signal(name, REFERENCE_DIM, delta, spectrum=spec)
    noise = NoiseModel(delta)
    target = NAMED_PROFILES[name][2]
    tw = weak_time(sig, spec, noise)
    assert tw == pytest.approx(target, abs=1e-6)
    # balance equation at the target level, which is what calibration solves
    assert weak_bias_sq(sig, spec, target) == pytest.approx(target * delta**2, rel=1e-9)


def test_calibration_with_explicit_target():
    spec = make_polynomial_spectrum(500, 0.5)
    sig = calibrated_signal("rough", 500, 0.05, spectrum=spec, target=60.0)
    tw = weak_time(sig, spec, NoiseModel(0.05))
    assert tw == pytest.approx(60.0, abs=1e-6)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        calibrated_signal("bumpy", 100, 0.1, make_polynomial_spectrum(100, 0.5))


def test_target_must_fit_inside_dimension():
    with pytest.raises(ValueError):
        calibrated_signal("smooth", 100, 0.01, make_polynomial_spectrum(100, 0.5), target=150.0)


def test_calibrate_amplitude_rejects_degenerate_shape():
    spec = make_polynomial_spectrum(4, 0.5)
    with pytest.raises(ValueError):
        calibrate_amplitude(np.zeros(4), spec, 0.1, 2.0)


def test_calibrate_amplitude_raises_overflow_rather_than_returning_inf():
    spec = make_polynomial_spectrum(120, 0.5)
    with pytest.raises(OverflowError, match="amplitude"):
        calibrate_amplitude(np.ones(120), spec, 1e154, 25.0)  # delta**2 is finite, 25 delta**2 is not
    assert math.isfinite(calibrate_amplitude(np.ones(120), spec, 1e150, 25.0))


@given(
    st.sampled_from(sorted(NAMED_PROFILES)),
    st.integers(50, 400),
    st.floats(0.02, 0.5),
)
def test_calibration_scales_with_dim_and_noise(name, dim, delta):
    target = 0.3 * dim
    spec = make_polynomial_spectrum(dim, 0.5)
    sig = calibrated_signal(name, dim, delta, spectrum=spec, target=target)
    tw = weak_time(sig, spec, NoiseModel(delta))
    assert tw == pytest.approx(target, abs=1e-5)


def test_amplitude_is_positive_scaling_of_shape():
    spec = make_polynomial_spectrum(200, 0.5)
    sig = calibrated_signal("super_smooth", 200, 0.1, spectrum=spec, target=20.0)
    shape = family_shape(*NAMED_PROFILES["super_smooth"][:2], 200)
    ratio = sig.coefficients / shape
    assert np.all(ratio > 0)
    assert np.ptp(ratio) < 1e-9 * ratio[0]


@pytest.mark.parametrize(
    "dim, name, first",
    [
        (10_000, "rough", 2.9708513576395617),
        (10_000, "smooth", 3.2137645193160496),
        (10_000, "super_smooth", 1085.2061228183586),
        (100_000, "rough", 18.74224252205482),
        (100_000, "smooth", 32.114054188929764),
        (100_000, "super_smooth", 1.7602538250737336e37),
    ],
)
def test_calibrated_amplitude_is_pinned(dim, name, first):
    """The stock signals' amplitudes, to the last bit: every simulation study starts from them."""
    assert calibrated_signal(name, dim, 0.01, make_polynomial_spectrum(dim, 0.5)).coefficients[0] == first
