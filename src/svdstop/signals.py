"""Calibrated test-signal families for simulation studies.

Two parametric shapes are provided: polynomial decay
``mu_i = c * i**-rate`` and exponential decay ``mu_i = c * exp(-rate*i)``.
The named profiles fix the decay rate and solve for the amplitude ``c``
so that the continuous weakly balanced level of the resulting instance
hits a target index. Targets are stated for the reference dimension
10000 and scale proportionally when another dimension is requested, so
the three stock signals keep their relative character at any size.

Because the squared weak bias scales with ``c**2`` while the weak
variance does not depend on the signal, the amplitude solving
``c**2 * W(target) = target * delta**2`` (with ``W`` the unit-amplitude
weak bias) is available in closed form; no iteration is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import weak_bias_sq
from .model import Signal, Spectrum, _check_int

__all__ = ["NAMED_PROFILES", "REFERENCE_DIM", "calibrated_signal", "family_shape"]

REFERENCE_DIM = 10000

# name -> (shape kind, decay rate, weakly balanced target at the reference dimension)
NAMED_PROFILES: dict[str, tuple[str, float, float]] = {
    "super_smooth": ("exponential", 0.25, 34.0),
    "smooth": ("power", 0.5, 316.0),
    "rough": ("power", 0.3, 1356.0),
}


def family_shape(kind: str, rate: float, dim: int) -> np.ndarray:
    """Unit-amplitude shape vector of one of the two decay families."""
    if _check_int(dim, "dim") < 1:
        raise ValueError("dimension must be at least 1")
    if rate < 0:
        raise ValueError("decay rate must be non-negative")
    idx = np.arange(1, dim + 1, dtype=float)
    if kind == "power":
        return idx ** -float(rate)
    if kind == "exponential":
        return np.exp(-float(rate) * idx)
    raise ValueError(f"unknown family kind {kind!r}; expected 'power' or 'exponential'")


def calibrate_amplitude(shape: np.ndarray, spectrum: Spectrum, delta: float, target: float) -> float:
    """Amplitude ``c`` placing the weakly balanced level of ``c * shape`` at ``target``."""
    if delta <= 0:
        raise ValueError(f"delta, the noise level, must be positive to calibrate a signal, got {delta!r}")
    if not 0.0 < target < spectrum.dim:
        raise ValueError(f"target, the weakly balanced level, is {target!r}, outside (0, {spectrum.dim})")
    unit_weak_bias = weak_bias_sq(Signal(shape), spectrum, target)
    if unit_weak_bias <= 0.0:
        raise ValueError("shape has no energy beyond the target level; cannot calibrate")
    amplitude = math.sqrt(target * delta**2 / unit_weak_bias)
    if amplitude == math.inf:
        raise OverflowError("the amplitude sqrt(target * delta**2 / weak bias) overflows")
    return amplitude


def calibrated_signal(name: str, dim: int, delta: float, spectrum: Spectrum, target: float | None = None) -> Signal:
    """One of the named stock signals, calibrated for ``(dim, delta, spectrum)``, or the zero signal.

    ``target`` defaults to the profile's reference target scaled by
    ``dim / 10000``. The name ``zero`` gives the null signal, which needs
    no calibration: of the other arguments only ``dim`` is read.
    """
    if name == "zero":
        return Signal(np.zeros(dim))
    try:
        kind, rate, ref_target = NAMED_PROFILES[name]
    except KeyError:
        names = sorted([*NAMED_PROFILES, "zero"])
        raise ValueError(f"name, the signal profile, must be one of {names}, got {name!r}") from None
    if spectrum.dim != dim:
        raise ValueError("spectrum dimension disagrees with requested dimension")
    if target is None:
        target = ref_target * dim / REFERENCE_DIM
    shape = family_shape(kind, rate, dim)
    c = calibrate_amplitude(shape, spectrum, delta, float(target))
    return Signal(c * shape)
