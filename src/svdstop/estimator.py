"""Interpolated spectral cut-off estimators and their error functionals.

A real truncation level ``t`` in ``[0, D]`` keeps coordinates ``1`` to
``floor(t)`` fully and weights coordinate ``floor(t)+1`` by the amplitude
factor ``sqrt(t - floor(t))``. With this choice the accumulated noise
variance grows linearly in ``t``. The complementary weight showing up in
residual and bias terms for the partial coordinate is
``(1 - sqrt(t - floor(t)))**2``: the amplitude factor enters the
estimator, its square enters nothing.

Bias-type quantities are suffix sums, variance-type quantities prefix
sums. :class:`FunctionalProfile` accumulates both once per problem
instance in extended precision and then evaluates any level in O(1),
which is what the oracle root-finders iterate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NoiseModel, Observation, Signal, Spectrum, require_same_dim

__all__ = [
    "EstimateVector",
    "FunctionalProfile",
    "MissingNoiseError",
    "estimate_at",
    "split_level",
    "stochastic_error",
    "strong_bias_sq",
    "strong_variance",
    "weak_bias_sq",
    "weak_variance",
]


class MissingNoiseError(ValueError):
    """The observation does not carry its realised noise vector."""


def split_level(t: float, dim: int) -> tuple[int, float]:
    """Split a truncation level into its integer part and fractional weight.

    Returns ``(k, frac)`` with ``k = floor(t)`` clipped to ``dim`` and
    ``frac = t - k``; raises for ``t`` outside ``[0, dim]``.
    """
    t = float(t)
    if not 0.0 <= t <= dim:
        raise ValueError(f"truncation level {t} outside [0, {dim}]")
    k = int(math.floor(t))
    if k >= dim:
        return dim, 0.0
    return k, t - k


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """``out[m] = sum(x[:m])`` for ``m = 0..len(x)``, accumulated in extended precision."""
    out = np.empty(x.size + 1)
    out[0] = 0.0
    out[1:] = np.cumsum(x.astype(np.longdouble)).astype(float)
    return out


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """``out[m] = sum(x[m:])`` for ``m = 0..len(x)``, accumulated in extended precision."""
    out = np.empty(x.size + 1)
    out[-1] = 0.0
    out[:-1] = np.cumsum(x[::-1].astype(np.longdouble))[::-1].astype(float)
    return out


@dataclass(frozen=True)
class EstimateVector:
    """Coefficient estimate truncated at level ``t``; entries beyond ``floor(t)+1`` are zero."""

    values: np.ndarray
    t: float

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "t", float(self.t))


def estimate_at(obs: Observation, spectrum: Spectrum, t: float) -> EstimateVector:
    """Interpolated truncated-SVD estimate at level ``t``."""
    dim = require_same_dim(obs.dim, spectrum.dim)
    k, frac = split_level(t, dim)
    values = np.zeros(dim)
    values[:k] = obs.y[:k] / spectrum.values[:k]
    if k < dim and frac > 0.0:
        values[k] = math.sqrt(frac) * obs.y[k] / spectrum.values[k]
    return EstimateVector(values=values, t=float(t))


def strong_bias_sq(signal: Signal, t: float) -> float:
    """Squared bias of the truncated estimator in the coefficient norm."""
    k, frac = split_level(t, signal.dim)
    if k >= signal.dim:
        return 0.0
    mu = signal.coefficients
    tail = mu[k + 1 :]
    w = 1.0 - math.sqrt(frac)
    return float(w * w * mu[k] ** 2 + np.dot(tail, tail))


def weak_bias_sq(signal: Signal, spectrum: Spectrum, t: float) -> float:
    """Squared bias in the image-space norm, i.e. of ``lam * mu``."""
    dim = require_same_dim(signal.dim, spectrum.dim)
    k, frac = split_level(t, dim)
    if k >= dim:
        return 0.0
    w = spectrum.values * signal.coefficients
    tail = w[k + 1 :]
    c = 1.0 - math.sqrt(frac)
    return float(c * c * w[k] ** 2 + np.dot(tail, tail))


def strong_variance(spectrum: Spectrum, noise: NoiseModel, t: float) -> float:
    """Accumulated noise variance ``delta**2 * (sum_{i<=k} lam_i**-2 + frac * lam_{k+1}**-2)``."""
    k, frac = split_level(t, spectrum.dim)
    inv2 = spectrum.values**-2.0
    total = float(np.sum(inv2[:k]))
    if k < spectrum.dim:
        total += frac * float(inv2[k])
    return noise.delta**2 * total


def weak_variance(noise: NoiseModel, t: float) -> float:
    """Accumulated noise variance in the image-space norm, ``t * delta**2``."""
    if t < 0:
        raise ValueError("truncation level must be non-negative")
    return float(t) * noise.delta**2


def stochastic_error(obs: Observation, spectrum: Spectrum, t: float) -> float:
    """Realised squared stochastic error of the truncated estimator.

    Requires the observation to carry its noise vector; the value is
    ``delta**2 * (sum_{i<=k} lam_i**-2 eps_i**2 + frac * lam_{k+1}**-2 eps_{k+1}**2)``.
    """
    if obs.noise is None:
        raise MissingNoiseError("observation carries no realised noise vector")
    dim = require_same_dim(obs.dim, spectrum.dim)
    k, frac = split_level(t, dim)
    scaled = obs.noise / spectrum.values
    total = float(np.dot(scaled[:k], scaled[:k]))
    if k < dim:
        total += frac * float(scaled[k] ** 2)
    return obs.delta**2 * total


class FunctionalProfile:
    """O(1) evaluators for the bias and variance functionals of one instance.

    Prefix and suffix cumulative sums are accumulated once in extended
    precision; the per-level formulas then touch a constant number of array
    entries. Integer-level arrays (index ``m = 0..D``) are exposed for
    vectorised scans.
    """

    def __init__(self, signal: Signal, spectrum: Spectrum, noise: NoiseModel):
        self.dim = require_same_dim(signal.dim, spectrum.dim)
        self.delta = noise.delta
        self._mu2 = signal.coefficients**2
        self._wmu2 = (spectrum.values * signal.coefficients) ** 2
        self._inv2 = spectrum.values**-2.0
        # int_strong_bias_sq[m] = sum_{i>m} mu_i**2 and so on, m = 0..D
        self.int_strong_bias_sq = _suffix_sums(self._mu2)
        self.int_weak_bias_sq = _suffix_sums(self._wmu2)
        self.int_strong_variance = self.delta**2 * _prefix_sums(self._inv2)
        self.int_weak_variance = self.delta**2 * np.arange(self.dim + 1, dtype=float)

    def strong_bias_sq(self, t: float) -> float:
        k, frac = split_level(t, self.dim)
        if k >= self.dim:
            return 0.0
        w = 1.0 - math.sqrt(frac)
        return w * w * float(self._mu2[k]) + float(self.int_strong_bias_sq[k + 1])

    def weak_bias_sq(self, t: float) -> float:
        k, frac = split_level(t, self.dim)
        if k >= self.dim:
            return 0.0
        w = 1.0 - math.sqrt(frac)
        return w * w * float(self._wmu2[k]) + float(self.int_weak_bias_sq[k + 1])

    def strong_variance(self, t: float) -> float:
        k, frac = split_level(t, self.dim)
        total = float(self.int_strong_variance[k])
        if k < self.dim:
            total += self.delta**2 * frac * float(self._inv2[k])
        return total

    def weak_variance(self, t: float) -> float:
        if not 0.0 <= t <= self.dim:
            raise ValueError(f"truncation level {t} outside [0, {self.dim}]")
        return float(t) * self.delta**2

    def strong_risk_at_integers(self) -> np.ndarray:
        """``B_m**2 + V_m`` for ``m = 0..D``."""
        return self.int_strong_bias_sq + self.int_strong_variance

    def weak_risk_at_integers(self) -> np.ndarray:
        """Image-space analogue ``B_{m,lam}**2 + m * delta**2`` for ``m = 0..D``."""
        return self.int_weak_bias_sq + self.int_weak_variance
