"""Interpolated spectral cut-off estimators and their error functionals.

A real truncation level ``t`` in ``[0, D]`` keeps coordinates ``1`` to
``floor(t)`` fully and weights coordinate ``floor(t)+1`` by the amplitude
factor ``sqrt(t - floor(t))``. With this choice the accumulated noise
variance grows linearly in ``t``. The complementary weight showing up in
residual and bias terms for the partial coordinate is
``(1 - sqrt(t - floor(t)))**2``: the amplitude factor enters the
estimator, its square enters nothing.

Bias-type quantities are suffix sums, variance-type quantities prefix
sums, both accumulated in extended precision. The per-level functions
below are the one evaluator of a bias at a real level: each sums its tail
in the order :class:`FunctionalProfile` sums its arrays, so it agrees bit
for bit with the same level formed from the profile. The variance at a
real level, which only the acceptance criteria read, is evaluated the
same way in ``tests/claims.py``. The profile holds only the integer-level
arrays and the per-coordinate terms, which together give the functionals
on each unit interval, from which the oracle levels are solved in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NoiseModel, Observation, Signal, Spectrum, _frozen_vector, require_same_dim

__all__ = [
    "EstimateVector",
    "FunctionalProfile",
    "estimate_at",
    "split_level",
    "strong_bias_sq",
    "weak_bias_sq",
]


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
    """Coefficient estimate truncated at a level ``t``; entries beyond ``floor(t)+1`` are zero."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values))


def estimate_at(obs: Observation, spectrum: Spectrum, t: float) -> EstimateVector:
    """Interpolated truncated-SVD estimate at level ``t``."""
    dim = require_same_dim(obs.dim, spectrum.dim)
    k, frac = split_level(t, dim)
    values = np.zeros(dim)
    values[:k] = obs.y[:k] / spectrum.values[:k]
    if k < dim and frac > 0.0:
        values[k] = math.sqrt(frac) * obs.y[k] / spectrum.values[k]
    values.setflags(write=False)  # fresh and frozen, so the estimate keeps it without copying
    return EstimateVector(values)


def _bias_sq(squares: np.ndarray, t: float) -> float:
    """``(1 - sqrt(frac))**2 * squares[k] + sum(squares[k+1:])``, the tail summed as :func:`_suffix_sums` does."""
    k, frac = split_level(t, squares.size)
    if k >= squares.size:
        return 0.0
    w = 1.0 - math.sqrt(frac)
    return w * w * float(squares[k]) + float(_suffix_sums(squares[k + 1 :])[0])


def strong_bias_sq(signal: Signal, t: float) -> float:
    """Squared bias of the truncated estimator in the coefficient norm."""
    return _bias_sq(signal.coefficients**2, t)


def weak_bias_sq(signal: Signal, spectrum: Spectrum, t: float) -> float:
    """Squared bias in the image-space norm, i.e. of ``lam * mu``."""
    require_same_dim(signal.dim, spectrum.dim)
    return _bias_sq((spectrum.values * signal.coefficients) ** 2, t)


class FunctionalProfile:
    """Bias and variance functionals of one instance at every integer level.

    Prefix and suffix cumulative sums are accumulated once in extended
    precision into integer-level arrays (index ``m = 0..D``) for
    vectorised scans. The per-coordinate terms ``mu2 = mu**2``,
    ``wmu2 = (lam * mu)**2`` and ``inv2 = lam**-2`` carry a level between
    two integers.
    """

    def __init__(self, signal: Signal, spectrum: Spectrum, noise: NoiseModel):
        self.dim = require_same_dim(signal.dim, spectrum.dim)
        self.delta = noise.delta
        self.mu2 = signal.coefficients**2
        self.wmu2 = (spectrum.values * signal.coefficients) ** 2
        self.inv2 = spectrum.values**-2.0
        # int_strong_bias_sq[m] = sum_{i>m} mu_i**2 and so on, m = 0..D
        self.int_strong_bias_sq = _suffix_sums(self.mu2)
        self.int_weak_bias_sq = _suffix_sums(self.wmu2)
        self.int_strong_variance = self.delta**2 * _prefix_sums(self.inv2)
        self.int_weak_variance = self.delta**2 * np.arange(self.dim + 1, dtype=float)
