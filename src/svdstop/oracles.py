"""Oracle truncation levels and theoretical risk-bound evaluators.

The oracle quantities are deterministic functionals of a problem instance
``(signal, spectrum, noise)``. :func:`oracle_set` computes all of them in
one pass over a single :class:`~svdstop.estimator.FunctionalProfile`:

* the discrete strongly balanced index, the first integer ``m`` with
  ``V_m >= B_m**2``;
* continuous balanced levels in the strong and image-space (weak) norms,
  the first real level where the bias functional drops below the
  accumulated variance;
* the residual proxy level, the first level at which the expected
  residual falls below a stopping threshold ``kappa``; and
* the classical discrete oracles minimising ``B_m**2 + V_m`` in either
  norm.

Continuous levels are located by scanning the integer grid for a sign
change and bisecting the bracketing unit interval to absolute tolerance
1e-9 (at most 60 iterations). Ties in discrete argmins resolve to the
smallest index, and an infimum over an empty set is the dimension ``D``.
:func:`theory_bounds` shares the level finders with :func:`oracle_set`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import FunctionalProfile
from .model import NoiseModel, Signal, Spectrum

__all__ = ["OracleSet", "TheoryBounds", "oracle_set", "theory_bounds"]

BISECTION_TOL = 1e-9
BISECTION_MAX_ITER = 60


@dataclass(frozen=True)
class OracleSet:
    """Bundle of oracle quantities for one problem instance.

    ``balanced_discrete`` is the first integer index where the variance
    dominates the squared strong bias; ``weak_time`` and ``strong_time``
    are the continuous balanced levels in the respective norms;
    ``proxy_time`` is the deterministic proxy of the residual stopping
    rule for threshold ``kappa``; ``classical_index``/``classical_risk``
    describe the discrete risk minimiser and ``classical_weak_index``/
    ``classical_weak_risk`` its image-space analogue.
    """

    balanced_discrete: int
    weak_time: float
    strong_time: float
    proxy_time: float
    classical_index: int
    classical_risk: float
    classical_weak_index: int
    classical_weak_risk: float
    kappa: float
    m0: int


@dataclass(frozen=True)
class TheoryBounds:
    """Evaluated right-hand sides of the deviation and oracle risk bounds.

    ``discretization_err`` bounds the image-space norm discrepancy between
    the stopped estimate and the proxy-level estimate;
    ``weak_dev_rhs`` bounds the mean positive part of the weak-bias
    overshoot; ``strong_bias_rhs`` the strong-bias analogue measured
    against the strongly balanced level; ``stochastic_factor`` is the
    dimensionless factor (capped at the total inverse-spectrum mass)
    multiplying ``delta**2`` in the stochastic-error overshoot bound;
    ``strong_oracle_rhs`` is the additive term of the strong-norm oracle
    inequality.
    """

    discretization_err: float
    weak_dev_rhs: float
    strong_bias_rhs: float
    stochastic_factor: float
    strong_oracle_rhs: float


def _validate_level_bounds(m0: int, dim: int) -> int:
    m0 = int(m0)
    if not 0 <= m0 <= dim:
        raise ValueError(f"starting index {m0} outside [0, {dim}]")
    return m0


def _first_level_below(
    value_at: Callable[[float], float],
    int_values: np.ndarray,
    m0: int,
    dim: int,
) -> float:
    """First level ``t >= m0`` with ``value_at(t) <= 0`` for non-increasing ``value_at``.

    ``int_values[m]`` must equal ``value_at(m)`` for integer ``m``.
    """
    if value_at(float(m0)) <= 0.0:
        return float(m0)
    hits = np.nonzero(int_values[m0 + 1 :] <= 0.0)[0]
    if hits.size == 0:
        return float(dim)
    hi = float(m0 + 1 + int(hits[0]))
    lo = hi - 1.0
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if value_at(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _balanced_level(prof: FunctionalProfile, m0: int, norm: str) -> float:
    m0 = _validate_level_bounds(m0, prof.dim)
    if norm == "strong":
        int_vals = prof.int_strong_bias_sq - prof.int_strong_variance
        value_at = lambda t: prof.strong_bias_sq(t) - prof.strong_variance(t)
    else:
        int_vals = prof.int_weak_bias_sq - prof.int_weak_variance
        value_at = lambda t: prof.weak_bias_sq(t) - prof.weak_variance(t)
    return _first_level_below(value_at, int_vals, m0, prof.dim)


def _proxy_level(prof: FunctionalProfile, kappa: float, m0: int) -> float:
    if kappa < 0:
        raise ValueError("stopping threshold must be non-negative")
    offset = kappa - prof.dim * prof.delta**2
    int_vals = prof.int_weak_bias_sq - prof.int_weak_variance - offset
    value_at = lambda t: prof.weak_bias_sq(t) - prof.weak_variance(t) - offset
    return _first_level_below(value_at, int_vals, _validate_level_bounds(m0, prof.dim), prof.dim)


def oracle_set(signal: Signal, spectrum: Spectrum, noise: NoiseModel, kappa: float, m0: int = 0) -> OracleSet:
    """All oracle quantities of one instance in a single pass."""
    prof = FunctionalProfile(signal, spectrum, noise)
    m0 = _validate_level_bounds(m0, prof.dim)
    risks = prof.strong_risk_at_integers()
    cls_idx = int(np.argmin(risks))
    weak_risks = prof.weak_risk_at_integers()
    weak_idx = int(np.argmin(weak_risks))
    balanced = np.nonzero(prof.int_strong_variance >= prof.int_strong_bias_sq)[0]
    return OracleSet(
        balanced_discrete=int(balanced[0]) if balanced.size else prof.dim,
        weak_time=_balanced_level(prof, m0, "weak"),
        strong_time=_balanced_level(prof, m0, "strong"),
        proxy_time=_proxy_level(prof, kappa, m0),
        classical_index=cls_idx,
        classical_risk=float(risks[cls_idx]),
        classical_weak_index=weak_idx,
        classical_weak_risk=float(weak_risks[weak_idx]),
        kappa=float(kappa),
        m0=m0,
    )


def theory_bounds(signal: Signal, spectrum: Spectrum, noise: NoiseModel, kappa: float, m0: int = 0) -> TheoryBounds:
    """Evaluate the right-hand sides of the deviation and oracle bounds.

    Requires a strictly positive noise level. Singular-value lookups at
    index ``floor(t)+1`` are clipped to the last available index when the
    level sits at the right boundary.
    """
    if noise.delta <= 0:
        raise ValueError("theory bounds require a positive noise level")
    prof = FunctionalProfile(signal, spectrum, noise)
    m0 = _validate_level_bounds(m0, prof.dim)
    dim = prof.dim
    delta = noise.delta
    d2 = delta**2
    lam = spectrum.values
    wmu = lam * signal.coefficients

    t_star = _proxy_level(prof, kappa, m0)
    t_strong = _balanced_level(prof, m0, "strong")

    k_star = int(math.floor(t_star))
    tail_amp = float(np.max(np.abs(wmu[k_star:]))) if k_star < dim else 0.0
    discretization = tail_amp + 4.0 * delta * (math.sqrt(math.log(math.sqrt(2.0) * dim)) + 1.0)

    weak_dev = (17.0 * math.sqrt(dim) + 64.0) * d2 + prof.weak_bias_sq(t_star) / math.sqrt(dim)

    excess = max(kappa / d2 - dim, 0.0)
    lam_after_strong = float(lam[min(int(math.floor(t_strong)), dim - 1)])
    strong_bias_rhs = 81.0 * lam_after_strong**-2.0 * d2 * (t_strong + math.sqrt(dim) + excess)

    ms = np.arange(k_star + 1, dim + 1, dtype=float)
    if ms.size:
        gaps = np.clip(ms - 1.0 - t_star, 0.0, None)
        weights = np.exp(-(gaps**2) / (16.0 * dim + 32.0 * kappa / d2))
        raw = 2.0 * math.sqrt(3.0) * float(np.sum(lam[k_star:] ** -2.0 * weights))
    else:
        raw = 0.0
    # The fallback cap is the exact expectation of the full stochastic
    # error over delta**2, i.e. the total inverse-spectrum mass; it
    # reduces to D for a flat spectrum.
    stochastic_factor = min(raw, float(np.sum(lam**-2.0)))

    drift = abs(kappa / d2 - dim) / math.sqrt(dim)
    shifted = min(int(math.floor(t_strong + drift * math.sqrt(dim))), dim - 1)
    strong_oracle_rhs = (
        81.0 * float(lam[shifted]) ** -2.0 * (t_strong + (1.0 + drift) * math.sqrt(dim)) + stochastic_factor
    ) * d2

    return TheoryBounds(
        discretization_err=discretization,
        weak_dev_rhs=weak_dev,
        strong_bias_rhs=strong_bias_rhs,
        stochastic_factor=stochastic_factor,
        strong_oracle_rhs=strong_oracle_rhs,
    )
