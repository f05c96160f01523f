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
change and solving the bracketing unit interval in closed form: on
``[k, k+1]`` both functionals are quadratic in ``sqrt(t - k)``. Ties in
discrete argmins resolve to the smallest index, and an infimum over an
empty set is the dimension ``D``. Both functions take a ``StoppingConfig``,
and :func:`theory_bounds` reads its levels from :func:`oracle_set`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .estimator import FunctionalProfile, weak_bias_sq
from .model import NoiseModel, Signal, Spectrum
from .stopping import StoppingConfig

__all__ = ["OracleSet", "TheoryBounds", "oracle_set", "theory_bounds"]

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


def _balanced_level(prof: FunctionalProfile, m0: int, norm: str, offset: float = 0.0) -> float:
    """First level ``t >= m0`` where the squared bias in ``norm`` drops to the variance plus ``offset``.

    The residual proxy level is the weak one with ``offset = kappa - D * delta**2``.
    The integer scan finds the unit interval ``[k, k+1]`` of the sign change;
    :func:`_unit_root` solves it.
    """
    if norm == "strong":
        bias, variance, heads = prof.int_strong_bias_sq, prof.int_strong_variance, prof.mu2
    else:
        bias, variance, heads = prof.int_weak_bias_sq, prof.int_weak_variance, prof.wmu2

    def gap_at(k: int) -> float:
        """``bias - variance - offset`` at the integer level ``k < D``, from the interval's own terms."""
        return float(heads[k] + bias[k + 1] - variance[k] - offset)

    if m0 == prof.dim:
        return float(m0)
    k = m0
    if gap_at(m0) > 0.0:
        hits = np.nonzero(bias[m0 + 1 :] - variance[m0 + 1 :] - offset <= 0.0)[0]
        if hits.size == 0:
            return float(prof.dim)
        k = m0 + int(hits[0])
    step = prof.delta**2 * (float(prof.inv2[k]) if norm == "strong" else 1.0)
    return k + _unit_root(float(heads[k]), step, gap_at(k))


def _unit_root(a: float, v: float, c: float) -> float:
    """``s**2`` for the first ``s`` in ``[0, 1]`` where ``(1 - s)**2 a - s**2 v + c - a`` drops to zero.

    This is the gap ``bias - variance - offset`` on ``[k, k+1]`` at ``t = k + s**2``:
    ``a`` is coordinate ``k+1``'s squared bias term, ``v`` its variance increment
    and ``c`` the gap at ``k``. The smaller root of ``(a - v) s**2 - 2 a s + c`` is
    taken as ``c / (a + sqrt(a**2 - (a - v) c))``, which cancels nothing. The
    denominator vanishes only where ``a = v = 0`` (a zero coefficient, and
    ``delta = 0``): the gap is flat there, and the sign change sits at the right end.
    """
    if c <= 0.0:
        return 0.0
    denominator = a + math.sqrt(max(a * a - (a - v) * c, 0.0))
    s = min(c / denominator, 1.0) if denominator > 0.0 else 1.0
    return s * s


def oracle_set(signal: Signal, spectrum: Spectrum, noise: NoiseModel, stopping: StoppingConfig) -> OracleSet:
    """All oracle quantities of one instance in a single pass; ``ValueError`` if ``stopping.m0`` exceeds ``D``."""
    prof = FunctionalProfile(signal, spectrum, noise)
    kappa, m0 = stopping.kappa, stopping.m0
    if m0 > prof.dim:
        raise ValueError(f"m0 = {m0} exceeds dimension {prof.dim}")
    risks = prof.int_strong_bias_sq + prof.int_strong_variance
    cls_idx = int(np.argmin(risks))
    weak_risks = prof.int_weak_bias_sq + prof.int_weak_variance
    weak_idx = int(np.argmin(weak_risks))
    balanced = np.nonzero(prof.int_strong_variance >= prof.int_strong_bias_sq)[0]
    return OracleSet(
        balanced_discrete=int(balanced[0]) if balanced.size else prof.dim,
        weak_time=_balanced_level(prof, m0, "weak"),
        strong_time=_balanced_level(prof, m0, "strong"),
        proxy_time=_balanced_level(prof, m0, "weak", kappa - prof.dim * prof.delta**2),
        classical_index=cls_idx,
        classical_risk=float(risks[cls_idx]),
        classical_weak_index=weak_idx,
        classical_weak_risk=float(weak_risks[weak_idx]),
        kappa=kappa,
        m0=m0,
    )


def theory_bounds(signal: Signal, spectrum: Spectrum, noise: NoiseModel, stopping: StoppingConfig) -> TheoryBounds:
    """Evaluate the right-hand sides of the deviation and oracle bounds.

    Requires a noise level whose square is positive, since the bounds divide
    by ``delta**2``; the levels are those of :func:`oracle_set`.
    Singular-value lookups at index ``floor(t)+1`` are clipped to the last
    available index when the level sits at the right boundary.
    """
    if not noise.delta**2 > 0:  # a positive delta's square underflows to zero below about 1.6e-162
        raise ValueError(
            f"delta, the noise level, must have a positive square for the theory bounds, got {noise.delta!r}"
        )
    oracles = oracle_set(signal, spectrum, noise, stopping)
    t_star, t_strong, kappa = oracles.proxy_time, oracles.strong_time, stopping.kappa
    dim = spectrum.dim
    delta = noise.delta
    d2 = delta**2
    lam = spectrum.values
    wmu = lam * signal.coefficients

    k_star = int(math.floor(t_star))
    tail_amp = float(np.max(np.abs(wmu[k_star:]))) if k_star < dim else 0.0
    discretization = tail_amp + 4.0 * delta * (math.sqrt(math.log(math.sqrt(2.0) * dim)) + 1.0)

    weak_dev = (17.0 * math.sqrt(dim) + 64.0) * d2 + weak_bias_sq(signal, spectrum, t_star) / math.sqrt(dim)

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
    # clamped before the floor, which an infinite drift (kappa / delta**2 overflowing) would fail
    shifted = int(math.floor(min(t_strong + drift * math.sqrt(dim), dim - 1)))
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
