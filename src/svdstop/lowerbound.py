"""Lower-bound constructions: adversarial signals and the total variation they rest on.

The estimation-theoretic floor for data-driven truncation rests on a
two-point argument: perturb the signal beyond an index the rule cannot
see past, and the risk at the perturbed signal stays above the squared
bias there. This module builds those perturbed signals and evaluates the
total-variation bounds the argument runs on. All numeric constants in
the predicates are kept exactly as in the underlying inequalities; none
of them is optimised.

Everything here is either a pure construction or a bound, closed-form
or numeric; no asymptotic statement is checked.

The numeric total variation (:func:`tv_numeric`) needs only numpy and
``math``: the crossing route of the private :mod:`svdstop._chisq`, which
also states the bound on its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._chisq import AccuracyError, _tv_crossing
from .estimator import strong_bias_sq, weak_bias_sq
from .model import NoiseModel, Signal, Spectrum, _check_int, require_same_dim

__all__ = [
    "AccuracyError",
    "AdversaryResult",
    "SIMPLIFIED_NORM_THRESHOLD",
    "TvBoundResult",
    "hide_signal",
    "residual_adversary",
    "tv_bound",
    "tv_numeric",
]

# Below this value of |theta| + |theta_bar| the simplified total-variation
# bound is not valid; the exact constant is sqrt(8)*e / (2*pi - sqrt(pi)*e).
SIMPLIFIED_NORM_THRESHOLD = math.sqrt(8.0) * math.e / (2.0 * math.pi - math.sqrt(math.pi) * math.e)

_TV_TOL = 1e-6  # the largest error bound tv_numeric accepts


@dataclass(frozen=True)
class AdversaryResult:
    """A perturbed signal together with the predicate record and risk floor.

    ``conditions_met`` maps predicate names to booleans; the residual-rule
    adversary fills ``prefix_equal``, ``weak_bias_close`` and
    ``weak_bias_large``, the frequency-rule one only ``prefix_equal``.
    """

    mu_bar: Signal
    i0: int
    conditions_met: Mapping[str, bool]
    predicted_floor: float

    def as_record(self) -> dict:
        return {
            "i0": self.i0,
            "conditions_met": dict(self.conditions_met),
            "predicted_floor": self.predicted_floor,
            "mu_bar": [float(v) for v in self.mu_bar.coefficients],
        }


@dataclass(frozen=True)
class TvBoundResult:
    """Total-variation bounds for a pair of noncentral chi-square laws.

    ``bound_simplified`` is ``None`` whenever the sum of the two
    noncentrality norms falls below :data:`SIMPLIFIED_NORM_THRESHOLD`.
    Bounds are reported as computed, even when vacuous (above one).
    """

    bound_general: float
    bound_simplified: float | None = None


def _check_perturbation(i0: int, alpha: float, r_bar: float, dim: int) -> int:
    """``i0`` as a whole number in ``[1, dim - 1]``, after ``alpha >= 0`` and ``0 < r_bar`` with
    ``r_bar**2 < inf`` (NaN fails both).

    Both adversaries square the radius: the bump of :func:`residual_adversary`
    holds ``r_bar**2``, and the floor of :func:`hide_signal` the square of
    ``r_bar / 2``. A Python float's ``**`` raises ``OverflowError`` past the
    largest float, and numpy's square is infinite there.
    """
    if not alpha >= 0:
        raise ValueError(f"adversary.alpha, the smoothness exponent, must be nonnegative, got {alpha!r}")
    if not (r_bar > 0 and r_bar * r_bar < math.inf):
        raise ValueError(
            f"adversary.r_bar, the smoothness radius, must be positive with a finite square, got {r_bar!r}"
        )
    i0 = _check_int(i0, "adversary.i0")
    if not 1 <= i0 <= dim - 1:
        raise ValueError(f"adversary.i0, the perturbation index, must lie in [1, {dim - 1}], got {i0}")
    return i0


def _check_tv_args(theta_norm: float, theta_bar_norm: float, num_terms: int) -> tuple[float, float]:
    """The two norms as floats; ``ValueError`` unless both are finite and nonnegative and
    ``num_terms`` is a whole number ``>= 1`` (``5.0`` is, ``True`` is not)."""
    if _check_int(num_terms, "the number of summands") < 1:
        raise ValueError(f"the number of summands must be a whole number >= 1, got {num_terms!r}")
    a, b = float(theta_norm), float(theta_bar_norm)
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise ValueError("noncentrality norms must be finite and nonnegative")
    return a, b


def hide_signal(mu: Signal, i0: int, alpha: float, r_bar: float) -> AdversaryResult:
    """Replace coordinate ``i0 + 1`` by half the smoothness budget there.

    The perturbed signal agrees with ``mu`` up to ``i0`` and carries
    ``r_bar / 2 * (i0 + 1)**-alpha`` at position ``i0 + 1`` (one-based),
    which keeps it inside the smoothness ball of radius ``r_bar`` as soon
    as ``mu`` lies in the ball of radius ``r_bar / 2``. Any rule whose
    risk at ``mu`` is comparable to the balanced-oracle risk keeps at
    least a third of the remaining squared bias as risk at the perturbed
    signal, provided ``i0`` is taken three comparability factors past the
    discrete balanced oracle.
    """
    i0 = _check_perturbation(i0, alpha, r_bar, mu.dim)
    values = np.array(mu.coefficients)
    values[i0] = 0.5 * r_bar * float(i0 + 1) ** (-alpha)
    mu_bar = Signal(values)
    floor = strong_bias_sq(mu_bar, float(i0)) / 3.0
    return AdversaryResult(
        mu_bar=mu_bar,
        i0=i0,
        conditions_met={"prefix_equal": bool(np.array_equal(mu.coefficients[:i0], values[:i0]))},
        predicted_floor=floor,
    )


def residual_adversary(
    mu: Signal,
    spectrum: Spectrum,
    noise: NoiseModel,
    i0: int,
    alpha: float,
    r_bar: float,
) -> AdversaryResult:
    """Enlarge coordinate ``i0 + 1`` in quadrature by the smoothness budget.

    The perturbed coordinate satisfies ``mu_bar**2 = mu**2 +
    r_bar**2 / 4 * (i0 + 1)**(-2 alpha)`` (sign kept), the construction
    under which a residual-based rule with risk comparable to the
    balanced oracle at ``mu`` retains at least ``0.05`` of the squared
    bias at ``i0`` as risk at the perturbed signal, whenever the three
    reported conditions hold and ``i0`` lies at least 400 comparability
    factors past the discrete balanced oracle. The conditions are:

    ``prefix_equal``: the signals agree on every coordinate up to ``i0``.
    ``weak_bias_close``: the weak squared biases at ``i0`` differ by at
    most ``0.05 * sqrt(D - i0) / 2 * delta**2``.
    ``weak_bias_large``: the weak bias norms at ``i0`` sum to at least
    ``5.25 * delta``.
    """
    dim = require_same_dim(mu.dim, spectrum.dim)
    i0 = _check_perturbation(i0, alpha, r_bar, dim)
    values = np.array(mu.coefficients)
    bump = 0.25 * r_bar**2 * float(i0 + 1) ** (-2.0 * alpha)
    values[i0] = math.copysign(math.sqrt(values[i0] ** 2 + bump), values[i0] if values[i0] else 1.0)
    mu_bar = Signal(values)
    wb_mu = weak_bias_sq(mu, spectrum, float(i0))
    wb_bar = weak_bias_sq(mu_bar, spectrum, float(i0))
    conditions = {
        "prefix_equal": bool(np.array_equal(mu.coefficients[:i0], mu_bar.coefficients[:i0])),
        "weak_bias_close": abs(wb_bar - wb_mu) <= 0.05 * math.sqrt(dim - i0) / 2.0 * noise.delta**2,
        "weak_bias_large": math.sqrt(wb_mu) + math.sqrt(wb_bar) >= 5.25 * noise.delta,
    }
    return AdversaryResult(
        mu_bar=mu_bar,
        i0=i0,
        conditions_met=conditions,
        predicted_floor=0.05 * strong_bias_sq(mu_bar, float(i0)),
    )


def tv_bound(theta_norm: float, theta_bar_norm: float, num_terms: int) -> TvBoundResult:
    """Closed-form total-variation bounds for noncentral chi-square laws.

    The laws compared are those of ``sum_{k<=K} (theta_k + Z_k)**2`` for
    standard Gaussian ``Z`` and two mean vectors, which depend on the
    means only through their norms. The general bound is
    ``e * (|a**2 - b**2| + sqrt(8/pi) * |a - b|) / sqrt(pi * K)`` and the
    simplified one ``2 * |a**2 - b**2| / sqrt(K)``, valid once
    ``a + b >= SIMPLIFIED_NORM_THRESHOLD``.
    """
    a, b = _check_tv_args(theta_norm, theta_bar_norm, num_terms)
    diff_sq = abs(a**2 - b**2)
    general = math.e * (diff_sq + math.sqrt(8.0 / math.pi) * abs(a - b)) / math.sqrt(math.pi * num_terms)
    simplified = None
    if a + b >= SIMPLIFIED_NORM_THRESHOLD:
        simplified = 2.0 * diff_sq / math.sqrt(num_terms)
    return TvBoundResult(bound_general=general, bound_simplified=simplified)


def tv_numeric(theta_norm: float, theta_bar_norm: float, num_terms: int) -> float:
    """Numeric total variation between two noncentral chi-square laws, with a checked error bound.

    The laws are those of :func:`tv_bound`. The value, clamped to [0, 1],
    is that of :func:`~svdstop._chisq._tv_crossing`, whose docstring lists
    the terms of its error bound: it lies within that bound of the exact
    distance, and the bound is at most 1e-6. A larger bound raises
    :class:`AccuracyError` carrying the value, as does a failed search.
    """
    a, b = _check_tv_args(theta_norm, theta_bar_norm, num_terms)
    route = _tv_crossing(a, b, num_terms)
    if not route.bound <= _TV_TOL:
        raise AccuracyError(
            f"the crossing route's error bound {route.bound:.3g} exceeds {_TV_TOL:g}",
            estimate=route.value,
        )
    return min(max(route.value, 0.0), 1.0)
