"""Lower-bound laboratory: adversarial constructions and empirical stress tests.

The estimation-theoretic floor for data-driven truncation rests on a
two-point argument: perturb the signal beyond an index the rule cannot
see past, and the risk at the perturbed signal stays above the squared
bias there. This module builds those perturbed signals, evaluates the
total-variation and tail bounds the argument runs on, and provides
Monte Carlo checks that pit the residual stop of an experiment against
the predicted floors. All numeric constants in the predicates are kept
exactly as in the underlying inequalities; none of them is optimised.

Everything here is either a pure construction, a closed-form bound, or
a simulation with reported standard errors; no asymptotic statement is
checked.

The numeric total variation (:func:`tv_numeric`) needs only numpy and
``math``: the crossing route of the private :mod:`svdstop._chisq`, which
also states the bound on its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ._chisq import AccuracyError, _tv_crossing
from .estimator import strong_bias_sq, strong_variance, weak_bias_sq
from .harness import ExperimentConfig, resolve_experiment, run_experiment
from .model import NoiseModel, Signal, Spectrum, _check_int, make_polynomial_spectrum, require_same_dim
from .oracles import oracle_set
from .stopping import make_stopping_config

__all__ = [
    "AccuracyError",
    "AdversaryResult",
    "GapReport",
    "OverrunReport",
    "SIMPLIFIED_NORM_THRESHOLD",
    "TailReport",
    "TvBoundResult",
    "adversary_conditions",
    "hide_signal",
    "laurent_massart_tails",
    "overrun_check",
    "residual_adversary",
    "tv_bound",
    "tv_numeric",
    "weak_oracle_gap_instance",
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


def _check_i0(i0: int, dim: int) -> int:
    i0 = _check_int(i0, "adversary.i0")
    if not 1 <= i0 <= dim - 1:
        raise ValueError(f"adversary.i0, the perturbation index, must lie in [1, {dim - 1}], got {i0}")
    return i0


def _check_perturbation(i0: int, alpha: float, r_bar: float, dim: int) -> int:
    """``i0`` checked by :func:`_check_i0`, after ``alpha >= 0`` and ``0 < r_bar < inf`` (NaN fails both)."""
    if not alpha >= 0:
        raise ValueError(f"adversary.alpha, the smoothness exponent, must be nonnegative, got {alpha!r}")
    if not 0 < r_bar < math.inf:
        raise ValueError(f"adversary.r_bar, the smoothness radius, must be positive and finite, got {r_bar!r}")
    return _check_i0(i0, dim)


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


def adversary_conditions(
    mu: Signal,
    mu_bar: Signal,
    spectrum: Spectrum,
    noise: NoiseModel,
    i0: int,
) -> dict[str, bool]:
    """Evaluate the residual-rule adversary predicates for a signal pair.

    ``prefix_equal``: the signals agree on every coordinate up to ``i0``.
    ``weak_bias_close``: the weak squared biases at ``i0`` differ by at
    most ``0.05 * sqrt(D - i0) / 2 * delta**2``.
    ``weak_bias_large``: the weak bias norms at ``i0`` sum to at least
    ``5.25 * delta``.
    """
    dim = require_same_dim(mu.dim, mu_bar.dim)
    require_same_dim(dim, spectrum.dim)
    i0 = _check_i0(i0, dim)
    wb_mu = weak_bias_sq(mu, spectrum, float(i0))
    wb_bar = weak_bias_sq(mu_bar, spectrum, float(i0))
    delta_sq = noise.delta**2
    return {
        "prefix_equal": bool(np.array_equal(mu.coefficients[:i0], mu_bar.coefficients[:i0])),
        "weak_bias_close": abs(wb_bar - wb_mu) <= 0.05 * math.sqrt(dim - i0) / 2.0 * delta_sq,
        "weak_bias_large": math.sqrt(wb_mu) + math.sqrt(wb_bar) >= 5.25 * noise.delta,
    }


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
    factors past the discrete balanced oracle.
    """
    i0 = _check_perturbation(i0, alpha, r_bar, require_same_dim(mu.dim, spectrum.dim))
    values = np.array(mu.coefficients)
    bump = 0.25 * r_bar**2 * float(i0 + 1) ** (-2.0 * alpha)
    values[i0] = math.copysign(math.sqrt(values[i0] ** 2 + bump), values[i0] if values[i0] else 1.0)
    mu_bar = Signal(values)
    return AdversaryResult(
        mu_bar=mu_bar,
        i0=i0,
        conditions_met=adversary_conditions(mu, mu_bar, spectrum, noise, i0),
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


@dataclass(frozen=True)
class TailReport:
    """Empirical frequencies of weighted chi-square deviation events."""

    x: float
    bound: float
    lower_frequency: float
    lower_se: float
    upper_frequency: float
    upper_se: float
    replications: int


def laurent_massart_tails(
    weights: np.ndarray,
    x: float,
    replications: int = 100000,
    seed: int = 0,
) -> TailReport:
    """Monte Carlo check of the weighted chi-square deviation bounds.

    For nonnegative weights ``a`` and standard Gaussians ``eps``, the
    events ``sum a_i (eps_i**2 - 1) < -2 |a| sqrt(x)`` and
    ``sum a_i (eps_i**2 - 1) > 2 |a| sqrt(x) + 2 max(a) x`` each have
    probability below ``exp(-x)``. The report carries the empirical
    frequencies with binomial standard errors.
    """
    a = np.asarray(weights, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("weights must form a nonempty vector")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("weights must be finite and nonnegative")
    if x <= 0:
        raise ValueError("deviation level must be positive")
    if replications < 1:
        raise ValueError("need at least one replication")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    norm_a = float(np.linalg.norm(a))
    max_a = float(np.max(a))
    lower_thr = -2.0 * norm_a * math.sqrt(x)
    upper_thr = 2.0 * norm_a * math.sqrt(x) + 2.0 * max_a * x
    lower_hits = 0
    upper_hits = 0
    done = 0
    block = 200000 // max(a.size, 1) + 1
    while done < replications:
        take = min(block, replications - done)
        sums = (rng.standard_normal((take, a.size)) ** 2 - 1.0) @ a
        lower_hits += int(np.count_nonzero(sums < lower_thr))
        upper_hits += int(np.count_nonzero(sums > upper_thr))
        done += take
    p_lo = lower_hits / replications
    p_up = upper_hits / replications
    return TailReport(
        x=float(x),
        bound=math.exp(-x),
        lower_frequency=p_lo,
        lower_se=math.sqrt(p_lo * (1.0 - p_lo) / replications),
        upper_frequency=p_up,
        upper_se=math.sqrt(p_up * (1.0 - p_up) / replications),
        replications=replications,
    )


@dataclass(frozen=True)
class OverrunReport:
    """Monte Carlo check that large variance forces early stopping.

    When ``V_m`` is at least 200 times the squared risk of the rule, the
    probability of running to ``m`` or beyond is at most 0.9. The
    premise is evaluated at the estimated risk; ``implication_ok`` is
    ``None`` when the premise fails and otherwise records whether the
    overrun probability stays below 0.9 within three standard errors.
    """

    m: int
    variance_at_m: float
    risk_sq_estimate: float
    risk_sq_se: float
    premise_holds: bool
    overrun_probability: float
    overrun_se: float
    implication_ok: bool | None
    replications: int


def overrun_check(config: ExperimentConfig, m: int) -> OverrunReport:
    """Stress-test the residual stop of an experiment against the overrun bound at index ``m``.

    The squared strong risk of the plain stop at the configured signal and
    the probability of stopping at or beyond ``m`` are both estimated from
    the experiment's replications. A failed replication raises
    ``ArithmeticError`` rather than dropping out of the averages.
    """
    m = _check_int(m, "m")
    if not 1 <= m <= config.dim:
        raise ValueError(f"index {m} outside [1, {config.dim}]")
    if config.replications < 2:
        raise ValueError("need at least two replications")
    exp = resolve_experiment(config)
    report = run_experiment(replace(config, procedures=("plain_stop",)))
    if report.failures:
        raise ArithmeticError(f"replications failed: {list(report.failures)}")
    errors = np.array([r.err_strong**2 for r in report.records])
    risk_sq = float(np.mean(errors))
    risk_se = float(np.std(errors, ddof=1) / math.sqrt(config.replications))
    p_over = float(np.mean([r.tau >= m for r in report.records]))
    p_se = math.sqrt(p_over * (1.0 - p_over) / config.replications)
    v_m = strong_variance(exp.spectrum, exp.noise, float(m))
    premise = v_m >= 200.0 * risk_sq
    return OverrunReport(
        m=m,
        variance_at_m=v_m,
        risk_sq_estimate=risk_sq,
        risk_sq_se=risk_se,
        premise_holds=premise,
        overrun_probability=p_over,
        overrun_se=p_se,
        implication_ok=(p_over <= 0.9 + 3.0 * p_se) if premise else None,
        replications=config.replications,
    )


@dataclass(frozen=True)
class GapReport:
    """A concrete instance where the weak oracle loses a factor in strong norm.

    For a signal concentrated on the last coordinate with the strongly
    balanced level at ``D - 3/4``, the strong bias at the weak-norm
    proxy level is four times the strong bias at the strongly balanced
    level, so the factor in the bias transfer bound is genuinely paid.
    """

    feasible: bool
    reason: str | None
    p: float
    dim: int
    delta: float
    mu_last: float
    strong_time: float | None = None
    proxy_time: float | None = None
    weak_time: float | None = None
    bias_ratio: float | None = None


def weak_oracle_gap_instance(p: float, dim: int) -> GapReport:
    """Search for the signal that pins the bias transfer factor at four.

    With ``lambda_i = i**-p`` and the default threshold, the signal puts
    everything on the last coordinate, sized so the strong bias and
    variance balance at ``D - 3/4``. The construction is feasible (the
    weak balanced level stays at most ``D - 1``) for ``p > 3/2`` and
    ``dim`` large enough; infeasibility is reported, not raised. The
    noise level is set to one; the instance is scale-invariant.
    """
    if dim < 3:
        return GapReport(feasible=False, reason="dimension too small", p=p, dim=dim, delta=1.0, mu_last=0.0)
    spectrum = make_polynomial_spectrum(dim, p)
    delta = 1.0
    inv_sq = spectrum.values**-2.0
    # strong bias equals variance at D - 3/4: mu_D**2 / 4 = V_{D - 3/4}
    mu_last_sq = inv_sq[-1] + 4.0 * float(np.sum(inv_sq[:-1]))
    mu_last = math.sqrt(mu_last_sq)
    if spectrum.values[-1] ** 2 * mu_last_sq > delta**2 * (dim - 1):
        return GapReport(
            feasible=False,
            reason="weak balanced level would exceed dimension minus one",
            p=p,
            dim=dim,
            delta=delta,
            mu_last=mu_last,
        )
    values = np.zeros(dim)
    values[-1] = mu_last
    signal = Signal(values)
    noise = NoiseModel(delta=delta)
    oracles = oracle_set(signal, spectrum, noise, make_stopping_config(dim, delta))
    at_proxy, at_strong = strong_bias_sq(signal, oracles.proxy_time), strong_bias_sq(signal, oracles.strong_time)
    ratio = at_proxy / at_strong
    if at_proxy < 4.0 * at_strong - 1e-9:
        raise RuntimeError(f"constructed instance misses the factor four: ratio {ratio}")
    return GapReport(
        feasible=True,
        reason=None,
        p=p,
        dim=dim,
        delta=delta,
        mu_last=mu_last,
        strong_time=oracles.strong_time,
        proxy_time=oracles.proxy_time,
        weak_time=oracles.weak_time,
        bias_ratio=ratio,
    )
