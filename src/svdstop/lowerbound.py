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
``math``: the noncentral chi-square laws are Poisson mixtures of central
ones whose degrees share one parity, so the densities come in closed
form from ``lgamma``, the distribution functions from the upper-tail
recurrence ``Q_{k+2} = Q_k + 2 f_{k+2}``, and the density crossing from
an Illinois root finder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

from .estimator import strong_bias_sq, strong_variance, weak_bias_sq
from .harness import ExperimentConfig, resolve_experiment, run_experiment
from .model import NoiseModel, Signal, Spectrum, make_polynomial_spectrum, require_same_dim
from .oracles import oracle_set

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

_POISSON_TAIL = 1e-13
_QUADRATURE_TOL = 1e-6
_LOGPDF_ENTRIES = 1 << 20  # 8 MB of float64: the noncentrality, and so the degree count, is unbounded


class AccuracyError(RuntimeError):
    """A numeric routine missed its accuracy target; carries the estimate reached."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


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
    i0 = int(i0)
    if not 1 <= i0 <= dim - 1:
        raise ValueError(f"perturbation index {i0} outside [1, {dim - 1}]")
    return i0


def _check_perturbation(i0: int, alpha: float, r_bar: float, dim: int) -> int:
    """``i0`` checked by :func:`_check_i0`, after ``alpha >= 0`` and ``r_bar > 0``."""
    if alpha < 0:
        raise ValueError("smoothness exponent must be nonnegative")
    if r_bar <= 0:
        raise ValueError("smoothness radius must be positive")
    return _check_i0(i0, dim)


def _check_tv_args(theta_norm: float, theta_bar_norm: float, num_terms: int) -> tuple[float, float]:
    """The two norms as floats; ``ValueError`` unless both are finite and nonnegative and
    ``num_terms`` is a whole number ``>= 1`` (``5.0`` is, ``True`` is not)."""
    whole = isinstance(num_terms, (int, np.integer)) or (isinstance(num_terms, float) and num_terms.is_integer())
    if isinstance(num_terms, bool) or not whole or num_terms < 1:
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


def _mixture_terms(num_terms: int, noncentrality: float) -> tuple[np.ndarray, np.ndarray]:
    """Log Poisson weights and central chi-square degrees for a noncentral law.

    The weights ``P(J = j)`` of ``J ~ Poisson(noncentrality / 2)`` come
    from ``lgamma``, normalised over a range far enough out that the
    weight beyond it is negligible next to the tail bound: at large
    noncentrality ``j log(nc/2)`` and ``lgamma(j + 1)`` are near 10^3, and
    their rounding alone would move the sum by more than 1e-13. The
    mixture keeps ``j = 0..n + 2``, where ``n`` is the first index whose
    weight tail ``P(J > n)`` is at most 1e-13.
    """
    half = 0.5 * noncentrality
    if half <= 0.0:
        return np.array([0.0]), np.array([float(num_terms)])
    js = np.arange(int(half + 20.0 * math.sqrt(half) + 40.0))
    log_w = js * math.log(half) - half - np.array([math.lgamma(j + 1.0) for j in js])
    log_w -= math.log(math.fsum(np.exp(log_w)))
    tails = np.cumsum(np.exp(log_w[::-1]))[::-1]  # tails[j] = P(J >= j)
    count = int(np.argmax(tails[1:] <= _POISSON_TAIL)) + 2
    return log_w[: count + 1], num_terms + 2.0 * js[: count + 1]


def _chi2_logpdf(x: np.ndarray, dfs: np.ndarray) -> np.ndarray:
    """``log f_k(x) = (k/2 - 1) log x - x/2 - (k/2) log 2 - lgamma(k/2)``; rows ``x > 0``, columns ``k``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    half = 0.5 * dfs
    out = np.multiply.outer(np.log(x), half - 1.0)
    out -= 0.5 * x[:, None]
    out -= half * math.log(2.0) + np.array([math.lgamma(h) for h in half])
    return out


def _mixture_logpdf(x: np.ndarray, log_w: np.ndarray, dfs: np.ndarray) -> np.ndarray:
    """Log mixture density at every ``x``, in runs of points whose matrix of terms holds at most 2**20 entries."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = max(1, _LOGPDF_ENTRIES // dfs.size)
    return np.concatenate([_mixture_logpdf_rows(x[i : i + rows], log_w, dfs) for i in range(0, x.size, rows)])


def _mixture_logpdf_rows(x: np.ndarray, log_w: np.ndarray, dfs: np.ndarray) -> np.ndarray:
    terms = _chi2_logpdf(x, dfs)
    terms += log_w
    top = terms.max(axis=1)
    terms -= top[:, None]
    return top + np.log(np.exp(terms, out=terms).sum(axis=1))


def _mixture_cdf(x: float, log_w: np.ndarray, dfs: np.ndarray) -> float:
    """Mixture distribution function at ``x > 0`` from the central upper tails ``Q_k``.

    The degrees ``K + 2j`` share one parity, so every ``Q_k`` follows from
    ``Q_1 = erfc(sqrt(x/2))`` or ``Q_2 = exp(-x/2)`` by the positive-term
    recurrence ``Q_{k+2} = Q_k + 2 f_{k+2}(x)``.
    """
    first = 2.0 - dfs[0] % 2.0
    q0 = math.erfc(math.sqrt(0.5 * x)) if first == 1.0 else math.exp(-0.5 * x)
    steps = np.arange(first + 2.0, dfs[-1] + 1.0, 2.0)
    tails = q0 + np.concatenate(([0.0], np.cumsum(2.0 * np.exp(_chi2_logpdf(x, steps)[0]))))
    q = tails[((dfs - first) / 2.0).astype(int)]
    return float(np.exp(log_w) @ (1.0 - q))


def _find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` by the Illinois variant of regula falsi; ``f(lo)`` and ``f(hi)`` differ in sign.

    Stops once the bracket is narrower than ``1e-12 + 8.9e-16 * |x|``,
    and raises :class:`AccuracyError` if that takes more than 200 steps.
    """
    f_lo, f_hi = f(lo), f(hi)
    side = 0
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, f_x
            if side == 1:
                f_lo *= 0.5
            side = 1
        if hi - lo <= 1e-12 + 8.9e-16 * abs(x):
            return x
    raise AccuracyError(f"root finder did not converge in [{lo:.17g}, {hi:.17g}]", estimate=0.5 * (lo + hi))


def tv_numeric(theta_norm: float, theta_bar_norm: float, num_terms: int) -> float:
    """Numeric total variation between two noncentral chi-square laws.

    The densities are evaluated as Poisson mixtures of central
    chi-square densities with the weight tail truncated below 1e-13,
    all in closed form: ``log f_k`` from ``lgamma``, and the upper tails
    from ``Q_1 = erfc(sqrt(x/2))`` or ``Q_2 = exp(-x/2)`` by the
    recurrence ``Q_{k+2} = Q_k + 2 f_{k+2}``, since the mixture degrees
    share one parity. The distance is computed twice: once through the
    single sign change of the density difference (the likelihood ratio
    is monotone, so the distance is a difference of distribution
    functions at the crossing, found by an Illinois root finder) and
    once by composite Gauss-Legendre quadrature of the absolute density
    difference, with a square-root substitution taming the origin
    singularity for one degree of freedom. Raises :class:`AccuracyError`
    when the two routes disagree by more than 1e-6 or the root finder
    does not converge; otherwise the crossing-based value is returned.
    """
    a, b = _check_tv_args(theta_norm, theta_bar_norm, num_terms)
    # order so that f is the law with the larger noncentrality
    nu_f, nu_g = max(a, b) ** 2, min(a, b) ** 2
    if nu_f - nu_g <= 1e-12 * (1.0 + nu_f):
        # the densities agree beyond quadrature resolution; the exact
        # distance is bounded by the general closed form, itself tiny here
        return 0.0
    log_w_f, dfs_f = _mixture_terms(num_terms, nu_f)
    log_w_g, dfs_g = _mixture_terms(num_terms, nu_g)

    def log_ratio(x: float) -> float:
        return float(_mixture_logpdf(x, log_w_f, dfs_f)[0] - _mixture_logpdf(x, log_w_g, dfs_g)[0])

    # the ratio is increasing in x, negative near 0 and positive far out
    lo = 1e-8
    while log_ratio(lo) >= 0.0 and lo > 1e-250:
        lo *= 1e-4
    hi = num_terms + nu_f + 30.0 * math.sqrt(2.0 * num_terms + 4.0 * nu_f) + 30.0
    while log_ratio(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise AccuracyError("no density crossing found", estimate=math.nan)
    crossing = _find_root(log_ratio, lo, hi)
    from_cdf = _mixture_cdf(crossing, log_w_g, dfs_g) - _mixture_cdf(crossing, log_w_f, dfs_f)

    def abs_diff(x: np.ndarray) -> np.ndarray:
        return np.abs(
            np.exp(_mixture_logpdf(x, log_w_f, dfs_f)) - np.exp(_mixture_logpdf(x, log_w_g, dfs_g))
        )

    upper = num_terms + nu_f + 40.0 * math.sqrt(2.0 * num_terms + 4.0 * nu_f) + 60.0
    while 2.0 - _mixture_cdf(upper, log_w_f, dfs_f) - _mixture_cdf(upper, log_w_g, dfs_g) > 1e-10:
        upper *= 1.5
    from_quadrature = 0.5 * _integrate_abs_diff(abs_diff, crossing, upper)

    if abs(from_cdf - from_quadrature) > _QUADRATURE_TOL:
        raise AccuracyError(
            f"quadrature routes disagree: {from_cdf:.9g} vs {from_quadrature:.9g}",
            estimate=from_cdf,
        )
    return min(max(from_cdf, 0.0), 1.0)


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``count``-point rule on [-1, 1], built on first use rather than at import."""
    return leggauss(count)


def _integrate_abs_diff(abs_diff, crossing: float, upper: float) -> float:
    """Integrate ``abs_diff`` over [0, upper] with nodes clustered sensibly, in one call of ``abs_diff``.

    The grid splits at the density crossing (the only kink of the
    integrand) and the initial segment is mapped through ``x = u**2`` so
    an integrable origin singularity costs no accuracy: 64 nodes there,
    then 20 per panel.
    """
    nodes64, weights64 = _gauss_legendre(64)
    nodes20, weights20 = _gauss_legendre(20)
    head_end = min(1.0, crossing if crossing > 0 else 1.0, upper / 10.0)
    root_half = 0.5 * math.sqrt(head_end)
    u = root_half * (1.0 + nodes64)
    boundaries = [head_end]
    if head_end < crossing < upper:
        boundaries.extend(np.linspace(head_end, crossing, 40)[1:])
    tail_start = boundaries[-1]
    boundaries.extend(np.linspace(tail_start, upper, 200)[1:])
    edges = np.array(boundaries)
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x = np.concatenate((u**2, (mids[:, None] + halves[:, None] * nodes20).ravel()))
    w = np.concatenate((root_half * weights64 * 2.0 * u, (halves[:, None] * weights20).ravel()))
    return float(w @ abs_diff(x))


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
    m = int(m)
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
    oracles = oracle_set(signal, spectrum, noise, kappa=dim * delta**2, m0=0)
    ratio = strong_bias_sq(signal, oracles.proxy_time) / strong_bias_sq(signal, oracles.strong_time)
    if strong_bias_sq(signal, oracles.proxy_time) < 4.0 * strong_bias_sq(signal, oracles.strong_time) - 1e-9:
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
