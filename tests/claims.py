"""Instruments of the acceptance criteria that no command runs.

Each computes one side of a claim the scoreboard checks: the realised
stochastic error of criteria 1 and 6, the chi-square tail frequencies
of criterion 8, the weak/strong oracle gap instance of criterion 10 and
the no-overrun implication of criterion 11; with them go the strong and
weak noise variances at a real level, which only the criteria and the
tests of the estimator and the oracles read. They are test support, not
library API, so they take their arguments as the criteria give them and
check none of them.

A simulated observation does not keep its noise. The draw behind
``simulate_observation(image, noise, seed)`` is regenerated as
``np.random.default_rng(seed).standard_normal(image.size)``, which
``tests/test_model.py`` pins bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from svdstop.estimator import _prefix_sums, split_level, strong_bias_sq
from svdstop.harness import ExperimentConfig, resolve_experiment, run_experiment
from svdstop.model import NoiseModel, Signal, Spectrum, make_polynomial_spectrum
from svdstop.oracles import oracle_set
from svdstop.stopping import make_stopping_config


def _variance(squares: np.ndarray, t: float) -> float:
    """``sum(squares[:k]) + frac * squares[k]``, the head summed as ``FunctionalProfile`` sums its prefixes."""
    k, frac = split_level(t, squares.size)
    head = float(_prefix_sums(squares[:k])[-1])
    return head + frac * float(squares[k]) if k < squares.size else head


def strong_variance(spectrum: Spectrum, noise: NoiseModel, t: float) -> float:
    """Accumulated noise variance ``delta**2 * (sum_{i<=k} lam_i**-2 + frac * lam_{k+1}**-2)``."""
    return noise.delta**2 * _variance(spectrum.values**-2.0, t)


def weak_variance(noise: NoiseModel, t: float) -> float:
    """Accumulated noise variance in the image-space norm, ``t * delta**2``."""
    return float(t) * noise.delta**2


def stochastic_error(eps: np.ndarray, spectrum: Spectrum, noise: NoiseModel, t: float) -> float:
    """Realised squared stochastic error of the truncated estimator under the noise draw ``eps``:
    ``delta**2 * (sum_{i<=k} lam_i**-2 eps_i**2 + frac * lam_{k+1}**-2 eps_{k+1}**2)``."""
    return noise.delta**2 * _variance((eps / spectrum.values) ** 2, t)


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


def laurent_massart_tails(weights: np.ndarray, x: float, replications: int = 100000, seed: int = 0) -> TailReport:
    """Monte Carlo check of the weighted chi-square deviation bounds.

    For nonnegative weights ``a`` and standard Gaussians ``eps``, the
    events ``sum a_i (eps_i**2 - 1) < -2 |a| sqrt(x)`` and
    ``sum a_i (eps_i**2 - 1) > 2 |a| sqrt(x) + 2 max(a) x`` each have
    probability below ``exp(-x)``. The report carries the empirical
    frequencies with binomial standard errors.
    """
    a = np.asarray(weights, dtype=float)
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
