"""End-to-end acceptance checks for the whole package.

Each numbered test prints one ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in the captured output of a failing run) and asserts the
same condition, so the suite doubles as a scoreboard:

    python3 -m pytest tests/test_acceptance.py -s

The heavier Monte Carlo runs are shared between tests through cached
helpers; the full file runs in well under a minute on a laptop.
"""

import functools
import math
import time

import numpy as np
import pytest

from svdstop.estimator import estimate_at, strong_bias_sq, weak_bias_sq
from svdstop.harness import ExperimentConfig, oracle_payload, resolve_experiment, run_experiment
from svdstop.lazysvd import DeflationState, MatrixOperator, next_triplet, sequential_solve
from svdstop.lowerbound import tv_bound, tv_numeric
from svdstop.model import (
    NoiseModel,
    Signal,
    Spectrum,
    make_polynomial_spectrum,
    replication_seed,
    simulate_observation,
)
from svdstop.oracles import oracle_set, theory_bounds
from svdstop.signals import NAMED_PROFILES, calibrated_signal
from svdstop.stopping import StoppingConfig, make_stopping_config, stop_index

from claims import laurent_massart_tails, overrun_check, stochastic_error, weak_oracle_gap_instance


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def efficiency_run(m0_mode: str, procedures: tuple) -> dict:
    """One thousand replications per named signal at the reference scale."""
    out = {}
    for name in sorted(NAMED_PROFILES):
        config = ExperimentConfig(
            dim=10_000,
            delta=0.01,
            signal_name=name,
            kappa=1.0,
            m0_mode=m0_mode,
            replications=1000,
            base_seed=42,
            procedures=procedures,
        )
        out[name] = run_experiment(config)
    return out


def test_01_pathwise_error_decomposition():
    dim, delta = 500, 0.05
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(delta=delta)
    sig = calibrated_signal("smooth", dim, delta, spec)
    config = make_stopping_config(dim, delta, kappa=dim * delta**2)
    start = time.time()
    worst = 0.0
    for rep in range(1000):
        obs = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(77, rep))
        tau = stop_index(obs.y, obs.y_norm_sq, config)
        err = estimate_at(obs, spec, float(tau)).values - sig.coefficients
        lhs = float(err @ err)
        eps = np.random.default_rng(replication_seed(77, rep)).standard_normal(dim)
        rhs = strong_bias_sq(sig, float(tau)) + stochastic_error(eps, spec, noise, float(tau))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    elapsed = time.time() - start
    report(
        "criterion 1",
        worst <= 1e-10 and elapsed < 10.0,
        f"pathwise squared-error identity, worst relative error {worst:.2e} over 1000 replications ({elapsed:.1f}s)",
    )


def test_02_threshold_identity_and_ordering():
    rng = np.random.default_rng(99)
    start = time.time()
    worst_gap = 0.0
    chain_failures = 0
    for _ in range(200):
        dim = int(rng.integers(5, 400))
        lam = np.sort(rng.uniform(0.05, 2.0, dim))[::-1]
        spec = Spectrum(lam)
        mu = Signal(rng.standard_normal(dim) * rng.uniform(0, 3))
        delta = float(rng.uniform(0.01, 1.0))
        noise = NoiseModel(delta=delta)
        at_default = oracle_set(mu, spec, noise, StoppingConfig(dim * delta**2))
        weak_time, strong_time = at_default.weak_time, at_default.strong_time
        worst_gap = max(worst_gap, abs(at_default.proxy_time - weak_time))
        kappa = float(rng.uniform(0, 2 * dim * delta**2))
        proxy_k = oracle_set(mu, spec, noise, StoppingConfig(kappa)).proxy_time
        slack = max(dim - kappa / delta**2, 0.0)
        if not (proxy_k - slack <= weak_time + 1e-9 and weak_time <= strong_time + 1e-9):
            chain_failures += 1
    elapsed = time.time() - start
    report(
        "criterion 2",
        worst_gap <= 1e-9 and chain_failures == 0 and elapsed < 5.0,
        f"default-threshold proxy equals the weak balanced time (worst gap {worst_gap:.1e}), "
        f"ordering chain failures {chain_failures}/200 ({elapsed:.1f}s)",
    )


def test_03_null_signal_calibration():
    config = ExperimentConfig(
        dim=10_000,
        delta=0.01,
        signal_name="zero",
        kappa=1.0,
        m0_mode="normal_quantile",
        replications=5000,
        base_seed=7,
        procedures=("plain_stop",),
    )
    start = time.time()
    rep = run_experiment(config)
    elapsed = time.time() - start
    exp = resolve_experiment(config)
    overrun = 1.0 - rep.summaries[0].immediate_fraction
    report(
        "criterion 3",
        0.003 <= overrun <= 0.02 and exp.stopping.m0 == 329,
        f"null-signal overrun fraction {overrun:.4f} in [0.003, 0.02] at start index "
        f"{exp.stopping.m0}, 5000 replications ({elapsed:.1f}s)",
    )


def test_04_efficiency_bands():
    targets = {name: NAMED_PROFILES[name][2] for name in NAMED_PROFILES}
    calibration_ok = True
    for name, target in targets.items():
        config = ExperimentConfig(
            dim=10_000, delta=0.01, signal_name=name, kappa=1.0, replications=1
        )
        weak_time = oracle_payload(resolve_experiment(config))["weak_time"]
        if abs(weak_time - target) > 0.1 * target:
            calibration_ok = False
    runs = efficiency_run("zero", ("plain_stop",))
    smooth_median = runs["smooth"].summaries[0].eff_strong_quartiles[1]
    rough_median = runs["rough"].summaries[0].eff_strong_quartiles[1]
    super_mean = runs["super_smooth"].summaries[0].eff_strong_mean
    ok = (
        calibration_ok
        and smooth_median >= 0.65
        and rough_median >= 0.65
        and 0.35 <= super_mean <= 0.65
    )
    report(
        "criterion 4",
        ok,
        "strong-norm efficiency over 1000 replications per signal: "
        f"smooth median {smooth_median:.3f} >= 0.65, rough median {rough_median:.3f} >= 0.65, "
        f"super-smooth mean {super_mean:.3f} in [0.35, 0.65]; calibration within 10% of "
        f"targets {tuple(sorted(targets.values()))}: {calibration_ok}",
    )


def test_05_two_step_improvement():
    runs = efficiency_run("normal_quantile", ("plain_stop", "two_step_strong"))
    super_summaries = {s.procedure: s for s in runs["super_smooth"].summaries}
    plain_median = super_summaries["plain_stop"].eff_strong_quartiles[1]
    two_step_median = super_summaries["two_step_strong"].eff_strong_quartiles[1]
    rough_immediate = {s.procedure: s for s in runs["rough"].summaries}[
        "plain_stop"
    ].immediate_fraction
    ok = two_step_median >= plain_median + 0.1 and rough_immediate <= 0.05
    report(
        "criterion 5",
        ok,
        f"super-smooth two-step median efficiency {two_step_median:.3f} vs plain {plain_median:.3f} "
        f"(improvement {two_step_median - plain_median:+.3f} >= 0.1); rough immediate-stop "
        f"fraction {rough_immediate:.3f} <= 0.05",
    )


def test_06_oracle_inequality_domination():
    dim, delta = 2000, 0.01
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(delta=delta)
    kappa = dim * delta**2
    config = make_stopping_config(dim, delta, kappa=kappa)
    reps = 500
    lines = []
    all_ok = True
    for name in sorted(NAMED_PROFILES):
        sig = calibrated_signal(name, dim, delta, spec)
        oracles = oracle_set(sig, spec, noise, config)
        bounds = theory_bounds(sig, spec, noise, config)
        weak_at_proxy = weak_bias_sq(sig, spec, oracles.proxy_time)
        strong_at_balance = strong_bias_sq(sig, oracles.strong_time)
        weak_over = np.empty(reps)
        strong_over = np.empty(reps)
        stochastic_over = np.empty(reps)
        for rep in range(reps):
            obs = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(202, rep))
            tau = stop_index(obs.y, obs.y_norm_sq, config)
            weak_over[rep] = max(weak_bias_sq(sig, spec, tau) - weak_at_proxy, 0.0)
            strong_over[rep] = max(strong_bias_sq(sig, tau) - strong_at_balance, 0.0)
            eps = np.random.default_rng(replication_seed(202, rep)).standard_normal(dim)
            stochastic_over[rep] = max(
                stochastic_error(eps, spec, noise, tau) - stochastic_error(eps, spec, noise, oracles.proxy_time),
                0.0,
            )
        for label, sample, rhs in (
            ("weak-bias", weak_over, bounds.weak_dev_rhs),
            ("strong-bias", strong_over, bounds.strong_bias_rhs),
            ("stochastic", stochastic_over, bounds.stochastic_factor * delta**2),
        ):
            mean = float(sample.mean())
            se = float(sample.std(ddof=1)) / math.sqrt(reps)
            ok = mean <= rhs + 3 * se
            all_ok = all_ok and ok
            lines.append(f"{name}/{label} {mean:.3g}<={rhs:.3g}+3se")
    report("criterion 6", all_ok, "Monte Carlo excesses below theory bounds: " + ", ".join(lines))


def test_07_tv_bounds_on_grid():
    norms = (0.0, 0.5, 2.0, 5.25, 6.0, 8.0)
    sizes = (1, 5, 50, 200)
    checked = 0
    simplified_checked = 0
    all_ok = True
    for num_terms in sizes:
        for i, a in enumerate(norms):
            for b in norms[: i + 1]:
                numeric = tv_numeric(a, b, num_terms)
                bounds = tv_bound(a, b, num_terms)
                checked += 1
                if not (0.0 <= numeric <= 1.0 and numeric <= bounds.bound_general + 1e-6):
                    all_ok = False
                if bounds.bound_simplified is not None:
                    simplified_checked += 1
                    if numeric > bounds.bound_simplified + 1e-6:
                        all_ok = False
    report(
        "criterion 7",
        all_ok and checked == len(sizes) * len(norms) * (len(norms) + 1) // 2,
        f"numeric total variation below the closed-form bound on all {checked} grid points "
        f"({simplified_checked} with the simplified variant active)",
    )


def test_08_chi_square_tail_domination():
    rng = np.random.default_rng(8)
    lines = []
    all_ok = True
    for x in (0.25, 1.0, 4.0):
        weights = rng.uniform(0.05, 1.0, 100)
        rep = laurent_massart_tails(weights, x, replications=100_000, seed=int(10 * x))
        lower_ok = rep.lower_frequency <= rep.bound + 3 * rep.lower_se
        upper_ok = rep.upper_frequency <= rep.bound + 3 * rep.upper_se
        all_ok = all_ok and lower_ok and upper_ok
        lines.append(
            f"x={x}: lower {rep.lower_frequency:.4f}, upper {rep.upper_frequency:.4f} <= {rep.bound:.4f}+3se"
        )
    report("criterion 8", all_ok, "; ".join(lines))


def test_09_lazy_svd_consistency():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((300, 200))
    reference = np.linalg.svd(dense, compute_uv=False)
    operator = MatrixOperator(dense)
    state = DeflationState(operator, seed=1, tolerance=1e-10)
    for _ in range(20):
        next_triplet(state)
    sigma_err = float(np.max(np.abs(np.array([t.sigma for t in state.triplets]) - reference[:20])))

    dim, delta = 200, 0.05
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(delta=delta)
    sig = calibrated_signal("smooth", dim, delta, spec)
    obs = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(31, 0))
    config = make_stopping_config(dim, delta, kappa=dim * delta**2)
    tau_seq = stop_index(obs.y, obs.y_norm_sq, config)
    mu_seq = estimate_at(obs, spec, float(tau_seq)).values
    result = sequential_solve(
        MatrixOperator(np.diag(spec.values)), obs.y, noise, config, tolerance=1e-12
    )
    mu_err = float(np.max(np.abs(result.estimate.values - mu_seq)))
    tau_ok = result.outcome.tau == tau_seq
    frugal = len(result.state.triplets) == result.outcome.tau and result.outcome.tau <= 40
    ok = sigma_err <= 1e-8 and tau_ok and mu_err <= 1e-10 and frugal
    report(
        "criterion 9",
        ok,
        f"top-20 singular values within {sigma_err:.1e} of the dense decomposition; "
        f"diagonal-operator stop matches the sequence rule (tau={result.outcome.tau}, "
        f"estimate error {mu_err:.1e}); {result.outcome.tau} triplets for 200 columns",
    )


def test_10_weak_strong_oracle_gap():
    instance = weak_oracle_gap_instance(p=2.0, dim=400)
    ok = instance.feasible and instance.bias_ratio >= 3.99
    report(
        "criterion 10",
        ok,
        f"constructed instance with strong-to-weak balanced bias ratio {instance.bias_ratio:.6f} >= 3.99",
    )


def test_11_no_overrun_implication():
    dim, delta = 300, 0.1
    default_kappa, deep_kappa = dim * delta**2, 3 * dim * delta**2
    cases = [
        (default_kappa, 270),
        (default_kappa, 290),
        (deep_kappa, 60),
    ]
    lines = []
    premise_count = 0
    all_ok = True
    for kappa, m in cases:
        # the residual stop on pure noise over lambda_i = i**-0.5
        config = ExperimentConfig(
            dim=dim, delta=delta, spectrum_p=0.5, signal_name="zero", kappa=kappa, replications=500, base_seed=3
        )
        rep = overrun_check(config, m)
        if rep.premise_holds:
            premise_count += 1
            limit = 0.9 + 3 * rep.overrun_se
            if not (rep.overrun_probability <= limit and rep.implication_ok):
                all_ok = False
            lines.append(f"m={m}: P(tau>={m})={rep.overrun_probability:.3f}<={limit:.3f}")
        else:
            lines.append(f"m={m}: premise failed (skipped)")
    report(
        "criterion 11",
        all_ok and premise_count >= 1,
        f"variance-dominated instances keep the overrun probability under control ({'; '.join(lines)})",
    )
