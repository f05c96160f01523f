"""Lower-bound machinery: adversarial signals, TV bounds, tail checks."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import svdstop
from svdstop import harness
from svdstop.harness import ExperimentConfig
from svdstop.lowerbound import (
    SIMPLIFIED_NORM_THRESHOLD,
    AccuracyError,
    _find_root,
    _mixture_cdf,
    _mixture_logpdf,
    _mixture_terms,
    adversary_conditions,
    hide_signal,
    laurent_massart_tails,
    overrun_check,
    residual_adversary,
    tv_bound,
    tv_numeric,
    weak_oracle_gap_instance,
)
from svdstop.model import NoiseModel, Signal, make_polynomial_spectrum


def test_hide_signal_flat_budget():
    res = hide_signal(Signal(np.zeros(30)), i0=3, alpha=0.0, r_bar=2.0)
    expected = np.zeros(30)
    expected[3] = 1.0
    assert res.mu_bar.coefficients == pytest.approx(expected)
    assert res.i0 == 3
    assert res.predicted_floor == pytest.approx(1.0 / 3.0)
    assert res.conditions_met == {"prefix_equal": True}


def test_hide_signal_decaying_budget():
    res = hide_signal(Signal(np.zeros(30)), i0=20, alpha=0.5, r_bar=2.0)
    assert res.mu_bar.coefficients[20] == pytest.approx(1.0 / math.sqrt(21.0))
    assert np.count_nonzero(res.mu_bar.coefficients) == 1


def test_hide_signal_preserves_prefix():
    rng = np.random.default_rng(3)
    mu = Signal(rng.standard_normal(20))
    res = hide_signal(mu, i0=7, alpha=0.25, r_bar=1.0)
    assert np.array_equal(res.mu_bar.coefficients[:7], mu.coefficients[:7])
    assert res.mu_bar.coefficients[7] == pytest.approx(0.5 * 8.0**-0.25)


def test_hide_signal_validation():
    mu = Signal(np.zeros(5))
    with pytest.raises(ValueError):
        hide_signal(mu, i0=5, alpha=0.0, r_bar=1.0)
    with pytest.raises(ValueError):
        hide_signal(mu, i0=2, alpha=-0.5, r_bar=1.0)
    with pytest.raises(ValueError):
        hide_signal(mu, i0=2, alpha=0.0, r_bar=0.0)


def test_residual_adversary_quadrature_bump():
    dim = 40
    rng = np.random.default_rng(5)
    mu = Signal(rng.standard_normal(dim))
    spec = make_polynomial_spectrum(dim, 0.5)
    noise = NoiseModel(0.1)
    res = residual_adversary(mu, spec, noise, i0=9, alpha=0.25, r_bar=1.5)
    bump = 0.25 * 1.5**2 * 10.0**-0.5
    assert res.mu_bar.coefficients[9] ** 2 == pytest.approx(mu.coefficients[9] ** 2 + bump)
    assert math.copysign(1.0, res.mu_bar.coefficients[9]) == math.copysign(1.0, mu.coefficients[9])
    assert np.array_equal(res.mu_bar.coefficients[:9], mu.coefficients[:9])
    assert set(res.conditions_met) == {"prefix_equal", "weak_bias_close", "weak_bias_large"}
    assert res.conditions_met["prefix_equal"]


def test_residual_adversary_floor_fraction():
    dim = 30
    mu = Signal(np.zeros(dim))
    spec = make_polynomial_spectrum(dim, 0.0)
    res = residual_adversary(mu, spec, NoiseModel(1.0), i0=5, alpha=0.0, r_bar=2.0)
    # bump of 1.0 sits alone past i0, so the floor is 5% of it
    assert res.predicted_floor == pytest.approx(0.05)


def test_adversary_conditions_on_identical_pair():
    dim = 25
    mu = Signal(np.zeros(dim))
    spec = make_polynomial_spectrum(dim, 0.5)
    cond = adversary_conditions(mu, mu, spec, NoiseModel(0.1), i0=4)
    assert cond["prefix_equal"]
    assert cond["weak_bias_close"]
    assert not cond["weak_bias_large"]  # both biases vanish


def test_tv_bound_hand_values():
    res = tv_bound(6.0, 5.25, 100)
    assert res.bound_simplified == pytest.approx(2.0 * abs(36.0 - 27.5625) / 10.0)
    e = math.e
    general = e * (abs(36.0 - 27.5625) + math.sqrt(8.0 / math.pi) * 0.75) / math.sqrt(math.pi * 100.0)
    assert res.bound_general == pytest.approx(general)


def test_tv_bound_threshold_constant():
    e = math.e
    assert SIMPLIFIED_NORM_THRESHOLD == pytest.approx(
        math.sqrt(8.0) * e / (2.0 * math.pi - math.sqrt(math.pi) * e)
    )


def test_tv_bound_simplified_requires_large_norms():
    small = tv_bound(1.0, 0.5, 50)
    assert small.bound_simplified is None
    big = tv_bound(SIMPLIFIED_NORM_THRESHOLD + 1.0, SIMPLIFIED_NORM_THRESHOLD, 50)
    assert big.bound_simplified is not None


def test_tv_bound_validation():
    """Negative or non-finite norms, and a summand count that is not a whole number >= 1, raise
    ``ValueError`` in both functions; an infinite norm used to give a distance of 0."""
    bad = [
        (-1.0, 0.5, 10),
        (1.0, 0.5, 0),
        (math.inf, 1.0, 5),
        (1.0, math.nan, 5),
        (math.nan, 1.0, 5),
        (1.0, 0.5, 2.5),
        (1.0, 0.5, True),
        (1.0, 0.5, math.nan),
    ]
    for function in (tv_bound, tv_numeric):
        for args in bad:
            with pytest.raises(ValueError):
                function(*args)
    assert tv_bound(1.0, 0.5, 5.0) == tv_bound(1.0, 0.5, np.int64(5)) == tv_bound(1.0, 0.5, 5)


def test_tv_numeric_basic_properties():
    assert tv_numeric(2.0, 2.0, 25) == pytest.approx(0.0, abs=1e-12)
    a = tv_numeric(3.0, 2.0, 25)
    b = tv_numeric(2.0, 3.0, 25)
    assert a == pytest.approx(b, abs=1e-9)
    assert 0.0 < a < 1.0


@given(
    st.floats(0.0, 8.0),
    st.floats(0.0, 8.0),
    st.integers(5, 400),
)
def test_tv_numeric_below_general_bound(theta, theta_bar, num_terms):
    numeric = tv_numeric(theta, theta_bar, num_terms)
    res = tv_bound(theta, theta_bar, num_terms)
    assert numeric <= min(res.bound_general, 1.0) + 1e-7
    if res.bound_simplified is not None:
        assert numeric <= res.bound_simplified + 1e-7


def test_package_imports_without_scipy():
    src = str(Path(svdstop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, svdstop, svdstop.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_chi2_distribution_function_closed_forms():
    xs = np.concatenate((np.geomspace(1e-8, 2000.0, 60), [1.0, 2.0, 4.0, 30.0]))
    closed = {
        1: lambda x: math.erf(math.sqrt(0.5 * x)),
        2: lambda x: -math.expm1(-0.5 * x),
        4: lambda x: 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x),
    }
    for k, cdf in closed.items():
        central = _mixture_terms(k, 0.0)  # one weight, one degree
        assert np.array_equal(central.log_w, [0.0]) and np.array_equal(central.dfs, [k])
        for x in xs:
            assert _mixture_cdf(central, x) == pytest.approx(cdf(x), abs=1e-14), (k, x)


@pytest.mark.parametrize("num_terms", [1, 2, 5, 400])
@pytest.mark.parametrize("noncentrality", [1e-10, 0.25, 4.0, 27.5625, 64.0, 400.0, 2_000.0, 10_000.0])
def test_mixture_weights_sum_to_one(num_terms, noncentrality):
    # 64 is the largest noncentrality of the criterion-7 grid; from 400 on, the rounding of
    # j log(nc/2) - lgamma(j + 1) alone moved the unnormalised sum by more than 1e-13
    law = _mixture_terms(num_terms, noncentrality)
    assert abs(np.exp(law.log_w).sum() - 1.0) <= 1e-13
    assert np.array_equal(law.dfs, num_terms + 2.0 * np.arange(law.log_w.size))
    half = 0.5 * law.dfs
    assert np.array_equal(law.slope, half - 1.0)
    norm = half * math.log(2.0) + np.array([math.lgamma(h) for h in half.tolist()])
    assert np.array_equal(law.const, law.log_w - norm)
    # the distribution function's ladder runs over every degree of the parity above Q_1 or Q_2
    first = 2 - num_terms % 2
    ladder = np.arange(first + 2, law.dfs[-1] + 1, 2)
    assert np.array_equal(law.step_slope, 0.5 * ladder - 1.0)
    assert np.array_equal(np.concatenate(([first], ladder))[law.rows], law.dfs)


def test_tv_numeric_at_a_large_norm_in_bounded_memory():
    # about 5,500 mixture degrees: one points-by-degrees matrix over all 4,824 quadrature nodes
    # would take 213 MB, so the log densities are evaluated in runs of points
    law = _mixture_terms(5, 10_000.0)
    log_xs = np.log(np.linspace(9_000.0, 11_000.0, 400))
    singles = [_mixture_logpdf(law, log_xs[i : i + 1])[0] for i in range(log_xs.size)]
    assert np.array_equal(_mixture_logpdf(law, log_xs), singles)
    tracemalloc.start()
    try:
        value = tv_numeric(100.0, 99.5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.1973932227563192, abs=1e-9)  # from scipy's chi2 densities and brentq
    assert peak < 32 * 2**20


def test_chi2_pieces_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    special = pytest.importorskip("scipy.special")
    xs = np.geomspace(1e-8, 2000.0, 200)
    log_xs = np.log(xs)
    for num_terms in (1, 2, 5, 50, 200, 400):
        central = stats.chi2.logpdf(xs, num_terms)
        gap = np.abs(_mixture_logpdf(_mixture_terms(num_terms, 0.0), log_xs) - 0.5 * xs - central)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(central)))
        for noncentrality in (0.0, 0.25, 4.0, 27.5625, 64.0):
            law = _mixture_terms(num_terms, noncentrality)
            log_w, dfs = law.log_w, law.dfs
            if noncentrality > 0:
                half = 0.5 * noncentrality
                # the kept weights stop two past the first index whose tail is at most 1e-13
                tails = stats.poisson.sf(np.arange(log_w.size), half)
                assert tails[-3] <= 1e-13 < tails[-4]
                assert np.allclose(log_w, stats.poisson.logpmf(np.arange(log_w.size), half), rtol=1e-13, atol=1e-13)
            mixed = special.logsumexp(log_w + stats.chi2.logpdf(xs[:, None], dfs), axis=1)
            gap = np.abs(_mixture_logpdf(law, log_xs) - 0.5 * xs - mixed)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(mixed))), (num_terms, noncentrality)
            cdf = np.exp(log_w) @ stats.chi2.cdf(xs[:, None], dfs).T
            mine = np.array([_mixture_cdf(law, x) for x in xs])
            assert np.max(np.abs(mine - cdf)) <= 1e-13, (num_terms, noncentrality)


def test_find_root_needs_a_sign_change():
    assert _find_root(lambda x: x - 0.25, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert _find_root(lambda x: x, 0.0, 1.0) == 0.0  # a zero at an end point is the root
    for f in (lambda x: x + 1.0, lambda x: -1.0 - x, lambda x: math.nan, lambda x: math.nan if x else -1.0):
        with pytest.raises(AccuracyError, match="no sign change"):
            _find_root(f, 0.0, 1.0)


def test_laurent_massart_report_fields():
    weights = np.ones(20)
    rep = laurent_massart_tails(weights, x=3.0, replications=20_000, seed=4)
    again = laurent_massart_tails(weights, x=3.0, replications=20_000, seed=4)
    assert rep == again  # deterministic given the seed
    assert rep.x == 3.0
    assert rep.replications == 20_000
    assert 0.0 <= rep.lower_frequency <= rep.bound
    assert 0.0 <= rep.upper_frequency <= rep.bound
    assert rep.bound == pytest.approx(math.exp(-3.0))
    assert rep.lower_se > 0 or rep.lower_frequency == 0.0
    assert rep.upper_se > 0 or rep.upper_frequency == 0.0


def test_laurent_massart_rejects_bad_input():
    with pytest.raises(ValueError):
        laurent_massart_tails(np.array([-1.0, 2.0]), x=1.0)
    with pytest.raises(ValueError):
        laurent_massart_tails(np.ones(3), x=-0.5)


def overrun_config(**overrides):
    """Pure noise over ``lambda_i = i**-0.5`` at ``D = 120``, stopped at ``kappa = D * delta**2``."""
    base = dict(dim=120, delta=0.1, spectrum_p=0.5, signal_name="zero", kappa=120 * 0.1**2, replications=400)
    return ExperimentConfig(**{**base, **overrides})


def test_overrun_check_report_fields():
    rep = overrun_check(overrun_config(base_seed=2), m=40)
    assert rep.m == 40
    assert rep.variance_at_m > 0
    assert rep.risk_sq_estimate >= 0
    assert 0.0 <= rep.overrun_probability <= 1.0
    assert rep.risk_sq_se >= 0 and rep.overrun_se >= 0
    assert isinstance(rep.premise_holds, bool)
    if rep.premise_holds:
        assert isinstance(rep.implication_ok, bool)
    else:
        assert rep.implication_ok is None  # nothing to check without the premise
    # pinned, so a change to the harness's replication loop cannot move the report unnoticed
    assert (rep.variance_at_m, rep.risk_sq_estimate, rep.risk_sq_se) == (
        8.200000000000001,
        0.6731343534743506,
        0.06858749479540079,
    )
    assert (rep.overrun_probability, rep.overrun_se, rep.replications) == (0.0075, 0.00431385848168435, 400)


@pytest.mark.parametrize("m, replications", [(0, 400), (121, 400), (40, 1)])
def test_overrun_check_rejects_bad_index_and_replications_before_running(monkeypatch, m, replications):
    def unreachable(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(harness, "simulate_observation", unreachable)
    with pytest.raises(ValueError):
        overrun_check(overrun_config(replications=replications), m=m)


def test_overrun_check_raises_on_a_failed_replication(monkeypatch):
    calls = []
    errors = harness._errors

    def flaky(y, k, mu, lam, gaps):
        calls.append(k)
        if len(calls) == 3:
            raise FloatingPointError("overflow in the estimate")
        return errors(y, k, mu, lam, gaps)

    monkeypatch.setattr(harness, "_errors", flaky)
    with pytest.raises(ArithmeticError, match="overflow in the estimate"):
        overrun_check(overrun_config(replications=5), m=40)
    assert len(calls) == 5  # the other replications still ran


def test_weak_oracle_gap_flat_spectrum_ratio():
    report = weak_oracle_gap_instance(p=2.0, dim=400)
    assert report.feasible
    assert report.bias_ratio == pytest.approx(4.0, abs=1e-9)
    assert report.strong_time >= report.weak_time


def test_weak_oracle_gap_infeasible_instance():
    report = weak_oracle_gap_instance(p=0.0, dim=50)
    assert not report.feasible
    assert report.reason == "weak balanced level would exceed dimension minus one"
