"""Lower-bound machinery: adversarial signals and TV bounds; and the tail, overrun and gap
instruments of the acceptance criteria, which live in ``tests/claims.py``."""

import collections
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import svdstop
from svdstop import _chisq, harness, lowerbound
from svdstop._chisq import (
    _find_root,
    _ladder,
    _mixture_cdf,
    _mixture_logpdf,
    _mixture_terms,
    _tv_crossing,
    _weight_range,
)
from svdstop.harness import ExperimentConfig
from svdstop.lowerbound import (
    SIMPLIFIED_NORM_THRESHOLD,
    AccuracyError,
    hide_signal,
    residual_adversary,
    tv_bound,
    tv_numeric,
)
from svdstop.model import NoiseModel, Signal, make_polynomial_spectrum

from claims import laurent_massart_tails, overrun_check, weak_oracle_gap_instance


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


@pytest.mark.parametrize("adversary", ["hide", "residual"])
@pytest.mark.parametrize(
    "alpha, r_bar, key",
    [
        (math.nan, 1.0, "adversary.alpha"),
        (0.0, math.nan, "adversary.r_bar"),
        (0.0, math.inf, "adversary.r_bar"),
        (0.0, 1e200, "adversary.r_bar"),
    ],
)
def test_adversaries_reject_nonfinite_smoothness_naming_the_key(adversary, alpha, r_bar, key):
    """NaN passes both ``alpha < 0`` and ``r_bar <= 0``; it, an infinite radius and a finite one whose square
    overflows are refused by name."""
    mu = Signal(np.ones(10))
    with pytest.raises(ValueError, match=key):
        if adversary == "hide":
            hide_signal(mu, i0=4, alpha=alpha, r_bar=r_bar)
        else:
            residual_adversary(mu, make_polynomial_spectrum(10, 0.5), NoiseModel(0.1), i0=4, alpha=alpha, r_bar=r_bar)


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
    # the weak squared biases at i0 are 0 and 1: 1 > 0.05 * sqrt(25) / 2, and sqrt(0) + sqrt(1) < 5.25
    assert res.conditions_met == {"prefix_equal": True, "weak_bias_close": False, "weak_bias_large": False}


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


def imported_modules(prefix):
    """The modules under ``prefix`` that ``import svdstop, svdstop.cli`` loads, in a fresh interpreter."""
    src = str(Path(svdstop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, svdstop, svdstop.cli; print(sorted(k for k in sys.modules if k.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return out.strip()


def test_package_imports_without_scipy():
    assert imported_modules("scipy") == "[]"


def test_package_imports_without_numpy_polynomial():
    """The Gauss-Legendre rule lives in the tests; ``numpy.polynomial`` cost about 6 ms of ``import svdstop.cli``."""
    assert imported_modules("numpy.polynomial") == "[]"


def test_chi2_distribution_function_closed_forms():
    xs = np.concatenate((np.geomspace(1e-8, 2000.0, 60), [1.0, 2.0, 4.0, 30.0]))
    closed = {
        1: lambda x: math.erf(math.sqrt(0.5 * x)),
        2: lambda x: -math.expm1(-0.5 * x),
        4: lambda x: 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x),
    }
    for k, cdf in closed.items():
        central = _mixture_terms(k, 0.0)  # one weight, one degree
        assert np.array_equal(central.w, [1.0]) and np.array_equal(central.dfs, [k])
        for x in xs:
            assert _mixture_cdf([central], x) == [pytest.approx(cdf(x), abs=1e-14)], (k, x)


@pytest.mark.parametrize("num_terms", [1, 2, 5, 400])
@pytest.mark.parametrize("noncentrality", [1e-10, 0.25, 4.0, 27.5625, 64.0, 400.0, 2_000.0, 10_000.0])
def test_mixture_weights_sum_to_one(num_terms, noncentrality):
    # 64 is the largest noncentrality of the criterion-7 grid; from 400 on, the rounding of
    # j log(nc/2) - lgamma(j + 1) alone moved the unnormalised sum by more than 1e-13
    law = _mixture_terms(num_terms, noncentrality)
    half, log_w = 0.5 * noncentrality, np.log(law.w)
    assert abs(law.w.sum() - 1.0) <= 1e-13
    # the window starts at the first weight above 1e-300 (j0 = 0 up to nc = 1380)
    j0 = int(law.dfs[0] - num_terms) // 2
    assert (j0 == 0) == (noncentrality < 1_380.0)
    assert log_w[0] > math.log(1e-300) - 1e-9
    assert j0 == 0 or log_w[0] + math.log(j0 / half) <= math.log(1e-300) + 1e-9
    assert np.array_equal(law.dfs, num_terms + 2.0 * (j0 + np.arange(law.w.size)))
    head = 0.5 * law.dfs[0]
    norm = head * math.log(2.0) + math.lgamma(head)
    assert (law.head_slope, law.head_const) == (law.dfs[0] / 2 - 1.0, math.log(law.w[0]) - norm)
    # term i + 1 of the density is term i times x * ratios[i]; the recurrence's weights are the kept ones
    ratios = np.array(law.ratios)
    assert np.array_equal(ratios, half / ((j0 + np.arange(1, law.w.size)) * law.dfs[:-1]))
    from_ratios = log_w[0] + np.cumsum(np.log(ratios * law.dfs[:-1]))
    assert np.allclose(from_ratios, log_w[1:], rtol=0.0, atol=1e-10)


def test_a_large_noncentrality_keeps_only_its_window():
    """At ``nc = 1e6`` the weights from ``j = 0`` were 505,208, of which 474,089 lay below 1e-300."""
    law = _mixture_terms(5, 1e6)
    assert law.w.size <= 32_000
    assert int(law.dfs[0] - 5) // 2 == 474_089


@pytest.mark.parametrize("noncentrality", [0.0, 1e-10, 64.0, 1e4, 1e6])
def test_a_law_takes_at_most_two_lgamma_calls(monkeypatch, noncentrality):
    """One for the weights' anchor and one for the first degree's constant; the density and the
    distribution function take none, at any noncentrality."""
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda v: calls.append(v) or lgamma(v))
    law = _mixture_terms(5, noncentrality)
    x = 5.0 + noncentrality
    _mixture_logpdf(law, x, math.log(x))
    _mixture_logpdf(law, np.array([0.5 * x, x]), np.log([0.5 * x, x]))
    _mixture_cdf([law], x)
    assert 1 <= len(calls) <= 2
    calls.clear()
    tv_numeric(8.0, 6.0, 5)
    assert len(calls) <= 4


def test_the_weight_range_holds_the_premises_of_the_error_bound():
    """What ``_cdf_error`` assumes of the weights that ``_mixture_terms`` computes, recomputed from
    ``_weight_range`` for ``h`` from 1e-10 to 1e7: every weight below the range under 1e-347 (Chernoff), the
    mass above it under ``exp(-58) < 1e-25`` (Bernstein), and ``span`` and ``reach`` covering the range."""
    assert math.exp(-58.0) < 1e-25
    for half in np.concatenate((np.geomspace(1e-10, 1e7, 1701), np.arange(1.0, 2001.0))).tolist():
        low, high, span, reach = _weight_range(half)
        mode = math.floor(half)
        if low > 0:  # below the mode the weights rise with j: the largest below the range is at low - 1
            assert (half - (low - 1)) ** 2 / (2.0 * half) > 347.0 * math.log(10.0), half
        t = high - half  # P(J >= high) <= exp(-t**2 / (2 (h + t/3)))
        assert t * t / (2.0 * (half + t / 3.0)) > 58.0, half
        assert span >= high - low and reach >= max(mode - low, high - 1 - mode), half
    for half in np.geomspace(1e-10, 1e7, 18).tolist():
        law, (low, high, _, _) = _mixture_terms(5, 2.0 * half), _weight_range(half)
        j0 = int(law.dfs[0] - 5) // 2
        assert low <= j0 and j0 + law.w.size <= high, half


@pytest.mark.parametrize("a, b", [(40.0, 0.0), (100.0, 99.5), (300.0, 299.0), (1000.0, 999.0)])
def test_windowed_laws_keep_the_brackets_lower_end(a, b):
    """At ``K = 1`` the bracket search's first ends, half and 1.5 times ``c0 = K + (nu_f + nu_g)/2``, already
    see the log ratio's two signs once the laws are windowed: the larger law's first degree is at least the
    smaller one's. At ``(40, 0)`` the crossing lies at ``0.5002 c0``."""
    f, g = _mixture_terms(1, a * a), _mixture_terms(1, b * b)
    assert f.dfs[0] > 1.0  # windowed
    middle = 1.0 + 0.5 * (a * a + b * b)
    for x, sign in ((0.5 * middle, -1.0), (1.5 * middle, 1.0)):
        assert sign * (_mixture_logpdf(f, x, math.log(x)) - _mixture_logpdf(g, x, math.log(x))) > 0.0, x


@pytest.mark.parametrize("num_terms", [1, 2, 5, 50])
def test_laws_of_one_parity_share_one_ladder(num_terms):
    """Several laws read off one ladder, up to the largest window's last degree, get the bits each gets from a
    ladder of its own: the ladder steps in blocks from its first degree, whatever its last. The windows end at
    different degrees, the largest more than 1,000 ladder steps up, and the two largest start above ``j = 0``."""
    laws = [_mixture_terms(num_terms, nc) for nc in (0.0, 4.0, 64.0, 2_000.0, 3_000.0)]
    assert (laws[-1].dfs[-1] - num_terms) / 2.0 > 1_000.0 and laws[-2].dfs[0] > num_terms
    assert len({law.dfs[-1] for law in laws}) == len(laws)
    for x in (1e-3, 0.5, 30.0, 1_000.0, 2_000.0, 3_000.0):
        alone = [_mixture_cdf([law], x)[0] for law in laws]
        assert _mixture_cdf(laws, x) == alone, x
        assert _mixture_cdf(laws[::-1], x) == alone[::-1], x


@pytest.mark.parametrize("base", [1.0, 2.0])
@pytest.mark.parametrize("x", [1e-8, 0.5, 30.0, 1_330.0, 1_331.0, 2_000.0, 1e5])  # exp(-x/2) underflows from about 1,490
def test_ladder_steps_the_central_densities(base, x):
    """``f_{k+2} = f_k x / k`` from the closed-form ``f_1`` or ``f_2``, carried past the float range by exact
    powers of two, matches ``exp((k/2 - 1) log x - x/2 - (k/2) log 2 - lgamma(k/2))`` wherever that is a
    normal float, to 1e-13 of the largest term in the log; the rest lie below it and none overflows."""
    last = base + 2.0 * math.ceil(0.5 * x + 40.0 * math.sqrt(x) + 40.0)
    values = _ladder(x, base, last)
    half = 0.5 * np.arange(base + 2.0, last + 1.0, 2.0)
    norm = half * math.log(2.0) + np.array([math.lgamma(h) for h in half.tolist()])
    terms = [(half - 1.0) * math.log(x), 0.5 * x, norm]
    expected = terms[0] - terms[1] - terms[2]
    scale = np.maximum(1.0, np.abs(terms[0]) + terms[1] + np.abs(terms[2]))
    normal = expected > math.log(1e-300)
    assert values.size == half.size and np.all(np.isfinite(values)) and normal.any()
    assert np.all(np.abs(np.log(values[normal]) - expected[normal]) <= 1e-13 * scale[normal])
    assert np.all(values[~normal] <= 1.1e-300)


def test_tv_numeric_at_a_large_norm_in_bounded_memory():
    # about 5,500 mixture degrees: the densities are summed over them in place, on vectors as long
    # as their points, so memory does not grow with the degree count; the root finder's one-point
    # calls, in Python floats, give the batch's bits
    law = _mixture_terms(5, 10_000.0)
    xs = np.linspace(9_000.0, 11_000.0, 400)
    log_xs = np.log(xs)
    singles = [_mixture_logpdf(law, x, log_x) for x, log_x in zip(xs.tolist(), log_xs.tolist())]
    assert np.array_equal(_mixture_logpdf(law, xs, log_xs), singles)
    tracemalloc.start()
    try:
        value = tv_numeric(100.0, 99.5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.1973932227563192, abs=1e-9)  # from scipy's chi2 densities and brentq
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "a, b, num_terms, tol", [(100.0, 99.5, 5, 1e-10), (300.0, 299.0, 5, 1e-10), (1000.0, 999.0, 5, 5e-10)]
)
def test_tv_numeric_at_large_norms_matches_scipy(a, b, num_terms, tol):
    """Against scipy's noncentral chi-square distribution functions at the crossing of its log densities,
    found by ``brentq``: an independent route through windows of up to 31,000 degrees."""
    stats = pytest.importorskip("scipy.stats")
    optimize = pytest.importorskip("scipy.optimize")
    nu_f, nu_g = a * a, b * b

    def log_ratio(x):
        return stats.ncx2.logpdf(x, num_terms, nu_f) - stats.ncx2.logpdf(x, num_terms, nu_g)

    lo, hi = num_terms + nu_g - 50.0 * math.sqrt(nu_g), num_terms + nu_f + 50.0 * math.sqrt(nu_f)
    crossing = optimize.brentq(log_ratio, lo, hi, xtol=1e-12, rtol=1e-15)
    expected = stats.ncx2.cdf(crossing, num_terms, nu_g) - stats.ncx2.cdf(crossing, num_terms, nu_f)
    assert abs(tv_numeric(a, b, num_terms) - expected) <= tol


@functools.cache
def gauss_legendre(count):
    """Nodes and weights of the ``count``-point rule on [-1, 1]."""
    return leggauss(count)


def integrate_abs_diff(abs_diff, crossing, upper):
    """Integrate ``abs_diff`` over [0, upper] with nodes clustered sensibly, in one call of ``abs_diff``.

    The grid splits at the density crossing (the only kink of the
    integrand) and the initial segment is mapped through ``x = u**2`` so
    an integrable origin singularity costs no accuracy: 64 nodes there,
    then 20 per panel. Up to the crossing the panels' ends are spaced both
    evenly and geometrically: with even spacing alone, at one degree of
    freedom and a crossing far out (``(0, 82, 1)``, crossing 1,682), the
    first panel was 43 wide, one from the singularity of ``1/sqrt(x)``,
    and the central law's integral came out 2.3e-6 short.
    """
    nodes64, weights64 = gauss_legendre(64)
    nodes20, weights20 = gauss_legendre(20)
    head_end = min(1.0, crossing if crossing > 0 else 1.0, upper / 10.0)
    root_half = 0.5 * math.sqrt(head_end)
    u = root_half * (1.0 + nodes64)
    boundaries = [head_end]
    if head_end < crossing < upper:
        boundaries.extend(np.union1d(np.linspace(head_end, crossing, 40), np.geomspace(head_end, crossing, 40))[1:])
    tail_start = boundaries[-1]
    boundaries.extend(np.linspace(tail_start, upper, 200)[1:])
    edges = np.array(boundaries)
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x = np.concatenate((u**2, (mids[:, None] + halves[:, None] * nodes20).ravel()))
    w = np.concatenate((root_half * weights64 * 2.0 * u, (halves[:, None] * weights20).ravel()))
    return float(w @ abs_diff(x))


def quadrature_tv(a, b, num_terms, crossing):
    """Half the integral of ``|f - g|`` by composite Gauss-Legendre quadrature, split at ``crossing``, up to
    where both laws' upper tails sum to at most 1e-10: the check ``tv_numeric`` ran on every call until its
    crossing route had a stated error bound."""
    nu_f, nu_g = max(a, b) ** 2, min(a, b) ** 2
    f, g = _mixture_terms(num_terms, nu_f), _mixture_terms(num_terms, nu_g)

    def abs_diff(x):
        log_x, half_x = np.log(x), 0.5 * x
        return np.abs(np.exp(_mixture_logpdf(f, x, log_x) - half_x) - np.exp(_mixture_logpdf(g, x, log_x) - half_x))

    upper = num_terms + nu_f + 40.0 * math.sqrt(2.0 * num_terms + 4.0 * nu_f) + 60.0
    cdf_f, cdf_g = _mixture_cdf([f, g], upper)
    while 2.0 - cdf_f - cdf_g > 1e-10:
        upper *= 1.5
        cdf_f, cdf_g = _mixture_cdf([f, g], upper)
    return 0.5 * integrate_abs_diff(abs_diff, crossing, upper)


def assert_matches_the_quadrature(a, b, num_terms):
    """``tv_numeric`` within 1e-6 of the quadrature, and its stated error bound at most 1e-6."""
    route = _tv_crossing(a, b, num_terms)
    assert route.bound <= 1e-6, (a, b, num_terms, route.bound)
    value = tv_numeric(a, b, num_terms)
    assert value == min(max(route.value, 0.0), 1.0)
    if math.isnan(route.crossing):  # equal norms: 0, within the Poisson laws' distance
        assert value == 0.0
    else:
        assert abs(value - quadrature_tv(a, b, num_terms, route.crossing)) <= 1e-6, (a, b, num_terms)


NORMS = (0.0, 0.5, 2.0, 5.25, 6.0, 8.0)
CRITERION_7_GRID = [(a, b, k) for k in (1, 5, 50, 200) for i, a in enumerate(NORMS) for b in NORMS[: i + 1]]


def test_tv_numeric_matches_the_quadrature_on_the_criterion_7_grid():
    assert len(CRITERION_7_GRID) == 84
    for a, b, num_terms in CRITERION_7_GRID:
        assert_matches_the_quadrature(a, b, num_terms)


@given(
    st.one_of(
        st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(1, 400)),
        # the bracket search's edges: at K = 1 against the central law the crossing lies just above c0/2,
        st.tuples(st.floats(0.0, 100.0), st.just(0.0), st.just(1)),
        # and at near-equal tiny norms just above c0
        st.builds(lambda a, shrink, k: (a, a * shrink, k), st.floats(1e-4, 1e-2), st.floats(0.5, 0.9999),
                  st.integers(1, 400)),
    )
)
@example((0.5, 0.0, 1))
@example((100.0, 99.0, 1))
@example((0.0, 82.0, 1))
@example((100.0, 0.0, 1))
@example((1e-4, 0.9999e-4, 1))
def test_tv_numeric_matches_the_quadrature_on_random_laws(law):
    """Norms up to 100 (noncentralities up to 1e4), and one degree of freedom, where the quadrature's
    square-root head handles the density's singularity at the origin. At ``(0, 82, 1)`` evenly spaced
    panels alone left the quadrature 1.2e-6 short; as a runtime check it raised there."""
    assert_matches_the_quadrature(*law)


def test_the_crossing_takes_a_counted_number_of_evaluations_on_the_criterion_7_grid(monkeypatch):
    """Over the 84-point grid the bracket search and Chandrupatla's root finder evaluate the log density
    ratio 379 times (two log densities each), and the distribution functions take 60 ladders, one per
    crossing. The counts are a ratchet that only moves down: from a bracket started at 1e-8 and ``K +
    nu_f + 30 sqrt(2K + 4 nu_f) + 30``, with a ladder per law, they were 654 and 120, and under the
    Illinois variant of regula falsi 568 and 60."""
    calls = collections.Counter()

    def counted(name):
        function = getattr(_chisq, name)

        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    for name in ("_mixture_logpdf", "_ladder"):
        monkeypatch.setattr(_chisq, name, counted(name))
    for a, b, num_terms in CRITERION_7_GRID:
        tv_numeric(a, b, num_terms)
    assert (calls["_mixture_logpdf"] / 2, calls["_ladder"]) == (379, 60)


@pytest.mark.parametrize("a, b, num_terms", [(100.0, 99.5, 5), (300.0, 299.0, 5), (1000.0, 999.0, 5)])
def test_the_error_bound_holds_the_tolerance_at_large_norms(a, b, num_terms):
    assert _tv_crossing(a, b, num_terms).bound <= 1e-6


def test_a_bound_above_the_tolerance_raises_with_the_crossing_estimate(monkeypatch):
    route = _tv_crossing(8.0, 6.0, 5)
    assert 0.0 < route.bound <= 1e-6 and 0.0 < route.value < 1.0
    assert tv_numeric(8.0, 6.0, 5) == route.value  # at the real tolerance: the estimate, unchanged
    monkeypatch.setattr(lowerbound, "_TV_TOL", 0.5 * route.bound)
    with pytest.raises(AccuracyError, match="error bound") as raised:
        tv_numeric(8.0, 6.0, 5)
    assert raised.value.estimate == route.value


def test_an_equal_norm_shortcut_has_the_poisson_laws_bound():
    """Squared norms within 1e-12 (1 + nu) give 0, with the bound ``min(d, d / sqrt(nu_g))``, ``d`` half their gap."""
    a = math.sqrt(1e6)
    b = math.sqrt(1e6 - 5e-7)
    route = _tv_crossing(a, b, 5)
    gap = 0.5 * (a * a - b * b)
    assert route.value == 0.0 and math.isnan(route.crossing)
    assert route.bound == gap / math.sqrt(b * b) < 1e-6
    assert _tv_crossing(1e-7, 0.0, 1).bound == 0.5 * 1e-7**2  # nu_g = 0: d itself


def logsumexp_logpdf(law, log_x):
    """``log f(x) + x/2`` as the module summed it before the term-ratio recurrence: a log-sum-exp over the
    points-by-degrees matrix of ``(k/2 - 1) log x + log w - (k/2) log 2 - lgamma(k/2)``."""
    half = 0.5 * law.dfs
    const = np.log(law.w) - (half * math.log(2.0) + np.array([math.lgamma(h) for h in half.tolist()]))
    terms = np.multiply.outer(log_x, half - 1.0) + const
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


@given(
    st.integers(1, 1000),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    st.lists(st.floats(-250.0, 12.0), min_size=1, max_size=8),
)
def test_mixture_logpdf_matches_the_logsumexp(num_terms, noncentrality, exponents):
    """The recurrence agrees with the log-sum-exp to 1e-13 of the largest of 1, the value and its two
    head terms, whose cancellation sets the rounding of both; over 600 random laws at 63 points each
    the largest such gap was 2.1e-15. Every value is finite, and each point alone matches the batch."""
    law = _mixture_terms(num_terms, noncentrality)
    xs = 10.0 ** np.array(exponents)
    log_xs = np.log(xs)
    values, expected = _mixture_logpdf(law, xs, log_xs), logsumexp_logpdf(law, log_xs)
    assert np.all(np.isfinite(values))
    head = np.maximum(abs(law.head_const), np.abs(law.head_slope * log_xs))
    scale = np.maximum(np.maximum(1.0, np.abs(expected)), head)
    assert np.all(np.abs(values - expected) <= 1e-13 * scale)
    singles = [_mixture_logpdf(law, float(x), np.log(float(x))) for x in xs]
    assert np.array_equal(values, singles)


def test_a_numpy_float_takes_the_float_path_to_the_bit():
    """``np.float64`` is a ``float``: its terms and rescaling shifts used to stay numpy values, and
    ``math.ldexp`` rejected the shift."""
    law = _mixture_terms(1, 900.0)
    value = _mixture_logpdf(law, 2000.0, math.log(2000.0))
    assert value == 879.6101792413931
    assert _mixture_logpdf(law, np.float64(2000.0), math.log(2000.0)) == value
    assert _mixture_logpdf(law, np.float64(2000.0), np.log(np.float64(2000.0))) == value
    assert _tv_crossing(np.float64(30.0), 0.0, 1) == _tv_crossing(30.0, 0.0, 1)
    assert _tv_crossing(np.float64(8.0), np.float64(6.0), 5) == _tv_crossing(8.0, 6.0, 5)


def two_statement_logpdf(law, x, log_x):
    """:func:`_mixture_logpdf` as it was before its term loop was unrolled by four: ``t *= x; t *= ratio``
    a term, and the rescaling checked at every fourth by ``j % 4 == 0``."""
    scalar = isinstance(x, float)
    if scalar:
        x, log_x = float(x), float(log_x)
    frexp, ldexp, top = (math.frexp, math.ldexp, float) if scalar else (np.frexp, np.ldexp, np.ndarray.max)
    t, s, carry = (1.0, 1.0, 0) if scalar else (np.ones_like(x), np.ones_like(x), 0)
    for j, ratio in enumerate(law.ratios, 1):
        t *= x
        t *= ratio
        s += t
        if j % 4 == 0 and top(t) > _chisq._RESCALE_AT:
            shift = frexp(t)[1] * (t > _chisq._RESCALE_AT)
            t, s, carry = ldexp(t, -shift), ldexp(s, -shift), carry + shift
    return law.head_const + law.head_slope * log_x + (np.log(s) + carry * math.log(2.0))


@given(
    st.one_of(st.integers(1, 4), st.integers(1, 2000)),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e6)),
    st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=3),
)
@example(5, 1e6, [0.999, 1.0, 1.001])
@example(1, 1e4, [0.5, 1.0, 2.0])
@example(2000, 0.0, [1e-3, 1.0])
@example(2, 1.47, [1.19])
@example(3, 4.82, [1.44])
def test_the_unrolled_term_loop_keeps_every_bit(num_terms, noncentrality, scales):
    """``t = t * x * r`` rounds as ``t *= x; t *= r`` does, in the same order, so the unrolled loop gives
    the reference's bits, for arrays and floats alike; at ``nc = 1e6`` every point near the mean takes the
    power-of-two rescaling many times over. A term off by an ulp reaches the last bit of the log density
    only where that is small, so small laws are drawn too: at ``(2, 1.47)`` and ``(3, 4.82)`` rounding
    ``t * (x * r)`` instead changes the value."""
    law = _mixture_terms(num_terms, noncentrality)
    xs = (num_terms + noncentrality) * np.array(scales)
    log_xs = np.log(xs)
    assert np.array_equal(_mixture_logpdf(law, xs, log_xs), two_statement_logpdf(law, xs, log_xs))
    for x, log_x in zip(xs.tolist(), log_xs.tolist()):
        assert _mixture_logpdf(law, x, log_x) == two_statement_logpdf(law, x, log_x), (num_terms, noncentrality, x)


def test_mixture_logpdf_rescales_large_terms():
    """At ``nc = 1e4`` and ``x`` near 1e4 the window's terms sum to near 2**1800 times its first, past the
    largest float, so every point takes the power-of-two rescaling; an overflow warning would fail the suite."""
    law = _mixture_terms(5, 1e4)
    xs = np.linspace(9_500.0, 10_500.0, 5)
    log_xs = np.log(xs)
    values = _mixture_logpdf(law, xs, log_xs)
    assert np.all(np.isfinite(values))
    assert np.all(values - law.head_const - law.head_slope * log_xs > 1_700.0 * math.log(2.0))  # log s(x)
    assert np.max(np.abs(values - logsumexp_logpdf(law, log_xs)) / np.abs(values)) <= 1e-13
    assert [_mixture_logpdf(law, float(x), np.log(float(x))) for x in xs] == values.tolist()


def test_chi2_pieces_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    special = pytest.importorskip("scipy.special")
    xs = np.geomspace(1e-8, 2000.0, 200)
    log_xs = np.log(xs)
    for num_terms in (1, 2, 5, 50, 200, 400):
        central = stats.chi2.logpdf(xs, num_terms)
        gap = np.abs(_mixture_logpdf(_mixture_terms(num_terms, 0.0), xs, log_xs) - 0.5 * xs - central)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(central)))
        for noncentrality in (0.0, 0.25, 4.0, 27.5625, 64.0):
            law = _mixture_terms(num_terms, noncentrality)
            log_w, dfs = np.log(law.w), law.dfs
            js = int(dfs[0] - num_terms) // 2 + np.arange(log_w.size)  # the window's indices
            if noncentrality > 0:
                half = 0.5 * noncentrality
                # the kept weights stop two past the first index whose tail is at most 1e-13
                tails = stats.poisson.sf(js, half)
                assert tails[-3] <= 1e-13 < tails[-4]
                assert np.allclose(log_w, stats.poisson.logpmf(js, half), rtol=1e-13, atol=1e-13)
            mixed = special.logsumexp(log_w + stats.chi2.logpdf(xs[:, None], dfs), axis=1)
            gap = np.abs(_mixture_logpdf(law, xs, log_xs) - 0.5 * xs - mixed)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(mixed))), (num_terms, noncentrality)
            cdf = law.w @ stats.chi2.cdf(xs[:, None], dfs).T
            mine = np.array([_mixture_cdf([law], x)[0] for x in xs])
            assert np.max(np.abs(mine - cdf)) <= 1e-13, (num_terms, noncentrality)


def test_find_root_needs_a_sign_change():
    def root(f):
        return _find_root(f, 0.0, 1.0, f(0.0), f(1.0))

    assert root(lambda x: x - 0.25) == pytest.approx(0.25, abs=1e-12)
    assert root(lambda x: x) == 0.0  # a zero at an end point is the root
    for f in (lambda x: x + 1.0, lambda x: -1.0 - x, lambda x: math.nan, lambda x: math.nan if x else -1.0):
        with pytest.raises(AccuracyError, match="no sign change"):
            root(f)


def test_find_root_takes_the_end_values_it_is_given():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.25

    assert _find_root(f, 0.0, 1.0, -0.25, 0.75) == pytest.approx(0.25, abs=1e-12)
    assert seen and 0.0 not in seen and 1.0 not in seen


MONOTONE = {
    "linear": lambda d: d,
    "cube": lambda d: d**3,
    "square root": lambda d: math.copysign(math.sqrt(abs(d)), d),
    "arctan": lambda d: math.atan(1e6 * d),
    "step": lambda d: math.copysign(1.0, d) if d else 0.0,
}


def watched(shape, root, sign):
    """A monotone ``f`` with its zero at ``root``, increasing for ``sign = 1``, that records its values and
    asserts every point it is called at lies strictly inside the tightest bracket of the points before it,
    which it tracks."""
    bracket, values = [], {}  # bracket: [below, above], the last points where sign * f < 0 and > 0

    def f(x):
        if bracket:
            assert bracket[0] < x < bracket[1] or bracket[1] < x < bracket[0], (x, bracket)
        values[x] = value = sign * MONOTONE[shape](x - root)
        if bracket and value:
            bracket[value * sign > 0.0] = x
        return value

    return f, bracket, values


@given(
    st.sampled_from(sorted(MONOTONE)),
    st.floats(-6.0, 12.0),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2.0).map(lambda e: 10.0**e)),
    st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, 18.0).map(lambda e: 10.0**e)),
    st.booleans(),
)
@example("linear", 0.0, 1.0, 1e-13, 5.0, False)
@example("linear", -6.0, 1.0, 1.0, 1e17, False)
@example("step", 9.0, -1.0, 0.5, 2.0, True)
@example("arctan", -3.0, 1.0, 1.0, 0.1, False)
def test_find_root_ends_on_a_narrow_bracket_with_a_sign_change(shape, exponent, sign, near, far, flip):
    """Roots from 1e-6 to 1e12, brackets up to 100 times the root wide on the near side and 1e18 times on
    the far one, and near ends as close as a tenth of :func:`_bracket_width` (``near`` scales the near
    end's distance by it). The result is a zero, or an end of a final bracket with a sign change at most
    that width wide, every trial point lay strictly inside the bracket of the points before it, and so the
    two given ends were never evaluated again. At ``(linear, 1e-6, 1e17)`` the clamped ``t = 1 - l`` rounds
    to 1 and ``a + t (b - a)`` to 0, below the bracket: only the move to the midpoint keeps it inside."""
    root = 10.0**exponent
    near_gap = max(near * _chisq._bracket_width(root), 2.0 * math.ulp(root))
    lo, hi = root - near_gap, root + far * root
    if flip:
        lo, hi = root - far * root, root + near_gap
    f, bracket, values = watched(shape, root, sign)
    f_lo, f_hi = f(lo), f(hi)
    bracket[:] = (lo, hi) if sign * f_hi > 0.0 else (hi, lo)
    x = _find_root(f, lo, hi, f_lo, f_hi)
    if values[x] != 0.0:
        below, above = bracket
        assert x in bracket and sign * values[below] < 0.0 < sign * values[above]
        assert abs(above - below) <= _chisq._bracket_width(x)


def test_find_root_raises_on_a_nan_at_a_trial_point():
    """A NaN is neither sign: the root finder stops at the first one, and calls ``f`` no further."""
    for first_nan in (1, 2, 5):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if len(calls) == first_nan else -1.0 if x < 0.3 else 1.0

        with pytest.raises(AccuracyError, match="NaN"):
            _find_root(f, 0.0, 1.0, -1.0, 1.0)
        assert len(calls) == first_nan


def test_find_root_raises_after_200_steps():
    """On a step function only bisection is taken, and 200 halvings leave ``[0, 2**300]`` 2**100 wide."""
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 else 1.0

    with pytest.raises(AccuracyError, match="did not converge") as raised:
        _find_root(step, 0.0, 2.0**300, -1.0, 1.0)
    assert len(calls) == 200 and raised.value.estimate > 0.0


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
