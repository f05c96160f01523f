"""Oracle quantities against hand-solved instances and algebraic identities.

The two-coordinate instances admit closed forms: with lam=(1,1), delta=1,
mu=(2,0) the weak balance equation 4*(1-sqrt(t))**2 = t has root t=4/9,
and the proxy equation 4*(1-sqrt(t))**2 - t = kappa - 2 at kappa=2.5
gives sqrt(t) = (8-sqrt(22))/6, i.e. t = (43-8*sqrt(22))/18.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop.estimator import FunctionalProfile, strong_bias_sq, weak_bias_sq
from svdstop.model import NoiseModel, Signal, Spectrum, make_polynomial_spectrum
from svdstop.oracles import oracle_set, theory_bounds
from svdstop.stopping import StoppingConfig

from claims import strong_variance, weak_variance

FLAT2 = Spectrum(np.array([1.0, 1.0]))
UNIT = NoiseModel(delta=1.0)


def oracles(sig, spec=FLAT2, noise=UNIT, kappa=None, m0=0):
    """``oracle_set`` at the default threshold ``D * delta**2`` unless ``kappa`` is given."""
    if kappa is None:
        kappa = spec.dim * noise.delta**2
    return oracle_set(sig, spec, noise, StoppingConfig(kappa, m0))


def random_instance(seed, max_dim=60):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, max_dim))
    lam = np.sort(rng.uniform(0.05, 2.0, d))[::-1]
    mu = rng.standard_normal(d) * rng.uniform(0.0, 3.0)
    delta = float(rng.uniform(0.05, 1.5))
    return Signal(mu), Spectrum(lam), NoiseModel(delta=delta)


def test_weak_time_hand_root():
    t = oracles(Signal(np.array([2.0, 0.0]))).weak_time
    assert t == pytest.approx(4.0 / 9.0, abs=1e-9)


def test_proxy_hand_root():
    t = oracles(Signal(np.array([2.0, 0.0])), kappa=2.5).proxy_time
    assert t == pytest.approx((43.0 - 8.0 * math.sqrt(22.0)) / 18.0, abs=1e-9)


def test_proxy_boundary_cases():
    sig = Signal(np.array([2.0, 0.0]))
    # huge threshold: the condition holds at m0 already
    assert oracles(sig, kappa=50.0, m0=0).proxy_time == 0.0
    assert oracles(sig, kappa=50.0, m0=1).proxy_time == 1.0


def test_strongly_balanced_examples():
    assert oracles(Signal(np.zeros(3)), make_polynomial_spectrum(3, 1.0)).balanced_discrete == 0
    assert oracles(Signal(np.array([2.0, 2.0]))).balanced_discrete == 2
    spike = Signal(np.array([5.0, 0.0, 0.0]))
    assert oracles(spike, make_polynomial_spectrum(3, 0.0)).balanced_discrete == 1


def test_classical_oracle_examples():
    # on a flat unit spectrum the strong and weak risks coincide
    os = oracles(Signal(np.array([2.0, 2.0])))
    assert (os.classical_index, os.classical_risk) == (2, pytest.approx(2.0))
    assert (os.classical_weak_index, os.classical_weak_risk) == (2, pytest.approx(2.0))
    os = oracles(Signal(np.zeros(4)), make_polynomial_spectrum(4, 0.5))
    assert (os.classical_index, os.classical_risk) == (0, 0.0)
    assert (os.classical_weak_index, os.classical_weak_risk) == (0, 0.0)


def test_classical_weak_oracle_differs_from_strong():
    # lam=(1, 0.1), mu=(0, 12): strong risks 144, 145, 101 and weak risks 1.44, 2.44, 2
    os = oracles(Signal(np.array([0.0, 12.0])), Spectrum(np.array([1.0, 0.1])))
    assert (os.classical_index, os.classical_risk) == (2, pytest.approx(101.0))
    assert (os.classical_weak_index, os.classical_weak_risk) == (0, pytest.approx(1.44))


def test_classical_oracle_breaks_ties_small():
    # mu=(1,0): risks are 1, 1, 2 in both norms -> index 0 wins the tie with index 1
    os = oracles(Signal(np.array([1.0, 0.0])))
    assert (os.classical_index, os.classical_weak_index) == (0, 0)
    assert os.classical_risk == pytest.approx(1.0)
    assert os.classical_weak_risk == pytest.approx(1.0)


def test_weak_dev_rhs_hand_value():
    d = 100
    spec = make_polynomial_spectrum(d, 0.0)
    tb = theory_bounds(Signal(np.zeros(d)), spec, UNIT, StoppingConfig(100.0, 10))
    assert tb.weak_dev_rhs == pytest.approx(234.0)


def test_zero_signal_discretization_term():
    d = 50
    spec = make_polynomial_spectrum(d, 0.5)
    noise = NoiseModel(delta=0.2)
    tb = theory_bounds(Signal(np.zeros(d)), spec, noise, StoppingConfig(d * 0.04))
    assert tb.discretization_err == pytest.approx(
        4.0 * 0.2 * (math.sqrt(math.log(math.sqrt(2.0) * d)) + 1.0)
    )


def test_theory_bounds_requires_noise():
    """The bounds divide by ``delta**2``, which is zero for a positive delta below about 1.6e-162 too."""
    for delta in (0.0, 1e-170):
        with pytest.raises(ValueError, match="^delta, the noise level"):
            theory_bounds(Signal(np.zeros(3)), make_polynomial_spectrum(3, 0.5), NoiseModel(delta), StoppingConfig(1.0))


def test_theory_bounds_are_infinite_where_kappa_over_delta_squared_overflows():
    """``kappa / delta**2`` is inf at delta = 1e-155 and kappa = 1; so are the two strong bounds that grow with it."""
    spec = make_polynomial_spectrum(100, 0.5)
    tb = theory_bounds(Signal(spec.values), spec, NoiseModel(1e-155), StoppingConfig(1.0))
    assert tb.strong_bias_rhs == tb.strong_oracle_rhs == math.inf
    assert all(math.isfinite(v) for v in (tb.discretization_err, tb.weak_dev_rhs, tb.stochastic_factor))


@pytest.mark.parametrize("kappa, m0", [(1.0, -1), (1.0, 4), (-0.5, 0), (math.inf, 0), (math.nan, 0)])
@pytest.mark.parametrize("evaluate", [oracle_set, theory_bounds])
def test_start_outside_the_instance_or_negative_threshold_raises(evaluate, kappa, m0):
    """A start past the dimension raises in the function. A negative start, or a threshold that is
    negative or not finite, raises in ``StoppingConfig`` and so never reaches it."""
    with pytest.raises(ValueError, match="exceeds dimension 3" if m0 > 3 else "^(kappa|m0), the"):
        evaluate(Signal(np.array([1.0, 0.5, 0.0])), make_polynomial_spectrum(3, 0.5), UNIT, StoppingConfig(kappa, m0))


@given(st.integers(0, 10_000))
def test_kappa_identity(seed):
    sig, spec, noise = random_instance(seed)
    d = spec.dim
    os = oracle_set(sig, spec, noise, StoppingConfig(d * noise.delta**2))
    assert os.proxy_time == os.weak_time  # shared root-finder, so the match is exact


@given(st.integers(0, 10_000), st.floats(0.0, 3.0))
def test_ordering_chain(seed, kappa_scale):
    sig, spec, noise = random_instance(seed)
    d = spec.dim
    kappa = kappa_scale * d * noise.delta**2
    os = oracle_set(sig, spec, noise, StoppingConfig(kappa))
    tw, ts, tstar = os.weak_time, os.strong_time, os.proxy_time
    slack = max(d - kappa / noise.delta**2, 0.0)
    assert tstar - slack <= tw + 1e-9
    assert tw <= ts + 1e-9


@given(st.integers(0, 10_000), st.floats(0.0, 3.0))
def test_proxy_weak_transfer(seed, kappa_scale):
    """Bias and variance at the proxy level stay within the kappa offset."""
    sig, spec, noise = random_instance(seed)
    d = spec.dim
    d2 = noise.delta**2
    kappa = kappa_scale * d * d2
    os = oracle_set(sig, spec, noise, StoppingConfig(kappa))
    tw, tstar = os.weak_time, os.proxy_time
    bias_gap = weak_bias_sq(sig, spec, tstar) - weak_bias_sq(sig, spec, tw)
    var_gap = weak_variance(noise, tstar) - weak_variance(noise, tw)
    assert max(bias_gap, 0.0) <= max(kappa - d * d2, 0.0) + 1e-7
    assert max(var_gap, 0.0) <= max(d * d2 - kappa, 0.0) + 1e-7


@given(st.integers(0, 10_000))
def test_flat_spectrum_collapses_norms(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 40))
    spec = make_polynomial_spectrum(d, 0.0)
    sig = Signal(rng.standard_normal(d) * 2.0)
    noise = NoiseModel(delta=float(rng.uniform(0.1, 1.0)))
    os = oracles(sig, spec, noise)
    assert os.weak_time == pytest.approx(os.strong_time, abs=1e-9)


@given(st.integers(0, 10_000))
def test_balanced_risk_vs_classical(seed):
    """V at the strongly balanced level is at most twice the classical risk."""
    sig, spec, noise = random_instance(seed)
    os = oracles(sig, spec, noise)
    assert strong_variance(spec, noise, os.strong_time) <= 2.0 * os.classical_risk + 1e-9


@given(st.integers(0, 10_000), st.integers(0, 20))
def test_levels_respect_m0(seed, m0):
    sig, spec, noise = random_instance(seed)
    m0 = min(m0, spec.dim)
    os = oracle_set(sig, spec, noise, StoppingConfig(spec.dim * noise.delta**2, m0))
    assert m0 <= os.weak_time <= os.strong_time <= spec.dim
    assert m0 <= os.proxy_time <= spec.dim


def _first_index(values, tol):
    """Brute-force first integer level with ``values[m] <= 0``, up to ``tol`` either way."""
    hits = [m for m, v in enumerate(values) if v <= tol]
    sure = [m for m, v in enumerate(values) if v <= -tol]
    return hits[0], (sure[0] if sure else len(values) - 1)


def _check_first_level(level, value_at, m0, tol):
    """``level`` is where the non-increasing ``value_at`` first drops to zero from ``m0`` on."""
    assert value_at(level) <= tol
    if level > m0:
        # the level is the exact root of its interval's quadratic, so the sign
        # change lies within a relative 1e-11 below it
        assert value_at(max(level - 1e-11 * max(1.0, level), float(m0))) >= -tol


def _check_argmin(index, risk, risks, tol):
    """``index`` is the smallest minimiser of ``risks`` and ``risk`` its value, up to ``tol``."""
    assert risk == pytest.approx(risks[index], rel=1e-12, abs=tol)
    assert risk <= min(risks) + tol
    assert all(r >= risk - tol for r in risks[:index])


@given(st.integers(0, 10_000), st.integers(0, 20), st.floats(0.0, 2.0))
def test_oracle_set_consistency(seed, m0, kappa_scale):
    """Every field against its definition, evaluated with the free estimator functions."""
    sig, spec, noise = random_instance(seed)
    d = spec.dim
    d2 = noise.delta**2
    m0 = min(m0, d)
    kappa = kappa_scale * d * d2
    os = oracle_set(sig, spec, noise, StoppingConfig(kappa, m0))
    grid = range(d + 1)

    strong_bias = np.array([strong_bias_sq(sig, float(m)) for m in grid])
    strong_var = np.array([strong_variance(spec, noise, float(m)) for m in grid])
    weak_bias = np.array([weak_bias_sq(sig, spec, float(m)) for m in grid])
    weak_var = np.array([weak_variance(noise, float(m)) for m in grid])
    tol = 1e-9 * (strong_bias[0] + strong_var[-1] + kappa + d * d2)

    first, last = _first_index(strong_bias - strong_var, tol)
    assert first <= os.balanced_discrete <= last

    _check_first_level(
        os.strong_time, lambda t: strong_bias_sq(sig, t) - strong_variance(spec, noise, t), m0, tol
    )
    _check_first_level(os.weak_time, lambda t: weak_bias_sq(sig, spec, t) - weak_variance(noise, t), m0, tol)
    offset = kappa - d * d2
    _check_first_level(
        os.proxy_time, lambda t: weak_bias_sq(sig, spec, t) - weak_variance(noise, t) - offset, m0, tol
    )

    _check_argmin(os.classical_index, os.classical_risk, strong_bias + strong_var, tol)
    _check_argmin(os.classical_weak_index, os.classical_weak_risk, weak_bias + weak_var, tol)
    assert os.kappa == kappa
    assert os.m0 == m0


@given(st.integers(0, 10_000), st.integers(0, 20), st.floats(0.0, 2.0), st.booleans(), st.booleans())
def test_levels_are_roots_to_rounding(seed, m0, kappa_scale, sparse, noiseless):
    """The three continuous levels are first zeros of their gaps up to rounding.

    Also with ``delta = 0`` and with exact zero coefficients, where a gap
    is flat on whole intervals.
    """
    sig, spec, noise = random_instance(seed)
    d = spec.dim
    if sparse:
        mu = sig.coefficients.copy()
        mu[np.random.default_rng(seed).random(d) < 0.5] = 0.0
        sig = Signal(mu)
    if noiseless:
        noise = NoiseModel(delta=0.0)
    d2 = noise.delta**2
    m0 = min(m0, d)
    kappa = kappa_scale * d * (d2 or 0.1)
    os = oracle_set(sig, spec, noise, StoppingConfig(kappa, m0))

    def strong_gap(t):
        return strong_bias_sq(sig, t) - strong_variance(spec, noise, t)

    def weak_gap(t):
        return weak_bias_sq(sig, spec, t) - weak_variance(noise, t)

    scale = kappa + d * d2
    strong_tol = 1e-12 * (strong_bias_sq(sig, 0.0) + strong_variance(spec, noise, float(d)) + scale)
    weak_tol = 1e-12 * (weak_bias_sq(sig, spec, 0.0) + weak_variance(noise, float(d)) + scale)
    offset = kappa - d * d2
    _check_first_level(os.strong_time, strong_gap, m0, strong_tol)
    _check_first_level(os.weak_time, weak_gap, m0, weak_tol)
    _check_first_level(os.proxy_time, lambda t: weak_gap(t) - offset, m0, weak_tol)


@given(st.integers(0, 10_000), st.floats(0.0, 2.0), st.floats(0.1, 3.0))
def test_polynomial_variance_envelope(seed, p, tmax_scale):
    """lam_{k+1}**-2 * t * delta**2 <= (1+2p) * 2**(2p+1) * V_t for lam_i = i**-p."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 80))
    spec = make_polynomial_spectrum(d, p)
    noise = NoiseModel(delta=float(rng.uniform(0.1, 1.0)))
    t = min(tmax_scale * d, float(d))
    k, _ = np.floor(t), t - np.floor(t)
    idx = min(int(k), d - 1)
    lhs = spec.values[idx] ** -2.0 * t * noise.delta**2
    rhs = (1.0 + 2.0 * p) * 2.0 ** (2.0 * p + 1.0) * strong_variance(spec, noise, t)
    assert lhs <= rhs * (1.0 + 1e-9)


@given(st.integers(0, 10_000))
def test_theory_bounds_finite_nonnegative(seed):
    sig, spec, noise = random_instance(seed)
    tb = theory_bounds(sig, spec, noise, StoppingConfig(spec.dim * noise.delta**2))
    for value in (
        tb.discretization_err,
        tb.weak_dev_rhs,
        tb.strong_bias_rhs,
        tb.stochastic_factor,
        tb.strong_oracle_rhs,
    ):
        assert math.isfinite(value) and value >= 0.0


def test_stochastic_factor_cap_is_inverse_spectrum_mass():
    # zero signal at the default threshold puts the proxy level at zero, where
    # the Gaussian-kernel sum overshoots the exact total inverse-spectrum mass
    d = 30
    spec = make_polynomial_spectrum(d, 1.0)
    sig = Signal(np.zeros(d))
    tb = theory_bounds(sig, spec, UNIT, StoppingConfig(float(d)))
    assert tb.stochastic_factor == pytest.approx(float(np.sum(spec.values**-2.0)))


@given(st.integers(0, 10_000))
def test_profile_reuse_matches_scalar_calls(seed):
    sig, spec, noise = random_instance(seed, max_dim=30)
    prof = FunctionalProfile(sig, spec, noise)
    weak_risks = prof.int_weak_bias_sq + prof.int_weak_variance
    for m in range(spec.dim + 1):
        expected = weak_bias_sq(sig, spec, float(m)) + m * noise.delta**2
        assert weak_risks[m] == pytest.approx(expected, abs=1e-10)
