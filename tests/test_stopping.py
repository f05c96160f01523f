"""The residual stopping rule over coefficient blocks, AIC selection and the two-step rule."""

import itertools
import math
import operator
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop import harness, stopping
from svdstop.estimator import _prefix_sums
from svdstop.model import Observation, make_polynomial_spectrum, replication_seed, simulate_observation
from svdstop.stopping import (
    M0_MODES,
    StopOutcome,
    StoppingConfig,
    TruncatedStreamError,
    aic_select,
    default_threshold,
    make_stopping_config,
    normal_quantile_start,
    residual_rule,
    stop_index,
    two_step,
)

Y3 = np.array([2.0, 1.0, 0.5])
OBS3 = Observation(y=Y3, delta=1.0)
LAM3 = np.array([1.0, 0.5, 0.25])


def observations(max_dim=40):
    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_dim))
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(d) * draw(st.floats(0.1, 4.0))
        kappa = draw(st.floats(0.0, 2.0)) * float(np.sum(y**2)) + draw(st.floats(0.0, 1.0))
        m0 = draw(st.integers(0, d))
        obs = Observation(y=y, delta=1.0)
        return obs, StoppingConfig(kappa=kappa, m0=m0)

    return build()


def plain_stop(obs, config):
    """The record of a plain stop, built as the CLI builds it."""
    return StopOutcome(tau=stop_index(obs.y, obs.y_norm_sq, config), rho=None, m0=config.m0)


def test_hand_example_stops_at_two():
    out = plain_stop(OBS3, StoppingConfig(kappa=1.0))
    # residuals after 0,1,2 coefficients: 5.25, 1.25, 0.25
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert not out.immediate_stop
    assert out.rho is None


def test_generous_threshold_stops_before_reading():
    out = plain_stop(OBS3, StoppingConfig(kappa=10.0))
    assert out.tau == 0
    assert out.coefficients_consumed == 0
    assert out.immediate_stop


def test_start_index_is_binding():
    out = plain_stop(OBS3, StoppingConfig(kappa=10.0, m0=2))
    assert out.tau == 2
    assert out.coefficients_consumed == 2
    assert out.immediate_stop


def test_threshold_never_met_runs_to_dimension():
    out = plain_stop(OBS3, StoppingConfig(kappa=0.1))
    assert out.tau == 3
    assert not out.immediate_stop


def loop_tau(y, y_norm_sq, config):
    """The rule as a plain scalar loop: the reference for every blocking of the data."""
    if config.m0 == 0 and y_norm_sq <= config.kappa:
        return 0
    running = 0.0
    for m, value in enumerate(y, start=1):
        running += float(value) * float(value)
        if m >= config.m0 and (y_norm_sq - running <= config.kappa or m == len(y)):
            return m


def singletons(y, pulled):
    """One-coefficient blocks of ``y``, counting in ``pulled`` how many were taken."""
    for value in y:
        pulled.append(value)
        yield [value]


def test_truncated_stream_raises():
    with pytest.raises(TruncatedStreamError):
        residual_rule([np.array([2.0])], y_norm_sq=5.25, dim=3, config=StoppingConfig(kappa=0.0))


@given(observations(), st.lists(st.integers(0, 40), max_size=6))
def test_stop_index_matches_streaming_rule(case, cuts):
    """One block, one-coefficient blocks and random splits give the same index."""
    obs, config = case
    tau = stop_index(obs.y, obs.y_norm_sq, config)
    assert tau == loop_tau(obs.y, obs.y_norm_sq, config)
    assert config.m0 <= tau <= obs.y.size
    assert residual_rule(singletons(obs.y, []), obs.y_norm_sq, obs.dim, config) == tau
    split = np.split(obs.y, sorted(c for c in cuts if c <= obs.dim))
    assert residual_rule(iter(split), obs.y_norm_sq, obs.dim, config) == tau


def exact_residuals(y, y_norm_sq):
    """``y_norm_sq - sum_{i<=m} Y_i**2`` for ``m = 0..D`` in exact arithmetic, scaled by ``2**-base``.

    Every float is ``M * 2**e`` with an integer mantissa ``M`` (``np.frexp``).
    The squares and the norm are scaled by the smallest of their
    exponents, so each of them and every sum is a Python integer. Returns
    the residuals, ``ulp(y_norm_sq)`` on the same scale, and ``base``.
    """
    mant, exp = np.frexp(np.append(y, y_norm_sq))
    mant = (mant * 2.0**53).astype(np.int64).tolist()
    exp = exp.astype(np.int64) - 53
    scales = np.append(2 * exp[:-1], exp[-1])
    base = int(scales[np.nonzero(mant)[0]].min())
    shifts = (scales - base).tolist()
    squares = (m * m << sh for m, sh in zip(mant[:-1], shifts[:-1]))
    norm = mant[-1] << shifts[-1]
    residuals = [norm - total for total in itertools.accumulate(squares, initial=0)]
    return residuals, 1 << (int(exp[-1]) - base), base


def check_against_exact(y, y_norm_sq, config, exact=None):
    """The rule's index against the exact one: equal, or one apart with the residual between within 4 ulps of |Y|^2."""
    tau = stop_index(y, y_norm_sq, config)
    residuals, ulp, base = exact or exact_residuals(y, y_norm_sq)
    kappa = Fraction(config.kappa) / Fraction(2) ** base
    if config.m0 == 0 and residuals[0] <= kappa:
        first = 0
    else:
        # the exact residuals never increase, so the first one at or below kappa is a bisection away
        first = min(bisect_left(residuals, -kappa, lo=max(config.m0, 1), key=operator.neg), y.size)
    assert tau == first or (abs(tau - first) == 1 and abs(residuals[min(tau, first)] - kappa) <= 4 * ulp), (tau, first)
    return tau


def test_blocks_carry_the_sum_exactly_at_the_threshold():
    """A threshold equal to a running residual is met at the same index by every blocking, and the exact one."""
    y = np.random.default_rng(3).standard_normal(1000) * np.geomspace(1e3, 1e-3, 1000)
    y_norm_sq = float(np.dot(y, y))
    running = np.cumsum(y * y)
    exact = exact_residuals(y, y_norm_sq)
    residuals, _, base = exact
    for m in range(100, 1000, 37):
        # the float running residual, and the exact residual rounded to a float
        for kappa in (y_norm_sq - running[m - 1], math.ldexp(float(residuals[m]), base)):
            config = StoppingConfig(kappa=kappa)
            tau = check_against_exact(y, y_norm_sq, config, exact)
            assert residual_rule(singletons(y, []), y_norm_sq, y.size, config) == tau
            assert residual_rule(np.array_split(y, 7), y_norm_sq, y.size, config) == tau


def test_rule_matches_exact_residuals_at_a_million():
    """At D = 10**6: a typical stop, a norm 10**12 times kappa, and kappa within a few ulps of a residual."""
    dim, delta = 10**6, 1e-3
    index = np.arange(1.0, dim + 1.0)
    noise = delta * np.random.default_rng(11).standard_normal(dim)
    kappa = dim * delta**2
    loud = 1e6 * index**-2.0 + noise
    loud_norm_sq = float(np.dot(loud, loud))
    assert 1e12 < loud_norm_sq / kappa < 2e12
    # a plain float running sum stalls here: each late square is below half an ulp of the sum
    loud_exact = exact_residuals(loud, loud_norm_sq)
    loud_tau = check_against_exact(loud, loud_norm_sq, StoppingConfig(kappa=kappa), loud_exact)
    assert 1_000 < loud_tau < 100_000
    # thresholds 1e-10 (relative) either side of a residual, under 1e-6 ulps of |Y|^2 here: the
    # index is exact, which needs the exact parts of the squares, and so is a 1000-way split
    residuals, _, base = loud_exact
    for m in (loud_tau - 1, loud_tau, loud_tau + 40):
        on = math.ldexp(float(residuals[m]), base)
        for value, expected in ((on * (1.0 + 1e-10), m), (on * (1.0 - 1e-10), m + 1)):
            config = StoppingConfig(kappa=value)
            assert stop_index(loud, loud_norm_sq, config) == expected
            assert residual_rule(np.array_split(loud, 1000), loud_norm_sq, dim, config) == expected
    typical = 10.0 * index**-1.0 + noise
    y_norm_sq = float(np.dot(typical, typical))
    exact = exact_residuals(typical, y_norm_sq)
    residuals, _, base = exact
    tau = check_against_exact(typical, y_norm_sq, StoppingConfig(kappa=kappa), exact)
    assert 1_000 < tau < 100_000
    on_residual = math.ldexp(float(residuals[tau]), base)
    near = [on_residual]
    for direction in (-math.inf, math.inf):
        value = on_residual
        for _ in range(3):
            value = float(np.nextafter(value, direction))
            near.append(value)
    for value in near:
        assert check_against_exact(typical, y_norm_sq, StoppingConfig(kappa=value), exact) in (tau, tau + 1)


def exact_rule(blocks, y_norm_sq, dim, config):
    """The always-exact rule: the exact test on every block, as the rule ran before it screened its blocks."""
    if config.m0 == 0 and y_norm_sq <= config.kappa:
        return 0
    start = max(config.m0, 1)
    read = 0
    total, error = 0.0, 0.0
    for block in blocks:
        values = np.asarray(block, dtype=float)[: dim - read]
        squares = np.square(values)
        sums = squares.copy()
        sums[:1] += total
        np.cumsum(sums, out=sums)
        errors = exact_errors(values, squares, sums, total, error)
        first = max(start - read - 1, 0)
        hits = np.nonzero(y_norm_sq - sums[first:] - errors[first:] <= config.kappa)[0]
        if hits.size:
            return read + first + int(hits[0]) + 1
        read += sums.size
        if read == dim:
            return dim
        if sums.size:
            total, error = sums[-1], errors[-1]
    raise TruncatedStreamError(f"coefficients ended after {read} of {dim}")


def exact_errors(values, squares, sums, total, error):
    """The exact rounding error of the running float sum of squares: Dekker's product plus Knuth's two-sum."""
    scaled = 134217729.0 * values
    top = scaled - (scaled - values)
    low = values - top
    lo = ((top * top - squares) + 2.0 * top * low) + low * low
    previous = np.concatenate(([total], sums[:-1]))
    back = sums - previous
    lo += (previous - (sums - back)) + (squares - back)
    lo[:1] += error
    return np.cumsum(lo, out=lo)


def exact_decisions(y, y_norm_sq):
    """``fl(r_m - e_m)`` for ``m = 1..D``, which the exact test compares with ``kappa``."""
    squares = np.square(y)
    sums = np.cumsum(squares)
    return y_norm_sq - sums - exact_errors(y, squares, sums, 0.0, 0.0)


@pytest.fixture
def exact_runs(monkeypatch):
    """Counts the calls of the exact test's error sums, which run only where the screen cannot decide."""
    calls = []
    original = stopping._sum_errors

    def counted(*args):
        calls.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(stopping, "_sum_errors", counted)
    return calls


def splits(y, cuts):
    """``y`` cut at the sorted ``cuts``, repeats giving empty blocks."""
    return np.split(y, sorted(min(c, y.size) for c in cuts))


@st.composite
def boundary_cases(draw):
    """Data of very different scales, a start anywhere, and ``kappa`` at, near or away from a decision boundary."""
    d = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y = rng.standard_normal(d) * draw(st.sampled_from([1e-160, 1e-3, 1.0, 1e150]))
    y *= np.geomspace(1.0, draw(st.sampled_from([1.0, 1e-4, 1e-12])), d)
    y_norm_sq = float(np.dot(y, y)) * draw(st.sampled_from([1.0, 1.0 + 2**-40, 1.0 - 2**-40]))
    decisions = exact_decisions(y, y_norm_sq)
    target = draw(st.integers(0, d - 1))
    kappa = max(float(decisions[target]), 0.0)
    if draw(st.booleans()):
        kappa *= draw(st.floats(0.0, 2.0))
    direction = draw(st.sampled_from([-math.inf, math.inf]))
    for _ in range(draw(st.integers(0, 3))):
        kappa = float(np.nextafter(kappa, direction))
    config = StoppingConfig(kappa=max(kappa, 0.0), m0=draw(st.integers(0, d)))
    return y, y_norm_sq, config, draw(st.lists(st.integers(0, d), max_size=6))


@given(boundary_cases())
def test_screen_returns_the_exact_index(case):
    """One block, one-coefficient blocks (the lazy solver's feed) and random splits with empty blocks."""
    y, y_norm_sq, config, cuts = case
    expected = exact_rule([y], y_norm_sq, y.size, config)
    assert residual_rule([y], y_norm_sq, y.size, config) == expected
    assert residual_rule(singletons(y, []), y_norm_sq, y.size, config) == expected
    assert residual_rule(splits(y, cuts), y_norm_sq, y.size, config) == expected
    assert stop_index(y, y_norm_sq, config) == expected


def test_hand_example_is_decided_by_the_screen(exact_runs):
    assert stop_index(OBS3.y, OBS3.y_norm_sq, StoppingConfig(kappa=1.0)) == 2
    assert residual_rule(singletons(OBS3.y, []), OBS3.y_norm_sq, 3, StoppingConfig(kappa=1.0, m0=1)) == 2
    assert exact_runs == []


@pytest.mark.parametrize("from_index", [False, True])  # start at 0, or at the index (then inside a later block)
@pytest.mark.parametrize("index", [5, 300, 1500])
def test_threshold_on_the_decision_boundary_runs_the_exact_test(exact_runs, index, from_index):
    """``kappa`` at the exact test's value of an index, and up to 3 ulps either side: it stops there exactly
    from the boundary up, and later below it; the screen's margin holds all of them, so the exact test ran."""
    y = np.random.default_rng(5).standard_normal(2000)
    y_norm_sq = float(np.dot(y, y))
    on = float(exact_decisions(y, y_norm_sq)[index - 1])
    m0 = index if from_index else 0
    for ulps in range(-3, 4):
        kappa = on
        for _ in range(abs(ulps)):
            kappa = float(np.nextafter(kappa, math.copysign(math.inf, ulps)))
        config = StoppingConfig(kappa=kappa, m0=m0)
        expected = exact_rule([y], y_norm_sq, y.size, config)
        assert (expected == index) == (ulps >= 0), (ulps, expected)
        del exact_runs[:]
        assert stop_index(y, y_norm_sq, config) == expected
        assert exact_runs, ulps
        assert residual_rule(np.array_split(y, 9), y_norm_sq, y.size, config) == expected
        assert residual_rule(singletons(y[: expected + 1], []), y_norm_sq, y.size, config) == expected


def test_zero_threshold_on_an_exactly_spent_norm_runs_the_exact_test(exact_runs):
    y = np.array([1.0, 2.0, 0.0, 0.0])
    assert stop_index(y, 5.0, StoppingConfig(kappa=0.0)) == exact_rule([y], 5.0, 4, StoppingConfig(kappa=0.0)) == 2
    assert exact_runs
    del exact_runs[:]
    assert stop_index(y, 5.5, StoppingConfig(kappa=0.0)) == 4
    assert exact_runs == []


@pytest.mark.parametrize("y_norm_sq", [math.inf, math.nan])
def test_nonfinite_norm_runs_the_exact_test_to_the_end(exact_runs, y_norm_sq):
    y = np.random.default_rng(1).standard_normal(50)
    config = StoppingConfig(kappa=1.0)
    assert stop_index(y, y_norm_sq, config) == exact_rule([y], y_norm_sq, 50, config) == 50
    assert exact_runs


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_coefficients(exact_runs, bad):
    """A non-finite coefficient in a block sends it to the exact test, and one past the stop in a later block
    is never read. The exact test's split of an infinity is ``inf - inf``, which numpy flags as it always did."""
    y = np.array([3.0, 1.0, 1.0, 1.0, 0.5, 0.25])
    config = StoppingConfig(kappa=1.5)
    assert stop_index(y, 12.3125, config) == exact_rule([y], 12.3125, 6, config) == 3
    assert exact_runs == []
    for where, tau in ((4, 3), (1, 6)):
        data = y.copy()
        data[where] = bad
        with np.errstate(invalid="ignore" if math.isinf(bad) else "warn"):
            assert stop_index(data, 12.3125, config) == exact_rule([data], 12.3125, 6, config) == tau
        assert exact_runs
        del exact_runs[:]
    data[1], data[4] = 1.0, bad
    assert residual_rule(singletons(data, []), 12.3125, 6, config) == 3
    assert exact_runs == []


@pytest.mark.parametrize("scale", [2.0**-1074, 1e-310, 2.0**-535, 2.0**-520, 2.0**-480])
def test_subnormal_and_underflowing_squares(scale):
    """Squares at and below the point where the split's products underflow. ``kappa`` is 0, a few subnormals,
    or the exact test's value at an index, which differs from the float residual by a few subnormals."""
    y = scale * np.random.default_rng(0).standard_normal(40)
    y_norm_sq = float(np.dot(y, y)) + 5e-324
    decisions = np.maximum(exact_decisions(y, y_norm_sq), 0.0)
    for kappa in (0.0, 5e-324, 40 * 5e-324, *decisions[::3]):
        for m0 in (0, 1):
            config = StoppingConfig(kappa=float(kappa), m0=m0)
            expected = exact_rule([y], y_norm_sq, y.size, config)
            assert stop_index(y, y_norm_sq, config) == expected
            assert residual_rule(singletons(y, []), y_norm_sq, y.size, config) == expected


def test_rule_matches_the_exact_test_on_the_wide_benchmark_instance():
    """D = 10**5, the rough signal and the default kappa, as the wide Monte Carlo workload runs them:
    the rule and the exact test read the same norm, so they agree at any BLAS thread count."""
    mapping = {
        "dim": 100_000,
        "spectrum": {"p": 0.5},
        "noise": {"delta": 0.01},
        "signal": {"name": "rough"},
        "stopping": {"m0_mode": "normal_quantile"},
    }
    exp = harness.resolve_experiment(harness.config_from_mapping(mapping))
    for rep in range(20):
        obs = simulate_observation(exp.image, exp.noise, replication_seed(42, rep))
        tau = stop_index(obs.y, obs.y_norm_sq, exp.stopping)
        assert tau == exact_rule([obs.y], obs.y_norm_sq, obs.dim, exp.stopping)
        assert exp.stopping.m0 < tau < obs.dim


@given(observations())
def test_rule_reads_exactly_tau_coefficients(case):
    obs, config = case
    pulled = []
    tau = residual_rule(singletons(obs.y, pulled), obs.y_norm_sq, obs.dim, config)
    assert len(pulled) == tau
    assert plain_stop(obs, config).coefficients_consumed == tau


@given(observations())
def test_decision_is_measurable_in_prefix(case):
    """Rewriting coefficients past tau, keeping the norm, cannot change tau."""
    obs, config = case
    tau = stop_index(obs.y, obs.y_norm_sq, config)
    if tau >= obs.y.size:
        return
    y2 = obs.y.copy()
    tail = y2[tau:]
    # reflect the tail: same energy, different values
    y2[tau:] = tail[::-1] * np.where(np.arange(tail.size) % 2 == 0, 1.0, -1.0)
    assert stop_index(y2, obs.y_norm_sq, config) == tau


def test_aic_hand_example_prefers_first_coefficient():
    y, lam = np.array([2.0, 0.1]), np.array([1.0, 0.5])
    assert aic_select(y, lam, 1.0, m0=2, norm="weak") == 1
    assert aic_select(y, lam, 1.0, m0=2, norm="strong") == 1


def test_aic_zero_noise_keeps_everything():
    assert aic_select(np.array([2.0, 0.1]), np.array([1.0, 0.5]), 0.0, m0=2, norm="strong") == 2


def test_aic_ties_resolve_to_smallest():
    # y2=0 with positive penalty: criterion strictly favours truncation at 0..
    assert aic_select(np.zeros(2), np.ones(2), 1.0, m0=2, norm="strong") == 0


def test_aic_penalty_multiplier_shrinks_selection():
    d = 40
    spec = make_polynomial_spectrum(d, 0.5)
    rng = np.random.default_rng(7)
    y = spec.values * (3.0 * np.arange(1, d + 1, dtype=float) ** -1.0) + 0.3 * rng.standard_normal(d)
    loose = aic_select(y, spec.values, 0.3, m0=d, norm="strong", penalty_multiplier=1.0)
    tight = aic_select(y, spec.values, 0.3, m0=d, norm="strong", penalty_multiplier=8.0)
    assert tight <= loose


def _aic_unmemoized(y, lam, delta, m0, norm, penalty_multiplier):
    """The AIC criterion formed in full on every call, as ``aic_select`` did before its penalty was memoised."""
    y2 = y[:m0] ** 2
    pen = 2.0 * penalty_multiplier * delta**2
    if norm == "strong":
        inv2 = lam[:m0] ** -2.0
        crit = -_prefix_sums(inv2 * y2) + pen * _prefix_sums(inv2)
    else:
        crit = -_prefix_sums(y2) + pen * np.arange(m0 + 1, dtype=float)
    return int(np.argmin(crit))


@given(
    st.integers(1, 40).flatmap(
        lambda dim: st.tuples(
            st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim),
            st.lists(st.floats(0.01, 10.0), min_size=dim, max_size=dim),
            st.floats(0.0, 5.0),
            st.integers(0, dim),
            st.sampled_from(["strong", "weak"]),
            st.floats(0.1, 10.0),
        )
    )
)
def test_aic_memo_selects_the_unmemoized_index(case):
    y, lam, delta, m0, norm, multiplier = case
    y, lam = np.array(y), np.array(lam)
    expected = _aic_unmemoized(y, lam, delta, m0, norm, multiplier)
    assert aic_select(y, lam, delta, m0, norm, multiplier) == expected
    assert aic_select(y, lam, delta, m0, norm, multiplier) == expected  # now from the memo


def test_aic_memo_recomputes_when_the_instance_changes():
    d = 30
    rng = np.random.default_rng(11)
    lam = make_polynomial_spectrum(d, 0.5).values
    base = dict(y=lam * np.linspace(3.0, 0.0, d) + 0.3 * rng.standard_normal(d), lam=lam, delta=0.3, m0=20)
    base.update(norm="strong", penalty_multiplier=1.0)
    stopping._aic_penalty.cache_clear()

    def select(**change):
        args = {**base, **change}
        assert aic_select(**args) == _aic_unmemoized(**args)
        return stopping._aic_penalty.cache_info()

    assert select().misses == 1
    # new data, or a spectrum changed past m0, reuse the penalty
    assert select(y=base["y"][::-1].copy(), lam=np.concatenate((lam[:20], lam[20:] / 2))).hits == 1
    changes = [{"lam": lam * 1.5}, {"delta": 0.31}, {"m0": 19}, {"norm": "weak"}, {"penalty_multiplier": 2.0}]
    for count, change in enumerate(changes, start=2):
        assert select(**change).misses == count
    inv2, penalty = stopping._aic_penalty(lam[:20].tobytes(), 0.3, 20, "strong", 1.0)
    assert not inv2.flags.writeable and not penalty.flags.writeable



def test_two_step_keeps_late_stop():
    config = StoppingConfig(kappa=1.0, m0=1)
    outcome = plain_stop(OBS3, config)
    assert outcome.tau == 2
    assert not outcome.immediate_stop
    assert two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0) == outcome.tau


def test_two_step_rescues_immediate_stop():
    config = StoppingConfig(kappa=50.0, m0=2)
    outcome = plain_stop(OBS3, config)
    assert outcome.tau == 2
    assert outcome.immediate_stop
    rho = two_step(outcome.tau, OBS3.y, LAM3, 1.0, config.m0)
    assert rho == aic_select(OBS3.y, LAM3, 1.0, m0=2, norm="strong")
    assert rho < outcome.tau


@pytest.mark.parametrize("kappa, m0", [(1.0, 1), (50.0, 2)])  # a late stop, then an immediate one
@pytest.mark.parametrize("norm, multiplier", [("stronk", 1.0), ("weak", -3.0), ("strong", 0.0), ("strong", math.nan)])
def test_two_step_checks_the_selection_either_way(kappa, m0, norm, multiplier):
    tau = stop_index(OBS3.y, OBS3.y_norm_sq, StoppingConfig(kappa=kappa, m0=m0))
    with pytest.raises(ValueError):
        two_step(tau, OBS3.y, LAM3, 1.0, m0, norm, multiplier)


def test_normal_quantile_start_reference_value():
    assert normal_quantile_start(10_000) == 329
    assert normal_quantile_start(10_000, level=0.99) == 329


def test_default_threshold_formula():
    assert default_threshold(100, 0.1) == pytest.approx(1.0)
    assert default_threshold(100, 0.1, drift=0.5) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        default_threshold(0, 0.1)


def test_make_stopping_config_modes():
    assert set(M0_MODES) == {"explicit", "zero", "normal_quantile"}
    cfg = make_stopping_config(10_000, 0.01, m0_mode="normal_quantile")
    assert cfg.m0 == 329
    assert cfg.kappa == pytest.approx(1.0)
    cfg0 = make_stopping_config(100, 0.1)
    assert cfg0.m0 == 0
    explicit = make_stopping_config(100, 0.1, m0_mode="explicit", m0=7)
    assert explicit.m0 == 7
    with pytest.raises(ValueError):
        make_stopping_config(100, 0.1, m0_mode="explicit")
    for unknown in ("quantile", "conservative"):
        with pytest.raises(ValueError):
            make_stopping_config(100, 0.1, m0_mode=unknown)
    # a setting the others leave unread is an error, not a silent no-op
    assert make_stopping_config(100, 0.1, kappa_drift=3.0).kappa == pytest.approx(1.3)
    assert make_stopping_config(100, 0.1, kappa=1.0, kappa_drift=0.0).kappa == 1.0
    # and so are a start beyond the dimension and a quantile level outside [0.5, 1)
    for settings in (
        {"m0": 50},
        {"m0_mode": "normal_quantile", "m0": 0},
        {"kappa": 1.0, "kappa_drift": 3.0},
        {"m0_mode": "explicit", "m0": 101},
        {"m0_mode": "normal_quantile", "level": 0.4},
        {"m0_mode": "normal_quantile", "level": 1.0},
    ):
        with pytest.raises(ValueError):
            make_stopping_config(100, 0.1, **settings)
