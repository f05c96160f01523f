import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdstop import model
from svdstop.lazysvd import DeflationState, MatrixOperator, sequential_solve
from svdstop.lowerbound import hide_signal, residual_adversary, tv_bound, tv_numeric
from svdstop.model import (
    DimensionMismatchError,
    NoiseModel,
    Observation,
    Signal,
    Spectrum,
    _frozen_vector,
    load_vector,
    make_polynomial_spectrum,
    replication_seed,
    require_same_dim,
    save_vector,
    simulate_observation,
)
from svdstop.stopping import StoppingConfig, aic_select, make_stopping_config


def test_polynomial_spectrum_values():
    spec = make_polynomial_spectrum(4, 0.5)
    assert np.allclose(spec.values, [1.0, 2 ** -0.5, 3 ** -0.5, 0.5])
    assert spec.dim == 4


def test_polynomial_spectrum_names_an_exponent_that_underflows_or_is_negative():
    with pytest.raises(ValueError, match=r"decay exponent p = 1000\.0 underflows lam_120"):
        make_polynomial_spectrum(120, 1000.0)  # 120**-1000 is below the smallest float
    with pytest.raises(ValueError, match="decay exponent spectrum.p must be non-negative"):
        make_polynomial_spectrum(120, -0.5, "spectrum.p")
    assert make_polynomial_spectrum(120, 100.0).values[-1] > 0.0  # 120**-100 is tiny, not zero


def test_spectrum_rejects_increasing():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]))


def test_spectrum_rejects_nonpositive():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.0]))


def test_satisfies_polynomial_decay_exact_case():
    # the spectrum is exactly i**-p: it meets the envelope of its own exponent
    # with constant 1, and not that of a slower decay
    idx = np.arange(1, 51, dtype=float)
    vals = make_polynomial_spectrum(50, 1.0).values
    assert np.array_equal(vals, idx**-1.0)
    assert not np.all(vals >= idx**-0.5 * (1.0 - 1e-12))


def test_require_same_dim():
    assert require_same_dim(3, 3, 3) == 3
    with pytest.raises(DimensionMismatchError):
        require_same_dim(3, 4)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(delta=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(delta=float("nan"))
    NoiseModel(delta=1e150)
    with pytest.raises(ValueError, match="finite square"):  # finite, but its square is not
        NoiseModel(delta=1e160)


def test_simulation_is_seed_deterministic():
    spec = make_polynomial_spectrum(20, 0.5)
    sig = Signal(np.ones(20))
    noise = NoiseModel(delta=0.3)
    a = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(7, 3))
    b = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(7, 3))
    assert np.array_equal(a.y, b.y)
    c = simulate_observation(spec.values * sig.coefficients, noise, replication_seed(7, 4))
    assert not np.array_equal(a.y, c.y)


def test_zero_noise_recovers_weak_image():
    spec = make_polynomial_spectrum(6, 1.0)
    sig = Signal(np.arange(1.0, 7.0))
    obs = simulate_observation(spec.values * sig.coefficients, NoiseModel(delta=0.0), 0)
    assert np.array_equal(obs.y, spec.values * sig.coefficients)


def test_observation_is_the_seeded_draw_scaled_around_the_image_bitwise():
    """The noise an observation does not keep is regenerated from its seed, as criteria 1 and 6 do: ``y`` is
    bitwise ``delta * eps + image`` with ``eps`` the seed's standard normal draw, at any length and seed."""
    for dim in (10, 10_000):
        image = make_polynomial_spectrum(dim, 0.5).values * np.linspace(1.0, -1.0, dim)
        for seed in (11, replication_seed(77, 3)):
            obs = simulate_observation(image, NoiseModel(0.2), seed)
            expected = 0.2 * np.random.default_rng(seed).standard_normal(dim) + image
            assert obs.y.tobytes() == expected.tobytes()


@given(
    st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(-1e3, 1e3)), min_size=1, max_size=30),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    st.integers(0, 2**32 - 1),
)
def test_observation_drawn_around_the_image_is_bitwise_the_old_sum(pairs, delta, seed):
    """``delta * eps + lam * mu`` equals ``lam * mu + delta * eps`` bit for bit, signed zeros included."""
    lam = np.sort(np.array([p[0] for p in pairs]))[::-1]
    mu = np.array([p[1] for p in pairs])
    mu[::3] = 0.0
    mu[1::5] = -0.0
    expected = Spectrum(lam).values * Signal(mu).coefficients
    expected += delta * np.random.default_rng(seed).standard_normal(mu.size)
    obs = simulate_observation(lam * mu, NoiseModel(delta), seed)
    assert obs.y.tobytes() == expected.tobytes()


def test_vector_roundtrip(tmp_path):
    path = tmp_path / "vec.txt"
    values = np.array([1.0, -2.5e-13, 3.141592653589793, 0.0])
    save_vector(path, values)
    again = load_vector(path)
    assert np.array_equal(values, again)


def test_replication_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        replication_seed(0, -1)


@given(st.integers(0, 2**32 - 1), st.integers(0, 1000))
def test_replication_streams_reproducible(base, idx):
    a = np.random.default_rng(replication_seed(base, idx)).standard_normal(4)
    b = np.random.default_rng(replication_seed(base, idx)).standard_normal(4)
    assert np.array_equal(a, b)


@given(st.integers(1, 40), st.floats(0.0, 3.0))
def test_simulated_norm_header_consistent(dim, p):
    spec = make_polynomial_spectrum(dim, p)
    sig = Signal(np.linspace(1.0, 0.0, dim))
    obs = simulate_observation(spec.values * sig.coefficients, NoiseModel(delta=0.5), 1)
    assert obs.y_norm_sq == float(np.dot(obs.y, obs.y))


def test_simulated_vectors_are_frozen_own_their_data_and_are_not_copied(monkeypatch):
    kept = []

    def spy(values):
        frozen = _frozen_vector(values)
        kept.append(frozen is values)
        return frozen

    args = (make_polynomial_spectrum(8, 0.5).values * np.ones(8), NoiseModel(delta=0.2))
    monkeypatch.setattr(model, "_frozen_vector", spy)
    obs = simulate_observation(*args, 3)
    assert kept == [True]
    assert not obs.y.flags.writeable
    assert obs.y.base is None


def _containers(values):
    """The vectors that each container built from ``values`` holds."""
    return [Signal(values).coefficients, Spectrum(values).values, Observation(y=values).y]


@pytest.mark.parametrize("view", [False, True])
def test_containers_copy_caller_arrays(view):
    caller = np.array([3.0, 2.0, 1.0])
    source = caller
    if view:
        source = caller[:]
        source.setflags(write=False)
    held = _containers(source)
    assert caller.flags.writeable
    caller[:] = 0.5
    for vector in held:
        assert np.array_equal(vector, [3.0, 2.0, 1.0])
        assert not vector.flags.writeable


def test_containers_keep_a_frozen_vector_that_owns_its_data():
    values = np.array([3.0, 2.0, 1.0])
    values.setflags(write=False)
    assert all(vector is values for vector in _containers(values))
    as_float32 = np.array([3.0, 2.0, 1.0], dtype=np.float32)
    as_float32.setflags(write=False)
    assert not any(vector is as_float32 for vector in _containers(as_float32))


_SIG, _SPEC, _NOISE = Signal(np.linspace(1.0, 0.1, 10)), make_polynomial_spectrum(10, 0.5), NoiseModel(0.1)
_OPERATOR = MatrixOperator(np.diag(_SPEC.values))  # with a threshold above |y|**2 the solve stops at 0

# every entry point that takes an index or a count, called with it
INTEGER_SITES = {
    "StoppingConfig": lambda v: StoppingConfig(kappa=1.0, m0=v),
    "make_stopping_config": lambda v: make_stopping_config(10, 0.1, m0_mode="explicit", m0=v),
    "aic_select": lambda v: aic_select(_SPEC.values * _SIG.coefficients, _SPEC.values, 0.1, v),
    "hide_signal": lambda v: hide_signal(_SIG, v, 0.5, 2.0),
    "residual_adversary": lambda v: residual_adversary(_SIG, _SPEC, _NOISE, v, 0.5, 2.0),
    "tv_bound": lambda v: tv_bound(1.0, 0.5, v),
    "tv_numeric": lambda v: tv_numeric(1.0, 0.5, v),
    "make_polynomial_spectrum": lambda v: make_polynomial_spectrum(v, 0.5),
    "DeflationState(max_iterations)": lambda v: DeflationState(_OPERATOR, max_iterations=v),
    "sequential_solve(triplet_budget)": lambda v: sequential_solve(
        _OPERATOR, _SIG.coefficients, _NOISE, StoppingConfig(kappa=100.0, m0=0), triplet_budget=v
    ),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_accept_integral_values_and_reject_fractions(site):
    """A fractional or boolean index raises instead of being truncated; an integral float or a numpy integer is taken."""
    call = INTEGER_SITES[site]
    for bad in (3.7, 3.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    call(4.0)
    call(np.int64(4))
