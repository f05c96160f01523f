"""Lazy one-at-a-time SVD by Golub-Kahan-Lanczos, and the matrix-space stopping loop."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from svdstop import lazysvd
from svdstop.lazysvd import (
    ConvergenceError,
    DeflationState,
    MatrixOperator,
    RankDeficiencyError,
    TripletBudgetError,
    load_matrix,
    next_triplet,
    save_matrix,
    sequential_solve,
)
from svdstop.model import NoiseModel
from svdstop.stopping import StoppingConfig, aic_select, stop_index


def embedded_diagonal(sigmas, rows):
    """Tall matrix whose singular values are exactly ``sigmas``."""
    sigmas = np.asarray(sigmas, dtype=float)
    a = np.zeros((rows, sigmas.size))
    a[: sigmas.size, :] = np.diag(sigmas)
    return a


def random_tall(seed, rows=60, cols=40):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))


def rotated(sigmas, rows, seed):
    """Tall matrix ``Q_left diag(sigmas) Q_right'`` with random orthonormal factors."""
    sigmas = np.asarray(sigmas, dtype=float)
    rng = np.random.default_rng(seed)
    q_left, _ = np.linalg.qr(rng.standard_normal((rows, sigmas.size)))
    q_right, _ = np.linalg.qr(rng.standard_normal((sigmas.size, sigmas.size)))
    return q_left @ np.diag(sigmas) @ q_right.T


def load_demo():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_lazysvd_demo.py"
    spec = importlib.util.spec_from_file_location("run_lazysvd_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_orthonormal_bases(state):
    """The process's left and right basis rows are orthonormal to rounding."""
    for basis in (state._u[: state._k], state._v[: state._stored]):
        assert np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0])), initial=0.0) <= 1e-13


# matvecs and sweeps over A of the benchmark's lazy-solve instance, by start seed: ratchets that only move
# down, since the benchmark's work_count is the matvec count and allows 3%
BENCHMARK_MATVECS = (260, 260, 260, 280, 280, 260, 260, 280)
BENCHMARK_PASSES = (143, 143, 143, 154, 154, 143, 143, 154)


def test_the_benchmark_instance_takes_at_most_its_pinned_matvecs(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    assert module.SIZES[False]["lazy-solve"] == (800, 500)
    matrix, y, config, noise = module.lazy_instance(800, 500)
    operator = MatrixOperator(matrix)
    states = [sequential_solve(operator, y, noise, config, seed=seed).state for seed in range(8)]
    counts = [state.matvec_count for state in states]
    assert all(count <= pinned for count, pinned in zip(counts, BENCHMARK_MATVECS)), counts
    passes = [state.passes for state in states]
    assert all(count <= pinned for count, pinned in zip(passes, BENCHMARK_PASSES)), passes


@pytest.mark.parametrize("rows, cols", [(7, 4), (5, 5), (1, 3)], ids=["odd-rows", "square", "one-row"])
def test_products_agree_with_plain_products(rows, cols):
    """The sweep over row blocks gives ``A v`` and ``A'p``, together or alone, each entry within twice the
    dot-product error bound ``n eps sum_j |a_ij x_j|`` of the plain product (a single row leaves one block
    empty)."""
    rng = np.random.default_rng(rows * cols)
    a, v, p = rng.standard_normal((rows, cols)), rng.standard_normal(cols), rng.standard_normal(rows)
    eps = np.finfo(float).eps
    bound_av, bound_atp = 2 * cols * eps * (np.abs(a) @ np.abs(v)), 2 * rows * eps * (np.abs(p) @ np.abs(a))
    for av, atp in (lazysvd._products(a, v, p), (lazysvd._products(a, v, None)[0], lazysvd._products(a, None, p)[1])):
        assert av.shape == (rows,) and atp.shape == (cols,)
        assert np.all(np.abs(av - a @ v) <= bound_av) and np.all(np.abs(atp - a.T @ p) <= bound_atp)
    assert lazysvd._products(a, v, None)[1] is None and lazysvd._products(a, None, p)[0] is None


@pytest.mark.parametrize("band", [0, 2])
def test_orthogonalise_repeats_a_pass_that_cancels_most_of_the_vector(band):
    """A vector within 1e-10 of the basis's span: one classical Gram-Schmidt pass leaves it about 1e-7 from
    orthogonal, relatively, so the pass is repeated, which brings that to rounding; the coefficients rebuild
    the vector."""
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((40, 6)))[0].T
    x = basis.T @ rng.standard_normal(6) + 1e-10 * rng.standard_normal(40)
    y = x.copy()
    coefficients, norm = lazysvd._orthogonalise(y, basis, band)
    assert norm == pytest.approx(np.linalg.norm(y), rel=1e-15)
    assert np.max(np.abs(basis @ y)) <= 1e-14 * norm
    assert np.max(np.abs(coefficients @ basis + y - x)) <= 1e-15 * np.linalg.norm(x)


def test_operator_validation():
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros(4))
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros((2, 5)))
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MatrixOperator(bad)
    for shape in ((3, 0), (0, 0)):
        with pytest.raises(ValueError, match="at least one column"):
            MatrixOperator(np.zeros(shape))
    op = MatrixOperator(np.ones((4, 3)))
    assert (op.codomain_dim, op.domain_dim) == (4, 3)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def test_operator_keeps_a_frozen_matrix_and_copies_any_other():
    frozen = random_tall(3, rows=6, cols=4)
    frozen.setflags(write=False)
    assert MatrixOperator(frozen).entries is frozen
    writeable = random_tall(3, rows=6, cols=4)
    view = frozen[:, :3]  # read-only, but a view of another array's data
    operators = [MatrixOperator(writeable), MatrixOperator(view), MatrixOperator(np.asfortranarray(frozen))]
    assert operators[0].entries is not writeable and operators[1].entries is not view
    writeable[0, 0] += 1.0
    assert operators[0].entries[0, 0] == frozen[0, 0]
    assert np.array_equal(operators[1].entries, frozen[:, :3])
    assert np.array_equal(operators[2].entries, frozen)


def test_operator_from_a_binary_file_holds_one_copy(tmp_path):
    path = tmp_path / "A.bin"
    save_matrix(path, random_tall(5, rows=1000, cols=500))
    tracemalloc.start()
    try:
        op = MatrixOperator(load_matrix(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.entries.shape == (1000, 500)
    assert peak < 1.25 * op.entries.nbytes


def test_diagonal_values_recovered_in_order():
    op = MatrixOperator(embedded_diagonal([3.0, 2.0, 1.0], rows=5))
    state = DeflationState(op, seed=1, tolerance=1e-12)
    for expected in (3.0, 2.0, 1.0):
        triplet = next_triplet(state)
        assert triplet.sigma == pytest.approx(expected, abs=1e-9)


def test_triplets_match_dense_svd():
    a = random_tall(3)
    op = MatrixOperator(a)
    state = DeflationState(op, seed=4, tolerance=1e-12)
    got = [next_triplet(state) for _ in range(6)]
    u_ref, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    for i, triplet in enumerate(got):
        assert triplet.sigma == pytest.approx(s_ref[i], rel=1e-9)
        # compare up to sign through the subspace projection
        assert abs(np.dot(triplet.v, vt_ref[i])) == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.norm(a @ triplet.v - triplet.sigma * triplet.u) < 1e-7 * s_ref[0]


def test_triplets_are_orthonormal():
    a = random_tall(11)
    state = DeflationState(MatrixOperator(a), seed=2, tolerance=1e-12)
    for _ in range(8):
        next_triplet(state)
    vmat = np.array([t.v for t in state.triplets])
    umat = np.array([t.u for t in state.triplets])
    assert vmat @ vmat.T == pytest.approx(np.eye(8), abs=1e-8)
    assert umat @ umat.T == pytest.approx(np.eye(8), abs=1e-8)


def test_sign_convention_first_nonzero_positive():
    a = random_tall(5)
    state = DeflationState(MatrixOperator(a), seed=9)
    for _ in range(4):
        triplet = next_triplet(state)
        lead = triplet.v[np.abs(triplet.v) > 1e-12][0]
        assert lead > 0


def test_matvec_accounting():
    state = DeflationState(MatrixOperator(random_tall(6)), tolerance=1e-10)
    for _ in range(5):
        next_triplet(state)
    assert state.matvec_count == 2 * sum(state.iterations)
    assert len(state.iterations) == 5
    # each chunk of t >= 1 steps sweeps A t + 1 times
    assert sum(state.iterations) < state.passes <= state.matvec_count


def test_next_triplet_is_deterministic():
    runs = []
    for _ in range(2):
        state = DeflationState(MatrixOperator(random_tall(13)), seed=21)
        runs.append([next_triplet(state) for _ in range(5)])
    for left, right in zip(*runs):
        assert left.sigma == right.sigma
        assert np.array_equal(left.u, right.u)
        assert np.array_equal(left.v, right.v)


def test_rank_deficiency_detected():
    rng = np.random.default_rng(1)
    col = rng.standard_normal((6, 1))
    a = col @ np.array([[1.0, 2.0, -0.5]])  # rank one, three columns
    state = DeflationState(MatrixOperator(a), tolerance=1e-12)
    next_triplet(state)
    with pytest.raises(RankDeficiencyError):
        next_triplet(state)
    # exact zeros: A v vanishes, and the left basis goes on orthogonally
    with pytest.raises(RankDeficiencyError):
        next_triplet(DeflationState(MatrixOperator(np.zeros((4, 3)))))
    state = DeflationState(MatrixOperator(embedded_diagonal([2.0, 0.0, 1.0], rows=4)))
    assert [next_triplet(state).sigma for _ in range(2)] == pytest.approx([2.0, 1.0])
    with pytest.raises(RankDeficiencyError):
        next_triplet(state)


def test_convergence_error_carries_best_iterate():
    a = random_tall(2)
    state = DeflationState(MatrixOperator(a), tolerance=1e-15, max_iterations=2)
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state)
    err = info.value
    assert err.iterations == 2
    assert err.best.sigma > 0
    assert np.linalg.norm(err.best.v) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(err.best.u) == pytest.approx(1.0, abs=1e-9)
    # the best iterate is the current Ritz triplet: A v = sigma u holds exactly,
    # and its value is a lower bound of the true one
    assert np.linalg.norm(a @ err.best.v - err.best.sigma * err.best.u) < 1e-12 * err.best.sigma
    assert err.best.sigma <= np.linalg.norm(a, 2)
    assert state.matvec_count == 4
    assert state.triplets == () and state.iterations == ()


@pytest.mark.parametrize("max_iterations", [2, 3])
def test_a_restart_with_no_step_left_raises(max_iterations):
    """A value three times over: the two-start basis holds two converged copies by its last allowed step, and
    the restart that would look for the third has no step left, so the state raises instead of looping."""
    state = DeflationState(MatrixOperator(embedded_diagonal([1.0, 1.0, 1.0], rows=4)), max_iterations=max_iterations)
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state)
    assert info.value.iterations == max_iterations and info.value.best.sigma == pytest.approx(1.0)
    assert state.triplets == () and state.matvec_count == 2 * max_iterations


def test_release_residuals_are_the_true_residuals():
    """The residual read off the pending couplings is ``|A'u - sigma v|``; a
    loose tolerance releases triplets whose residuals stand well above
    round-off."""
    a = random_tall(7)
    state = DeflationState(MatrixOperator(a), seed=3, tolerance=1e-6)
    for _ in range(10):
        next_triplet(state)
    scale = np.linalg.norm(a)
    assert len(state.release_residuals) == 10
    assert max(state.release_residuals) > 1e-3 * 1e-6 * state.triplets[-1].sigma
    for triplet, recorded in zip(state.triplets, state.release_residuals):
        assert 0 <= recorded <= 1e-6 * triplet.sigma
        true = np.linalg.norm(a.T @ triplet.u - triplet.sigma * triplet.v)
        assert true == pytest.approx(recorded, abs=1e-13 * scale)


@pytest.mark.parametrize("layout", ["embedded", "rotated"])
def test_repeated_values_found_beyond_one_chunk(layout):
    """Ten distinct values, each twice: a single Krylov sequence becomes
    invariant after exactly one chunk, and plain single-vector Lanczos released 9
    second."""
    sigmas = np.repeat(np.arange(10, 0, -1.0), 2)
    a = embedded_diagonal(sigmas, rows=23) if layout == "embedded" else rotated(sigmas, rows=23, seed=0)
    state = DeflationState(MatrixOperator(a), seed=1)
    got = [next_triplet(state).sigma for _ in range(20)]
    assert got == pytest.approx(sigmas, abs=1e-8)


@pytest.mark.parametrize("layout", ["embedded", "rotated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_copies_released_in_order(layout, seed):
    """A value seven times over, then three more repeated ones, in 21
    columns: one Krylov sequence sees a single copy of each, and the
    single-vector engine released 3.5263 eighth (error 5.13)."""
    sigmas = np.repeat([8.655, 3.5263, 1.3033, 1.1243], [7, 5, 5, 4])
    a = embedded_diagonal(sigmas, rows=27) if layout == "embedded" else rotated(sigmas, rows=27, seed=seed)
    state = DeflationState(MatrixOperator(a), seed=seed)
    got = [next_triplet(state) for _ in range(21)]
    assert [t.sigma for t in got] == pytest.approx(sigmas, abs=1e-8)
    vmat = np.array([t.v for t in got])
    assert vmat @ vmat.T == pytest.approx(np.eye(21), abs=1e-8)
    assert_orthonormal_bases(state)
    with pytest.raises(ValueError):
        next_triplet(state)


@pytest.mark.parametrize("seed", [12, 136, 168])
def test_tight_cluster_released_in_order(seed):
    """21 values within 1e-4 of each other, relatively, with gaps down to
    the tolerance. Each of these instances fails if only values within
    twice the tolerance count as copies of the pending one."""
    rng = np.random.default_rng(seed)
    sigmas = np.sort(3 * (1 + 10.0 ** rng.uniform(-9, -4, 21) * rng.standard_normal(21)))[::-1]
    a = rotated(sigmas, rows=27, seed=seed)
    state = DeflationState(MatrixOperator(a), seed=seed)
    got = [next_triplet(state).sigma for _ in range(21)]
    assert got == pytest.approx(sigmas, abs=1e-8)


def locked_state(a, locked):
    """A fresh state on ``a`` whose process is restarted around the released triplet ``locked``, as the
    restart for repeated values puts the state's triplets in front."""
    state = DeflationState(MatrixOperator(a))
    state.triplets = (locked,)
    state._restart(lazysvd._START_WIDTH)
    return state


def test_triplets_given_up_front_are_deflated():
    """Triplets the engine is built around are locked out of the basis; one that
    is not the largest makes the larger value turn up late, which raises."""
    a = embedded_diagonal([3.0, 2.0, 1.0], rows=4)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    state = locked_state(a, lazysvd.SingularTriplet(s[0], u[:, 0], vt[0]))
    got = [next_triplet(state).sigma for _ in range(2)]
    assert got == pytest.approx([2.0, 1.0], abs=1e-9)
    assert state.iterations[0] > 0 and len(state.iterations) == 2
    state = locked_state(a, lazysvd.SingularTriplet(s[2], u[:, 2], vt[2]))
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state)
    assert info.value.best.sigma == pytest.approx(3.0)
    assert len(state.triplets) == 1


def test_demo_solve_is_frugal():
    """The demo instance stops at 41 triplets for under two matrix-vector
    products per column; power iteration spent 34,790 on it."""
    matrix, y, _, config = load_demo().demo_instance()
    result = sequential_solve(MatrixOperator(matrix), y, NoiseModel(0.05), config)
    assert result.outcome.tau == 41
    assert result.matvec_count <= 2 * matrix.shape[1]
    assert result.matvec_count == 2 * sum(result.state.iterations)


@pytest.mark.parametrize("rows, cols", [(400, 250), (800, 500)])
def test_rule_residual_matches_projected_residual(rows, cols):
    """The rule's running residual ``|y|**2 - sum_{i<=m} c_i**2`` agrees with the explicitly projected
    ``|y - U_m U_m' y|**2`` at ``tau - 1`` and ``tau``, and both fall on the same side of ``kappa``."""
    matrix, y, _, config = load_demo().demo_instance(rows, cols)
    result = sequential_solve(MatrixOperator(matrix), y, NoiseModel(0.05), config)
    tau = result.outcome.tau
    u = np.array([t.u for t in result.state.triplets])
    # the rule's running sum: squares of the released coefficients, added left to right
    running = np.cumsum([0.0] + [float(np.dot(row, y)) ** 2 for row in u])
    for m, above in ((tau - 1, True), (tau, False)):
        rule = float(np.dot(y, y)) - running[m]
        remainder = y - u[:m].T @ (u[:m] @ y)
        projected = float(np.dot(remainder, remainder))
        assert rule == pytest.approx(projected, rel=1e-13)
        assert (rule > config.kappa) == (projected > config.kappa) == above


@st.composite
def spectra(draw):
    """Generic, clustered or exactly repeated singular values, largest first."""
    kind = draw(st.sampled_from(["generic", "clustered", "repeated"]))
    dim = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        return np.sort(rng.uniform(0.1, 10.0, dim))[::-1]
    centers = rng.uniform(0.5, 10.0, rng.integers(1, 4))
    values = centers[rng.integers(0, centers.size, dim)]
    if kind == "clustered":
        values = values * (1 + 10.0 ** rng.uniform(-9, -4, dim))
    return np.sort(values)[::-1]


def dense_truncated(a, y, config):
    """Reference: the residual rule over the coefficients of a full dense SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    coeffs = u.T @ y
    return stop_index(coeffs, float(np.dot(y, y)), config), s, vt, coeffs


@given(
    sigmas=spectra(),
    extra_rows=st.integers(0, 6),
    seed=st.integers(0, 1000),
    delta=st.sampled_from([0.01, 0.1, 1.0]),
)
@example(sigmas=np.array([3.0, 2.0, 2.0, 1.0]), extra_rows=2, seed=0, delta=0.1)
def test_solve_matches_dense_reference(sigmas, extra_rows, seed, delta):
    dim = sigmas.size
    rows = dim + extra_rows
    a = rotated(sigmas, rows, seed)
    rng = np.random.default_rng(seed + 1)
    mu = rng.standard_normal(dim) / np.arange(1, dim + 1)
    y = a @ mu + delta * rng.standard_normal(rows)
    config = StoppingConfig(kappa=rows * delta**2)
    result = sequential_solve(MatrixOperator(a), y, NoiseModel(delta), config, seed=seed)
    tau_ref, s, vt, coeffs = dense_truncated(a, y, config)

    # within a cluster the singular vectors are not unique, and neither are the
    # residuals between its ends: the stop may fall anywhere in the cluster
    # that holds the reference stop, and estimates compare at cluster ends
    ends = [0] + [i + 1 for i in range(dim - 1) if s[i] - s[i + 1] > 1e-3 * s[0]] + [dim]
    lo = max((e for e in ends if e < tau_ref), default=0)
    hi = min(e for e in ends if e >= tau_ref)
    tau = result.outcome.tau
    assert tau == tau_ref if tau_ref == 0 else lo < tau <= hi
    got = np.array([t.sigma for t in result.state.triplets])
    assert got.size == tau
    assert np.max(np.abs(got - s[:tau]), initial=0.0) <= 1e-8
    assert_orthonormal_bases(result.state)

    def lazy_estimate(m):
        return sum(((t.u @ y) / t.sigma) * t.v for t in result.state.triplets[:m]) + np.zeros(dim)

    for m in {lo, tau} & set(ends):
        reference = vt[:m].T @ (coeffs[:m] / s[:m])
        estimate = result.estimate.values if m == tau else lazy_estimate(m)
        assert np.linalg.norm(estimate - reference) <= 1e-6 * np.linalg.norm(reference) + 1e-12


@given(
    dim=st.integers(2, 30),
    data=st.data(),
    extra_rows=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_rank_deficient_spectra_raise(dim, data, extra_rows, seed):
    rank = data.draw(st.integers(1, dim - 1))
    sigmas = np.sort(np.random.default_rng(seed).uniform(0.1, 10.0, dim))[::-1]
    sigmas[rank:] = 0.0
    op = MatrixOperator(rotated(sigmas, dim + extra_rows, seed))
    state = DeflationState(op, seed=seed)
    got = [next_triplet(state).sigma for _ in range(rank)]
    assert got == pytest.approx(sigmas[:rank], abs=1e-8)
    with pytest.raises(RankDeficiencyError):
        next_triplet(state)


def test_sequential_solve_matches_sequence_model():
    """On an embedded diagonal the lazy loop reproduces the coefficient rule."""
    sigmas = np.arange(1, 13, dtype=float)[::-1] ** 0.5
    op = MatrixOperator(embedded_diagonal(sigmas, rows=20))
    rng = np.random.default_rng(8)
    mu = rng.standard_normal(12)
    y_raw = np.zeros(20)
    y_raw[:12] = sigmas * mu
    y_raw += 0.05 * rng.standard_normal(20)
    config = StoppingConfig(kappa=20 * 0.05**2)
    result = sequential_solve(op, y_raw, NoiseModel(0.05), config, tolerance=1e-13)

    # the sequence-model view of the same data: Y_i = <u_i, y>, here y_raw[i];
    # the total norm keeps the codomain mass the coefficients never capture
    coeffs = np.abs(y_raw[:12])  # sign convention may flip u_i, |Y_i| is invariant
    reference = stop_index(coeffs, float(np.dot(y_raw, y_raw)), config)
    assert result.outcome.tau == reference
    expected = np.zeros(12)
    k = result.outcome.tau
    expected[:k] = y_raw[:k] / sigmas[:k]
    assert result.estimate.values == pytest.approx(expected, abs=1e-8)
    assert result.matvec_count == 2 * sum(result.state.iterations)


def test_sequential_solve_immediate_stop_flag():
    op = MatrixOperator(embedded_diagonal([2.0, 1.0], rows=3))
    y_raw = np.array([0.1, 0.05, 0.0])
    result = sequential_solve(op, y_raw, NoiseModel(1.0), StoppingConfig(kappa=5.0))
    assert result.outcome.tau == 0
    assert result.outcome.immediate_stop
    assert result.estimate.values == pytest.approx(np.zeros(2))
    assert result.matvec_count == 0


def test_triplet_budget_error_keeps_partial_state():
    op = MatrixOperator(random_tall(4, rows=10, cols=6))
    y_raw = np.ones(10)
    with pytest.raises(TripletBudgetError) as info:
        sequential_solve(op, y_raw, NoiseModel(0.1), StoppingConfig(kappa=0.0), triplet_budget=2)
    err = info.value
    assert len(err.state.triplets) == 2
    assert err.coefficients.shape == (2,)
    # a budget of 0 is valid: the rule's first demand exceeds it
    with pytest.raises(TripletBudgetError) as info:
        sequential_solve(op, y_raw, NoiseModel(0.1), StoppingConfig(kappa=0.0), triplet_budget=0)
    assert info.value.state.triplets == () and info.value.coefficients.shape == (0,)


def test_selection_reuses_computed_triplets():
    """An immediate stop re-selects by AIC over the first m0 coefficients."""
    sigmas = np.array([2.0, 1.0, 0.5, 0.25])
    op = MatrixOperator(embedded_diagonal(sigmas, rows=6))
    y_raw = np.zeros(6)
    y_raw[:4] = np.array([3.0, 0.05, 0.02, 0.01])
    noise = NoiseModel(0.5)
    config = StoppingConfig(kappa=100.0, m0=3)
    result = sequential_solve(op, y_raw, noise, config, selection_norm="strong")
    assert result.outcome.tau == 3
    assert result.outcome.immediate_stop

    # only the first three triplets exist at stopping time; AIC sees their
    # coefficients and singular values
    assert len(result.state.triplets) == 3
    coeffs = np.array([np.dot(t.u, y_raw) for t in result.state.triplets])
    ref = aic_select(coeffs, sigmas[:3], noise.delta, m0=3, norm="strong")
    assert result.outcome.rho == ref
    expected = np.zeros(4)
    expected[: ref] = y_raw[: ref] / sigmas[: ref]
    assert result.estimate.values == pytest.approx(expected, abs=1e-8)


def test_solve_rejects_nonfinite_data_before_any_triplet(monkeypatch):
    calls = []
    monkeypatch.setattr(lazysvd, "next_triplet", lambda *args: calls.append(args))
    op = MatrixOperator(random_tall(5))
    y_raw = np.ones(60)
    y_raw[7] = np.nan
    with pytest.raises(ValueError):
        sequential_solve(op, y_raw, NoiseModel(0.1), StoppingConfig(kappa=1.0))
    y_raw[7] = np.inf
    with pytest.raises(ValueError):
        sequential_solve(op, y_raw, NoiseModel(0.1), StoppingConfig(kappa=1.0))
    assert calls == []


@pytest.mark.parametrize("config", [StoppingConfig(kappa=0.0), StoppingConfig(kappa=1e6, m0=3)])
def test_solve_rejects_bad_selection_before_any_triplet(monkeypatch, config):
    calls = []
    monkeypatch.setattr(lazysvd, "next_triplet", lambda *args: calls.append(args))
    op = MatrixOperator(random_tall(5))
    with pytest.raises(ValueError, match="unknown norm"):
        sequential_solve(op, np.ones(60), NoiseModel(0.1), config, selection_norm="stronk")
    assert calls == []


@pytest.mark.parametrize(
    "options, key",
    [
        ({"tolerance": np.nan}, "lazysvd.tolerance"),
        ({"tolerance": np.inf}, "lazysvd.tolerance"),
        ({"tolerance": 0.0}, "lazysvd.tolerance"),
        ({"triplet_budget": -1}, "lazysvd.triplet_budget"),
    ],
)
def test_solve_rejects_bad_settings_before_any_triplet(monkeypatch, options, key):
    """A NaN tolerance never releases a triplet (``residual <= nan`` is false), and an infinite one releases
    unconverged ones; both, and a negative budget, are refused before the first triplet is asked for."""
    calls = []
    monkeypatch.setattr(lazysvd, "next_triplet", lambda *args: calls.append(args))
    op = MatrixOperator(random_tall(5))
    with pytest.raises(ValueError, match=key):
        sequential_solve(op, np.ones(60), NoiseModel(0.1), StoppingConfig(kappa=0.0), **options)
    assert calls == []


def test_solve_rejects_a_start_beyond_the_columns_before_building_its_state(monkeypatch):
    """The message is the residual rule's; the Frobenius pass, the basis arrays and the first start
    vectors used to come first."""
    restarts = []
    monkeypatch.setattr(DeflationState, "_restart", lambda self, width: restarts.append(width))
    op = MatrixOperator(random_tall(5, rows=12, cols=8))
    with pytest.raises(ValueError, match=r"^starting index 10 exceeds dimension 8$"):
        sequential_solve(op, np.ones(12), NoiseModel(0.1), StoppingConfig(kappa=0.0, m0=10))
    assert restarts == []


def test_solve_rejects_mismatched_data():
    op = MatrixOperator(np.ones((4, 2)))
    with pytest.raises(ValueError):
        sequential_solve(op, np.ones(3), NoiseModel(0.1), StoppingConfig(kappa=1.0))
    with pytest.raises(ValueError):
        sequential_solve(op, np.ones(4), NoiseModel(0.1), StoppingConfig(kappa=1.0, m0=5))


@pytest.mark.parametrize("suffix", ["txt", "bin"])
def test_matrix_roundtrip(tmp_path, suffix):
    a = random_tall(17, rows=7, cols=3)
    path = tmp_path / f"matrix.{suffix}"
    save_matrix(path, a)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, a)
    assert loaded.dtype == np.float64 and not loaded.flags.writeable
    assert MatrixOperator(loaded).entries is loaded  # frozen and owning its data: kept without a copy


@pytest.mark.parametrize("suffix", ["txt", "bin"])
def test_save_matrix_replaces_a_link(tmp_path, suffix):
    """A link at the path is replaced by the new file, as every other writer replaces its path; the file it
    pointed to keeps its bytes."""
    target = tmp_path / f"target.{suffix}"
    save_matrix(target, np.ones((2, 3)))
    before = target.read_bytes()
    link = tmp_path / f"m.{suffix}"
    link.symlink_to(target)
    save_matrix(link, np.eye(2))
    assert not link.is_symlink() and target.read_bytes() == before
    assert np.array_equal(load_matrix(link), np.eye(2))
    assert np.array_equal(load_matrix(target), np.ones((2, 3)))


def test_text_matrix_has_dimension_header(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(path, np.ones((3, 2)))
    first = path.read_text().splitlines()[0]
    assert first == "3 2"


def test_load_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("3 2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        load_matrix(path)
    short = tmp_path / "m.bin"
    short.write_bytes(b"SVDM" + b"\x02\x00")
    with pytest.raises(ValueError, match="header"):
        load_matrix(short)
    for body in (b"\x00" * 40, b"\x00" * 56):  # one entry short, one entry over, of a 2x3 matrix
        short.write_bytes(b"SVDM" + (2).to_bytes(8, "little") + (3).to_bytes(8, "little") + body)
        with pytest.raises(ValueError, match="truncated"):
            load_matrix(short)
