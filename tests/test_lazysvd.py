"""Lazy one-at-a-time SVD by Golub-Kahan-Lanczos, and the matrix-space stopping loop."""

import importlib.util
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


def test_operator_validation():
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros(4))
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros((2, 5)))
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MatrixOperator(bad)
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
    state = DeflationState(tolerance=1e-12)
    for expected in (3.0, 2.0, 1.0):
        triplet = next_triplet(state, op, seed=1)
        assert triplet.sigma == pytest.approx(expected, abs=1e-9)


def test_triplets_match_dense_svd():
    a = random_tall(3)
    op = MatrixOperator(a)
    state = DeflationState(tolerance=1e-12)
    got = [next_triplet(state, op, seed=4) for _ in range(6)]
    u_ref, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    for i, triplet in enumerate(got):
        assert triplet.sigma == pytest.approx(s_ref[i], rel=1e-9)
        # compare up to sign through the subspace projection
        assert abs(np.dot(triplet.v, vt_ref[i])) == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.norm(a @ triplet.v - triplet.sigma * triplet.u) < 1e-7 * s_ref[0]


def test_triplets_are_orthonormal():
    a = random_tall(11)
    op = MatrixOperator(a)
    state = DeflationState(tolerance=1e-12)
    for _ in range(8):
        next_triplet(state, op, seed=2)
    vmat = np.array([t.v for t in state.triplets])
    umat = np.array([t.u for t in state.triplets])
    assert vmat @ vmat.T == pytest.approx(np.eye(8), abs=1e-8)
    assert umat @ umat.T == pytest.approx(np.eye(8), abs=1e-8)


def test_sign_convention_first_nonzero_positive():
    a = random_tall(5)
    state = DeflationState()
    for _ in range(4):
        triplet = next_triplet(state, MatrixOperator(a), seed=9)
        lead = triplet.v[np.abs(triplet.v) > 1e-12][0]
        assert lead > 0


def test_matvec_accounting():
    op = MatrixOperator(random_tall(6))
    state = DeflationState(tolerance=1e-10)
    for _ in range(5):
        next_triplet(state, op, seed=0)
    assert state.matvec_count == 2 * sum(state.iterations)
    assert len(state.iterations) == 5


def test_next_triplet_is_deterministic():
    runs = []
    for _ in range(2):
        state = DeflationState()
        op = MatrixOperator(random_tall(13))
        runs.append([next_triplet(state, op, seed=21) for _ in range(5)])
    for left, right in zip(*runs):
        assert left.sigma == right.sigma
        assert np.array_equal(left.u, right.u)
        assert np.array_equal(left.v, right.v)


def test_rank_deficiency_detected():
    rng = np.random.default_rng(1)
    col = rng.standard_normal((6, 1))
    a = col @ np.array([[1.0, 2.0, -0.5]])  # rank one, three columns
    op = MatrixOperator(a)
    state = DeflationState(tolerance=1e-12)
    next_triplet(state, op, seed=0)
    with pytest.raises(RankDeficiencyError):
        next_triplet(state, op, seed=0)
    # exact zeros: A v vanishes, and the left basis goes on orthogonally
    with pytest.raises(RankDeficiencyError):
        next_triplet(DeflationState(), MatrixOperator(np.zeros((4, 3))), seed=0)
    state = DeflationState()
    op = MatrixOperator(embedded_diagonal([2.0, 0.0, 1.0], rows=4))
    assert [next_triplet(state, op, seed=0).sigma for _ in range(2)] == pytest.approx([2.0, 1.0])
    with pytest.raises(RankDeficiencyError):
        next_triplet(state, op, seed=0)


def test_convergence_error_carries_best_iterate():
    a = random_tall(2)
    op = MatrixOperator(a)
    state = DeflationState(tolerance=1e-15, max_iterations=2)
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state, op, seed=0)
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
    assert state.triplets == [] and state.iterations == []


def test_release_residuals_are_the_true_residuals():
    """The residual read off the pending couplings is ``|A'u - sigma v|``; a
    loose tolerance releases triplets whose residuals stand well above
    round-off."""
    a = random_tall(7)
    state = DeflationState(tolerance=1e-6)
    for _ in range(10):
        next_triplet(state, MatrixOperator(a), seed=3)
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
    state = DeflationState()
    got = [next_triplet(state, MatrixOperator(a), seed=1).sigma for _ in range(20)]
    assert got == pytest.approx(sigmas, abs=1e-8)


@pytest.mark.parametrize("layout", ["embedded", "rotated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_copies_released_in_order(layout, seed):
    """A value seven times over, then three more repeated ones, in 21
    columns: one Krylov sequence sees a single copy of each, and the
    single-vector engine released 3.5263 eighth (error 5.13)."""
    sigmas = np.repeat([8.655, 3.5263, 1.3033, 1.1243], [7, 5, 5, 4])
    a = embedded_diagonal(sigmas, rows=27) if layout == "embedded" else rotated(sigmas, rows=27, seed=seed)
    state = DeflationState()
    got = [next_triplet(state, MatrixOperator(a), seed=seed) for _ in range(21)]
    assert [t.sigma for t in got] == pytest.approx(sigmas, abs=1e-8)
    vmat = np.array([t.v for t in got])
    assert vmat @ vmat.T == pytest.approx(np.eye(21), abs=1e-8)
    with pytest.raises(ValueError):
        next_triplet(state, MatrixOperator(a), seed=seed)


@pytest.mark.parametrize("seed", [12, 136, 168])
def test_tight_cluster_released_in_order(seed):
    """21 values within 1e-4 of each other, relatively, with gaps down to
    the tolerance. Each of these instances fails if only values within
    twice the tolerance count as copies of the pending one."""
    rng = np.random.default_rng(seed)
    sigmas = np.sort(3 * (1 + 10.0 ** rng.uniform(-9, -4, 21) * rng.standard_normal(21)))[::-1]
    a = rotated(sigmas, rows=27, seed=seed)
    state = DeflationState()
    got = [next_triplet(state, MatrixOperator(a), seed=seed).sigma for _ in range(21)]
    assert got == pytest.approx(sigmas, abs=1e-8)


def test_state_belongs_to_one_operator():
    a = random_tall(8, rows=12, cols=5)
    state = DeflationState()
    next_triplet(state, MatrixOperator(a), seed=0)
    # an equal copy of the matrix is the same operator
    next_triplet(state, MatrixOperator(a.copy()), seed=0)
    with pytest.raises(ValueError):
        next_triplet(state, MatrixOperator(2 * a), seed=0)
    state.triplets.pop()
    with pytest.raises(ValueError):
        next_triplet(state, MatrixOperator(a), seed=0)


def test_triplets_given_up_front_are_deflated():
    """Triplets placed in a fresh state are locked out of the basis; one that
    is not the largest makes the larger value turn up late, which raises."""
    a = embedded_diagonal([3.0, 2.0, 1.0], rows=4)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    state = DeflationState(triplets=[lazysvd.SingularTriplet(s[0], u[:, 0], vt[0])])
    got = [next_triplet(state, MatrixOperator(a), seed=0).sigma for _ in range(2)]
    assert got == pytest.approx([2.0, 1.0], abs=1e-9)
    assert state.iterations[0] > 0 and len(state.iterations) == 2
    state = DeflationState(triplets=[lazysvd.SingularTriplet(s[2], u[:, 2], vt[2])])
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state, MatrixOperator(a), seed=0)
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
    state = DeflationState()
    got = [next_triplet(state, op, seed=seed).sigma for _ in range(rank)]
    assert got == pytest.approx(sigmas[:rank], abs=1e-8)
    with pytest.raises(RankDeficiencyError):
        next_triplet(state, op, seed=seed)


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
@pytest.mark.parametrize("norm, multiplier", [("stronk", 1.0), ("weak", -3.0), ("strong", 0.0), (None, -3.0)])
def test_solve_rejects_bad_selection_before_any_triplet(monkeypatch, config, norm, multiplier):
    calls = []
    monkeypatch.setattr(lazysvd, "next_triplet", lambda *args: calls.append(args))
    op = MatrixOperator(random_tall(5))
    with pytest.raises(ValueError):
        sequential_solve(op, np.ones(60), NoiseModel(0.1), config, selection_norm=norm, penalty_multiplier=multiplier)
    assert calls == []


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
