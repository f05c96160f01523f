"""Lazy one-at-a-time SVD with deflation, and the matrix-space stopping loop."""

import numpy as np
import pytest

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


def test_convergence_error_carries_best_iterate():
    op = MatrixOperator(random_tall(2))
    state = DeflationState(tolerance=1e-15, max_iterations=2)
    with pytest.raises(ConvergenceError) as info:
        next_triplet(state, op, seed=0)
    err = info.value
    assert err.iterations == 2
    assert err.best.sigma > 0
    assert np.linalg.norm(err.best.v) == pytest.approx(1.0, abs=1e-9)


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
    assert np.array_equal(load_matrix(path), a)


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
