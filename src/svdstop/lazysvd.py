"""Lazy singular-triplet computation driven by the stopping rule.

Triplets of a dense matrix are released strictly one at a time, largest
singular value first, from one Golub-Kahan-Lanczos bidiagonalization
(Golub & Kahan 1965) with full reorthogonalisation, as in PROPACK (Larsen
1998), run as a band process from a block of random start vectors (two,
unless repeated values call for more). The Krylov basis grows in chunks
of ten steps; every step costs exactly two matrix-vector products. With
``A V' = U' H`` and ``H = P diag(sigma) Q'`` the Ritz triplet
``(sigma_i, U' p_i, V' q_i)`` satisfies ``A v = sigma u`` (up to the
residuals of earlier releases), and its residual
``|A'u - sigma v|`` is read off the couplings of ``U`` to the next right
vectors, so the next triplet is released once that residual is at most
``tolerance * sigma_i``, which is the eigen-residual test
``|(A'A)v - sigma**2 v| <= tolerance * sigma**2``. The residual test,
unlike a Rayleigh-increment test, bounds the error of the singular
*vector* linearly in the tolerance (residual over spectral gap), which
downstream coefficient reconstructions rely on. Released triplets are
locked: later Ritz triplets are taken orthogonal to them. ``sequential_solve``
couples the engine to the residual stopping rule, so a solve releases
exactly as many triplets as the rule consumes coefficients.

Release order under repeated values: a Krylov space built from ``s``
random start vectors holds at most ``s`` copies of a repeated singular
value, and (with probability one) exactly ``min(s, multiplicity)``. Values
within ``sqrt(tolerance)`` of each other, relatively, count as copies.
Before a triplet is released, the released and converged copies of its
value are counted; if there are as many as start vectors, more may lie
outside the basis, and the basis is rebuilt from twice as many start
vectors, orthogonal to the released triplets. A converged value larger
than the last released one by more than that window raises
:class:`ConvergenceError` rather than being released out of order.

Sign convention: the first component of ``v`` larger than 1e-12 in
magnitude is made positive (``u`` flips along), so released triplets are
comparable across runs and to reference decompositions.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimateVector
from .model import NoiseModel, _frozen_array
from .stopping import StopOutcome, StoppingConfig, _check_selection, residual_rule, two_step

__all__ = [
    "ConvergenceError",
    "DeflationState",
    "MatrixOperator",
    "RankDeficiencyError",
    "SequentialSolveResult",
    "SingularTriplet",
    "TripletBudgetError",
    "load_matrix",
    "next_triplet",
    "save_matrix",
    "sequential_solve",
]

_BINARY_MAGIC = b"SVDM"
_CHUNK = 10  # Lanczos steps between release checks
_TINY = 1e-12  # relative to |A|_F: breakdown and numerically zero singular values
_START_WIDTH = 2  # random start vectors of a fresh basis


class ConvergenceError(RuntimeError):
    """The pending triplet did not converge, or converged out of order.

    Carries its current Ritz approximation.
    """

    def __init__(self, message: str, best: "SingularTriplet", iterations: int):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class RankDeficiencyError(RuntimeError):
    """The next singular value is numerically zero; no further triplet exists."""


class TripletBudgetError(RuntimeError):
    """The stopping rule demanded more triplets than the configured budget.

    Carries the partial deflation state and the coefficients read so far.
    """

    def __init__(self, message: str, state: "DeflationState", coefficients: np.ndarray):
        super().__init__(message)
        self.state = state
        self.coefficients = coefficients


@dataclass(frozen=True)
class MatrixOperator:
    """Dense forward operator with at least as many rows as columns."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries)  # a frozen matrix, such as load_matrix returns, is not copied again
        if arr.ndim != 2:
            raise ValueError("operator entries must form a two-dimensional array")
        if arr.shape[0] < arr.shape[1]:
            raise ValueError("operator must have at least as many rows as columns")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def codomain_dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def domain_dim(self) -> int:
        return int(self.entries.shape[1])


@dataclass(frozen=True)
class SingularTriplet:
    """One singular triplet ``A v = sigma u`` with unit vectors ``u`` and ``v``."""

    sigma: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.sigma < 0:
            raise ValueError("singular value must be non-negative")


class _Bidiagonalization:
    """Band Golub-Kahan-Lanczos process ``A V' = U' H`` of one matrix.

    Basis vectors are rows of ``u`` and ``v``, kept orthonormal by classical
    Gram-Schmidt applied twice. The first ``k`` right vectors are active:
    right vector ``j`` produced left vector ``j``, and ``H[:k, :k] = U A V'``
    is upper triangular with ``width`` superdiagonals. The right vectors
    ``k .. stored`` are pending: the directions of ``A'U`` outside the
    active basis, so that ``A'U = V H'`` over all stored rows, and each step
    expands the oldest one. ``width`` random vectors start the process.

    The Ritz triplets not yet released are kept as coordinates ``p``, ``q``
    in the active basis with values ``sigma``. A release drops the first
    one, which locks it: the next Rayleigh-Ritz step works on ``H``
    restricted to the span of the remaining ones and the new basis vectors,
    so a later copy of a released value is a new direction, not a rotation
    of a released one. Triplets released before the basis was built sit in
    front as basis rows with ``H = diag(sigma)``, outside that span, and the
    random starts are orthogonal to them.
    """

    def __init__(self, entries: np.ndarray, seed: int, width: int, locked: list[SingularTriplet]):
        rows, cols = entries.shape
        self.entries = entries
        self.seed = seed
        self.width = width
        self.scale = float(np.linalg.norm(entries, ord="fro"))
        self.u = np.empty((cols, rows))
        self.v = np.empty((cols, cols))
        self.h = np.zeros((cols, cols))
        for j, triplet in enumerate(locked):
            self.u[j], self.v[j], self.h[j, j] = triplet.u, triplet.v, triplet.sigma
        self.released = self.k = self.stored = len(locked)
        for _ in range(min(width, cols - self.k)):
            self.v[self.stored] = self._fresh(self.v[: self.stored], 0)
            self.stored += 1
        self.p = self.q = np.zeros((self.k, 0))
        self.sigma = self.residuals = np.zeros(0)

    @staticmethod
    def _orthogonalise(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Remove ``basis`` from ``x`` in place; return the coefficients removed."""
        coefficients = np.zeros(basis.shape[0])
        for _ in range(2):
            c = basis @ x
            x -= c @ basis
            coefficients += c
        return coefficients

    def _fresh(self, basis: np.ndarray, side: int) -> np.ndarray:
        """A unit vector orthogonal to ``basis``, keyed by the seed, side, width and basis size."""
        key = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(side, self.width, basis.shape[0]))
        x = np.random.default_rng(key).standard_normal(basis.shape[1])
        self._orthogonalise(x, basis)
        return x / np.linalg.norm(x)

    def extend(self, limit: int) -> int:
        """Take up to ``min(10, limit)`` steps and update the Ritz triplets.

        Returns the number of steps taken (two matrix-vector products each);
        none are left once the basis spans the whole domain. A step whose
        new vector is numerically zero (at most ``1e-12 |A|_F``) goes on
        from a fresh random vector orthogonal to the basis instead.
        """
        A = self.entries
        cols = A.shape[1]
        tiny = _TINY * self.scale
        start = self.k
        while self.k - start < min(_CHUNK, limit) and self.k < self.stored:
            k = self.k
            p = A @ self.v[k]
            self.h[:k, k] = self._orthogonalise(p, self.u[:k])
            alpha = float(np.linalg.norm(p))
            if alpha <= tiny:  # A's range is exhausted: continue in its complement
                alpha, p = 0.0, self._fresh(self.u[:k], 1)
            else:
                p /= alpha
            self.u[k], self.h[k, k] = p, alpha
            r = A.T @ p
            n = self.stored
            self.h[k, k + 1 : n] = self._orthogonalise(r, self.v[:n])[k + 1 :]
            if n < cols:
                beta = float(np.linalg.norm(r))
                if beta <= tiny:  # invariant subspace: restart orthogonally to it
                    beta, r = 0.0, self._fresh(self.v[:n], 0)
                else:
                    r /= beta
                self.v[n], self.h[k, n] = r, beta
                self.stored = n + 1
            self.k = k + 1
        if self.k > start:
            self._rayleigh_ritz(start)
        return self.k - start

    def _rayleigh_ritz(self, old: int) -> None:
        """Ritz triplets over the unreleased ones and the basis vectors from ``old`` on.

        In those coordinates ``H`` is ``[[diag(sigma), P' H12], [0, H22]]``:
        the unreleased triplets diagonalize the old block, and the new rows
        start below the old columns. ``residuals[i] = |A'u_i - sigma_i v_i|``
        is read off the couplings to the pending right vectors.
        """
        k, m = self.k, self.sigma.size
        block = np.zeros((m + k - old, m + k - old))
        block[:m, :m] = np.diag(self.sigma)
        block[:m, m:] = self.p.T @ self.h[:old, old:k]
        block[m:, m:] = self.h[old:k, old:k]
        p, self.sigma, qt = np.linalg.svd(block)
        self.p = np.vstack([self.p @ p[:m], p[m:]])
        self.q = np.vstack([self.q @ qt.T[:m], qt.T[m:]])
        self.residuals = np.linalg.norm(self.h[:k, k : self.stored].T @ self.p, axis=0)

    def triplet(self) -> SingularTriplet:
        """The largest Ritz triplet not yet released, with the sign convention applied."""
        u, v = _fix_sign(self.p[:, 0] @ self.u[: self.k], self.q[:, 0] @ self.v[: self.k])
        return SingularTriplet(sigma=self.sigma[0], u=u, v=v)

    def release(self) -> None:
        """Lock the largest Ritz triplet not yet released."""
        self.p, self.q = self.p[:, 1:], self.q[:, 1:]
        self.sigma, self.residuals = self.sigma[1:], self.residuals[1:]
        self.released += 1


@dataclass
class DeflationState:
    """Mutable bookkeeping of a lazy decomposition in progress.

    ``iterations[i]`` counts the Lanczos steps taken while triplet ``i`` was
    pending (each two matrix-vector products), and ``release_residuals[i]``
    is its residual ``|A'u - sigma v|`` at release. A state belongs to one
    operator: its Krylov basis is built on the first call of
    :func:`next_triplet`, deflating any triplets the state already holds,
    and later calls must pass the same matrix.
    """

    triplets: list[SingularTriplet] = field(default_factory=list)
    matvec_count: int = 0
    iterations: list[int] = field(default_factory=list)
    tolerance: float = 1e-10
    max_iterations: int = 10000
    release_residuals: list[float] = field(default_factory=list)
    _basis: _Bidiagonalization | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("iteration budget must be at least 1")


def _fix_sign(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nonzero = np.nonzero(np.abs(v) > 1e-12)[0]
    if nonzero.size and v[nonzero[0]] < 0:
        return -u, -v
    return u, v


def next_triplet(state: DeflationState, operator: MatrixOperator, seed: int = 0) -> SingularTriplet:
    """Release the next-largest singular triplet and append it to the state.

    The Krylov basis is extended until the largest Ritz triplet not yet
    released meets the tolerance. If as many released or converged values
    equal it (within ``sqrt(tolerance)``, relatively) as the basis has
    random starts, further copies may lie outside the basis: it is rebuilt
    from twice as many starts, orthogonal to the triplets already in the
    state, before anything is released. Start vectors are drawn from generators keyed by
    ``seed`` (of the call that builds the basis) and the basis size, so
    repeated runs are deterministic. Raises :class:`RankDeficiencyError`
    when the converged singular value is numerically zero,
    :class:`ConvergenceError` after ``max_iterations`` steps on one pending
    triplet or when the converged value exceeds the one released before it,
    and ``ValueError`` when the state's basis was built for a different
    operator or its triplets were changed outside this function.
    """
    A = operator.entries
    i = len(state.triplets)
    if i >= operator.domain_dim:
        raise ValueError("all singular triplets have already been computed")
    basis = state._basis
    if basis is None:
        basis = state._basis = _Bidiagonalization(A, seed, _START_WIDTH, state.triplets)
    elif not (basis.entries is A or np.array_equal(basis.entries, A)):
        raise ValueError("the deflation state belongs to a different operator")
    elif basis.released != i:
        raise ValueError("the deflation state's triplets were changed outside next_triplet")
    tol = state.tolerance
    steps = 0
    while True:
        if basis.sigma.size:
            sigma, residuals = basis.sigma, basis.residuals
            if residuals[0] <= tol * sigma[0]:
                if sigma[0] <= _TINY * basis.scale:
                    raise RankDeficiencyError(f"singular value {i + 1} is numerically zero")
                window = np.sqrt(tol) * sigma[0]
                released = np.array([t.sigma for t in state.triplets])
                copies = np.count_nonzero(np.abs(released - sigma[0]) <= window) + np.count_nonzero(
                    (np.abs(sigma - sigma[0]) <= window) & (residuals <= tol * sigma)
                )
                if copies >= basis.width:
                    basis = state._basis = _Bidiagonalization(A, basis.seed, 2 * basis.width, state.triplets)
                    continue
                triplet = basis.triplet()
                if i and triplet.sigma > state.triplets[-1].sigma + window:
                    raise ConvergenceError(
                        f"triplet {i + 1} exceeds triplet {i}: a larger singular value was found late",
                        best=triplet,
                        iterations=steps,
                    )
                state.triplets.append(triplet)
                state.iterations.append(steps)
                state.release_residuals.append(float(residuals[0]))
                basis.release()
                return triplet
            if steps >= state.max_iterations:
                raise ConvergenceError(
                    f"triplet {i + 1} did not converge within {state.max_iterations} Lanczos steps",
                    best=basis.triplet(),
                    iterations=steps,
                )
        taken = basis.extend(state.max_iterations - steps)
        state.matvec_count += 2 * taken
        steps += taken


@dataclass(frozen=True)
class SequentialSolveResult:
    """Outcome of a stopped lazy solve.

    ``estimate`` lives in the column coordinates of the operator;
    ``state`` carries the computed triplets and the matrix-vector product
    count, the central frugality measure.
    """

    estimate: EstimateVector
    outcome: StopOutcome
    state: DeflationState

    @property
    def matvec_count(self) -> int:
        return self.state.matvec_count


def sequential_solve(
    operator: MatrixOperator,
    y_raw: np.ndarray,
    noise: NoiseModel,
    config: StoppingConfig,
    seed: int = 0,
    tolerance: float = 1e-10,
    max_iterations: int = 10000,
    triplet_budget: int | None = None,
    selection_norm: str | None = None,
    penalty_multiplier: float = 1.0,
) -> SequentialSolveResult:
    """Solve the inverse problem lazily, stopping by the residual rule.

    Triplets are computed one at a time and each feeds its coefficient
    ``Y_m = <u_m, y_raw>`` to :func:`~svdstop.stopping.residual_rule`
    against the squared norm ``|y_raw|**2``; the rule stops pulling at
    ``tau``, so exactly ``tau`` triplets are computed. With
    ``selection_norm`` set, the sequence-space
    :func:`~svdstop.stopping.two_step` re-selects over the computed
    triplets after an immediate stop. A ``triplet_budget`` smaller than
    the demanded stopping index raises :class:`TripletBudgetError`; data
    that is not finite, an unknown ``selection_norm``, a multiplier that
    is not positive (checked with or without ``selection_norm``) or a
    ``config.m0`` beyond the column count raises ``ValueError`` before
    any triplet is computed.
    """
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.shape != (operator.codomain_dim,):
        raise ValueError("data vector length disagrees with the operator codomain")
    if not np.all(np.isfinite(y_raw)):
        raise ValueError("data vector must be finite")
    _check_selection("strong" if selection_norm is None else selection_norm, penalty_multiplier)
    dim = operator.domain_dim
    state = DeflationState(tolerance=tolerance, max_iterations=max_iterations)
    coeffs: list[float] = []

    def triplet_coefficients():
        while True:
            if triplet_budget is not None and len(coeffs) >= triplet_budget:
                raise TripletBudgetError(
                    f"stopping rule needs more than {triplet_budget} triplets",
                    state=state,
                    coefficients=np.array(coeffs),
                )
            triplet = next_triplet(state, operator, seed)
            coeffs.append(float(np.dot(triplet.u, y_raw)))
            yield coeffs[-1:]

    tau = residual_rule(triplet_coefficients(), float(np.dot(y_raw, y_raw)), dim, config)
    chosen = tau
    rho: int | None = None
    if selection_norm is not None:
        sigmas = [t.sigma for t in state.triplets]
        chosen = rho = two_step(tau, coeffs, sigmas, noise.delta, config.m0, selection_norm, penalty_multiplier)

    estimate = np.zeros(dim)
    for i in range(chosen):
        t = state.triplets[i]
        estimate += (coeffs[i] / t.sigma) * t.v
    return SequentialSolveResult(
        estimate=EstimateVector(values=estimate, t=float(chosen)),
        outcome=StopOutcome(tau=tau, rho=rho, m0=config.m0),
        state=state,
    )


def save_matrix(path, entries: np.ndarray) -> None:
    """Write a dense matrix, row-major with a ``P D`` header.

    Paths ending in ``.bin`` use the binary layout (magic ``SVDM``, two
    little-endian int64 dimensions, float64 entries); anything else is
    whitespace-separated text with the header on the first line.
    """
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2:
        raise ValueError("expected a two-dimensional array")
    rows, cols = entries.shape
    if str(path).endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<qq", rows, cols))
            fh.write(np.ascontiguousarray(entries).astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(f"{rows} {cols}\n")
            for row in entries:
                fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix written by :func:`save_matrix`, as a read-only float64 matrix.

    A ``.bin`` file is read straight into a matrix that owns its data, so
    :class:`MatrixOperator` keeps it without a copy.
    """
    if str(path).endswith(".bin"):
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _BINARY_MAGIC:
                raise ValueError(f"{path}: not a binary matrix file")
            header = fh.read(16)
            if len(header) != 16:
                raise ValueError(f"{path}: truncated binary matrix header")
            rows, cols = struct.unpack("<qq", header)
            if rows < 0 or cols < 0 or os.fstat(fh.fileno()).st_size - fh.tell() != 8 * rows * cols:
                raise ValueError(f"{path}: truncated binary matrix file")
            # filled in place: a matrix reshaped from np.fromfile's flat array would be a view, owning nothing
            data = np.empty((rows, cols), dtype="<f8")
            fh.readinto(data)
    else:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{path}: expected a 'rows cols' header line")
            rows, cols = int(header[0]), int(header[1])
            data = np.loadtxt(fh, dtype=float, ndmin=2)
        if data.shape != (rows, cols):
            raise ValueError(f"{path}: body shape {data.shape} disagrees with header {(rows, cols)}")
    data.setflags(write=False)
    return data
