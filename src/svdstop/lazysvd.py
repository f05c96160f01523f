"""Lazy singular-triplet computation driven by the stopping rule.

Triplets of a dense matrix are produced strictly one at a time, largest
singular value first, by power iteration on the deflated normal operator
``A'A - sum_j sigma_j**2 v_j v_j'``. Iterates are re-orthogonalised
against all previously computed right vectors on every iteration, which
keeps deflation stable; convergence is declared when the eigen-residual
``|(A'A)v - rho v|`` falls below ``tolerance * rho``. The residual test,
unlike a Rayleigh-increment test, bounds the error of the singular
*vector* linearly in the tolerance (residual over spectral gap), which
downstream coefficient reconstructions rely on. Every iteration costs
exactly two matrix-vector products, and ``sequential_solve`` couples the
engine to the residual stopping rule so a solve computes exactly as many
triplets as the rule consumes coefficients.

Sign convention: the first component of ``v`` larger than 1e-12 in
magnitude is made positive (``u`` flips along), so converged triplets are
comparable across runs and to reference decompositions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimateVector
from .model import NoiseModel
from .stopping import StopOutcome, StoppingConfig, residual_rule, two_step

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


class ConvergenceError(RuntimeError):
    """Power iteration did not converge; carries the best iterate found."""

    def __init__(self, message: str, best: "SingularTriplet", iterations: int):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class RankDeficiencyError(RuntimeError):
    """The deflated operator is numerically zero; no further triplet exists."""


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
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError("operator entries must form a two-dimensional array")
        if arr.shape[0] < arr.shape[1]:
            raise ValueError("operator must have at least as many rows as columns")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
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


@dataclass
class DeflationState:
    """Mutable bookkeeping of a lazy decomposition in progress."""

    triplets: list[SingularTriplet] = field(default_factory=list)
    matvec_count: int = 0
    iterations: list[int] = field(default_factory=list)
    tolerance: float = 1e-10
    max_iterations: int = 10000

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
    """Compute the next-largest singular triplet and append it to the state.

    The start vector is drawn from a generator keyed by ``(seed, number of
    triplets already computed)``, so repeated calls are deterministic.
    """
    A = operator.entries
    dim = operator.domain_dim
    n_done = len(state.triplets)
    if n_done >= dim:
        raise ValueError("all singular triplets have already been computed")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(n_done,)))
    basis = np.array([t.v for t in state.triplets]) if n_done else None
    sigma_sq = np.array([t.sigma**2 for t in state.triplets]) if n_done else None
    scale = float(np.linalg.norm(A, ord="fro"))

    v = rng.standard_normal(dim)
    if basis is not None:
        v -= basis.T @ (basis @ v)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise RankDeficiencyError("start vector vanished after orthogonalisation")
    v /= norm_v

    best_resid = math.inf
    best_v = v
    best_image = np.zeros(operator.codomain_dim)
    for iteration in range(1, state.max_iterations + 1):
        image = A @ v
        w = A.T @ image
        state.matvec_count += 2
        if basis is not None:
            w -= basis.T @ (sigma_sq * (basis @ v))
            # a second projection keeps the iterate orthogonal despite round-off
            w -= basis.T @ (basis @ w)
        rho = float(np.dot(v, w))
        norm_w = float(np.linalg.norm(w))
        if rho <= (1e-12 * scale) ** 2 or norm_w == 0.0:
            raise RankDeficiencyError(
                f"deflated operator is numerically zero after {n_done} triplets"
            )
        resid = float(np.linalg.norm(w - rho * v))
        if resid <= state.tolerance * rho:
            sigma = float(np.linalg.norm(image))
            u = image / sigma
            u, v = _fix_sign(u, v)
            triplet = SingularTriplet(sigma=sigma, u=u, v=v)
            state.triplets.append(triplet)
            state.iterations.append(iteration)
            return triplet
        if resid < best_resid:
            best_resid, best_v, best_image = resid, v, image
        v = w / norm_w

    sigma = float(np.linalg.norm(best_image))
    u, best_v = _fix_sign(best_image / max(sigma, 1e-300), best_v)
    raise ConvergenceError(
        f"power iteration did not converge within {state.max_iterations} iterations",
        best=SingularTriplet(sigma=sigma, u=u, v=best_v),
        iterations=state.max_iterations,
    )


@dataclass(frozen=True)
class SequentialSolveResult:
    """Outcome of a stopped lazy solve.

    ``estimate`` lives in the column coordinates of the operator;
    ``state`` carries the computed triplets and the matrix-vector product
    count, the central frugality measure.
    """

    estimate: EstimateVector
    outcome: StopOutcome
    matvec_count: int
    state: DeflationState


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
    that is not finite raises ``ValueError`` before any triplet is
    computed.
    """
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.shape != (operator.codomain_dim,):
        raise ValueError("data vector length disagrees with the operator codomain")
    if not np.all(np.isfinite(y_raw)):
        raise ValueError("data vector must be finite")
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
    outcome = StopOutcome(tau=tau, rho=rho, coefficients_consumed=tau, immediate_stop=tau == config.m0)
    return SequentialSolveResult(
        estimate=EstimateVector(values=estimate, t=float(chosen)),
        outcome=outcome,
        matvec_count=state.matvec_count,
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
    """Read a dense matrix written by :func:`save_matrix`."""
    if str(path).endswith(".bin"):
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _BINARY_MAGIC:
                raise ValueError(f"{path}: not a binary matrix file")
            header = fh.read(16)
            if len(header) != 16:
                raise ValueError(f"{path}: truncated binary matrix header")
            rows, cols = struct.unpack("<qq", header)
            data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size != rows * cols:
            raise ValueError(f"{path}: truncated binary matrix file")
        return data.reshape(rows, cols).astype(float)
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected a 'rows cols' header line")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: body shape {data.shape} disagrees with header {(rows, cols)}")
    return data
