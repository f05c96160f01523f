"""Sequence-space model for discretised ill-posed problems.

Observed coefficients follow ``y_i = lam_i * mu_i + delta * eps_i`` where
``lam`` is the non-increasing positive singular-value sequence of the
forward operator, ``mu`` the unknown coefficient vector, ``delta`` the
known noise level and ``eps`` independent standard Gaussian (or, for
robustness experiments, Rademacher) noise.

All containers are immutable and operations are pure. Per-replication
random streams are derived by splitting a base seed through
:func:`replication_seed`; generator state is never shared between
replications. The generator algorithm is NumPy's PCG64 as wired up by
``numpy.random.default_rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InvalidDimensionError",
    "NoiseModel",
    "Observation",
    "Signal",
    "SobolevClass",
    "Spectrum",
    "load_vector",
    "make_polynomial_spectrum",
    "replication_seed",
    "require_same_dim",
    "satisfies_polynomial_decay",
    "save_vector",
    "simulate_observation",
    "sobolev_radius",
    "weak_norm_sq",
]

NOISE_KINDS = ("gaussian", "rademacher")


class DimensionMismatchError(ValueError):
    """Paired vectors disagree in length."""


class InvalidDimensionError(ValueError):
    """Problem dimension is empty or otherwise unusable."""


def _frozen_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional real vector")
    arr.setflags(write=False)
    return arr


def require_same_dim(*lengths: int) -> int:
    """Return the common length, raising :class:`DimensionMismatchError` otherwise."""
    first = int(lengths[0])
    if any(int(n) != first for n in lengths[1:]):
        raise DimensionMismatchError(f"dimension mismatch: {tuple(int(n) for n in lengths)}")
    return first


def satisfies_polynomial_decay(values: np.ndarray, p: float, c: float, rtol: float = 1e-12) -> bool:
    """Check ``c**-1 * i**-p <= values[i-1] <= c * i**-p`` for all indices.

    A small relative slack absorbs floating-point round-off so that
    spectra constructed as exactly ``i**-p`` certify with ``c = 1``.
    """
    values = np.asarray(values, dtype=float)
    idx = np.arange(1, values.size + 1, dtype=float)
    envelope = idx ** -float(p)
    upper = c * envelope * (1.0 + rtol)
    lower = (envelope / c) * (1.0 - rtol)
    return bool(np.all(values <= upper) and np.all(values >= lower))


@dataclass(frozen=True)
class Spectrum:
    """Singular values ``lam_1 >= ... >= lam_D > 0`` of the forward operator.

    ``decay_certificate``, when present, is a pair ``(p, c)`` with
    ``p >= 0`` and ``c >= 1`` certifying the polynomial envelope
    ``c**-1 * i**-p <= lam_i <= c * i**-p``; it is validated eagerly.
    """

    values: np.ndarray
    decay_certificate: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values))
        v = self.values
        if v.size == 0:
            raise InvalidDimensionError("spectrum must contain at least one singular value")
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise ValueError("singular values must be finite and strictly positive")
        if np.any(np.diff(v) > 0):
            raise ValueError("singular values must be non-increasing")
        if self.decay_certificate is not None:
            p, c = (float(x) for x in self.decay_certificate)
            if p < 0 or c < 1:
                raise ValueError("decay certificate requires p >= 0 and c >= 1")
            object.__setattr__(self, "decay_certificate", (p, c))
            if not satisfies_polynomial_decay(v, p, c):
                raise ValueError("spectrum violates its polynomial decay certificate")

    @property
    def dim(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Signal:
    """Unknown coefficient vector of the problem instance."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_vector(self.coefficients))
        if self.coefficients.size == 0:
            raise InvalidDimensionError("signal must contain at least one coefficient")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("signal coefficients must be finite")

    @property
    def dim(self) -> int:
        return int(self.coefficients.size)


@dataclass(frozen=True)
class NoiseModel:
    """Noise level and distribution of the coefficient noise.

    ``delta`` must be non-negative; zero is admitted for deterministic
    diagnostics.
    """

    delta: float
    kind: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("noise level must be finite and non-negative")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")


@dataclass(frozen=True)
class Observation:
    """Observed coefficient vector together with its squared norm header.

    ``y_norm_sq`` is carried explicitly because streaming consumers of the
    coefficients need the total before reading any coefficient; it must
    agree with ``sum(y**2)`` to relative accuracy 1e-12. ``noise`` keeps the
    realised noise vector when the observation was simulated, which lets
    diagnostics evaluate pathwise error decompositions exactly.
    """

    y: np.ndarray
    y_norm_sq: float
    delta: float
    noise: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_vector(self.y))
        object.__setattr__(self, "y_norm_sq", float(self.y_norm_sq))
        object.__setattr__(self, "delta", float(self.delta))
        if self.noise is not None:
            object.__setattr__(self, "noise", _frozen_vector(self.noise))
            require_same_dim(self.y.size, self.noise.size)
        if self.delta < 0 or not math.isfinite(self.delta):
            raise ValueError("noise level must be finite and non-negative")
        total = float(np.dot(self.y, self.y))
        if not math.isclose(self.y_norm_sq, total, rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError("y_norm_sq disagrees with the squared norm of y")

    @property
    def dim(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True)
class SobolevClass:
    """Ellipsoid of coefficient vectors with ``sum(i**(2*beta) * mu_i**2) <= radius**2``."""

    beta: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "radius", float(self.radius))
        if self.beta < 0:
            raise ValueError("smoothness must be non-negative")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, signal: Signal) -> bool:
        return sobolev_radius(signal, self.beta) <= self.radius


def make_polynomial_spectrum(dim: int, p: float) -> Spectrum:
    """Spectrum ``lam_i = i**-p`` with its own decay certificate ``(p, 1)``."""
    if dim < 1:
        raise InvalidDimensionError("dimension must be at least 1")
    if p < 0:
        raise ValueError("decay exponent must be non-negative")
    idx = np.arange(1, dim + 1, dtype=float)
    return Spectrum(idx ** -float(p), decay_certificate=(float(p), 1.0))


def replication_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent seed stream for replication ``index`` of a base seed.

    Splitting is counter-based: the derived stream depends only on
    ``(base_seed, index)``, so results do not depend on how replications
    are distributed over workers.
    """
    if index < 0:
        raise ValueError("replication index must be non-negative")
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(index),))


def simulate_observation(signal: Signal, spectrum: Spectrum, noise: NoiseModel, seed) -> Observation:
    """Draw one observation ``y = lam * mu + delta * eps``.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``; identical
    seeds give bit-identical observations.
    """
    dim = require_same_dim(signal.dim, spectrum.dim)
    rng = np.random.default_rng(seed)
    if noise.kind == "gaussian":
        eps = rng.standard_normal(dim)
    else:
        eps = rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0
    y = spectrum.values * signal.coefficients + noise.delta * eps
    return Observation(
        y=y,
        y_norm_sq=float(np.dot(y, y)),
        delta=noise.delta,
        noise=eps,
        seed=seed if isinstance(seed, int) else None,
    )


def weak_norm_sq(v: np.ndarray, spectrum: Spectrum) -> float:
    """Squared image-space norm ``sum(lam_i**2 * v_i**2)``."""
    v = np.asarray(v, dtype=float)
    require_same_dim(v.size, spectrum.dim)
    w = spectrum.values * v
    return float(np.dot(w, w))


def sobolev_radius(signal: Signal, beta: float) -> float:
    """Smallest ellipsoid radius of smoothness ``beta`` containing the signal."""
    if beta < 0:
        raise ValueError("smoothness must be non-negative")
    idx = np.arange(1, signal.dim + 1, dtype=float)
    return float(math.sqrt(np.sum(idx ** (2.0 * beta) * signal.coefficients**2)))


def load_vector(path) -> np.ndarray:
    """Read a columnar text file, one real number per line, index-ordered."""
    arr = np.loadtxt(path, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise ValueError(f"{path}: expected one value per line")
    return arr


def save_vector(path, values) -> None:
    """Write a vector in the columnar text format used by :func:`load_vector`."""
    np.savetxt(path, np.asarray(values, dtype=float), fmt="%.17g")
