"""Sequence-space model for discretised ill-posed problems.

Observed coefficients follow ``y_i = lam_i * mu_i + delta * eps_i`` where
``lam`` is the non-increasing positive singular-value sequence of the
forward operator, ``mu`` the unknown coefficient vector, ``delta`` the
known noise level and ``eps`` independent standard Gaussian noise.

All containers are immutable and operations are pure. Per-replication
random streams are derived by splitting a base seed through
:func:`replication_seed`; generator state is never shared between
replications. The generator algorithm is NumPy's PCG64 as wired up by
``numpy.random.default_rng``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NoiseModel",
    "Observation",
    "Signal",
    "Spectrum",
    "load_vector",
    "make_polynomial_spectrum",
    "replication_seed",
    "require_same_dim",
    "save_vector",
    "simulate_observation",
    "write_new_file",
]


class DimensionMismatchError(ValueError):
    """Paired vectors disagree in length."""


def _frozen_array(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A read-only, C-contiguous float64 array that owns its data is kept as
    it is. Any other input, a writeable array or a view of one included, is
    copied, so the caller cannot change the result by writing to their
    array.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.base is None
        and values.flags.c_contiguous
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _frozen_vector(values) -> np.ndarray:
    """``values`` as a read-only float64 vector, kept or copied as :func:`_frozen_array` says."""
    arr = _frozen_array(values)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional real vector")
    return arr


def _check_int(value, where: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integral number (``1e4`` and ``np.int64(4)`` are,
    ``True`` and ``3.7`` are not)."""
    whole = isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _check_float(value, where: str) -> float:
    """``value`` as a float; the ``TypeError`` or ``ValueError`` of ``float`` names the config key ``where``."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where} must be a number, got {value!r}") from None


def require_same_dim(*lengths: int) -> int:
    """Return the common length, raising :class:`DimensionMismatchError` otherwise."""
    first = int(lengths[0])
    if any(int(n) != first for n in lengths[1:]):
        raise DimensionMismatchError(f"dimension mismatch: {tuple(int(n) for n in lengths)}")
    return first


@dataclass(frozen=True)
class Spectrum:
    """Singular values ``lam_1 >= ... >= lam_D > 0`` of the forward operator."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values))
        v = self.values
        if v.size == 0:
            raise ValueError("spectrum must contain at least one singular value")
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise ValueError("singular values must be finite and strictly positive")
        if np.any(np.diff(v) > 0):
            raise ValueError("singular values must be non-increasing")

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
            raise ValueError("signal must contain at least one coefficient")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("signal coefficients must be finite")

    @property
    def dim(self) -> int:
        return int(self.coefficients.size)


def _check_noise_level(delta, key: str = "delta") -> float:
    """``delta`` as a float; ``ValueError`` naming ``key`` unless it is non-negative with a finite square.

    ``delta**2`` enters every threshold, variance and calibration, and a
    Python float's ``**`` raises ``OverflowError`` past the largest float.
    """
    delta = float(delta)
    if not (delta >= 0 and delta * delta < math.inf):
        raise ValueError(f"noise level {key} must be non-negative with a finite square, got {delta!r}")
    return delta


@dataclass(frozen=True)
class NoiseModel:
    """Level of the Gaussian coefficient noise.

    ``delta`` must be non-negative; zero is admitted for deterministic
    diagnostics.
    """

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_noise_level(self.delta))


@dataclass(frozen=True)
class Observation:
    """Observed coefficient vector together with its squared norm header.

    ``y_norm_sq`` is computed from ``y`` as ``np.dot(y, y)``; it is the
    total the residual rule starts from. A streaming caller that never
    holds the whole vector passes its own total to
    :func:`~svdstop.stopping.residual_rule` instead. Neither the noise of a
    simulated observation nor its level is kept: the rule reads only these two.
    """

    y: np.ndarray
    y_norm_sq: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_vector(self.y))
        object.__setattr__(self, "y_norm_sq", float(np.dot(self.y, self.y)))

    @property
    def dim(self) -> int:
        return int(self.y.size)


def make_polynomial_spectrum(dim: int, p: float, key: str = "p") -> Spectrum:
    """Spectrum ``lam_i = i**-p``; ``ValueError`` naming ``key`` unless ``p >= 0`` and ``dim**-p > 0``."""
    if _check_int(dim, "dim") < 1:
        raise ValueError("dimension must be at least 1")
    if not p >= 0:  # NaN fails too
        raise ValueError(f"decay exponent {key} must be non-negative, got {p!r}")
    values = np.arange(1, dim + 1, dtype=float) ** -float(p)
    if values[-1] == 0.0:
        raise ValueError(f"decay exponent {key} = {p!r} underflows lam_{dim} = {dim}**-p to zero")
    return Spectrum(values)


def replication_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent seed stream for replication ``index`` of a base seed.

    Splitting is counter-based: the derived stream depends only on
    ``(base_seed, index)``, so results do not depend on how replications
    are distributed over workers.
    """
    if index < 0:
        raise ValueError("replication index must be non-negative")
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(index),))


def simulate_observation(image: np.ndarray, noise: NoiseModel, seed) -> Observation:
    """Draw one observation ``y = image + delta * eps`` around the noiseless image ``lam * mu``.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``; identical
    seeds give bit-identical observations. The draw is scaled and shifted
    in its own buffer; floating-point products and sums are commutative,
    so ``y`` is bitwise ``lam * mu + delta * eps`` whichever term is formed
    first.
    """
    y = np.random.default_rng(seed).standard_normal(image.size)
    y *= noise.delta
    y += image
    y.setflags(write=False)  # fresh and frozen, so the observation keeps it without copying
    return Observation(y=y)


def load_vector(path) -> np.ndarray:
    """Read a columnar text file, one real number per line, index-ordered."""
    arr = np.loadtxt(path, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise ValueError(f"{path}: expected one value per line")
    return arr


def save_vector(path, values) -> None:
    """Write a vector in the columnar text format used by :func:`load_vector`, as a new file."""
    text = io.StringIO()
    np.savetxt(text, np.asarray(values, dtype=float), fmt="%.17g")
    write_new_file(path, text.getvalue())


def write_new_file(path, data: str | bytes) -> None:
    """Write ``data``, text or bytes, to ``path`` as a new file.

    A file already at ``path`` is removed first rather than truncated, so a
    link there is replaced, not written through. On ext4 with
    ``auto_da_alloc``, its default, a file truncated and rewritten is
    written out to disk when it is closed, which takes tens of
    milliseconds; a new file is written out later, in the background.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
