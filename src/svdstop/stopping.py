"""Residual-monitored early stopping, AIC selection and the two-step rule.

:func:`residual_rule` is the one implementation of the stopping rule. It
consumes coefficients strictly left to right, in blocks of any length,
and halts at the first index ``m >= m0`` whose remaining squared residual
``|Y|**2 - sum_{i<=m} Y_i**2`` drops to the threshold ``kappa``. The
squared norm is a required header value, so the rule needs exactly
``tau`` coefficients and pulls no block after the one holding ``Y_tau``.
The sequence model passes its vector in pieces that grow fourfold
(:func:`stop_index`); the lazy matrix solver passes one coefficient per
computed singular triplet. The running sum is accumulated in the same
left-to-right order in double precision however the coefficients are
split, so every caller gets the same index from the same data. That
index is the one exact arithmetic gives, up to roundings at the size of
the residual: the float sum carries its exact rounding error along. Each
block is first screened on the float sums alone, and that error is
summed only when a residual lies within a proven margin of the threshold.

The second step (:func:`two_step`) re-selects a truncation index by
penalised empirical risk (an AIC criterion, :func:`aic_select`) over
``0..m0`` whenever the first step stops immediately at ``m0``; by
construction it never uses coefficients beyond the ones the first step
already read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable

import numpy as np

from .estimator import _prefix_sums
from .model import _check_int, require_same_dim

__all__ = [
    "StopOutcome",
    "StoppingConfig",
    "TruncatedStreamError",
    "aic_select",
    "make_stopping_config",
    "residual_rule",
    "stop_index",
    "two_step",
]

M0_MODES = ("explicit", "zero", "normal_quantile")

_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two halves whose products are exact
_UNIT = 2.0**-53  # unit roundoff of a double
_TINY = 2.0**-950  # the screen's floor per coefficient, for squares whose split underflows
_MAX_SCREENED = 2**44  # the screen's margin is proven for fewer coefficients than this


class TruncatedStreamError(RuntimeError):
    """The coefficient stream ended before the stopping rule could halt."""


@dataclass(frozen=True)
class StoppingConfig:
    """Threshold and starting index of the residual stopping rule."""

    kappa: float
    m0: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "m0", _check_int(self.m0, "m0"))
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa, the stopping threshold, must be finite and non-negative, got {self.kappa!r}")
        if self.m0 < 0:
            raise ValueError(f"m0, the starting index, must be non-negative, got {self.m0}")


@dataclass(frozen=True)
class StopOutcome:
    """Result of one procedure's stop: the one record of it that every caller keeps.

    ``rho`` is the index selected by the two-step rule when one ran (the
    stopped index if the rule did not stop immediately, the AIC index
    otherwise) and ``None`` for a plain stop. ``immediate_stop`` says
    whether the rule stopped at its starting index ``m0``; a fixed index,
    which no rule chose, is never one. The rule reads exactly ``tau``
    coefficients, so ``coefficients_consumed`` is ``tau``.
    """

    tau: int
    rho: int | None
    immediate_stop: bool
    coefficients_consumed: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients_consumed", self.tau)

    @property
    def chosen(self) -> int:
        """The index an estimate truncates at: ``rho`` when the second step ran, else ``tau``."""
        return self.tau if self.rho is None else self.rho


def make_stopping_config(
    dim: int,
    delta: float,
    kappa: float | None = None,
    kappa_drift: float = 0.0,
    m0_mode: str = "zero",
    m0: int | None = None,
    level: float = 0.99,
) -> StoppingConfig:
    """Resolve a stopping configuration for a problem of size ``dim``: the one place the settings are resolved.

    The default threshold is ``(dim + kappa_drift * sqrt(dim)) * delta**2``; the drift probes the
    rule's sensitivity to its threshold, and ``OverflowError`` is raised when the threshold passes the
    largest float. The ``normal_quantile`` start is ``floor(q_level * sqrt(2 * dim)) + 1``, calibrated
    so that for pure noise with the default threshold the rule runs past it with probability roughly
    ``1 - level``. ``ValueError`` for ``dim < 1``, for a ``level`` outside ``[0.5, 1)`` in any mode, and
    for a setting the others leave unread (``m0`` outside ``explicit`` mode, a nonzero drift next to an
    explicit ``kappa``). A message about one argument opens with its name.
    """
    if _check_int(dim, "dim") < 1:
        raise ValueError(f"dim, the dimension, must be at least 1, got {dim}")
    if not 0.5 <= level < 1:
        raise ValueError(f"level, the quantile level, must lie in [0.5, 1), got {level!r}")
    if kappa is None:
        kappa = (dim + kappa_drift * math.sqrt(dim)) * delta**2
        if abs(kappa) == math.inf:
            raise OverflowError("the default threshold (dim + drift * sqrt(dim)) * delta**2 overflows")
    elif kappa_drift != 0:
        raise ValueError("kappa_drift only shifts the default threshold; it cannot go with an explicit kappa")
    if m0_mode == "zero":
        start = 0
    elif m0_mode == "normal_quantile":
        start = int(math.floor(NormalDist().inv_cdf(level) * math.sqrt(2.0 * dim))) + 1
    elif m0_mode == "explicit":
        if m0 is None:
            raise ValueError("m0, the starting index, is required in explicit m0 mode")
        start = m0
    else:
        raise ValueError(f"m0_mode must be one of {M0_MODES}, got {m0_mode!r}")
    if m0 is not None and m0_mode != "explicit":
        raise ValueError(f"m0 is only read in explicit m0 mode, not in {m0_mode!r}")
    if start > dim:
        source = f"m0_mode {m0_mode!r}: starting index" if m0 is None else "m0 ="
        raise ValueError(f"{source} {start} exceeds dimension {dim}")
    return StoppingConfig(kappa=float(kappa), m0=start)


def residual_rule(
    blocks: Iterable[np.ndarray],
    y_norm_sq: float,
    dim: int,
    config: StoppingConfig,
) -> int:
    """Stopped index of the residual rule over coefficients arriving in blocks.

    ``blocks`` yields ``Y_1, Y_2, ...`` in order, split into arrays of any
    lengths. The rule returns the first ``m >= m0`` with
    ``y_norm_sq - sum_{i<=m} Y_i**2 <= kappa``, or ``dim``, and pulls no
    block after the one holding ``Y_m``. Raises
    :class:`TruncatedStreamError` if the blocks end first.

    The residual is taken in exact arithmetic, ``y_norm_sq`` and ``kappa``
    being the given floats, up to a few roundings at the size of the
    residual itself. The exact test stops at ``fl(r_m - e_m) <= kappa``:
    ``r_m = fl(y_norm_sq - s_m)`` is the float residual of the
    left-to-right float sum ``s_m`` of the squares, and ``e_m`` the exact
    rounding error of that sum, carried along (:func:`_sum_errors`). So a
    norm many orders above ``kappa``, whose ulp swallows the late squares,
    does not move the index.

    The exact test costs some twenty array passes per block, so each block
    is first screened on ``r_m`` alone, and the exact test runs only where
    the screen cannot decide (a filtered predicate, as in Shewchuk's
    adaptive-precision predicates). Let ``u = 2**-53``, ``N`` the number
    of coefficients read through the block and ``S`` its last float sum.
    The screen's margin is

        M = u * (2.01 * N * S + 4 * (kappa + |y_norm_sq|)) + N * 2**-950.

    *Bound on e_m.* The squares are non-negative, so no float sum up to
    the block's end exceeds ``S``. For each coefficient, the exact test
    adds two error terms, in one rounding, to the float running sum that
    is ``e_m``. The first is Knuth's two-sum, the exact rounding error of
    one step of ``s``, so it is at most ``u * S``. The second is
    Dekker's product, ``Y_i**2 - fl(Y_i**2)``, so at most ``u * S``.
    Dekker's product is exact when ``|Y_i| >= 2**-485``. Below that its
    products may underflow, but then every quantity it forms lies below
    ``2**-960``. The per-coefficient term is then at most
    ``(1 + u) * (2 * u * S + 2**-960)``. A float running sum of ``N`` such
    terms is at most ``(1 + u)**(N + 1)`` times ``N`` of them. For
    ``N < 2**44`` this gives ``|e_m| <= E = 2.004 * u * N * S + 1.002 * N * 2**-960``.
    Evaluating ``M`` in floats loses less than ``9 * u`` of it,
    relatively, apart from underflows far below its ``2**-950`` term. So
    ``(1 - u) * fl(M) >= E + 3 * u * kappa``.

    *The screen's two verdicts.* Let ``x = r_m - e_m``, so the exact test
    is ``fl(x) <= kappa``. Recall ``kappa >= 0``.

    - If ``r_m > fl(kappa + M)``, then ``r_m >= (1 - u) * (kappa + M)`` and
      ``x >= (1 - u) * (kappa + M) - E > (1 + 2 * u) * kappa``, so
      ``fl(x) >= (1 - u) * x > kappa``: the exact test fails.
    - If ``r_m < fl(kappa - M)``, then
      ``r_m < kappa - M + u * (kappa + M)`` and ``x < kappa``, so
      ``fl(x) <= kappa``: the exact test passes.

    ``r_m`` never increases, so a bisection finds the first index with
    ``r_m <= fl(kappa + M)``. Every index before it fails. If it also has
    ``r_m < fl(kappa - M)``, it passes, and the rule returns it. If there
    is no such index, the block holds no stop. Otherwise a residual lies
    within the margin of ``kappa``, and the exact test decides. It first
    replays the blocks read so far to carry their error, and then it runs
    on every later block of the call. A margin that is not finite (a
    non-finite norm or coefficient) also takes this path. So each index
    returned is the one the exact test returns.
    """
    if config.m0 > dim:
        raise ValueError(f"starting index {config.m0} exceeds dimension {dim}")
    y_norm_sq, kappa = float(y_norm_sq), config.kappa
    if config.m0 == 0 and y_norm_sq <= kappa:
        return 0
    start = max(config.m0, 1)
    read = 0
    total = 0.0  # float running sum of squares
    error = None  # the exact rounding error of total, once the exact test runs
    screened = []  # the blocks the screen decided and their float sums, which the exact test replays
    for block in blocks:
        values = np.asarray(block, dtype=float)[: dim - read]
        sums = np.square(values)
        # seeding the first term continues the sequential sum across blocks
        sums[:1] += total
        np.cumsum(sums, out=sums)
        first = max(start - read - 1, 0)
        if error is None and sums.size:
            stop = _screen(y_norm_sq, kappa, sums, first, read + sums.size)
            if stop is None:
                error = _replay(screened)
            elif stop < sums.size:
                return read + stop + 1
            else:
                screened.append((values, sums))
        if error is not None:
            errors = _sum_errors(values, np.square(values), sums, total, error)
            hits = np.nonzero(y_norm_sq - sums[first:] - errors[first:] <= kappa)[0]
            if hits.size:
                return read + first + int(hits[0]) + 1
            if sums.size:
                error = errors[-1]
        read += sums.size
        if read == dim:
            return dim
        if sums.size:
            total = sums[-1]
    raise TruncatedStreamError(f"coefficients ended after {read} of {dim}; residual still above threshold")


def _screen(y_norm_sq: float, kappa: float, sums: np.ndarray, first: int, count: int) -> int | None:
    """The exact test's first passing index in ``sums`` from ``first`` on, ``sums.size`` if none passes, or
    ``None`` where the margin cannot decide (see :func:`residual_rule`); ``count`` coefficients are read."""
    margin = _UNIT * (2.01 * count * sums.item(-1) + 4.0 * (kappa + abs(y_norm_sq))) + count * _TINY
    if not (margin < math.inf and count < _MAX_SCREENED):
        return None
    # bisect for the first residual at or below kappa + margin: the float residuals never increase
    lo, hi, upper = first, sums.size, kappa + margin
    if lo >= hi or y_norm_sq - sums.item(-1) > upper:
        return hi
    hi -= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if y_norm_sq - sums.item(mid) <= upper:
            hi = mid
        else:
            lo = mid + 1
    return lo if y_norm_sq - sums.item(lo) < kappa - margin else None


def _replay(screened: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The exact rounding error of the float sum of squares over the screened ``(values, sums)`` blocks."""
    total, error = 0.0, 0.0
    for values, sums in screened:
        error = _sum_errors(values, np.square(values), sums, total, error)[-1]
        total = sums[-1]
    return error


def _sum_errors(values: np.ndarray, squares: np.ndarray, sums: np.ndarray, total: float, error: float) -> np.ndarray:
    """``sum_{i<=m} Y_i**2 - sums[m]`` in exact terms, accumulated onto ``error``.

    ``squares`` holds ``fl(Y**2)`` and ``sums`` the sequential float sum
    of ``squares`` seeded with ``total``. Each square splits exactly into
    ``fl(Y**2) + lo`` (Dekker's product), and each step of the sum
    contributes its exact rounding error (Knuth's two-sum).
    """
    scaled = _SPLIT * values
    top = scaled - (scaled - values)
    low = values - top
    lo = ((top * top - squares) + 2.0 * top * low) + low * low
    previous = np.concatenate(([total], sums[:-1]))
    back = sums - previous
    lo += (previous - (sums - back)) + (squares - back)
    lo[:1] += error
    return np.cumsum(lo, out=lo)


def stop_index(y: np.ndarray, y_norm_sq: float, config: StoppingConfig) -> int:
    """Stopped index of an in-memory coefficient vector: :func:`residual_rule` over its leading pieces.

    The first piece ends at ``max(m0, 256)``, as the rule cannot stop
    before ``m0``, and each piece ends at four times the end of the one
    before, so the work follows the stopped index rather than the length
    of ``y``.
    """
    y = np.asarray(y, dtype=float)
    return residual_rule(_pieces(y, max(config.m0, 256)), y_norm_sq, y.size, config)


def _pieces(y: np.ndarray, first: int):
    lo, hi = 0, first
    while True:
        yield y[lo:hi]
        if hi >= y.size:
            return
        lo, hi = hi, 4 * hi


def aic_select(y: np.ndarray, lam: np.ndarray, delta: float, m0: int, norm: str = "strong") -> int:
    """Penalised empirical-risk index over ``0..m0``; ties resolve to the smallest index.

    ``y`` holds the coefficients and ``lam`` the singular values, of equal
    length at least ``m0``. The strong-norm criterion is
    ``-sum_{i<=m} lam_i**-2 Y_i**2 + 2 * delta**2 * sum_{i<=m} lam_i**-2``
    and the weak-norm criterion ``-sum_{i<=m} Y_i**2 + 2 * m * delta**2``.
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dim = require_same_dim(y.size, lam.size)
    m0 = _check_int(m0, "m0")
    if not 0 <= m0 <= dim:
        raise ValueError(f"selection range end {m0} outside [0, {dim}]")
    _check_selection(norm, "norm")
    y2 = y[:m0] ** 2
    inv2, penalty = _aic_penalty(lam[:m0].tobytes(), delta, m0, norm)
    crit = -_prefix_sums(y2 if inv2 is None else inv2 * y2) + penalty
    return int(np.argmin(crit))


@functools.lru_cache(maxsize=2)
def _aic_penalty(lam_head: bytes, delta: float, m0: int, norm: str) -> tuple[np.ndarray | None, np.ndarray]:
    """The half of :func:`aic_select`'s criterion that the data leave alone, as read-only arrays.

    ``lam_head`` holds the bytes of ``lam[:m0]``. Returns ``lam[:m0]**-2``
    (``None`` for the weak norm) and the penalty at ``m = 0..m0``. An
    experiment selects on one instance over and over, so the arrays are
    kept for the last two keys: an experiment running both two-step
    procedures alternates the two norms. The expressions are those the
    criterion always used, so a memoised call selects the same index bit
    for bit.
    """
    pen = 2.0 * delta**2
    if norm == "strong":
        inv2 = np.frombuffer(lam_head, dtype=float) ** -2.0
        penalty = pen * _prefix_sums(inv2)
        inv2.setflags(write=False)
    else:
        inv2, penalty = None, pen * np.arange(m0 + 1, dtype=float)
    penalty.setflags(write=False)
    return inv2, penalty


def _check_selection(norm: str, key: str) -> None:
    """``ValueError`` naming ``key``, the setting that gave ``norm``, unless ``norm`` is ``'strong'`` or ``'weak'``."""
    if norm not in ("strong", "weak"):
        raise ValueError(f"{key}: unknown norm {norm!r}; expected 'strong' or 'weak'")


def two_step(tau: int, y: np.ndarray, lam: np.ndarray, delta: float, m0: int, norm: str = "strong") -> int:
    """Second step of the hybrid rule: the index chosen after a stop at ``tau``.

    A stop past ``m0`` stands; an immediate stop is replaced by the AIC
    index over ``0..m0``, which only reuses coefficients the stopping
    pass already read. The norm is checked either way.
    """
    _check_selection(norm, "norm")
    return tau if tau > m0 else aic_select(y, lam, delta, m0, norm)
