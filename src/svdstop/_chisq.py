"""Noncentral chi-square laws as windowed Poisson mixtures, in numpy and ``math`` alone.

The law of ``sum_{k<=K} (theta_k + Z_k)**2`` with noncentrality ``nc =
|theta|**2`` is the mixture ``sum_j w_j f_{K+2j}`` of central chi-square
densities, with Poisson weights ``w_j = P(J = j)``, ``J ~ Poisson(nc/2)``.
A law keeps one window of the weights: from the first weight above
1e-300 to two past the first index whose upper tail is at most 1e-13
(and no weight at or below 1e-300 at its top either).
Below the window a term cannot reach the bulk of the density; Benton &
Krishnamoorthy (Comput. Stat. Data Anal. 43, 2003) start at the Poisson
mode for the same reason. The weights are anchored by one ``lgamma`` at
the mode and stepped both ways by the exact ratio ``w_{j+1} / w_j =
(nc/2) / (j + 1)``, each weight a product from the anchor, never a sum
of log ratios; one reverse cumulative sum gives their tails and the
total that normalises them.

The density (:func:`_mixture_logpdf`) sums the window's terms forward
from its first by the ratio of consecutive terms, four to a loop step.
The distribution functions of laws of one degree parity
(:func:`_mixture_cdf`) take the central upper tails from ``Q_1 =
erfc(sqrt(x/2))`` or ``Q_2 = exp(-x/2)`` by ``Q_{k+2} = Q_k + 2
f_{k+2}``, all laws from one ladder
of central densities stepped by ``f_{k+2} = f_k x / k``
(Ding, AS 275, 1992) from the closed-form ``f_1`` or ``f_2``
(:func:`_ladder`). Both carry their running products as a significand and
an exact power of two, so no step overflows, and a law costs two
``lgamma`` calls in all: one for its weights, one for its first degree.

:func:`_cdf_error` and :func:`_logpdf_error` bound the error of the two,
term by term, from numbers the window carries: a forward rounding-error
argument on their positive-term recurrences (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002), to first order in ``u =
2**-53``.

:func:`_tv_crossing` is the total variation between two such laws, the
difference of their distribution functions at the density crossing, with
a bound on its error whose terms its docstring lists. It finds the
crossing by Chandrupatla's method (Adv. Eng. Software 28, 1997), in
:func:`_find_root`: the point it returns is an end of a final bracket, at
most :func:`_bracket_width` of that end wide, across which the log
density ratio changes sign, and the bound's crossing term rests on that
width.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

_POISSON_TAIL = 1e-13  # the weights stop two past the first index whose upper tail is at most this
_WINDOW_FLOOR = 1e-300  # the weights start at the first one above this
_BELOW_SDS, _ABOVE_SDS, _ABOVE_PAD = 40.0, 20.0, 40.0  # the weights computed: h - 40 sqrt(h) <= j < h + 20 sqrt(h) + 40
_RESCALE_AT = 2.0**500  # a running density term past this is scaled down by a power of two
_LADDER_BLOCK = 1000  # ladder steps per block: a product of this many significands stays a normal float
# log 2 in two parts (as in fdlibm): the first has 32 significant bits, so n * _LN2_HI is exact for n < 2**21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# the error bounds below are first order in the unit roundoff, with exp, log, erfc and lgamma
# taken to err by at most _LIBM_ULPS units in the last place of their result (or of 1 below 1)
_U = 2.0**-53
_LIBM_ULPS = 8.0


class AccuracyError(RuntimeError):
    """A numeric routine missed its accuracy target; carries the estimate reached."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class _Mixture(NamedTuple):
    """A noncentral chi-square law as a window of a Poisson mixture of central ones.

    The window's degrees ``dfs = K + 2j``, ``j = j0, j0 + 1, ...``, carry
    weights ``w``. Term ``i + 1`` of the density is term ``i`` times ``x *
    ratios[i]``, ``ratios[i] = (nc/2) / ((j0 + i + 1) dfs[i])``, and term 0
    is ``exp(head_const + head_slope * log x - x/2)``: ``head_slope =
    dfs[0]/2 - 1`` and ``head_const = log w[0] - (dfs[0]/2) log 2 -
    lgamma(dfs[0]/2)``. ``w_tails[i]`` sums the weights from ``i`` on, for
    the distribution function.
    """

    w: np.ndarray
    dfs: np.ndarray
    head_slope: float
    head_const: float
    ratios: list[float]
    w_tails: np.ndarray


def _weight_range(half: float) -> tuple[int, int, float, float]:
    """``low, high, span, reach`` for the weights ``low <= j < high`` of ``J ~ Poisson(half)`` that are computed.

    With ``h = half``, ``low = max(0, int(h - 40 sqrt(h)))`` and ``high =
    int(h + 20 sqrt(h) + 40)``. By Chernoff, ``P(J <= j) <= exp(-(h -
    j)**2 / (2h))``, each weight below is under ``exp(-800) < 1e-347``; by
    Bernstein, ``P(J >= h + t) <= exp(-t**2 / (2 (h + t/3)))``, the mass
    above is under ``exp(-58) < 1e-25``. ``span = 60 sqrt(h) + 42`` is at
    least their number, ``reach = 40 sqrt(h) + 41`` at least the steps from
    the anchor ``floor(h)`` to any of them.
    """
    root = math.sqrt(half)
    low, high = max(0, int(half - _BELOW_SDS * root)), int(half + _ABOVE_SDS * root + _ABOVE_PAD)
    span = (_BELOW_SDS + _ABOVE_SDS) * root + (_ABOVE_PAD + 2.0)
    reach = max(_BELOW_SDS, _ABOVE_SDS) * root + (_ABOVE_PAD + 1.0)
    return low, high, span, reach


def _mixture_terms(num_terms: int, noncentrality: float) -> _Mixture:
    """The window of Poisson weights and central degrees of a noncentral law, with its constants.

    The weights ``P(J = j)`` of ``J ~ Poisson(h)``, ``h = noncentrality/2``,
    are computed over :func:`_weight_range` as products of exact ratios
    from the one ``lgamma`` anchor at ``floor(h)``. One reverse cumulative
    sum, from the range's top down to its first weight above 1e-300, gives
    every tail and, at its end, the total that normalises them: the
    anchor's own rounding, near 1e-9 at ``h = 5e5``, cancels there. The
    window keeps ``j0..n + 2``, where ``j0`` is the first index whose weight
    is above 1e-300 and ``n`` the first whose tail ``P(J > n)`` is at most
    1e-13; at a noncentrality so small that a weight up to ``n + 2`` is
    1e-300 or less, it stops before that weight. ``w_tails`` are the tails
    less the mass above the window.
    """
    half = 0.5 * noncentrality
    if half <= 0.0:
        j0, w, w_tails = 0, np.array([1.0]), np.array([1.0])
    else:
        mode, (low, high, _, _) = math.floor(half), _weight_range(half)
        anchor = math.exp(mode * math.log(half) - half - math.lgamma(mode + 1.0))
        down = (np.arange(float(mode), low, -1.0) / half).cumprod()  # w_{mode-1}/w_mode, w_{mode-2}/w_mode, ...
        up = (half / np.arange(mode + 1.0, high)).cumprod()  # w_{mode+1}/w_mode, ...
        w = anchor * np.concatenate((down[::-1], [1.0], up))  # j = low .. high - 1
        start = int(np.argmax(w > _WINDOW_FLOOR))
        w = w[start:]
        tails = np.cumsum(w[::-1])[::-1]  # tails[i] / tails[0] = P(J >= j0 + i)
        total = tails[0]
        end = min(int(np.argmax(tails[1:] <= _POISSON_TAIL * total)) + 3, int(np.count_nonzero(w > _WINDOW_FLOOR)))
        above = tails[end] if end < tails.size else 0.0
        j0, w, w_tails = low + start, w[:end] / total, (tails[:end] - above) / total
    dfs = num_terms + 2.0 * np.arange(j0, j0 + w.size)
    ratios = (half / (np.arange(j0 + 1.0, j0 + w.size) * dfs[:-1])).tolist()
    head = 0.5 * dfs[0]
    head_const = math.log(w[0]) - (head * math.log(2.0) + math.lgamma(head))
    return _Mixture(w, dfs, head - 1.0, head_const, ratios, w_tails)


def _mixture_logpdf(law: _Mixture, x, log_x):
    """``log f(x) + x/2`` at points ``x`` with logs ``log_x``, both arrays or both floats, in O(points) memory.

    ``log f(x) + x/2 = head_const + head_slope * log x + log s(x)``, and
    ``s`` sums the terms forward: ``t = t * x * ratios[i]; s += t``, the
    loop unrolled by four. After every fourth term, each point whose term
    passed 2**500 has its term and sum scaled down by a power of two, and
    the exponent goes into the log. That is exact, so a point's value does
    not depend on its batch; a float runs the same steps and ends in the
    same numpy ``log``, so it matches the batch to the bit. The caller adds
    the common ``-x/2``.
    """
    scalar = isinstance(x, float)
    if scalar:  # a numpy float too: its terms and shifts would stay numpy values, which math.ldexp rejects
        x, log_x = float(x), float(log_x)
    frexp, ldexp, top = (math.frexp, math.ldexp, float) if scalar else (np.frexp, np.ldexp, np.ndarray.max)
    t, s, carry = (1.0, 1.0, 0) if scalar else (np.ones_like(x), np.ones_like(x), 0)
    ratios = law.ratios
    whole = len(ratios) - len(ratios) % 4
    for r0, r1, r2, r3 in zip(*[iter(ratios)] * 4):  # the groups of four; the rest follows
        t = t * x * r0
        s += t
        t = t * x * r1
        s += t
        t = t * x * r2
        s += t
        t = t * x * r3
        s += t
        if top(t) > _RESCALE_AT:
            shift = frexp(t)[1] * (t > _RESCALE_AT)  # a zero shift leaves a point as it is
            t, s, carry = ldexp(t, -shift), ldexp(s, -shift), carry + shift
    for ratio in ratios[whole:]:
        t = t * x * ratio
        s += t
    return law.head_const + law.head_slope * log_x + (np.log(s) + carry * math.log(2.0))


def _logpdf_error(law: _Mixture, x: float, value: float, width: float) -> float:
    """A bound on the rounding error of :func:`_mixture_logpdf` at any point within ``width < x`` of ``x``.

    ``value`` is its result at ``x``, and the error is against ``log f(y) +
    y/2`` for the window's law with the weights the recurrence implies
    (exact ratios from ``w[0]``). Term ``i`` of ``s`` carries 5 u a step
    (the ratio's product and division, and the two products), and the sum
    adds u a term: ``6 m u`` for ``m`` ratios. Each piece of ``head_const
    + head_slope log y + log s + carry log 2`` carries at most 11 u of its
    magnitude (8 ulp for its ``log`` or ``lgamma``, 3 u for the
    operations), and since ``s >= 1/2`` and ``log s + carry log 2 >= 0`` the
    magnitudes sum to at most ``2 (|log w[0]| + (dfs[0]/2) log 2) +
    |head_const| + |head_slope log x| + |value - head_const - head_slope
    log x| + 3``. Across ``width`` they grow by at most ``(|head_slope| +
    m) width / (x - width)``, ``log s`` being a polynomial of degree ``m``
    in ``y`` with nonnegative coefficients.
    """
    m = len(law.ratios)
    log_x = math.log(x)
    slope = law.head_slope * log_x
    magnitude = (
        2.0 * (abs(math.log(law.w[0])) + 0.5 * law.dfs[0] * math.log(2.0))
        + abs(law.head_const)
        + abs(slope)
        + abs(value - law.head_const - slope)
        + 3.0
        + (abs(law.head_slope) + m) * width / (x - width)
    )
    return 1.01 * (6.0 * m + (_LIBM_ULPS + 3.0) * magnitude) * _U


def _ladder(x: float, base: float, last: float) -> np.ndarray:
    """Central densities ``f_k(x)`` at ``x > 0`` for ``k = base + 2, base + 4, ..., last``, ``base`` 1 or 2.

    The steps ``f_{k+2} = f_k x / k`` start from ``f_base = exp(-x/2) c``,
    ``c = 1/sqrt(2 pi x)`` or ``1/2``, written as ``lead * 2**-n`` with
    ``exp(-x/2) = 2**-n exp(r)`` and ``r`` in ``(-log 2, 0]``. Each ratio
    ``x / k`` is split into its significand and exponent: a block's
    significands are multiplied by ``cumprod`` and its exponents summed as
    integers, so between blocks the running product is a significand in
    ``[0.5, 1)`` times an exact power of two. No step overflows, and only
    a value below the smallest normal float is rounded again.
    """
    n = math.floor(0.5 * x / _LN2_HI)
    r = (n * _LN2_HI - 0.5 * x) + n * _LN2_LO
    lead = math.exp(r) * (0.5 if base == 2.0 else 1.0 / math.sqrt(2.0 * math.pi * x))
    lead, power = math.frexp(lead)
    power -= n
    significands, exponents = np.frexp(x / np.arange(base, last - 1.0, 2.0))
    out = np.empty(significands.size)
    for start in range(0, out.size, _LADDER_BLOCK):
        run = significands[start : start + _LADDER_BLOCK].cumprod()
        run *= lead
        powers = exponents[start : start + _LADDER_BLOCK].cumsum()
        powers += power
        out[start : start + run.size] = np.ldexp(run, powers)
        lead, shift = math.frexp(float(run[-1]))
        power = int(powers[-1]) + shift
    return out


def _mixture_cdf(laws: list[_Mixture], x: float) -> list[float]:
    """Distribution functions at ``x > 0`` of laws of one degree parity, from the central upper tails ``Q_k``.

    The degrees ``K + 2j`` share the parity, so every ``Q_k`` follows from
    ``Q_1 = erfc(sqrt(x/2))`` or ``Q_2 = exp(-x/2)`` by the positive-term
    recurrence ``Q_{k+2} = Q_k + 2 f_{k+2}(x)``, with the densities from
    one :func:`_ladder` run from the closed form, below the windows, up to
    the largest window's last degree. The ladder steps in blocks from its
    first degree, so each law reads the same densities, and gets the same
    value, as from a ladder of its own. Summed over a law's weights, ``sum_j
    w_j (1 - Q_{k_j})`` is ``W_0 (1 - Q_base) - 2 sum_i f_i(x) W(i)``, where
    ``W(i)`` sums the weights of the degrees ``>= i``: ``W_0 = w_tails[0]``
    up to the window's first degree, and ``w_tails[j]`` at its degree ``j``.
    """
    base = 2.0 - laws[0].dfs[0] % 2.0
    q0 = math.erfc(math.sqrt(0.5 * x)) if base == 1.0 else math.exp(-0.5 * x)
    f = _ladder(x, base, max(law.dfs[-1] for law in laws))
    values = []
    for law in laws:
        # the ladder's degrees up to the window's first, and up to its last
        below, end = int(law.dfs[0] - base) // 2, int(law.dfs[-1] - base) // 2
        head = law.w_tails[0] * (1.0 - q0 - 2.0 * f[:below].sum())
        values.append(float(head - 2.0 * (f[below:end] @ law.w_tails[1:])))
    return values


def _cdf_error(law: _Mixture, noncentrality: float, x: float) -> float:
    """A bound on ``|_mixture_cdf([law], x)[0] - F(x)|`` for the exact law ``F`` with this noncentrality.

    With ``h = noncentrality/2``, and ``s`` and ``r`` the ``span`` and
    ``reach`` of :func:`_weight_range`, three terms:

    - **Truncation**: the Poisson mass above the window, at most
      ``1.01e-13`` (the tail test's sums are off by ``s u``); weights of at
      most 1e-300 below and around the window, at most ``h + s`` of them;
      and the mass above the computed range, under ``exp(-58) < 1e-25``.
    - **Weights**: a ratio product is off by ``(2r + 1) u`` (a division
      and a multiplication a step, and the anchor's), and the normalising
      sum by ``s u``; the anchor's own rounding cancels. So the kept
      weights, and those the density recurrence implies (exact ratios from
      the first), are each within ``(4r + s + 3) u`` of the Poisson
      weights relative to them, ``2 (4r + s + 3) u`` in all.
    - **Ladder**: every term of ``Q_{k+2} = Q_k + 2 f_{k+2}`` is positive
      and ``2 sum_i f_i(x) <= 1``, so relative errors are absolute ones.
      Over ``n = (dfs[-1] - base)/2`` steps a density carries at most
      ``(2.01 n + 15 + x/2) u``: a division and a product a step, one
      product a block, ``(2 + x/2) u`` from the argument reduction of
      ``exp(-x/2)``, and 13 u from ``exp`` and the four operations of the
      closed-form ``f_1`` or ``f_2``. The sum and the dot product add
      ``(n + 1) u``, the tails ``(2s + 2) u``, ``Q_1 = erfc(sqrt(x/2))`` or
      ``Q_2 = exp(-x/2)`` 8.5 u, the last four operations 4 u, and each
      density flushed below the smallest normal float ``2**-1075``.
    """
    half = 0.5 * noncentrality
    _, _, span, reach = _weight_range(half)
    steps = 0.5 * (law.dfs[-1] - 2.0 + law.dfs[0] % 2.0)
    truncation = 1.01 * _POISSON_TAIL + (half + span) * _WINDOW_FLOOR + 1e-25
    weights = 2.0 * (4.0 * reach + span + 3.0)
    ladder = 3.01 * steps + 2.0 * span + 0.5 * x + 2.0 * _LIBM_ULPS + 15.0
    return truncation + 1.01 * (weights + ladder) * _U + steps * 2.0**-1074


def _bracket_width(x: float) -> float:
    """The width at which :func:`_find_root` stops, at the end ``x`` it returns."""
    return 1e-12 + 8.9e-16 * abs(x)


def _find_root(f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` by Chandrupatla's method (Adv. Eng. Software 28, 1997).

    The caller passes the end values ``f_lo = f(lo)`` and ``f_hi = f(hi)``,
    which its bracket search has already computed, and ``f`` is never
    called at ``lo`` or ``hi`` again. Raises :class:`AccuracyError` unless
    ``f_lo`` and ``f_hi`` differ in sign (a NaN differs from nothing), and
    as soon as ``f`` is NaN at a trial point. Each step keeps a bracket
    whose ends differ in sign, its last point ``a``, its other end ``b``,
    and the end ``c`` it dropped last. It goes to ``a + t (b - a)``, where
    ``t`` is the inverse quadratic interpolation through the three if
    ``phi**2 < xi`` and ``(1 - phi)**2 < 1 - xi``, ``xi = (a - b)/(c -
    b)``, ``phi = (f(a) - f(b))/(f(c) - f(b))`` (Chandrupatla's test that
    the interpolant is monotone there), and 1/2 at the first step and
    otherwise; ``t`` is clamped to ``[l, 1 - l]``, ``l = w / (2 |b -
    a|)``, for the stopping width ``w``, and a trial point that rounding
    puts on an end or past it is moved to the midpoint, so every trial
    point lies strictly inside the bracket. Returns a zero of ``f`` where
    it meets one, else the end of the final bracket at which ``|f|`` is
    smaller, once that bracket is at most :func:`_bracket_width` of the end
    wide; raises :class:`AccuracyError` if that takes more than 200 steps.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise AccuracyError(f"no sign change in [{lo:.17g}, {hi:.17g}]: f = {f_lo!r}, {f_hi!r}", estimate=math.nan)
    a, b, f_a, f_b = hi, lo, f_hi, f_lo
    t = 0.5
    for _ in range(200):
        x = a + t * (b - a)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if math.isnan(f_x):
            raise AccuracyError(f"f is NaN at {x:.17g} in [{min(a, b):.17g}, {max(a, b):.17g}]", estimate=math.nan)
        if (f_x < 0.0) == (f_a < 0.0):
            c, f_c = a, f_a
        else:
            c, f_c, b, f_b = b, f_b, a, f_a
        a, f_a = x, f_x
        end = a if abs(f_a) < abs(f_b) else b
        width, stop = abs(b - a), _bracket_width(end)
        if width <= stop:
            return end
        xi, phi = (a - b) / (c - b), (f_a - f_b) / (f_c - f_b)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = f_a / (f_b - f_a) * f_c / (f_b - f_c) + (c - a) / (b - a) * f_a / (f_c - f_a) * f_b / (f_c - f_b)
        else:
            t = 0.5
        limit = 0.5 * stop / width
        t = min(max(t, limit), 1.0 - limit)
    raise AccuracyError(f"root finder did not converge in [{min(a, b):.17g}, {max(a, b):.17g}]", estimate=0.5 * (a + b))


class _Crossing(NamedTuple):
    """The crossing route's distance (unclamped), the bound on its error and the crossing (NaN at equal norms)."""

    value: float
    bound: float
    crossing: float


def _tv_crossing(a: float, b: float, num_terms: int) -> _Crossing:
    """Total variation between the laws of ``sum_{k<=K} (theta_k + Z_k)**2`` at ``|theta| = a, b >= 0``.

    With ``F``, ``G`` the laws of noncentralities ``nu_f = max(a, b)**2 >
    nu_g = min(a, b)**2`` as floats (densities ``f``, ``g``), the
    likelihood ratio ``f/g`` is increasing, so the distance is ``G(c*) -
    F(c*)`` at the density crossing ``c*``. The laws are windowed by
    :func:`_mixture_terms`. The bracket search starts from ``[c0/2, 3
    c0/2]``, ``c0 = K + (nu_f + nu_g)/2`` the average of the laws' means:
    over ``K`` from 1 to 2000 and norms from 1e-4 to 100 the crossing lies
    between ``0.5001 c0`` (``K = 1``, ``nu_g = 0``) and ``1.0001 c0``
    (near-equal small norms). While the log ratio at the lower end is not
    negative the end is divided by 1e4, and while it is not positive at
    the upper end that end is doubled. Chandrupatla's method
    (:func:`_find_root`) in the log density ratio, which reuses the values
    the search computed at the two ends, returns a crossing ``c``: an end
    of a final bracket at most :func:`_bracket_width` of ``c`` wide, across
    which the computed ratio changes sign, or a point where it is zero.
    The value is ``G(c) - F(c)``, both read off one :func:`_mixture_cdf`
    ladder. Its error is
    at most the sum of the following terms, to first order in ``u =
    2**-53`` and with ``exp``, ``log``, ``erfc`` and ``lgamma`` taken to err
    by at most 8 ulp:

    - **Each distribution function** at ``c``, by :func:`_cdf_error`: the
      Poisson mass outside the window and above the weights computed, the
      rounding of the weights, and that of the positive-term ladder and the
      closed forms. The kept weights, and those the density recurrence
      implies, each lie within half the weights' term of the Poisson ones
      in total; with the truncation, that also bounds how far the distance
      between the window laws the densities describe is from the exact one.
    - **Crossing error** (:func:`_crossing_error`): ``d/dc [G(c) - F(c)] =
      g(c) - f(c)`` vanishes at the crossing, so the distance at ``c``
      falls short by the integral of ``|g - f|`` between ``c`` and the
      window laws' own crossing (their likelihood ratio is monotone too:
      the larger law's window starts and ends no earlier, which is checked,
      its weights over the other's rise with ``j``, and the central
      densities are TP2 in degree and ``x``). Within the root finder's
      final bracket, at most ``w``, 1.01 times :func:`_bracket_width` at
      ``c``, wide, that is at most ``w max(f(c), g(c))`` times the densities'
      growth across it, ``exp(w (dfs[-1] / (2 (c - w)) + 1/2))``. Beyond
      the bracket, the computed log ratio has the exact one's sign up to
      its rounding ``e``, so ``|log(f/g)| <= e`` there and the integral is
      at most ``1.01 expm1(e)``. Per law, ``e`` is ``6 m u`` for the ``m``
      term ratios plus ``11 u`` times the magnitudes of ``head_const``,
      ``head_slope log c`` and ``log s(c)``.
    - **The subtraction** ``G(c) - F(c)``: ``u``.

    Norms whose squares differ by at most ``1e-12 (1 + nu_f)`` give 0,
    with the bound ``min(d, d / sqrt(nu_g))``, ``d = (nu_f - nu_g)/2``: by
    the mixture's data processing and Pinsker's inequality, the Poisson
    laws' distance bounds the exact one. Raises :class:`AccuracyError` when
    no crossing is found, or the root finder finds no sign change, meets a
    NaN or does not converge.
    """
    # order so that f is the law with the larger noncentrality
    nu_f, nu_g = max(a, b) ** 2, min(a, b) ** 2
    if nu_f - nu_g <= 1e-12 * (1.0 + nu_f):
        # the densities agree to within the Poisson laws' distance, which bounds the exact one
        gap = 0.5 * (nu_f - nu_g)
        return _Crossing(0.0, gap / math.sqrt(nu_g) if nu_g > 1.0 else gap, math.nan)
    f, g = _mixture_terms(num_terms, nu_f), _mixture_terms(num_terms, nu_g)
    seen = {}  # x -> the two log densities there, for the bound at the crossing

    def log_ratio(x: float) -> float:
        log_x = np.log(x)
        seen[x] = pair = (_mixture_logpdf(f, x, log_x), _mixture_logpdf(g, x, log_x))
        return float(pair[0] - pair[1])  # -x/2 cancels

    # the ratio is increasing in x, negative near 0 and positive far out; the crossing lies between
    # 0.5 and about 1 times the average of the laws' means
    middle = num_terms + 0.5 * (nu_f + nu_g)
    lo = 0.5 * middle
    while (f_lo := log_ratio(lo)) >= 0.0 and lo > 1e-250:
        lo *= 1e-4
    hi = 1.5 * middle
    while (f_hi := log_ratio(hi)) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise AccuracyError("no density crossing found", estimate=math.nan)
    crossing = _find_root(log_ratio, lo, hi, f_lo, f_hi)
    cdf_g, cdf_f = _mixture_cdf([g, f], crossing)  # one ladder: the two laws share K, so their parity
    value = cdf_g - cdf_f
    bound = _cdf_error(f, nu_f, crossing) + _cdf_error(g, nu_g, crossing)
    return _Crossing(value, float(bound + _crossing_error(f, g, crossing, *seen[crossing])), crossing)


def _crossing_error(f: _Mixture, g: _Mixture, crossing: float, log_f: float, log_g: float) -> float:
    """The crossing and subtraction terms of :func:`_tv_crossing`'s bound; ``log_f``, ``log_g`` are the log
    densities plus ``crossing/2`` computed there. Infinite where the windows are out of order or the
    crossing lies within the bracket's width of 0."""
    width = 1.01 * _bracket_width(crossing)
    if not (f.dfs[0] >= g.dfs[0] and f.dfs[-1] >= g.dfs[-1] and crossing > width):
        return math.inf
    sign_error = _logpdf_error(f, crossing, log_f, width) + _logpdf_error(g, crossing, log_g, width)
    growth = width * (0.5 * f.dfs[-1] / (crossing - width) + 0.5)
    log_density = max(log_f, log_g) - 0.5 * crossing + sign_error + growth
    return 1.01 * math.expm1(sign_error) + width * math.exp(log_density) + _U
