"""Dependency-free SVG box plots of relative efficiency.

Produces self-contained, byte-deterministic SVG strings: no external
fonts, scripts or references, fixed float formatting, and the plotted
statistics attached as ``data-`` attributes on each box group so tests
(and curious readers) can recover them without parsing geometry.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["efficiency_plot"]

_FILLS = {"strong": "#4477aa", "weak": "#ee6677"}


def _box(values: list[float]):
    """Tukey summary of the finite ``values``, whiskers at the last point within 1.5 IQR, and the non-finite count.

    The summary is ``(q1, median, q3, whisker_low, whisker_high, outliers)``,
    or ``None`` when no value is finite.
    """
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    dropped = int(arr.size - finite.size)
    if finite.size == 0:
        return None, dropped
    q1, median, q3 = (float(q) for q in np.percentile(finite, [25, 50, 75]))
    iqr = q3 - q1
    low_limit, high_limit = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = finite[(finite >= low_limit) & (finite <= high_limit)]
    outliers = [float(v) for v in np.sort(finite[(finite < low_limit) | (finite > high_limit)])]
    return (q1, median, q3, float(np.min(inside)), float(np.max(inside)), outliers), dropped


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _tick_step(span: float) -> float:
    raw = span / 5.0
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def efficiency_plot(records, config_mapping: dict | None = None, title: str = "Relative efficiency") -> str:
    """Standalone SVG box plot of the strong and weak efficiencies of each procedure in ``records``.

    ``records`` is an iterable of objects with ``procedure``, ``eff_strong``
    and ``eff_weak`` attributes (replication records); box order follows
    first appearance of each procedure. Non-finite values are left out and
    counted in the box's ``data-dropped``; a box with no finite value is
    drawn as its label alone, and ``ValueError`` is raised for finite values
    spread too wide to scale to the plot. ``config_mapping`` is echoed as
    JSON in the SVG's ``desc``.
    """
    values: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        by_norm = values.setdefault(rec.procedure, {"strong": [], "weak": []})
        by_norm["strong"].append(rec.eff_strong)
        by_norm["weak"].append(rec.eff_weak)
    if not values:
        raise ValueError("no records to plot")

    width, height = 640, 420
    left, right, top, bottom = 64, 16, 44, 76
    plot_w, plot_h = width - left - right, height - top - bottom

    finite = [v for by_norm in values.values() for vals in by_norm.values() for v in vals if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if hi <= lo:  # past 2**53, lo + 1 rounds back to lo, so the width grows with lo there
        hi = lo + max(1.0, abs(lo) * 2**-40)
    pad = 0.06 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not plot_h * (hi - lo) < math.inf:  # y_of scales a difference of at most hi - lo by plot_h
        raise ValueError(f"efficiencies from {min(finite)!r} to {max(finite)!r} span too wide a range to plot")
    boxes = [(proc, norm, *_box(vals)) for proc, by_norm in values.items() for norm, vals in by_norm.items()]

    def y_of(v: float) -> float:
        return top + plot_h * (hi - v) / (hi - lo)

    slot = plot_w / len(boxes)
    box_w = min(0.62 * slot, 64.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    ]
    if config_mapping is not None:
        parts.append(f"<desc>{_escape(json.dumps(config_mapping, sort_keys=True))}</desc>")
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">efficiency</text>'
    )

    step = _tick_step(hi - lo)
    tick = math.ceil(lo / step) * step
    while tick <= hi:
        y = y_of(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{_fmt(tick)}</text>'
        )
        if tick + step == tick:  # a step below half an ulp of the tick no longer moves it
            break
        tick += step
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )

    for i, (proc, norm, stats, dropped) in enumerate(boxes):
        cx = left + (i + 0.5) * slot
        label = _escape(f"{proc} {norm}")
        attrs = f'data-dropped="{dropped}" data-norm="{norm}" data-procedure="{_escape(proc)}"'
        if stats is None:
            parts.append(f'<g class="box" data-label="{label}" {attrs}>')
        else:
            q1, median, q3, whisker_low, whisker_high, outliers = stats
            x0, x1 = cx - box_w / 2, cx + box_w / 2
            parts.append(
                f'<g class="box" data-label="{label}" data-q1="{_fmt(q1)}" data-median="{_fmt(median)}" '
                f'data-q3="{_fmt(q3)}" data-lo="{_fmt(whisker_low)}" data-hi="{_fmt(whisker_high)}" {attrs}>'
            )
            for w in (whisker_low, whisker_high):
                parts.append(
                    f'<line x1="{cx - box_w / 4:.2f}" y1="{y_of(w):.2f}" x2="{cx + box_w / 4:.2f}" '
                    f'y2="{y_of(w):.2f}" stroke="#333333" stroke-width="1.2"/>'
                )
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y_of(whisker_low):.2f}" x2="{cx:.2f}" '
                f'y2="{y_of(q1):.2f}" stroke="#333333" stroke-width="1" stroke-dasharray="3 2"/>'
            )
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y_of(q3):.2f}" x2="{cx:.2f}" '
                f'y2="{y_of(whisker_high):.2f}" stroke="#333333" stroke-width="1" stroke-dasharray="3 2"/>'
            )
            parts.append(
                f'<rect x="{x0:.2f}" y="{y_of(q3):.2f}" width="{box_w:.2f}" '
                f'height="{y_of(q1) - y_of(q3):.2f}" fill="{_FILLS[norm]}" fill-opacity="0.55" '
                f'stroke="#333333" stroke-width="1.2"/>'
            )
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y_of(median):.2f}" x2="{x1:.2f}" '
                f'y2="{y_of(median):.2f}" stroke="#111111" stroke-width="2"/>'
            )
            for out in outliers:
                parts.append(
                    f'<circle cx="{cx:.2f}" cy="{y_of(out):.2f}" r="2.2" fill="none" '
                    f'stroke="#333333" stroke-width="1"/>'
                )
        parts.append("</g>")
        parts.append(
            f'<text x="{cx:.2f}" y="{height - bottom + 14:.2f}" text-anchor="end" font-size="10" '
            f'transform="rotate(-30 {cx:.2f} {height - bottom + 14:.2f})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
