"""Dependency-free SVG box plots for efficiency summaries.

Produces self-contained, byte-deterministic SVG strings: no external
fonts, scripts or references, fixed float formatting, and the plotted
statistics attached as ``data-`` attributes on each box group so tests
(and curious readers) can recover them without parsing geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BoxStats", "box_stats", "efficiency_plot", "render_box_plot"]

_STRONG_FILL = "#4477aa"
_WEAK_FILL = "#ee6677"


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus outliers for one box glyph."""

    label: str
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...] = ()
    fill: str = _STRONG_FILL
    attributes: dict | None = None


def box_stats(label: str, values, fill: str = _STRONG_FILL, attributes: dict | None = None) -> BoxStats:
    """Tukey box summary: whiskers at the last data point within 1.5 IQR.

    Non-finite values are dropped and their count recorded in the
    attributes under ``dropped``.
    """
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        raise ValueError(f"box {label!r} has no finite values")
    q1, median, q3 = (float(q) for q in np.percentile(finite, [25, 50, 75]))
    iqr = q3 - q1
    low_limit, high_limit = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = finite[(finite >= low_limit) & (finite <= high_limit)]
    whisker_low = float(np.min(inside))
    whisker_high = float(np.max(inside))
    outliers = tuple(float(v) for v in np.sort(finite[(finite < low_limit) | (finite > high_limit)]))
    attrs = dict(attributes or {})
    attrs["dropped"] = int(arr.size - finite.size)
    return BoxStats(
        label=label,
        q1=q1,
        median=median,
        q3=q3,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        fill=fill,
        attributes=attrs,
    )


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


def render_box_plot(
    boxes: list[BoxStats],
    title: str = "",
    y_label: str = "",
    metadata: dict | None = None,
) -> str:
    """Render box glyphs to a standalone SVG string."""
    if not boxes:
        raise ValueError("nothing to plot")
    width, height = 640, 420
    left, right, top, bottom = 64, 16, 44, 76
    plot_w, plot_h = width - left - right, height - top - bottom

    lo = min(min(b.whisker_low, *(b.outliers or (b.whisker_low,))) for b in boxes)
    hi = max(max(b.whisker_high, *(b.outliers or (b.whisker_high,))) for b in boxes)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.06 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y_of(v: float) -> float:
        return top + plot_h * (hi - v) / (hi - lo)

    slot = plot_w / len(boxes)
    box_w = min(0.62 * slot, 64.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    ]
    if metadata is not None:
        parts.append(f"<desc>{_escape(json.dumps(metadata, sort_keys=True))}</desc>")
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{_escape(y_label)}</text>'
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
        tick += step
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )

    for i, box in enumerate(boxes):
        cx = left + (i + 0.5) * slot
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        attrs = "".join(
            f' data-{_escape(str(k))}="{_escape(str(v))}"' for k, v in sorted((box.attributes or {}).items())
        )
        parts.append(
            f'<g class="box" data-label="{_escape(box.label)}" data-q1="{_fmt(box.q1)}" '
            f'data-median="{_fmt(box.median)}" data-q3="{_fmt(box.q3)}" '
            f'data-lo="{_fmt(box.whisker_low)}" data-hi="{_fmt(box.whisker_high)}"{attrs}>'
        )
        for w in (box.whisker_low, box.whisker_high):
            parts.append(
                f'<line x1="{cx - box_w / 4:.2f}" y1="{y_of(w):.2f}" x2="{cx + box_w / 4:.2f}" '
                f'y2="{y_of(w):.2f}" stroke="#333333" stroke-width="1.2"/>'
            )
        parts.append(
            f'<line x1="{cx:.2f}" y1="{y_of(box.whisker_low):.2f}" x2="{cx:.2f}" '
            f'y2="{y_of(box.q1):.2f}" stroke="#333333" stroke-width="1" stroke-dasharray="3 2"/>'
        )
        parts.append(
            f'<line x1="{cx:.2f}" y1="{y_of(box.q3):.2f}" x2="{cx:.2f}" '
            f'y2="{y_of(box.whisker_high):.2f}" stroke="#333333" stroke-width="1" stroke-dasharray="3 2"/>'
        )
        parts.append(
            f'<rect x="{x0:.2f}" y="{y_of(box.q3):.2f}" width="{box_w:.2f}" '
            f'height="{y_of(box.q1) - y_of(box.q3):.2f}" fill="{box.fill}" fill-opacity="0.55" '
            f'stroke="#333333" stroke-width="1.2"/>'
        )
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y_of(box.median):.2f}" x2="{x1:.2f}" '
            f'y2="{y_of(box.median):.2f}" stroke="#111111" stroke-width="2"/>'
        )
        for out in box.outliers:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{y_of(out):.2f}" r="2.2" fill="none" '
                f'stroke="#333333" stroke-width="1"/>'
            )
        parts.append("</g>")
        parts.append(
            f'<text x="{cx:.2f}" y="{height - bottom + 14:.2f}" text-anchor="end" font-size="10" '
            f'transform="rotate(-30 {cx:.2f} {height - bottom + 14:.2f})">{_escape(box.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def efficiency_plot(records, config_mapping: dict | None = None, title: str = "Relative efficiency") -> str:
    """Box plot of strong and weak efficiencies per procedure from records.

    ``records`` is an iterable of objects with ``procedure``,
    ``eff_strong`` and ``eff_weak`` attributes (replication records);
    box order follows first appearance of each procedure.
    """
    order: list[str] = []
    strong: dict[str, list[float]] = {}
    weak: dict[str, list[float]] = {}
    for rec in records:
        if rec.procedure not in strong:
            order.append(rec.procedure)
            strong[rec.procedure] = []
            weak[rec.procedure] = []
        strong[rec.procedure].append(rec.eff_strong)
        weak[rec.procedure].append(rec.eff_weak)
    if not order:
        raise ValueError("no records to plot")
    boxes = []
    for proc in order:
        boxes.append(
            box_stats(
                f"{proc} strong",
                strong[proc],
                fill=_STRONG_FILL,
                attributes={"procedure": proc, "norm": "strong"},
            )
        )
        boxes.append(
            box_stats(
                f"{proc} weak",
                weak[proc],
                fill=_WEAK_FILL,
                attributes={"procedure": proc, "norm": "weak"},
            )
        )
    return render_box_plot(boxes, title=title, y_label="efficiency", metadata=config_mapping)
