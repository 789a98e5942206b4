"""Standalone SVG rendering of sweeps and Gantt charts.

Produces publication-style figure files (the visual counterparts of the
paper's Figures 1–4 and 9–11) with no plotting dependency: hand-written
SVG with log-x axes, tick labels, legends and per-activity colour
coding.  Output is valid XML (tested by parsing) and renders in any
browser.
"""

from __future__ import annotations

from html import escape
from math import log10

from repro.sim.tracing import Trace

__all__ = ["sweep_svg", "gantt_svg", "GANTT_COLORS"]


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` (quotes stay: text nodes only)."""
    return escape(text, quote=False)


GANTT_COLORS = {
    "compute": "#2f7d31",
    "fill_mpi_send": "#f2a33c",
    "fill_mpi_recv": "#e4c441",
    "fill_kernel_send": "#c97b2f",
    "fill_kernel_recv": "#c9a12f",
    "blocked_recv": "#b8b8b8",
    "blocked_send": "#a0a0a0",
    "blocked_wait": "#c9c9c9",
    "kernel_copy": "#7b52ab",
    "wire": "#1f5fa8",
    "ack": "#8aa7c6",
    "in_flight": "#d7e3f0",
}

_LANE_NAMES = {"dma": "dma", "nic_tx": "tx", "nic_rx": "rx", "link": "link"}

_SERIES_COLORS = ("#c23b22", "#1f5fa8", "#e08b3c", "#4a9a7c")


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif">',
        f"<title>{_escape(title)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def sweep_svg(
    sweep_result,
    *,
    width: int = 640,
    height: int = 420,
    include_model: bool = False,
    title: str | None = None,
) -> str:
    """A Figure-9-style line chart: completion time vs tile height V,
    log-x, both simulated curves (plus analytic with ``include_model``)."""
    pts = sweep_result.points
    if not pts:
        raise ValueError("empty sweep")
    series = [
        ("non-overlapping (sim)", [(p.v, p.t_nonoverlap_sim) for p in pts]),
        ("overlapping (sim)", [(p.v, p.t_overlap_sim) for p in pts]),
    ]
    if include_model:
        series += [
            ("non-overlapping (model)",
             [(p.v, p.t_nonoverlap_model) for p in pts]),
            ("overlapping (model)", [(p.v, p.t_overlap_model) for p in pts]),
        ]

    ml, mr, mt, mb = 64, 16, 36, 46
    plot_w, plot_h = width - ml - mr, height - mt - mb
    xs = [log10(v) for v, _ in series[0][1]]
    ys = [t for _, data in series for _, t in data]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.05
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(v: float) -> float:
        return ml + (log10(v) - x0) / xr * plot_w

    def sy(t: float) -> float:
        return mt + plot_h - (t - y0) / yr * plot_h

    out = _svg_header(width, height, title or sweep_result.workload_name)
    out.append(
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{_escape(title or 'Completion time vs tile height — ' + sweep_result.workload_name)}</text>"
    )
    # Axes.
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>'
    )
    # X ticks at the swept heights (thinned to <= 8 labels).
    vs = [p.v for p in pts]
    stride = max(1, len(vs) // 8)
    for v in vs[::stride]:
        x = sx(v)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{mt + plot_h}" x2="{_fmt(x)}" '
            f'y2="{mt + plot_h + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{mt + plot_h + 18}" font-size="10" '
            f'text-anchor="middle">{v}</text>'
        )
    # Y ticks.
    for k in range(5):
        t = y0 + yr * k / 4
        y = sy(t)
        out.append(
            f'<line x1="{ml - 5}" y1="{_fmt(y)}" x2="{ml}" y2="{_fmt(y)}" '
            'stroke="#444"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{_fmt(y + 3)}" font-size="10" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{width / 2}" y="{height - 8}" font-size="11" '
        'text-anchor="middle">tile height V (log scale)</text>'
    )
    out.append(
        f'<text x="14" y="{mt + plot_h / 2}" font-size="11" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + plot_h / 2})">completion time (s)</text>'
    )
    # Series.
    for k, (name, data) in enumerate(series):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{_fmt(sx(v))},{_fmt(sy(t))}"
            for i, (v, t) in enumerate(data)
        )
        dash = ' stroke-dasharray="5,4"' if "model" in name else ""
        out.append(
            f'<path d="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        for v, t in data:
            out.append(
                f'<circle cx="{_fmt(sx(v))}" cy="{_fmt(sy(t))}" r="2.4" '
                f'fill="{color}"/>'
            )
        ly = mt + 14 + 14 * k
        out.append(
            f'<line x1="{ml + plot_w - 170}" y1="{ly - 4}" '
            f'x2="{ml + plot_w - 146}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"{dash}/>'
        )
        out.append(
            f'<text x="{ml + plot_w - 140}" y="{ly}" font-size="10">'
            f"{_escape(name)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out)


def gantt_svg(
    trace: Trace,
    *,
    width: int = 900,
    row_height: int = 22,
    title: str = "",
) -> str:
    """A Gantt chart of per-rank activity (the Figures 1–4 view): one row
    per rank's CPU, plus one row per hardware lane (DMA, NIC TX/RX, link)
    the rank used."""
    ranks = trace.ranks()
    horizon = trace.end_time()
    if not ranks or horizon <= 0:
        raise ValueError("empty trace")
    hw_lanes = [res for res in trace.resources() if res != "cpu"]
    rows: list[tuple[str, bool, list]] = []
    for rank in ranks:
        rows.append((f"P{rank}", True, trace.for_rank(rank, "cpu")))
        for res in hw_lanes:
            records = trace.for_rank(rank, res)
            if records:
                rows.append((_LANE_NAMES.get(res, res), False, records))
    used_kinds = {
        rec.kind for _, _, records in rows for rec in records
        if rec.kind in GANTT_COLORS
    }
    legend_kinds = [k for k in GANTT_COLORS if k in used_kinds]
    ml, mt = 46, 34
    plot_w = width - ml - 12
    legend_rows = 1
    lx_probe = ml
    for kind in legend_kinds:
        step = 14 + 7 * len(kind) + 16
        if lx_probe + step > ml + plot_w:
            legend_rows += 1
            lx_probe = ml
        lx_probe += step
    height = mt + row_height * len(rows) + 38 + 14 * legend_rows

    out = _svg_header(width, height, title or "schedule Gantt")
    if title:
        out.append(
            f'<text x="{width / 2}" y="20" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    for row, (label, is_cpu, records) in enumerate(rows):
        y = mt + row * row_height
        style = "" if is_cpu else ' fill="#777" font-style="italic"'
        out.append(
            f'<text x="{ml - 6}" y="{y + row_height * 0.7}" font-size="11" '
            f'text-anchor="end"{style}>{_escape(label)}</text>'
        )
        out.append(
            f'<line x1="{ml}" y1="{y + row_height - 1}" x2="{ml + plot_w}" '
            f'y2="{y + row_height - 1}" stroke="#eee"/>'
        )
        for rec in records:
            color = GANTT_COLORS.get(rec.kind)
            if color is None:
                continue
            x = ml + rec.start / horizon * plot_w
            w = max(0.5, rec.duration / horizon * plot_w)
            term = f" {rec.term}" if rec.term else ""
            out.append(
                f'<rect x="{_fmt(x)}" y="{y + 2}" width="{_fmt(w)}" '
                f'height="{row_height - 6}" fill="{color}">'
                f"<title>{_escape(rec.kind)}{_escape(term)} {_escape(rec.label)} "
                f"[{rec.start:.6g}, {rec.end:.6g}]</title></rect>"
            )
    # Legend + time axis.
    ly = mt + row_height * len(rows) + 16
    lx = ml
    for kind in legend_kinds:
        step = 14 + 7 * len(kind) + 16
        if lx + step > ml + plot_w:
            ly += 14
            lx = ml
        out.append(
            f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" '
            f'fill="{GANTT_COLORS[kind]}"/>'
        )
        out.append(
            f'<text x="{lx + 14}" y="{ly}" font-size="10">{kind}</text>'
        )
        lx += step
    out.append(
        f'<text x="{ml}" y="{ly + 22}" font-size="10">0 s</text>'
    )
    out.append(
        f'<text x="{ml + plot_w}" y="{ly + 22}" font-size="10" '
        f'text-anchor="end">{horizon:.6g} s</text>'
    )
    out.append("</svg>")
    return "\n".join(out)
