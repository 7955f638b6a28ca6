"""Self-contained HTML report for a search log (``repro report``).

Renders the candidate-level event stream of :mod:`repro.obs.search` as a
single HTML file with inline SVG — no JavaScript, no external assets —
so the artifact can be archived from CI and opened anywhere:

* summary tiles (candidates priced, distinct plans, cache hit rate,
  winner GFLOPS);
* a log-log **roofline scatter** of every measured candidate (DRAM
  operational intensity vs achieved GFLOPS) under the device's roofline
  (bandwidth slope + compute peak), winner highlighted;
* the **convergence curve** (running best GFLOPS over candidate
  sequence);
* the winner explanation and runner-up counter deltas from
  :mod:`repro.obs.explain`;
* the per-phase timing table (the ``phase`` footer records) and the
  final evaluation-engine statistics.

Chart styling follows the repo-wide viz conventions: categorical
palette slots in fixed order (slot 1 blue for candidates, slot 2 orange
for the winner), both validated for light and dark surfaces; thin
marks; text in ink tokens, never series colors; native ``<title>``
tooltips on every mark.
"""

from __future__ import annotations

import html
import math
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .explain import ExplainReport, build_explain

__all__ = ["render_html"]

# Validated palette (reference instance): categorical slots 1-2 carry
# the two series (candidates, winner); everything else is chart chrome.
_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: #f9f9f7; color: #0b0b0b;
}
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;   /* candidates */
  --series-2: #eb6834;   /* winner */
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
.viz-root {
  max-width: 980px; margin: 0 auto;
  color: var(--text-primary);
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .v { font-size: 22px; }
.tile .k { font-size: 12px; color: var(--text-secondary); margin-top: 2px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px;
}
svg text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
table {
  border-collapse: collapse; width: 100%;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; font-size: 13px;
}
th, td { text-align: left; padding: 6px 10px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
th {
  color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--gridline);
}
tr + tr td { border-top: 1px solid var(--gridline); }
.legend { font-size: 12px; color: var(--text-secondary); margin: 8px 0 0; }
.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 4px 0 12px; vertical-align: baseline;
}
.mono { font-family: ui-monospace, Menlo, Consolas, monospace; }
.reason { color: var(--text-muted); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _nice_log_ticks(lo: float, hi: float) -> List[float]:
    """Decade ticks (1eN) covering [lo, hi]."""
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def _fmt_tick(value: float) -> str:
    if value >= 1:
        return f"{value:g}"
    return f"{value:.3g}"


class _LogScale:
    """Log-space linear map from a data range onto pixel coordinates."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float):
        lo = max(lo, 1e-12)
        hi = max(hi, lo * 1.0001)
        self.lo, self.hi = math.log10(lo), math.log10(hi)
        self.p0, self.p1 = p0, p1

    def __call__(self, value: float) -> float:
        value = max(value, 1e-12)
        t = (math.log10(value) - self.lo) / (self.hi - self.lo)
        return self.p0 + t * (self.p1 - self.p0)


def _roofline_svg(
    report: ExplainReport, measured_events: Sequence[Dict[str, Any]]
) -> str:
    """Log-log scatter of every measured candidate under the roofline."""
    device = report.device or {}
    peak = device.get("peak_gflops")
    dram_bw = device.get("dram_bw_gbs")

    points: List[Tuple[float, float, str, str, bool]] = []
    winner_fp = (
        report.winner_candidate.fingerprint
        if report.winner_candidate is not None
        else None
    )
    # One point per candidate record (the log's whole history, cache
    # hits included — the chart answers "what did the search look at").
    seen_fp_best: Dict[str, float] = {}
    for cand_dict in measured_events:
        oi = (cand_dict.get("counters") or {}).get("oi_dram")
        gflops = cand_dict.get("gflops")
        if not oi or not gflops or oi <= 0 or gflops <= 0:
            continue
        fp = cand_dict.get("fingerprint", "")
        label = (
            f"{cand_dict.get('plan', '')}\n"
            f"OI {oi:.2f} FLOP/B, {gflops:.1f} GFLOPS, "
            f"bound at {cand_dict.get('bottleneck', '?')}"
        )
        points.append((oi, gflops, fp, label, fp == winner_fp))
        best = seen_fp_best.get(fp, 0.0)
        seen_fp_best[fp] = max(best, gflops)

    if not points:
        return "<p class='sub'>no measured candidates to plot</p>"

    width, height = 920, 420
    left, right, top, bottom = 64, 20, 16, 44
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs) / 1.5, max(xs) * 1.5
    y_lo, y_hi = min(ys) / 1.5, max(ys) * 1.5
    if peak:
        y_hi = max(y_hi, peak * 1.3)
        if dram_bw:
            # Keep the ridge point in frame so both roof segments show.
            x_hi = max(x_hi, peak / dram_bw * 2.0)
    sx = _LogScale(x_lo, x_hi, left, width - right)
    sy = _LogScale(y_lo, y_hi, height - bottom, top)

    parts: List[str] = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='Roofline scatter of evaluated candidates'>"
    ]

    # Gridlines + tick labels (decades).
    for tick in _nice_log_ticks(x_lo, x_hi):
        if not (x_lo <= tick <= x_hi):
            continue
        x = sx(tick)
        parts.append(
            f"<line x1='{x:.1f}' y1='{top}' x2='{x:.1f}' "
            f"y2='{height - bottom}' stroke='var(--gridline)' "
            f"stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{x:.1f}' y='{height - bottom + 16}' "
            f"text-anchor='middle' font-size='11' "
            f"fill='var(--text-muted)'>{_fmt_tick(tick)}</text>"
        )
    for tick in _nice_log_ticks(y_lo, y_hi):
        if not (y_lo <= tick <= y_hi):
            continue
        y = sy(tick)
        parts.append(
            f"<line x1='{left}' y1='{y:.1f}' x2='{width - right}' "
            f"y2='{y:.1f}' stroke='var(--gridline)' stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{left - 6}' y='{y + 4:.1f}' text-anchor='end' "
            f"font-size='11' fill='var(--text-muted)'>"
            f"{_fmt_tick(tick)}</text>"
        )

    # Roofline: DRAM bandwidth slope (GFLOPS = BW * OI) and compute peak,
    # drawn as chart chrome (reference lines, not series).
    if peak and dram_bw:
        ridge_oi = peak / dram_bw
        # Bandwidth-limited segment, clipped to the plot window.
        oi_start = max(x_lo, y_lo / dram_bw)
        oi_end = min(ridge_oi, x_hi)
        if oi_end > oi_start:
            parts.append(
                f"<line x1='{sx(oi_start):.1f}' "
                f"y1='{sy(oi_start * dram_bw):.1f}' "
                f"x2='{sx(oi_end):.1f}' y2='{sy(oi_end * dram_bw):.1f}' "
                f"stroke='var(--baseline)' stroke-width='2'/>"
            )
        if ridge_oi < x_hi and y_lo <= peak <= y_hi:
            parts.append(
                f"<line x1='{sx(max(ridge_oi, x_lo)):.1f}' "
                f"y1='{sy(peak):.1f}' x2='{sx(x_hi):.1f}' "
                f"y2='{sy(peak):.1f}' "
                f"stroke='var(--baseline)' stroke-width='2'/>"
            )
            parts.append(
                f"<text x='{width - right - 4}' y='{sy(peak) - 6:.1f}' "
                f"text-anchor='end' font-size='11' "
                f"fill='var(--text-secondary)'>"
                f"peak {peak:.0f} GFLOPS</text>"
            )
        if x_lo <= ridge_oi <= x_hi:
            parts.append(
                f"<text x='{sx(ridge_oi):.1f}' y='{height - bottom - 6}' "
                f"text-anchor='middle' font-size='11' "
                f"fill='var(--text-secondary)'>"
                f"ridge {ridge_oi:.2f}</text>"
            )

    # Candidate marks (series 1), winner on top (series 2) with a 2px
    # surface ring so overlapping marks stay separable.
    winner_marks: List[str] = []
    for oi, gflops, fp, label, is_winner in points:
        x, y = sx(oi), sy(gflops)
        if is_winner:
            winner_marks.append(
                f"<circle cx='{x:.1f}' cy='{y:.1f}' r='6' "
                f"fill='var(--series-2)' stroke='var(--surface-1)' "
                f"stroke-width='2'><title>{_esc(label)}</title></circle>"
            )
        else:
            parts.append(
                f"<circle cx='{x:.1f}' cy='{y:.1f}' r='3.5' "
                f"fill='var(--series-1)' fill-opacity='0.55'>"
                f"<title>{_esc(label)}</title></circle>"
            )
    parts.extend(winner_marks)

    # Axis titles.
    parts.append(
        f"<text x='{(left + width - right) / 2:.0f}' y='{height - 6}' "
        f"text-anchor='middle' font-size='12' "
        f"fill='var(--text-secondary)'>"
        f"operational intensity (FLOP/byte, DRAM)</text>"
    )
    parts.append(
        f"<text x='14' y='{(top + height - bottom) / 2:.0f}' "
        f"text-anchor='middle' font-size='12' fill='var(--text-secondary)' "
        f"transform='rotate(-90 14 {(top + height - bottom) / 2:.0f})'>"
        f"achieved GFLOPS</text>"
    )
    parts.append("</svg>")
    parts.append(
        "<p class='legend'>"
        "<span class='swatch' style='background:var(--series-1)'></span>"
        "candidates"
        "<span class='swatch' style='background:var(--series-2)'></span>"
        "winner"
        "<span class='swatch' style='background:var(--baseline)'></span>"
        "device roofline (DRAM)"
        "</p>"
    )
    return "".join(parts)


def _convergence_svg(report: ExplainReport) -> str:
    """Running best GFLOPS over candidate sequence (step line)."""
    trajectory = list(report.convergence)
    if not trajectory:
        return "<p class='sub'>no measured candidates to plot</p>"
    total = max(report.candidates, trajectory[-1][0])

    width, height = 920, 240
    left, right, top, bottom = 64, 20, 14, 40
    y_max = max(g for _, g in trajectory) * 1.1
    y_min = 0.0

    def px(seq: float) -> float:
        return left + (seq / max(total, 1)) * (width - left - right)

    def py(gflops: float) -> float:
        t = (gflops - y_min) / (y_max - y_min)
        return (height - bottom) - t * (height - bottom - top)

    parts: List[str] = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='Search convergence: best GFLOPS by candidate'>"
    ]
    # Horizontal gridlines at ~4 even steps.
    step = y_max / 4
    for index in range(5):
        value = index * step
        y = py(value)
        parts.append(
            f"<line x1='{left}' y1='{y:.1f}' x2='{width - right}' "
            f"y2='{y:.1f}' stroke='var(--gridline)' stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{left - 6}' y='{y + 4:.1f}' text-anchor='end' "
            f"font-size='11' fill='var(--text-muted)'>{value:.0f}</text>"
        )

    # Step polyline: best-so-far holds flat until the next improvement.
    coords: List[str] = []
    prev_y: Optional[float] = None
    for seq, gflops in trajectory:
        x, y = px(seq), py(gflops)
        if prev_y is not None:
            coords.append(f"{x:.1f},{prev_y:.1f}")
        coords.append(f"{x:.1f},{y:.1f}")
        prev_y = y
    coords.append(f"{px(total):.1f},{prev_y:.1f}")
    parts.append(
        f"<polyline points='{' '.join(coords)}' fill='none' "
        f"stroke='var(--series-1)' stroke-width='2' "
        f"stroke-linejoin='round'/>"
    )
    for seq, gflops in trajectory:
        parts.append(
            f"<circle cx='{px(seq):.1f}' cy='{py(gflops):.1f}' r='4' "
            f"fill='var(--series-1)' stroke='var(--surface-1)' "
            f"stroke-width='2'>"
            f"<title>candidate #{seq}: best {gflops:.1f} GFLOPS</title>"
            f"</circle>"
        )

    for frac in (0, 0.25, 0.5, 0.75, 1.0):
        seq = round(total * frac)
        parts.append(
            f"<text x='{px(seq):.1f}' y='{height - bottom + 16}' "
            f"text-anchor='middle' font-size='11' "
            f"fill='var(--text-muted)'>{seq}</text>"
        )
    parts.append(
        f"<text x='{(left + width - right) / 2:.0f}' y='{height - 4}' "
        f"text-anchor='middle' font-size='12' "
        f"fill='var(--text-secondary)'>candidate sequence</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _tiles(report: ExplainReport) -> str:
    stats = report.stats or {}
    hits = stats.get("hits")
    requests = stats.get("requests")
    hit_rate = (
        f"{hits / requests * 100:.0f}%"
        if hits is not None and requests
        else "n/a"
    )
    winner = report.winner_candidate
    winner_gflops = f"{winner.gflops:.0f}" if winner else "n/a"
    variant = (report.winner or {}).get("variant", "n/a")
    tiles = [
        (str(report.candidates), "candidates priced"),
        (str(report.distinct_plans), "distinct plans"),
        (hit_rate, "cache hit rate"),
        (winner_gflops, "winner GFLOPS"),
        (_esc(variant), "winning variant"),
    ]
    cells = "".join(
        f"<div class='tile'><div class='v'>{value}</div>"
        f"<div class='k'>{label}</div></div>"
        for value, label in tiles
    )
    return f"<div class='tiles'>{cells}</div>"


def _winner_section(report: ExplainReport) -> str:
    winner = report.winner_candidate
    if winner is None:
        return "<p class='sub'>no measured winner in this log</p>"
    parts: List[str] = []
    variant = (report.winner or {}).get("variant")
    parts.append(
        f"<p><span class='mono'>{_esc(winner.plan)}</span>"
        + (f" <span class='sub'>({_esc(variant)})</span>" if variant else "")
        + "</p>"
    )
    parts.append(
        f"<p class='sub'>predicted {winner.gflops:.1f} GFLOPS, "
        f"{winner.time_ms:.3f} ms, occupancy {winner.occupancy:.2f}"
        + (f", bound at {_esc(winner.bottleneck)}" if winner.bottleneck else "")
        + "</p>"
    )
    if report.runners:
        rows: List[str] = [
            "<tr><th>runner-up</th><th class='num'>GFLOPS</th>"
            "<th class='num'>gap</th><th class='num'>DRAM bytes</th>"
            "<th class='num'>spill bytes</th><th>bound</th></tr>"
        ]
        for runner in report.runners:
            cand = runner.candidate
            dram = runner.deltas.get("dram_bytes")
            spill = runner.deltas.get("spill_bytes")

            def ratio_cell(delta) -> str:
                if delta is None:
                    return "<td class='num'>–</td>"
                _, _, ratio = delta
                if ratio is None:
                    return "<td class='num'>–</td>"
                return f"<td class='num'>{ratio:.2f}×</td>"

            rows.append(
                f"<tr><td class='mono'>{_esc(cand.plan)}</td>"
                f"<td class='num'>{cand.gflops:.1f}</td>"
                f"<td class='num'>{runner.gflops_gap_pct:+.1f}%</td>"
                f"{ratio_cell(dram)}{ratio_cell(spill)}"
                f"<td>{_esc(cand.bottleneck or '–')}</td></tr>"
            )
        parts.append(
            "<table>" + "".join(rows) + "</table>"
            "<p class='legend'>byte columns are the runner-up's traffic "
            "as a multiple of the winner's (1.00× = equal)</p>"
        )
    return "".join(parts)


def _advice_section(report: ExplainReport) -> str:
    if not report.advice:
        return ""
    parts = ["<h2>Advisor rules</h2>"]
    rows = [
        "<tr><th>kernel</th><th>bound</th><th>rules fired</th></tr>"
    ]
    for entry in report.advice:
        rules = entry.get("rules") or []
        rendered = "<br>".join(_esc(rule) for rule in rules) or "–"
        rows.append(
            f"<tr><td class='mono'>{_esc(entry.get('kernel', '?'))}</td>"
            f"<td>{_esc(entry.get('bound_level', '?'))}</td>"
            f"<td>{rendered}</td></tr>"
        )
    parts.append("<table>" + "".join(rows) + "</table>")
    return "".join(parts)


def _phases_section(report: ExplainReport) -> str:
    if not report.phases:
        return ""
    parts = ["<h2>Phase timings</h2>"]
    rows = [
        "<tr><th>phase</th><th class='num'>calls</th>"
        "<th class='num'>total ms</th><th class='num'>self ms</th></tr>"
    ]
    for phase in report.phases:
        rows.append(
            f"<tr><td>{_esc(phase.get('name', '?'))}</td>"
            f"<td class='num'>{phase.get('count', 0)}</td>"
            f"<td class='num'>{(phase.get('total_ms') or 0):.2f}</td>"
            f"<td class='num'>{(phase.get('self_ms') or 0):.2f}</td></tr>"
        )
    parts.append("<table>" + "".join(rows) + "</table>")
    return "".join(parts)


def _dispositions_section(report: ExplainReport) -> str:
    if not report.dispositions and not report.markers:
        return ""
    parts = ["<h2>Dispositions</h2>"]
    rows = ["<tr><th>disposition</th><th class='num'>count</th></tr>"]
    for name, count in sorted(report.dispositions.items()):
        rows.append(
            f"<tr><td>{_esc(name)}</td><td class='num'>{count}</td></tr>"
        )
    for name, count in sorted(report.markers.items()):
        rows.append(
            f"<tr><td class='reason'>{_esc(name)} (marker)</td>"
            f"<td class='num'>{count}</td></tr>"
        )
    parts.append("<table>" + "".join(rows) + "</table>")
    return "".join(parts)


_LINT_REASON = re.compile(r"\[(RL\d{3})\]")


def _lint_section(events: Sequence[Dict[str, Any]]) -> str:
    """Prescreen rejections grouped by lint rule code."""
    by_code: Dict[str, int] = {}
    for event in events:
        if event.get("kind") == "candidate":
            match = _LINT_REASON.search(str(event.get("reason") or ""))
            if match:
                code = match.group(1)
                by_code[code] = by_code.get(code, 0) + 1
    if not by_code:
        return ""
    from ..lint.diagnostics import RULES

    parts = ["<h2>Lint rejections</h2>"]
    rows = ["<tr><th>rule</th><th></th><th class='num'>candidates</th></tr>"]
    for code, count in sorted(by_code.items()):
        name = RULES[code].name if code in RULES else ""
        rows.append(
            f"<tr><td>{_esc(code)}</td><td class='reason'>{_esc(name)}</td>"
            f"<td class='num'>{count}</td></tr>"
        )
    parts.append("<table>" + "".join(rows) + "</table>")
    return "".join(parts)


def render_html(
    events: Sequence[Dict[str, Any]],
    title: str = "ARTEMIS search report",
    top_k: int = 3,
) -> str:
    """Render a search-event stream as a standalone HTML document."""
    report = build_explain(events, top_k=top_k)
    # The roofline scatter plots *every* measured candidate record, not
    # just the per-fingerprint representatives the explain report keeps.
    measured_events = [
        e
        for e in events
        if e.get("kind") == "candidate" and e.get("gflops") is not None
    ]

    device = report.device or {}
    device_line = (
        f"device {_esc(device.get('name', '?'))} · "
        f"peak {device.get('peak_gflops', 0):.0f} GFLOPS · "
        f"DRAM {device.get('dram_bw_gbs', 0):.0f} GB/s"
        if device
        else "device unknown (header missing device payload)"
    )

    body = [
        f"<h1>{_esc(title)}</h1>",
        f"<p class='sub'>{device_line}</p>",
        _tiles(report),
        "<h2>Roofline: every candidate the search priced</h2>",
        f"<div class='panel'>{_roofline_svg(report, measured_events)}</div>",
        "<h2>Convergence</h2>",
        f"<div class='panel'>{_convergence_svg(report)}</div>",
        "<h2>Why this plan</h2>",
        _winner_section(report),
        _advice_section(report),
        _phases_section(report),
        _dispositions_section(report),
        _lint_section(events),
    ]
    return (
        "<!DOCTYPE html>"
        "<html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<style>{_CSS}</style></head>"
        f"<body><div class='viz-root'>{''.join(body)}</div></body></html>"
    )
