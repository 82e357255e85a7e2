"""``repro-report``: a self-contained HTML report for one pipeline run.

One file, no external assets: inline CSS, inline SVG.  The report
stitches together what the observability stack already measures —

- the run header (policy, backend, workers, wall-clock, status),
- an SVG Gantt of the measured task placements
  (:func:`~repro.observability.export.trace_placements`),
- per-stage wall-clock / self-time bars with parallel efficiency
  (:func:`~repro.observability.critpath.stage_stats`),
- the critical-path bottleneck report
  (:func:`~repro.observability.critpath.explain`),
- the merged metrics registry as tables,
- the degraded-mode section (quarantined records, faults, retries), and
- the live-event summary when the run streamed events.

Build it from a finished :class:`~repro.core.runner.PipelineResult`
(:func:`render_html_report`), or let the CLI run the pipeline fresh on
a synthetic catalog event and report on that (`repro-report --event
... out.html`), or report an already event-logged workspace
(`repro-report --workspace ws out.html`).
"""

from __future__ import annotations

import argparse
import html
import sys
from collections import Counter
from pathlib import Path
from typing import Any

#: Bar palette, cycled per stage (Okabe-Ito, colorblind-safe).
_PALETTE = (
    "#0072B2", "#E69F00", "#009E73", "#CC79A7",
    "#56B4E9", "#D55E00", "#F0E442", "#999999",
)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { padding: .25rem .6rem; border: 1px solid #e0e0e8; text-align: right; }
th { background: #f4f4f8; } td:first-child, th:first-child { text-align: left; }
pre { background: #f6f6fa; padding: .75rem; font-size: .8rem;
      overflow-x: auto; border-radius: 4px; }
.status-ok { color: #007a3d; font-weight: 600; }
.status-degraded { color: #b25000; font-weight: 600; }
.status-failed { color: #c0001a; font-weight: 600; }
.meta { color: #555; font-size: .85rem; }
svg text { font-family: inherit; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _stage_color(stages: list[str]) -> dict[str, str]:
    return {s: _PALETTE[i % len(_PALETTE)] for i, s in enumerate(stages)}


# -- SVG pieces ----------------------------------------------------------


def _gantt_svg(placements: list[Any], *, width: int = 960) -> str:
    """Inline SVG Gantt: one row per worker lane, one bar per placement."""
    if not placements:
        return "<p class=meta>no trace placements recorded</p>"
    makespan = max(p.finish_s for p in placements) or 1e-9
    lanes = sorted({p.worker for p in placements})
    row_h, pad_l, pad_t = 18, 70, 18
    height = pad_t + row_h * len(lanes) + 24
    colors = _stage_color(sorted({p.stage for p in placements}))
    scale = (width - pad_l - 10) / makespan
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, lane in enumerate(lanes):
        y = pad_t + i * row_h
        parts.append(
            f'<text x="4" y="{y + row_h - 6}" font-size="10" fill="#555">'
            f"W{lane}</text>"
        )
        parts.append(
            f'<line x1="{pad_l}" y1="{y + row_h - 2}" x2="{width - 10}" '
            f'y2="{y + row_h - 2}" stroke="#eee"/>'
        )
    lane_index = {lane: i for i, lane in enumerate(lanes)}
    for p in placements:
        x = pad_l + p.start_s * scale
        w = max(1.0, (p.finish_s - p.start_s) * scale)
        y = pad_t + lane_index[p.worker] * row_h + 2
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{row_h - 6}" '
            f'fill="{colors[p.stage]}" rx="1">'
            f"<title>{_esc(p.name)} [{_esc(p.stage)}] "
            f"{p.start_s:.4f}-{p.finish_s:.4f} s</title></rect>"
        )
    # Time axis: start / mid / makespan ticks.
    for frac in (0.0, 0.5, 1.0):
        x = pad_l + frac * makespan * scale
        parts.append(
            f'<text x="{x:.1f}" y="{height - 8}" font-size="10" fill="#555" '
            f'text-anchor="middle">{frac * makespan:.2f}s</text>'
        )
    # Legend.
    lx = pad_l
    for stage, color in colors.items():
        parts.append(
            f'<rect x="{lx}" y="2" width="10" height="10" fill="{color}"/>'
            f'<text x="{lx + 13}" y="11" font-size="10">{_esc(stage)}</text>'
        )
        lx += 16 + 7 * len(stage)
    parts.append("</svg>")
    return "".join(parts)


def _stage_bars_svg(rows: list[tuple[str, float, float]], *, width: int = 640) -> str:
    """Horizontal wall-clock vs self-time bars, one pair per stage."""
    if not rows:
        return ""
    row_h, pad_l = 26, 70
    longest = max(max(wall, self_s) for _, wall, self_s in rows) or 1e-9
    scale = (width - pad_l - 60) / longest
    height = len(rows) * row_h + 8
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, (stage, wall, self_s) in enumerate(rows):
        y = i * row_h + 4
        parts.append(
            f'<text x="4" y="{y + 13}" font-size="11">{_esc(stage)}</text>'
        )
        parts.append(
            f'<rect x="{pad_l}" y="{y}" width="{max(1.0, wall * scale):.1f}" '
            f'height="9" fill="#0072B2"><title>wall {wall:.4f} s</title></rect>'
        )
        parts.append(
            f'<rect x="{pad_l}" y="{y + 10}" '
            f'width="{max(1.0, self_s * scale):.1f}" height="9" '
            f'fill="#E69F00"><title>self {self_s:.4f} s</title></rect>'
        )
        parts.append(
            f'<text x="{pad_l + max(1.0, wall * scale) + 4:.1f}" y="{y + 13}" '
            f'font-size="10" fill="#555">{wall:.3f}s / self {self_s:.3f}s</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# -- HTML sections -------------------------------------------------------


def _table(headers: list[str], rows: list[list[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _metrics_section(metrics: Any) -> str:
    """The merged registry as per-kind tables (counters, gauges,
    histograms with their quantile summaries)."""
    rows: list[list[object]] = []
    for (name, labels), instrument in metrics.samples_all():
        label_text = ", ".join(f"{k}={v}" for k, v in labels) or "-"
        kind = instrument.kind
        if kind == "histogram":
            value = f"n={instrument.count}, sum={instrument.sum:.4f}"
        else:
            value = f"{instrument.value:.6g}"
        rows.append([name, label_text, kind, value])
    if not rows:
        return "<p class=meta>no metrics recorded</p>"
    return _table(["metric", "labels", "kind", "value"], rows)


def _events_section(events: list[dict]) -> str:
    counts = Counter(e["type"] for e in events)
    rows = [[kind, n] for kind, n in sorted(counts.items())]
    out = [_table(["event type", "count"], rows)]
    incidents = [
        e for e in events if e["type"] in ("retry", "fault", "quarantine")
    ]
    if incidents:
        inc_rows = [
            [
                f"{e['t']:.3f}",
                e["type"],
                e.get("kind") or "-",
                e.get("process") or "-",
                e.get("record") or e.get("target") or "-",
            ]
            for e in incidents
        ]
        out.append("<h3>incidents</h3>")
        out.append(_table(["t", "event", "kind", "process", "target"], inc_rows))
    return "".join(out)


def render_html_report(
    result: Any,
    *,
    metrics: Any = None,
    events: list[dict] | None = None,
    workers: int | None = None,
    title: str = "repro run report",
) -> str:
    """The whole report as one self-contained HTML string."""
    from repro.observability.critpath import explain, render_explain, stage_stats
    from repro.observability.export import trace_placements

    status = "degraded" if result.quarantine else "ok"
    sections: list[str] = []

    meta_rows = [
        ["policy", result.implementation],
        ["wall-clock", f"{result.total_s:.3f} s"],
        ["status", status],
        ["stages", len(result.stage_durations)],
    ]
    if workers is not None:
        meta_rows.append(["workers", workers])
    sections.append("<h2>Run</h2>" + _table(["", ""], meta_rows))

    if result.trace is not None:
        placements = trace_placements(result.trace)
        sections.append("<h2>Schedule (measured Gantt)</h2>" + _gantt_svg(placements))

        self_times = result.trace.stage_self_times()
        bars = [
            (s.name, s.duration_s, self_times.get(s.name, s.duration_s))
            for s in stage_stats(result.trace)
        ]
        sections.append(
            "<h2>Stages (wall-clock vs self time)</h2>" + _stage_bars_svg(bars)
        )

        report = explain(result.trace, workers or 1, profile=result.profile)
        sections.append(
            "<h2>Critical path</h2><pre>"
            + _esc(render_explain(report))
            + "</pre>"
        )
    else:
        stage_rows = [
            [stage, f"{dur:.4f}"] for stage, dur in result.stage_durations.items()
        ]
        sections.append(
            "<h2>Stages</h2>" + _table(["stage", "wall-clock s"], stage_rows)
        )

    if metrics is not None:
        sections.append("<h2>Metrics</h2>" + _metrics_section(metrics))

    if result.quarantine:
        q_rows = [
            [r.record, getattr(r, "process", "-"), getattr(r, "kind", "-"),
             getattr(r, "attempts", "-")]
            for r in result.quarantine
        ]
        sections.append(
            "<h2>Degraded mode</h2>"
            + _table(["record", "process", "fault", "attempts"], q_rows)
        )

    if events:
        sections.append("<h2>Live events</h2>" + _events_section(events))

    status_class = f"status-{status}"
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{_esc(title)} <span class='{status_class}'>[{status}]</span></h1>"
        + "".join(sections)
        + "</body></html>"
    )


def write_html_report(path: Path | str, result: Any, **kwargs: Any) -> Path:
    """Render and write the report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_html_report(result, **kwargs), encoding="utf-8")
    return path


# -- CLI -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    from repro.parallel.backend import Backend

    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Write a self-contained HTML report for one pipeline run "
        "(fresh synthetic run by default; --workspace reports an already "
        "event-logged run).",
    )
    parser.add_argument("output", help="HTML file to write")
    parser.add_argument(
        "--workspace", default=None,
        help="report an existing workspace's .events/ log instead of running",
    )
    parser.add_argument("--event", default="EV-NOV18", help="catalog event id")
    parser.add_argument(
        "--policy", default="dag-parallel", help="scheduling policy to run"
    )
    parser.add_argument(
        "--backend", default=Backend.THREAD.value,
        choices=[backend.value for backend in Backend],
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--scale", type=float, default=0.05, help="dataset size scale")
    parser.add_argument("--periods", type=int, default=30)
    parser.add_argument("--title", default=None, help="report title")
    return parser


def main_report(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-report``."""
    args = _build_parser().parse_args(argv)

    if args.workspace is not None:
        # Offline mode: rebuild the view from the recorded event log.
        from repro.observability.events import read_events, validate_events
        from repro.observability.top import RunView, render_top

        events = read_events(Path(args.workspace))
        if not events:
            print(f"no event log under {args.workspace}/.events", file=sys.stderr)
            return 2
        problems = validate_events(events)
        if problems:
            print(
                f"warning: event log has {len(problems)} validation problem(s); "
                "reporting anyway", file=sys.stderr,
            )
        view = RunView.from_events(events)
        title = args.title or f"repro run — {view.policy or view.implementation}"
        body = (
            f"<h2>Monitor snapshot</h2><pre>{_esc(render_top(view))}</pre>"
            "<h2>Live events</h2>" + _events_section(events)
        )
        text = (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
            f"<h1>{_esc(title)} <span class='status-{view.status}'>"
            f"[{view.status}]</span></h1>" + body + "</body></html>"
        )
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
        return 0

    from repro.bench.harness import traced_run
    from repro.parallel.backend import resolve_workers
    from repro.synth.events import paper_event

    result, metrics, _log = traced_run(
        paper_event(args.event), args.policy, scale=args.scale,
        periods=args.periods, backend=args.backend, workers=args.workers,
    )
    title = args.title or f"{args.event} — {args.policy} ({args.backend})"
    out = write_html_report(
        args.output, result, metrics=metrics,
        workers=resolve_workers(args.workers), title=title,
    )
    print(f"wrote {out} ({result.total_s:.3f} s run)")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_report())
