"""``repro-profile``: one-command profiled pipeline runs.

Runs a pipeline implementation on a synthetic catalog event with the
cross-process sampling profiler attached, then writes every export the
profiler supports next to each other:

``<impl>.speedscope.json``
    Flamegraph for https://speedscope.app (or ``speedscope`` locally).
``<impl>.collapsed``
    Collapsed-stack text for Brendan Gregg's ``flamegraph.pl`` and
    friends.
``<impl>.trace.json``
    Chrome Trace Event JSON of the span trace with resource counter
    tracks and per-stage top-frame annotations folded in.
``<impl>.report.txt``
    The measured bottleneck report (critical path, per-stage parallel
    efficiency, Amdahl / work-span speedup model) — the same text
    ``repro-perf explain`` prints.

``--overhead-check`` instead times bare runs against profiled runs
(one warm-up, then interleaved min-of-k, via
:func:`repro.bench.harness.overhead_check`) and fails when the
profiler costs more than the tolerance — the guard CI uses to keep
"negligible when off, cheap when on" an enforced property rather than
a hope.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.parallel.backend import Backend

#: Relative profiler overhead ceiling for ``--overhead-check`` (the
#: absolute noise floor is the harness's ``OVERHEAD_FLOOR_S``).
OVERHEAD_TOLERANCE = 0.10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Profile a pipeline run and export flamegraphs plus a "
        "measured bottleneck report.",
    )
    parser.add_argument(
        "--event", default="EV-NOV18", help="catalog event to synthesize and run"
    )
    parser.add_argument(
        "--policy",
        default="full-parallel",
        help="scheduling policy to profile (see repro.engine.policy_names())",
    )
    parser.add_argument(
        "--backend",
        default=Backend.THREAD.value,
        choices=[backend.value for backend in Backend],
        help="backend for the parallel policies",
    )
    parser.add_argument("--workers", type=int, default=None, help="parallel worker count")
    parser.add_argument("--scale", type=float, default=0.05, help="dataset size scale")
    parser.add_argument(
        "--periods", type=int, default=30, help="response-spectrum period count"
    )
    parser.add_argument("--hz", type=float, default=97.0, help="sampling frequency")
    parser.add_argument(
        "--out-dir", default="profile-out", help="directory for the exports"
    )
    parser.add_argument(
        "--top", type=int, default=5, help="frames per stage in the report"
    )
    parser.add_argument(
        "--overhead-check",
        action="store_true",
        help="measure profiler overhead (bare vs profiled, min-of-k) instead "
        "of exporting; exit 1 beyond tolerance",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repetitions per arm of --overhead-check"
    )
    return parser


def _overhead_check(args: argparse.Namespace) -> int:
    from repro.bench.harness import overhead_check
    from repro.observability.profiling import SamplingProfiler
    from repro.synth.events import paper_event

    def profiled(ctx) -> None:
        ctx.profiler = SamplingProfiler(hz=args.hz)

    return overhead_check(
        paper_event(args.event), args.policy, instrument=profiled,
        tolerance=OVERHEAD_TOLERANCE, label="profiled", subject="profiler",
        note=f"{args.hz:g} Hz", scale=args.scale, periods=args.periods,
        backend=args.backend, workers=args.workers, repeats=args.repeats,
    )


def main_profile(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-profile``."""
    args = _build_parser().parse_args(argv)
    if args.overhead_check:
        return _overhead_check(args)

    from repro.bench.harness import traced_run
    from repro.observability.critpath import explain, render_explain
    from repro.observability.export import write_chrome_trace
    from repro.observability.profiling import write_collapsed, write_speedscope
    from repro.parallel.backend import resolve_workers
    from repro.synth.events import paper_event

    result, _metrics, log = traced_run(
        paper_event(args.event), args.policy, scale=args.scale,
        periods=args.periods, backend=args.backend, workers=args.workers,
        profile_hz=args.hz,
    )
    profile = result.profile
    trace = result.trace
    if profile is None or trace is None:
        print("run produced no profile/trace", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.policy
    title = f"{args.event} {name} ({args.backend})"
    speedscope = write_speedscope(
        out_dir / f"{name}.speedscope.json", profile, name=title
    )
    collapsed = write_collapsed(out_dir / f"{name}.collapsed", profile)
    chrome = write_chrome_trace(
        out_dir / f"{name}.trace.json", trace,
        resources=log if len(log) else None, profile=profile,
    )
    report = explain(
        trace, resolve_workers(args.workers), profile=profile, top=args.top
    )
    report_text = render_explain(report)
    report_path = out_dir / f"{name}.report.txt"
    report_path.write_text(f"{title}\n{report_text}\n", encoding="utf-8")

    attributed = profile.attributed_fraction()
    print(f"{title}: {result.total_s:.3f} s")
    print(
        f"profile: {profile.total_samples} samples at {args.hz:g} Hz, "
        f"{attributed:.1%} span-attributed"
    )
    print("top frames (self time):")
    for frame, seconds, count in profile.top_frames(args.top):
        print(f"  {frame:<60} {seconds:7.3f} s  {count:5d} samples")
    print()
    print(report_text)
    print()
    for path in (speedscope, collapsed, chrome, report_path):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_profile())
