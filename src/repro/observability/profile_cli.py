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
(min-of-k each) and fails when the profiler costs more than the
tolerance — the guard CI uses to keep "negligible when off, cheap when
on" an enforced property rather than a hope.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.parallel.backend import Backend

#: Relative profiler overhead ceiling for ``--overhead-check``.
OVERHEAD_TOLERANCE = 0.10
#: Absolute floor (seconds) under which an overhead delta is noise:
#: scheduler jitter on a sub-second run can exceed 10% relative
#: without saying anything about the profiler.
OVERHEAD_FLOOR_S = 0.05


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


def _bare_run_seconds(
    impl_cls: Any, event: Any, workload: Any, *, periods: int, backend: str,
    workers: int | None, profile_hz: float | None,
) -> float:
    """Wall-clock of one un-traced run, optionally profiled.

    Deliberately leaves tracer and metrics off so the comparison
    isolates the sampler's own cost.
    """
    from repro.bench.harness import small_response_config
    from repro.bench.workloads import materialize
    from repro.core import RunContext
    from repro.core.context import ParallelSettings

    base = Path(tempfile.mkdtemp(prefix="repro-profile-"))
    try:
        ctx = RunContext.for_directory(
            base / "ws",
            response_config=small_response_config(n_periods=periods),
            parallel=ParallelSettings.uniform(backend, num_workers=workers),
        )
        if profile_hz:
            from repro.observability.profiling import SamplingProfiler

            ctx.profiler = SamplingProfiler(hz=profile_hz)
        materialize(event, workload, ctx.workspace.input_dir)
        result = impl_cls().run(ctx)
        return result.total_s
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _overhead_check(args: argparse.Namespace) -> int:
    from repro.bench.workloads import scaled_workload
    from repro.engine import pipeline_factory
    from repro.synth.events import paper_event

    event = paper_event(args.event)
    workload = scaled_workload(event, args.scale)
    impl_cls = pipeline_factory(args.policy)
    run = lambda hz: _bare_run_seconds(  # noqa: E731 - tiny local closure
        impl_cls, event, workload, periods=args.periods,
        backend=args.backend, workers=args.workers, profile_hz=hz,
    )
    # Interleave the arms so drift (cache warmup, thermal) hits both.
    bare: list[float] = []
    profiled: list[float] = []
    for _ in range(max(1, args.repeats)):
        bare.append(run(None))
        profiled.append(run(args.hz))
    base_s = min(bare)
    prof_s = min(profiled)
    delta = prof_s - base_s
    rel = delta / base_s if base_s > 0 else 0.0
    print(
        f"{args.policy} on {args.event} ({args.backend}, "
        f"{args.hz:g} Hz, min of {len(bare)}):"
    )
    print(f"  bare     {base_s:.4f} s")
    print(f"  profiled {prof_s:.4f} s")
    print(f"  overhead {delta:+.4f} s ({rel:+.1%})")
    if rel > OVERHEAD_TOLERANCE and delta > OVERHEAD_FLOOR_S:
        print(
            f"FAIL: profiler overhead beyond {OVERHEAD_TOLERANCE:.0%} "
            f"(and above the {OVERHEAD_FLOOR_S:g} s noise floor)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: within {OVERHEAD_TOLERANCE:.0%} tolerance")
    return 0


def main_profile(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-profile``."""
    args = _build_parser().parse_args(argv)
    if args.overhead_check:
        return _overhead_check(args)

    from repro.bench.workloads import scaled_workload
    from repro.engine import pipeline_factory
    from repro.observability.critpath import explain, render_explain
    from repro.observability.export import write_chrome_trace
    from repro.observability.perf import _run_once
    from repro.observability.profiling import write_collapsed, write_speedscope
    from repro.parallel.backend import resolve_workers
    from repro.synth.events import paper_event

    event = paper_event(args.event)
    workload = scaled_workload(event, args.scale)
    result, _metrics, log = _run_once(
        pipeline_factory(args.policy), event, workload,
        periods=args.periods, backend=args.backend, workers=args.workers,
        sample_interval=0.05, profile_hz=args.hz,
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
