"""Measured-mode harness: real wall-clock runs of the Python pipeline.

Materializes scaled-down synthetic events and times the paper's four
schemes (scheduling policies) on this machine.  On a single-core
container the parallel policies cannot beat the sequential ones — that
is the point of keeping measured mode separate from model mode — but the
structural claims (optimized < original, output equality) still hold
and are reported.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.workloads import EventWorkload, materialize, scaled_workload
from repro.core import RunContext
from repro.core.context import ParallelSettings
from repro.core.runner import PipelineResult
from repro.engine.policy import PAPER_POLICIES, policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.events import EventSpec


@dataclass(frozen=True)
class MeasuredRow:
    """Wall-clock timings of the paper's four schemes on one workload."""

    event_id: str
    n_files: int
    total_points: int
    times_s: dict[str, float]
    results: dict[str, PipelineResult]

    @property
    def speedup(self) -> float:
        """End-to-end speedup (seq original / fully parallel)."""
        return self.times_s["seq-original"] / self.times_s["full-parallel"]


def small_response_config(n_periods: int = 30, dampings: tuple[float, ...] = (0.05,)) -> ResponseSpectrumConfig:
    """A reduced oscillator grid for tractable measured runs."""
    return ResponseSpectrumConfig(periods=default_periods(n_periods), dampings=dampings)


def measure_implementations(
    event: EventSpec,
    *,
    scale: float = 0.05,
    parallel: ParallelSettings | None = None,
    response_config: ResponseSpectrumConfig | None = None,
    keep_dir: Path | None = None,
    include_extensions: bool = False,
    trace_dir: Path | None = None,
    profile_dir: Path | None = None,
) -> MeasuredRow:
    """Time the paper's four schemes on one scaled-down event.

    Each policy gets a fresh workspace with an identical dataset (same
    seed), so times are comparable and outputs can be diffed.
    ``keep_dir`` preserves the workspaces for inspection;
    ``include_extensions`` additionally times ``wavefront-parallel``
    and ``cluster-parallel``; ``trace_dir`` records a span trace per
    policy and writes ``<name>.trace.json`` Chrome traces
    there (the timings then come from the same spans the traces show);
    ``profile_dir`` samples each run and writes
    ``<name>.speedscope.json`` flamegraph profiles there (implies
    tracing, which the profiler needs for span attribution).
    """
    workload = scaled_workload(event, scale)
    times: dict[str, float] = {}
    results: dict[str, PipelineResult] = {}
    base = Path(keep_dir) if keep_dir else Path(tempfile.mkdtemp(prefix="repro-bench-"))
    names = list(PAPER_POLICIES)
    if include_extensions:
        names += ["wavefront-parallel", "cluster-parallel"]
    try:
        for name in names:
            root = base / name
            ctx = RunContext.for_directory(
                root,
                response_config=response_config or small_response_config(),
                parallel=parallel or ParallelSettings(),
            )
            if trace_dir is not None or profile_dir is not None:
                from repro.observability.tracer import Tracer

                ctx.tracer = Tracer()
            if profile_dir is not None:
                from repro.observability.profiling import SamplingProfiler

                ctx.profiler = SamplingProfiler()
            materialize(event, workload, ctx.workspace.input_dir)
            result = policy_by_name(name).run(ctx)
            times[name] = result.total_s
            results[name] = result
            if trace_dir is not None and result.trace is not None:
                from repro.observability.export import write_chrome_trace

                out = Path(trace_dir)
                out.mkdir(parents=True, exist_ok=True)
                write_chrome_trace(
                    out / f"{name}.trace.json", result.trace,
                    profile=result.profile,
                )
            if profile_dir is not None and result.profile is not None:
                from repro.observability.profiling import write_speedscope

                write_speedscope(
                    Path(profile_dir) / f"{name}.speedscope.json",
                    result.profile, name=f"{workload.event_id} {name}",
                )
    finally:
        if keep_dir is None:
            shutil.rmtree(base, ignore_errors=True)
    return MeasuredRow(
        event_id=workload.event_id,
        n_files=workload.n_files,
        total_points=workload.total_points,
        times_s=times,
        results=results,
    )
