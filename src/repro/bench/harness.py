"""Measured-mode harness: the one place that times a catalog event.

Materializes scaled-down synthetic events and runs scheduling policies
on them on this machine.  Every wall-clock measurement of a catalog
event goes through here:

- :func:`scratch_context` — a ready run context over a throwaway
  workspace holding the event; callers attach their own telemetry;
- :func:`measure_implementations` — the paper's four schemes on one
  event (``repro-bench measured``);
- :func:`traced_run` — one traced, metered, optionally profiled run
  (``repro-perf``, ``repro-profile``, ``repro-report``);
- :func:`overhead_check` — the instrumentation cost gate
  (``repro-profile --overhead-check``, ``repro-top --overhead-check``).

On a single-core container the parallel policies cannot beat the
sequential ones — that is the point of keeping measured mode separate
from model mode — but the structural claims (optimized < original,
output equality) still hold and are reported.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.bench.report import format_table
from repro.bench.workloads import materialize, scaled_workload
from repro.core import RunContext
from repro.core.context import ParallelSettings
from repro.engine.policy import PAPER_POLICIES, policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.events import EventSpec

#: Absolute floor (seconds) under which an overhead delta is noise:
#: scheduler jitter on a sub-second run can exceed a relative tolerance
#: without saying anything about the instrumentation.
OVERHEAD_FLOOR_S = 0.05


@dataclass(frozen=True)
class MeasuredRow:
    """Wall-clock timings of the paper's four schemes on one workload."""

    event_id: str
    n_files: int
    total_points: int
    times_s: dict[str, float]

    @property
    def speedup(self) -> float:
        """End-to-end speedup (seq original / fully parallel)."""
        return self.times_s["seq-original"] / self.times_s["full-parallel"]


def small_response_config(n_periods: int = 30, dampings: tuple[float, ...] = (0.05,)) -> ResponseSpectrumConfig:
    """A reduced oscillator grid for tractable measured runs."""
    return ResponseSpectrumConfig(periods=default_periods(n_periods), dampings=dampings)


@contextmanager
def scratch_context(
    event: EventSpec,
    *,
    scale: float,
    periods: int = 30,
    backend: str = "thread",
    workers: int | None = None,
) -> Iterator[RunContext]:
    """A run context whose ``input/`` holds ``event`` scaled by ``scale``.

    The workspace lives in a fresh temporary directory that is removed
    on exit.  The context carries no telemetry: callers attach the
    tracer, metrics, profiler or events they want, then run a policy.
    """
    base = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    try:
        ctx = RunContext.for_directory(
            base / "ws",
            response_config=small_response_config(n_periods=periods),
            parallel=ParallelSettings.uniform(backend, num_workers=workers),
        )
        materialize(event, scaled_workload(event, scale), ctx.workspace.input_dir)
        yield ctx
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure_implementations(event: EventSpec, *, scale: float = 0.05) -> MeasuredRow:
    """Time the paper's four schemes on one scaled-down event.

    Each policy gets a fresh workspace with an identical dataset (same
    seed), so times are comparable.
    """
    workload = scaled_workload(event, scale)
    times: dict[str, float] = {}
    for name in PAPER_POLICIES:
        with scratch_context(event, scale=scale) as ctx:
            times[name] = policy_by_name(name).run(ctx).total_s
    return MeasuredRow(
        event_id=workload.event_id,
        n_files=workload.n_files,
        total_points=workload.total_points,
        times_s=times,
    )


def render_measured(rows: list[MeasuredRow]) -> str:
    """Paper-style rendering of measured rows, one per event, plus the
    end-to-end speedup over all of them."""
    headers = ("Event", "Files", "Points", "SeqOri", "SeqOpt", "PartPar", "FullPar", "SpeedUp")
    body = [
        (
            row.event_id,
            row.n_files,
            row.total_points,
            *(row.times_s[name] for name in PAPER_POLICIES),
            f"{row.speedup:.2f}x",
        )
        for row in rows
    ]
    original = sum(row.times_s["seq-original"] for row in rows)
    parallel = sum(row.times_s["full-parallel"] for row in rows)
    return (
        format_table(headers, body)
        + "\nend-to-end speedup on this machine (seq-original / full-parallel): "
        + f"{original / parallel:.2f}x"
    )


def traced_run(
    event: EventSpec,
    policy: str,
    *,
    scale: float,
    periods: int = 30,
    backend: str = "thread",
    workers: int | None = None,
    sample_interval: float = 0.05,
    profile_hz: float | None = None,
) -> tuple[Any, Any, Any]:
    """One traced, metered (optionally profiled) run of ``policy`` with
    resource sampling; returns ``(result, metrics registry, resource
    log)``."""
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.profiling import SamplingProfiler
    from repro.observability.resources import ResourceSampler
    from repro.observability.tracer import Tracer

    with scratch_context(
        event, scale=scale, periods=periods, backend=backend, workers=workers
    ) as ctx:
        ctx.tracer = Tracer()
        ctx.metrics = MetricsRegistry()
        if profile_hz:
            ctx.profiler = SamplingProfiler(hz=profile_hz)
        with ResourceSampler(interval_s=sample_interval, tracer=ctx.tracer) as sampler:
            result = policy_by_name(policy).run(ctx)
    return result, ctx.metrics, sampler.log()


def timed_run(
    event: EventSpec,
    policy: str,
    *,
    instrument: Callable[[RunContext], None] | None,
    scale: float,
    periods: int,
    backend: str,
    workers: int | None,
) -> float:
    """Wall-clock of one run with no tracer or metrics; ``instrument``,
    if given, turns its one instrumentation on in the context first."""
    with scratch_context(
        event, scale=scale, periods=periods, backend=backend, workers=workers
    ) as ctx:
        if instrument is not None:
            instrument(ctx)
        return policy_by_name(policy).run(ctx).total_s


def overhead_check(
    event: EventSpec,
    policy: str,
    *,
    instrument: Callable[[RunContext], None],
    tolerance: float,
    label: str,
    subject: str,
    note: str = "",
    scale: float,
    periods: int,
    backend: str,
    workers: int | None,
    repeats: int,
) -> int:
    """Bare vs instrumented runs, interleaved min-of-k; prints the
    verdict and returns the exit code (1 beyond tolerance).

    ``instrument`` turns the measured instrumentation on (the "on" arm),
    ``label`` names that arm, ``subject`` names the cost in the verdict
    and ``note`` adds a setting to the heading.  The overhead fails only
    when it exceeds both ``tolerance`` (relative) and
    :data:`OVERHEAD_FLOOR_S`.
    """

    def run(on: Callable[[RunContext], None] | None) -> float:
        return timed_run(
            event, policy, instrument=on, scale=scale, periods=periods,
            backend=backend, workers=workers,
        )

    # One untimed warmup pays the one-off costs (module imports, file
    # cache, allocator growth) that would otherwise land entirely on
    # whichever arm happens to run first.
    run(instrument)
    # Interleave the arms so drift (cache warmup, thermal) hits both.
    bare: list[float] = []
    instrumented: list[float] = []
    for _ in range(max(1, repeats)):
        bare.append(run(None))
        instrumented.append(run(instrument))
    base_s, on_s = min(bare), min(instrumented)
    delta = on_s - base_s
    rel = delta / base_s if base_s > 0 else 0.0
    settings = ", ".join(filter(None, (backend, note, f"min of {len(bare)}")))
    width = max(len(label), len("overhead")) + 1
    print(f"{policy} on {event.event_id} ({settings}):")
    print(f"  {'bare':<{width}}{base_s:.4f} s")
    print(f"  {label:<{width}}{on_s:.4f} s")
    print(f"  {'overhead':<{width}}{delta:+.4f} s ({rel:+.1%})")
    if rel > tolerance and delta > OVERHEAD_FLOOR_S:
        print(
            f"FAIL: {subject} overhead beyond {tolerance:.0%} "
            f"(and above the {OVERHEAD_FLOOR_S:g} s noise floor)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: within {tolerance:.0%} tolerance")
    return 0
