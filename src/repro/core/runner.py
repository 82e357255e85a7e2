"""Shared result types and the pipeline base class."""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.core.context import RunContext
from repro.observability.tracer import Trace, maybe_span

logger = logging.getLogger("repro.core")


def _failure_report_from_dict(data: dict):
    from repro.resilience.quarantine import FailureReport

    return FailureReport.from_dict(data)


@dataclass(frozen=True)
class ProcessTiming:
    """Wall-clock timing of one process execution."""

    pid: int
    name: str
    stage: str
    duration_s: float


@dataclass
class PipelineResult:
    """Outcome of one pipeline run."""

    implementation: str
    total_s: float
    processes: list[ProcessTiming] = field(default_factory=list)
    #: Elapsed wall-clock per stage (stage label -> seconds).  For the
    #: sequential policies each process is its own "stage".
    stage_durations: dict[str, float] = field(default_factory=dict)
    #: The run's span trace, when the context carried an enabled tracer.
    trace: Trace | None = field(default=None, repr=False, compare=False)
    #: The run's merged sampling profile (driver samples plus worker
    #: shards), when the context carried a profiler.
    profile: Any = field(default=None, repr=False, compare=False)
    #: Failure reports of quarantined records, when the context carried
    #: a fault plan (degraded mode); empty for all-healthy runs.
    quarantine: list = field(default_factory=list)

    def process_duration(self, pid: int) -> float:
        """Total time attributed to one process (0.0 if it never ran)."""
        return sum(p.duration_s for p in self.processes if p.pid == pid)

    def to_dict(self) -> dict[str, Any]:
        """Stable JSON-ready representation (the shared result schema).

        Traces, benches and bulletins all serialize runs through this
        one shape; :meth:`from_dict` round-trips it exactly.
        """
        return {
            "implementation": self.implementation,
            "total_s": self.total_s,
            "processes": [
                {
                    "pid": p.pid,
                    "name": p.name,
                    "stage": p.stage,
                    "duration_s": p.duration_s,
                }
                for p in self.processes
            ],
            "stage_durations": dict(self.stage_durations),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "profile": self.profile.to_dict() if self.profile is not None else None,
            "quarantine": [r.to_dict() for r in self.quarantine],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineResult":
        """Inverse of :meth:`to_dict`."""
        trace_data = data.get("trace")
        profile_data = data.get("profile")
        if profile_data is not None:
            from repro.observability.profiling import Profile

            profile_data = Profile.from_dict(profile_data)
        return cls(
            implementation=str(data["implementation"]),
            total_s=float(data["total_s"]),
            processes=[
                ProcessTiming(
                    pid=int(p["pid"]),
                    name=str(p["name"]),
                    stage=str(p["stage"]),
                    duration_s=float(p["duration_s"]),
                )
                for p in data.get("processes") or []
            ],
            stage_durations={
                str(k): float(v) for k, v in (data.get("stage_durations") or {}).items()
            },
            trace=Trace.from_dict(trace_data) if trace_data is not None else None,
            profile=profile_data,
            quarantine=[
                _failure_report_from_dict(r) for r in data.get("quarantine") or []
            ],
        )

    def summary_lines(self) -> list[str]:
        """Human-readable per-stage summary."""
        lines = [f"{self.implementation}: {self.total_s:.3f} s total"]
        for stage, duration in self.stage_durations.items():
            lines.append(f"  stage {stage:>4}: {duration:8.3f} s")
        return lines


class PipelineImplementation(ABC):
    """Base class of executable pipelines.

    Subclasses define ``name``/``description`` and :meth:`execute`;
    :meth:`run` wraps it with end-to-end timing.  Every scheduling
    policy runs through one subclass,
    :class:`~repro.engine.executor.EnginePipeline`.
    """

    name: str = ""
    description: str = ""

    @abstractmethod
    def execute(self, ctx: RunContext, result: PipelineResult) -> None:
        """Run the pipeline, appending timings to ``result``."""

    def run(self, ctx: RunContext) -> PipelineResult:
        """Run end-to-end against the context's workspace."""
        if ctx.audit or ctx.metrics is not None:
            from repro.core.artifacts import Workspace
            from repro.core.auditing import enable_auditing

            # Metrics piggyback on the audit hooks for per-artifact
            # byte counts, so a metrics-carrying run audits too.
            enable_auditing(ctx.workspace.root)
            # Rebuild so the workspace picks up the fresh marker (its
            # audited flag is fixed at construction time).
            ctx.workspace = Workspace(ctx.workspace.root)
        ctx.workspace.create()
        ctx.workspace.require_input()
        stations = ctx.stations()
        logger.info(
            "%s: starting run on %s (%d stations)",
            self.name,
            ctx.workspace.root,
            len(stations),
        )
        result = PipelineResult(implementation=self.name, total_s=0.0)
        runtime = None
        if ctx.resilience is not None:
            from repro.resilience.runtime import enable_resilience

            runtime = enable_resilience(ctx.workspace.root, ctx.resilience)
        tracer = ctx.tracer
        profiling = nullcontext()
        if ctx.profiler is not None:
            from repro.observability.profiling import profiling_session

            # Installed for the run's duration: the sampler thread sees
            # every driver thread, and the parallel runtime's worker
            # shims detect the installation and ship shards home.
            profiling = profiling_session(ctx.profiler, tracer=tracer)
        run_events = None
        heartbeat = None
        completed = False
        if ctx.events:
            from repro.observability import events as run_events

            # The event log is live from here: the marker directory is
            # what pool workers (and a concurrently attached repro-top)
            # discover on disk, and install_run is what lets the
            # parallel runtime build worker emission channels.
            run_events.enable_events(ctx.workspace.root)
            run_events.emit(
                ctx.workspace.root, "run_started",
                schema=run_events.SCHEMA,
                implementation=self.name,
                workspace=str(ctx.workspace.root),
                stations=len(stations),
                workers=ctx.parallel.workers,
                loop_backend=ctx.parallel.loop_backend.value,
                task_backend=ctx.parallel.task_backend.value,
                tool_backend=ctx.parallel.tool_backend.value,
            )
            run_events.install_run(ctx.workspace.root)
            heartbeat = run_events.Heartbeat(ctx.workspace.root)
            heartbeat.start()
        try:
            with profiling, maybe_span(
                tracer,
                self.name,
                kind="run",
                implementation=self.name,
                workspace=str(ctx.workspace.root),
                stations=len(stations),
                workers=ctx.parallel.workers,
                loop_backend=ctx.parallel.loop_backend.value,
                task_backend=ctx.parallel.task_backend.value,
                tool_backend=ctx.parallel.tool_backend.value,
            ) as run_span:
                start = time.perf_counter()
                try:
                    with maybe_span(tracer, self.name, kind="implementation",
                                    implementation=self.name):
                        if ctx.metrics is not None:
                            from repro.observability.metrics import collecting

                            with collecting(ctx.metrics):
                                self.execute(ctx, result)
                        else:
                            self.execute(ctx, result)
                    completed = True
                except Exception:
                    logger.exception("%s: run failed after %.3f s", self.name,
                                     time.perf_counter() - start)
                    raise
                finally:
                    if runtime is not None:
                        from repro.resilience.runtime import disable_resilience

                        result.quarantine = runtime.quarantine.reports()
                        disable_resilience(ctx.workspace.root)
                result.total_s = time.perf_counter() - start
        finally:
            if run_events is not None:
                if heartbeat is not None:
                    heartbeat.stop()
                status = "failed"
                if completed:
                    status = "degraded" if result.quarantine else "ok"
                run_events.emit(
                    ctx.workspace.root, "run_finished",
                    total_s=result.total_s, status=status,
                    quarantined=len(result.quarantine),
                )
                run_events.uninstall_run(ctx.workspace.root)
                # The log stays on disk: repro-top may still be tailing
                # it, and the HTML report/ledger read it post-hoc.
                run_events.release_events(ctx.workspace.root)
        if run_span is not None and tracer is not None:
            result.trace = tracer.subtree(run_span)
        if ctx.profiler is not None:
            result.profile = ctx.profiler.profile
        if ctx.metrics is not None:
            ctx.metrics.gauge(
                "repro_run_total_seconds",
                help="End-to-end wall-clock of the run.",
                implementation=self.name,
            ).set_max(result.total_s)
            if not ctx.audit:
                # Metrics-only runs enabled the audit hooks just for
                # byte counts; drop the marker so later runs against
                # this workspace are not audited by surprise.
                from repro.core.artifacts import Workspace
                from repro.core.auditing import disable_auditing

                disable_auditing(ctx.workspace.root)
                ctx.workspace = Workspace(ctx.workspace.root)
        from repro.observability.ledger import maybe_append_run

        # No-op unless a ledger is configured (REPRO_LEDGER); appending
        # must never fail a run.
        maybe_append_run(ctx, result)
        logger.info("%s: finished in %.3f s", self.name, result.total_s)
        return result
