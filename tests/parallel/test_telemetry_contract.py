"""One telemetry contract for the OpenMP runtime, on every backend.

Each unit of work — a ``parallel_for`` chunk, an isolated chunk that
retries one item, a ``TaskGroup`` task — runs with tracer, metrics,
live events and the sampling profiler all on, and must come home the
same way on the serial, thread and process backends:

- one ``chunk``/``task`` span per unit, under the span open at the call;
- ``repro_parallel_chunks_total``/``repro_parallel_tasks_total`` equal
  the unit count, and so does the number of finished-unit events;
- the summed ``unit_finished.count`` is the number of items attempted,
  each retry included;
- each unit is measured once: event durations and the duration
  histogram sum to the same seconds, and so does worker-busy time.
"""

from __future__ import annotations

import time

import pytest

from repro.observability.events import (
    clear_events,
    enable_events,
    install_run,
    read_events,
    uninstall_run,
)
from repro.observability.metrics import MetricsRegistry, collecting
from repro.observability.profiling import SamplingProfiler, profiling_session
from repro.observability.tracer import Tracer
from repro.parallel.omp import Isolation, TaskGroup, parallel_for
from repro.resilience.faults import attempt_scope, current_attempt

ITEMS = list(range(10))
CHUNK = 5
TASKS = 3


class FlakyError(RuntimeError):
    """Module-level so the process backend can pickle it."""


def work(x: int) -> int:
    time.sleep(0.002)
    return x * x


def flaky_once(x: int) -> int:
    if x == 2 and current_attempt() == 1:
        raise FlakyError("boom on 2")
    return work(x)


UNITS = ["loop", "isolated", "tasks"]
BACKENDS = ["serial", "thread", pytest.param("process", marks=pytest.mark.slow)]


def _histogram_sum(registry: MetricsRegistry, family: str) -> float:
    return sum(inst.sum for _labels, inst in registry.samples(family))


def _run(unit: str, backend: str, tracer: Tracer, registry: MetricsRegistry) -> int:
    """Run one unit kind with every channel on; returns items attempted."""
    if unit == "tasks":
        with TaskGroup(backend=backend, num_workers=2, tracer=tracer,
                       metrics=registry) as tg:
            for x in range(TASKS):
                tg.task(work, x, span_name="contract")
        assert tg.results == [x * x for x in range(TASKS)]
        return TASKS
    isolate = None
    body = work
    attempted = len(ITEMS)
    if unit == "isolated":
        isolate = Isolation(max_attempts=3, retryable=(FlakyError,),
                            attempt_scope=attempt_scope)
        body = flaky_once
        attempted += 1  # item 2 is attempted twice
    out = parallel_for(body, ITEMS, backend=backend, num_workers=2, chunk_size=CHUNK,
                       tracer=tracer, span="contract", metrics=registry,
                       isolate=isolate)
    assert out == [x * x for x in ITEMS]
    if isolate is not None:
        assert isolate.reports == []
    return attempted


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_unit_telemetry_contract(tmp_path, backend, unit):
    tracer = Tracer()
    registry = MetricsRegistry()
    root = tmp_path / "ws"
    enable_events(root)
    install_run(root)
    try:
        with collecting(registry), profiling_session(
            SamplingProfiler(hz=200.0), tracer=tracer
        ), tracer.span("outer", kind="process") as outer:
            attempted = _run(unit, backend, tracer, registry)
        events = read_events(root)
    finally:
        uninstall_run(root)
        clear_events(root)

    kind = "task" if unit == "tasks" else "chunk"
    spans = [s for s in tracer.trace().spans if s.kind == kind]
    assert spans and all(s.name == "contract" for s in spans)
    assert {s.parent_id for s in spans} == {outer.span_id}

    finished_type = "task_finished" if unit == "tasks" else "unit_finished"
    finished = [e for e in events if e["type"] == finished_type]
    assert len(finished) == len(spans)

    if unit == "tasks":
        assert registry.total("repro_parallel_tasks_total") == len(spans) == TASKS
        measured = _histogram_sum(registry, "repro_parallel_task_duration_seconds")
    else:
        assert registry.total("repro_parallel_chunks_total") == len(spans)
        counted = sum(e["count"] for e in finished)
        assert counted == attempted
        assert registry.total("repro_parallel_items_total") == attempted
        measured = _histogram_sum(registry, "repro_parallel_chunk_duration_seconds")

    # One measurement per unit: the event log, the histogram and the
    # worker-busy counter agree to rounding.
    logged = sum(e["duration_s"] for e in finished)
    busy = registry.total("repro_parallel_worker_busy_seconds_total")
    assert logged == pytest.approx(measured, rel=1e-9, abs=1e-12)
    assert busy == pytest.approx(measured, rel=1e-9, abs=1e-12)
    assert busy > 0
