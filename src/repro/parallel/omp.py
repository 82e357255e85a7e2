"""OpenMP-shaped primitives over real Python backends.

``parallel_for`` is the library's ``#pragma omp parallel for``: it maps
a function over an index range, preserving result order, with the
schedule policies of :mod:`repro.parallel.chunks`.  ``TaskGroup`` is
``parallel`` + ``single`` + ``task``/``taskwait``: tasks submitted
inside the ``with`` block run concurrently and the block exit is the
taskwait barrier.

Backend notes (GIL): the ``thread`` backend suits the pipeline's
I/O-heavy and plotting stages (file reads/writes release the GIL); the
``process`` backend suits FLOPS-heavy stages and requires picklable
functions and arguments — the pipeline's process bodies are module-
level functions operating on paths, which pickle fine.

Telemetry travels in one envelope.  The driver builds one picklable
channel tuple per loop or task (:func:`_channels`); one worker shim
(:func:`_run_unit`) runs a chunk or task body inside the metrics and
profiling windows, measures it once and returns ``(value, envelope)``;
one driver fold (:func:`_fold`) merges the envelope's shards, records
its span and counts it.  Shards merge associatively and commutatively,
so envelopes fold in completion order while results stay in item
order.  With every channel off, workers run the bare body.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from queue import SimpleQueue
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.errors import ParallelError
from repro.observability.events import channel as events_channel
from repro.observability.events import emit_channel
from repro.observability.metrics import (
    MetricsRegistry,
    begin_worker_window,
    drain_worker_shard,
)
from repro.observability.profiling import (
    begin_worker_profile,
    drain_worker_profile,
    installed_profiler,
    merge_profile_shard,
)
from repro.observability.tracer import Span, Tracer, maybe_span, worker_label
from repro.parallel.backend import Backend, resolve_workers
from repro.parallel.chunks import Schedule, chunk_indices


@contextmanager
def shared_executor(
    backend: Backend | str, num_workers: int | None = None
) -> Iterator[Executor | None]:
    """A pool reusable across many :func:`parallel_for` calls.

    Creating a pool per loop costs milliseconds (and a fork per worker
    for the process backend); a staged pipeline runs ten-plus loops, so
    the implementations open one pool per run and pass it through the
    ``executor`` parameter.  Yields ``None`` for the serial backend
    (callers pass it straight through).  Every pool of this module is
    opened here.
    """
    backend = Backend.coerce(backend)
    workers = resolve_workers(num_workers)
    if backend is Backend.SERIAL or workers == 1:
        yield None
        return
    pool_cls = ThreadPoolExecutor if backend is Backend.THREAD else ProcessPoolExecutor
    pool = pool_cls(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True)


# -- the envelope ----------------------------------------------------------


class _Sink(NamedTuple):
    """Where one loop's (``chunk``) or task group's (``task``) envelopes
    land on the driver.  Never crosses into a worker."""

    kind: str
    tracer: Tracer | None
    parent: Span | None
    registry: MetricsRegistry | None
    backend: str
    schedule: str | None = None


def _sink(
    kind: str, tracer: Tracer | None, registry: MetricsRegistry | None,
    backend: Backend, schedule: str | None = None,
) -> _Sink:
    """A sink whose spans parent to the span open on the calling thread."""
    tracer = tracer if tracer is not None and tracer.enabled else None
    parent = tracer.current() if tracer is not None else None
    return _Sink(kind, tracer, parent, registry, backend.value, schedule)


def _channels(sink: _Sink, name: str) -> tuple | None:
    """One loop's or task's picklable channel tuple, ``None`` when all off.

    ``(epoch, collect_metrics, profile, events)``: the trace epoch that
    span start offsets count from; whether workers ship a metrics shard;
    ``(hz, labels)`` of the installed sampling profiler — the driver
    thread's span attribution plus the unit's span name and backend, so
    samples taken in pool processes come home attributed; and the
    ``(root, stage, span)`` live event channel, through which workers
    emit ``unit_finished``/``task_finished`` straight into their own
    shard.  Computed once on the driver; the profiler and event checks
    are one pid-guarded global read each.
    """
    profile = None
    profiler = installed_profiler()
    if profiler is not None:
        labels = profiler.labels_here()
        labels["span"] = name
        labels["backend"] = sink.backend
        profile = (profiler.hz, labels)
    events = events_channel(name)
    if sink.tracer is None and sink.registry is None and profile is None and events is None:
        return None
    epoch = sink.tracer.epoch if sink.tracer is not None else time.time()
    return (epoch, sink.registry is not None, profile, events)


def _run_unit(
    channels: tuple, body: Callable[..., tuple[Any, int | None]], *args: Any
) -> tuple[Any, dict[str, Any]]:
    """The worker shim: run ``body(*args)`` inside the telemetry windows.

    ``body`` returns ``(value, count)``: ``count`` is the number of loop
    items attempted (each retry included), or ``None`` for a task.  The
    body is timed once, and that one duration feeds the metrics, the
    ``unit_finished``/``task_finished`` event and, for a unit that ran
    in a pool, its span.  Returns
    ``(value, envelope)``; the envelope carries ``start_s``,
    ``duration_s``, ``worker``, ``count`` and the drained ``metrics``
    and ``profile`` shards (``None`` in-process, where the body recorded
    straight into the driver's registry and sampler).
    """
    epoch, collect, profile, events = channels
    token = begin_worker_profile(*profile) if profile is not None else None
    if collect:
        begin_worker_window()
    shard = prof_shard = None
    start_s = time.time() - epoch
    t0 = time.perf_counter()
    try:
        value, count = body(*args)
    finally:
        duration = time.perf_counter() - t0
        if collect:
            shard = drain_worker_shard()
        if token is not None:
            prof_shard = drain_worker_profile(token)
    worker = worker_label()
    if events is not None:
        if count is None:
            emit_channel(events, "task_finished", duration_s=duration, worker=worker)
        else:
            emit_channel(events, "unit_finished", count=count, duration_s=duration,
                         worker=worker)
    return value, {
        "start_s": start_s, "duration_s": duration, "worker": worker, "count": count,
        "metrics": shard, "profile": prof_shard,
    }


def _fold(sink: _Sink, name: str, envelope: dict[str, Any], *, live: bool = False,
          **attributes: Any) -> None:
    """The driver fold: ingest one envelope into profiler, tracer and registry.

    ``live`` marks a unit that ran on the driver thread under a live
    span, which already recorded it.
    """
    merge_profile_shard(envelope["profile"])
    duration, worker = envelope["duration_s"], envelope["worker"]
    if sink.tracer is not None and not live:
        sink.tracer.record(name, kind=sink.kind, parent=sink.parent,
                           start_s=envelope["start_s"], duration_s=duration,
                           worker=worker, **attributes)
    registry = sink.registry
    if registry is None:
        return
    if sink.kind == "chunk":
        registry.counter(
            "repro_parallel_chunks_total",
            help="Chunks scheduled by parallel_for, per loop span.",
            span=name, backend=sink.backend, schedule=sink.schedule,
        ).inc(1)
        registry.counter(
            "repro_parallel_items_total",
            help="Loop items executed by parallel_for, per loop span.",
            span=name,
        ).inc(envelope["count"])
        registry.histogram(
            "repro_parallel_chunk_duration_seconds",
            help="Wall-clock per scheduled chunk.",
            span=name,
        ).observe(duration)
    else:
        registry.counter(
            "repro_parallel_tasks_total",
            help="Tasks run through TaskGroup.",
            backend=sink.backend,
        ).inc(1)
        registry.histogram(
            "repro_parallel_task_duration_seconds",
            help="Wall-clock per TaskGroup task.",
            backend=sink.backend,
        ).observe(duration)
    registry.counter(
        "repro_parallel_worker_busy_seconds_total",
        help="Summed chunk/task wall-clock per worker.",
        worker=worker,
    ).inc(duration)
    if envelope["metrics"]:
        registry.merge(envelope["metrics"])


def _settle(futures: dict[Future, Any], land: Callable[[Future, Any], Any]) -> None:
    """The failure contract of loops and task groups (the caller raises).

    Units not yet started are cancelled and units already running are
    *waited for* — a shared executor must come back quiescent, not with
    orphaned units still mutating the workspace under the caller's
    error handling — and every unit that did complete is landed, so its
    envelope is folded and observability stays accurate for partial runs.
    """
    for future in futures:
        future.cancel()
    wait(futures)
    for future, key in futures.items():
        if not future.cancelled() and future.exception() is None:
            land(future, key)


# -- bodies ----------------------------------------------------------------


def _run_chunk(func: Callable[[Any], Any], items: Sequence[Any], indices: range) -> list[Any]:
    """Apply ``func`` to one chunk of items (runs inside a worker)."""
    return [func(items[i]) for i in indices]


def _chunk_body(
    func: Callable[[Any], Any], items: Sequence[Any], indices: range
) -> tuple[list[Any], int]:
    """:func:`_run_chunk` in the shim's ``(value, count)`` shape."""
    values = _run_chunk(func, items, indices)
    return values, len(values)


def _task_body(func: Callable[..., Any], args: tuple, kwargs: dict) -> tuple[Any, None]:
    """One task in the shim's ``(value, count)`` shape."""
    return func(*args, **kwargs), None


def _chunked_body(func: Callable[[Sequence[Any]], list[Any]], batch: list[Any]) -> list[Any]:
    """One :func:`parallel_for_chunked` batch, with its result count checked."""
    out = func(batch)
    if len(out) != len(batch):
        raise ParallelError(
            f"chunked body returned {len(out)} results for {len(batch)} items"
        )
    return out


@dataclass
class Isolation:
    """Chunk-isolation policy for :func:`parallel_for`.

    Without isolation, one failing item aborts its whole chunk (and the
    loop).  With it, exceptions of the ``retryable`` classes stop only
    the failing item: the driver resubmits it (up to ``max_attempts``,
    sleeping ``delay`` between tries) and runs the chunk's unstarted
    tail as a fresh chunk, so one poisoned item never takes its chunk
    mates down with it.  An item that exhausts its attempts yields
    ``None`` in the results and an ``on_exhausted`` report in
    :attr:`reports`.

    Only ``retryable`` and ``attempt_scope`` cross into workers (both
    must be picklable for the process backend: exception classes and a
    module-level context-manager factory).  The callbacks run on the
    driver thread, so they may close over unpicklable state.
    """

    max_attempts: int = 3
    retryable: tuple = ()
    describe: Callable[[Any], str] = str
    #: Context manager factory wrapping each item body with its 1-based
    #: attempt number (e.g. ``repro.resilience.faults.attempt_scope``).
    attempt_scope: Callable[[int], Any] | None = None
    #: Seconds to sleep before retrying ``record`` after attempt N.
    delay: Callable[[str, int], float] | None = None
    #: Called once per caught retryable failure (before retry/exhaust).
    on_caught: Callable[[str, int], None] | None = None
    #: Called when attempt N's failure leads to a resubmission.
    on_retry: Callable[[str, int], None] | None = None
    #: Builds the report appended to :attr:`reports` on give-up.
    on_exhausted: Callable[[str, BaseException, int], Any] | None = None
    #: Reports of items that exhausted their attempts (driver-side).
    reports: list = field(default_factory=list)

    def handle_failure(self, record: str, error: BaseException, attempt: int) -> int | None:
        """Process one caught failure; next attempt number or ``None``."""
        if self.on_caught is not None:
            self.on_caught(record, attempt)
        if attempt >= self.max_attempts:
            report = error if self.on_exhausted is None else self.on_exhausted(
                record, error, attempt
            )
            self.reports.append(report)
            return None
        if self.on_retry is not None:
            self.on_retry(record, attempt)
        if self.delay is not None:
            pause = self.delay(record, attempt)
            if pause > 0:
                time.sleep(pause)
        return attempt + 1


def _isolated_body(
    func: Callable[[Any], Any], items: Sequence[Any], indices: range, attempt: int,
    retryable: tuple, scope: Callable[[int], Any] | None,
) -> tuple[tuple[list[Any], int | None, BaseException | None], int]:
    """Run one chunk in a worker, stopping at the first *retryable* failure.

    The value is ``(values, failed_offset, error)``: on a retryable
    failure ``values`` holds the results up to the failing item,
    ``failed_offset`` is its position within ``indices``, and the
    chunk's unstarted tail never ran (the driver resubmits both).
    ``attempt`` is uniform across the chunk — initial chunks run at 1,
    resubmissions are single-item chunks at the bumped number.  Other
    exceptions propagate.  The failing item counts as attempted, so
    progress matches the work actually done and a resubmission counts
    again.
    """
    values: list[Any] = []
    for offset, i in enumerate(indices):
        try:
            with scope(attempt) if scope is not None else nullcontext():
                values.append(func(items[i]))
        except retryable as exc:
            return (values, offset, exc), len(values) + 1
    return (values, None, None), len(values)


def _serial_isolated(
    func: Callable[[Any], Any], items: Sequence[Any], indices: range,
    isolation: Isolation,
) -> tuple[list[Any], int]:
    """The serial-backend equivalent of isolated execution.

    Retries happen in place (no resubmission machinery), with the same
    attempt numbering and callbacks, so retry counts, exhaustion reports
    and the attempted-item count match the pool backends exactly.
    """
    scope = isolation.attempt_scope
    values: list[Any] = []
    attempted = 0
    for i in indices:
        attempt: int | None = 1
        while attempt is not None:
            attempted += 1
            try:
                with scope(attempt) if scope is not None else nullcontext():
                    values.append(func(items[i]))
                break
            except isolation.retryable as exc:
                attempt = isolation.handle_failure(isolation.describe(items[i]), exc, attempt)
                if attempt is None:
                    values.append(None)
    return values, attempted


# -- parallel for ----------------------------------------------------------


def _drain(
    pool: Executor, func: Callable, items: Sequence[Any], chunks: list[range],
    results: list[Any], sink: _Sink, name: str, channels: tuple | None,
    isolation: Isolation | None,
) -> None:
    """Submit every chunk and store each one's results as it lands.

    Each landed chunk's envelope is folded.  With an ``isolation``
    policy, a retryable casualty is resubmitted alone (attempt N+1)
    alongside its chunk's unstarted tail (attempt 1), and the loop ends
    when no chunk remains.  Any other exception follows :func:`_settle`.
    """
    pending: dict[Future, tuple[range, int]] = {}
    landed: SimpleQueue = SimpleQueue()

    def submit(indices: range, attempt: int) -> None:
        if len(indices) == 0:
            return
        if isolation is not None:
            call = (_isolated_body, func, items, indices, attempt,
                    isolation.retryable, isolation.attempt_scope)
        elif channels is not None:
            call = (_chunk_body, func, items, indices)
        else:
            call = (_run_chunk, func, items, indices)
        if channels is not None:
            call = (_run_unit, channels) + call
        future = pool.submit(*call)
        pending[future] = (indices, attempt)
        future.add_done_callback(landed.put)

    def land(future: Future, key: tuple[range, int]) -> Any:
        value = future.result()
        if channels is not None:
            value, envelope = value
            _fold(sink, name, envelope, chunk_start=key[0].start, size=len(key[0]))
        elif isolation is not None:
            value, _ = value
        return value

    for chunk in chunks:
        submit(chunk, 1)
    while pending:
        future = landed.get()
        indices, attempt = key = pending.pop(future)
        if future.exception() is not None:
            _settle(pending, land)
            raise future.exception()
        value = land(future, key)
        if isolation is None:
            values, failed = value, None
        else:
            values, failed, error = value
        for i, v in zip(indices, values):
            results[i] = v
        if failed is not None:
            poisoned = indices[failed]
            next_attempt = isolation.handle_failure(
                isolation.describe(items[poisoned]), error, attempt
            )
            if next_attempt is not None:
                submit(indices[failed:failed + 1], next_attempt)
            else:
                results[poisoned] = None
            submit(indices[failed + 1:], 1)


def parallel_for(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    backend: Backend | str = Backend.THREAD,
    num_workers: int | None = None,
    schedule: Schedule | str = Schedule.DYNAMIC,
    chunk_size: int | None = None,
    executor: Executor | None = None,
    tracer: Tracer | None = None,
    span: str | None = None,
    metrics: MetricsRegistry | None = None,
    isolate: Isolation | None = None,
) -> list[Any]:
    """Map ``func`` over ``items`` in parallel, preserving order.

    The worker pool size defaults to the machine's logical processor
    count (OpenMP's default).  Exceptions raised by any body propagate
    to the caller after outstanding chunks are cancelled.  Pass an
    ``executor`` (see :func:`shared_executor`) to reuse a pool across
    loops; it is left open for the caller to manage.

    With a ``tracer``, every chunk becomes a ``chunk`` span named
    ``span`` (default: the function's name), parented to whatever span
    is open on the calling thread — workers measure themselves, so this
    works identically on the thread and process backends.

    With a ``metrics`` registry, every chunk increments the
    ``repro_parallel_*`` counter/histogram families, and metrics
    recorded *inside* the loop body (I/O bytes, points processed) find
    their way back: directly on the thread backend, via per-chunk
    worker shards merged after the barrier on the process backend.

    With an ``isolate`` policy (see :class:`Isolation`), retryable
    failures stop only the failing item — it is retried up to the
    policy's attempts and, on give-up, yields ``None`` in the results
    plus a report in ``isolate.reports`` while its chunk mates and the
    rest of the loop complete normally, on every backend.
    """
    backend = Backend.coerce(backend)
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    workers = resolve_workers(num_workers)
    chunks = chunk_indices(n, workers, schedule, chunk_size)
    name = span or getattr(func, "__name__", "parallel_for")
    sink = _sink("chunk", tracer, metrics, backend, Schedule.coerce(schedule).value)
    channels = _channels(sink, name)
    if channels is not None and channels[3] is not None:
        # The driver announces the loop's size up front, so a live
        # monitor can draw a bounded progress bar before any chunk
        # lands.
        emit_channel(channels[3], "units_total", total=n, chunks=len(chunks),
                     backend=backend.value)

    results: list[Any] = [None] * n
    pools = (nullcontext(executor) if executor is not None
             else shared_executor(backend, min(workers, len(chunks))))
    with pools as pool:
        if pool is not None:
            _drain(pool, func, items, chunks, results, sink, name, channels, isolate)
            return results
    for chunk in chunks:
        if isolate is not None:
            body, args = _serial_isolated, (func, items, chunk, isolate)
        else:
            body, args = _chunk_body, (func, items, chunk)
        if channels is None:
            values, _ = body(*args)
        else:
            # Serial chunks run on the driver thread under a live span,
            # so spans opened inside the body nest under the chunk.
            with maybe_span(sink.tracer, name, kind="chunk", parent=sink.parent,
                            chunk_start=chunk.start, size=len(chunk)):
                values, envelope = _run_unit(channels, body, *args)
            _fold(sink, name, envelope, live=True)
        for i, value in zip(chunk, values):
            results[i] = value
    return results


def parallel_for_chunked(
    func: Callable[[Sequence[Any]], list[Any]],
    items: Sequence[Any],
    *,
    backend: Backend | str = Backend.THREAD,
    num_workers: int | None = None,
    schedule: Schedule | str = Schedule.STATIC,
    chunk_size: int | None = None,
) -> list[Any]:
    """Like :func:`parallel_for` but ``func`` receives whole chunks.

    For bodies with per-call setup worth amortizing (opening shared
    files, building filter taps); ``func`` must return one result per
    input item, in order — violations raise :class:`ParallelError`.
    Runs on every backend (a process-backend ``func`` must be picklable).
    """
    items = list(items)
    if not items:
        return []
    chunks = chunk_indices(len(items), resolve_workers(num_workers), schedule, chunk_size)
    batches = [items[chunk.start:chunk.stop] for chunk in chunks]
    outs = parallel_for(
        partial(_chunked_body, func), batches, backend=backend,
        num_workers=num_workers, span=getattr(func, "__name__", None),
    )
    return [value for out in outs for value in out]


# -- tasks -----------------------------------------------------------------


class TaskGroup:
    """``#pragma omp parallel`` / ``single`` / ``task`` / ``taskwait``.

    Usage::

        with TaskGroup(backend="thread", num_workers=4) as tg:
            tg.task(initialize_flags)
            tg.task(gather_input_files, workspace)
        # <- implicit taskwait: all tasks have completed here
        results = tg.results  # in submission order

    A failing task propagates its exception at the barrier (and on
    :meth:`taskwait`).

    With a ``tracer``, every task becomes a ``task`` span (named by the
    ``span_name=`` keyword of :meth:`task`, default the function name)
    parented to whatever span was open when the group was created.
    """

    def __init__(
        self,
        *,
        backend: Backend | str = Backend.THREAD,
        num_workers: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend = Backend.coerce(backend)
        self.num_workers = resolve_workers(num_workers)
        self._pools = ExitStack()
        self._pool: Executor | None = None
        #: Submitted futures, in submission order, each keyed by its span
        #: name when it resolves to the shim's ``(value, envelope)`` and
        #: by ``None`` when it resolves to a bare value.
        self._futures: dict[Future, str | None] = {}
        self._serial_results: list[Any] = []
        self.results: list[Any] = []
        self._sink = _sink("task", tracer, metrics, self.backend)

    def _land(self, future: Future, name: str | None) -> Any:
        value = future.result()
        if name is not None:
            value, envelope = value
            _fold(self._sink, name, envelope)
        return value

    def __enter__(self) -> "TaskGroup":
        self._pool = self._pools.enter_context(
            shared_executor(self.backend, self.num_workers)
        )
        return self

    def task(
        self,
        func: Callable[..., Any],
        *args: Any,
        span_name: str | None = None,
        **kwargs: Any,
    ) -> None:
        """Submit one task (``#pragma omp task``)."""
        name = span_name or getattr(func, "__name__", "task")
        channels = _channels(self._sink, name)
        if self._pool is None:
            if channels is None:
                self._serial_results.append(func(*args, **kwargs))
                return
            sink = self._sink
            with maybe_span(sink.tracer, name, kind="task", parent=sink.parent):
                value, envelope = _run_unit(channels, _task_body, func, args, kwargs)
            _fold(sink, name, envelope, live=True)
            self._serial_results.append(value)
        elif channels is None:
            self._futures[self._pool.submit(func, *args, **kwargs)] = None
        else:
            future = self._pool.submit(_run_unit, channels, _task_body, func, args, kwargs)
            self._futures[future] = name
            if self._sink.registry is not None:
                outstanding = sum(1 for f in self._futures if not f.done())
                self._sink.registry.gauge(
                    "repro_parallel_task_queue_depth",
                    help="High-water mark of tasks outstanding in a TaskGroup.",
                ).set_max(outstanding)

    def taskwait(self) -> list[Any]:
        """Barrier: wait for all submitted tasks, collect their results."""
        if self._pool is None:
            batch, self._serial_results = self._serial_results, []
        else:
            futures, self._futures = self._futures, {}
            wait(futures)
            failed = next((f for f in futures if f.exception() is not None), None)
            if failed is not None:
                _settle(futures, self._land)
                raise failed.exception()
            batch = [self._land(future, name) for future, name in futures.items()]
        self.results.extend(batch)
        return batch

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            if exc_type is None:
                self.taskwait()
        finally:
            self._pool = None
            self._pools.close()
