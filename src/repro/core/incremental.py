"""Incremental (make-style) pipeline execution: the ``incremental`` policy.

Observatories rerun the pipeline constantly — after a parameter tweak,
after one more station's record arrives, after a crash.  Rerunning all
20 processes from scratch every time is the very cost the paper
attacks; this policy attacks the *other* axis: skip every process
whose inputs and outputs are already up to date.

The plan is the optimized order, one region per process; each region
is a memoizing custom task built on the registry's declared
reads/writes:

1. before running a process, resolve its declared read identities to
   concrete files (:meth:`Workspace.artifact_paths`) and fingerprint
   them (sha256 over contents) together with the run configuration;
2. if the fingerprint matches the recorded state **and** every
   declared output still exists with its recorded digest, skip;
3. if the inputs match but the outputs were overwritten (the V2
   records are written twice: P4's default correction, then P13's
   definitive one) or deleted, **restore** the process's cached output
   bytes instead of recomputing — every executed process deposits its
   outputs in ``<workspace>/.cache/p<pid>/``;
4. otherwise run the process, cache its outputs and record the new
   fingerprints (the state file is rewritten after every executed
   process, so an interrupted run keeps its progress).

Because a skipped or restored process leaves its outputs
byte-identical, downstream fingerprints are unchanged and the skipping
cascades — an untouched workspace re-runs in milliseconds (two cheap
byte restores for the twice-written V2 generation), while any edit
(a changed input record, a deleted artifact, a new filter default)
re-executes exactly the affected suffix of the dependency graph.

State lives in ``<workspace>/.pipeline_state.json`` and
``<workspace>/.cache/`` — outside ``work/`` so the artifact inventory
stays identical to every other policy's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from functools import partial
from pathlib import Path

from repro.core.context import RunContext
from repro.core.dependencies import build_process_graph
from repro.core.registry import OPTIMIZED_ORDER, PROCESSES
from repro.engine.executor import _timed, record_timing
from repro.engine.graph import CUSTOM, SEQ, PipelineBuilder, Region, TaskGraph
from repro.engine.policy import SchedulingPolicy
from repro.observability.tracer import maybe_span

logger = logging.getLogger("repro.core")

STATE_FILE = ".pipeline_state.json"


def _config_fingerprint(ctx: RunContext) -> str:
    """Fingerprint of the numeric configuration that shapes outputs."""
    payload = {
        "filter": [
            ctx.default_filter.f_stop_low,
            ctx.default_filter.f_pass_low,
            ctx.default_filter.f_pass_high,
            ctx.default_filter.f_stop_high,
        ],
        "periods": list(map(float, ctx.response_config.periods)),
        "dampings": list(ctx.response_config.dampings),
        "method": ctx.response_config.method,
        "pseudo": ctx.response_config.pseudo,
        "taper": ctx.taper_fraction,
        "max_period": ctx.fourier_max_period,
        "inflection": [
            ctx.inflection.min_period,
            ctx.inflection.smoothing_half_width,
            ctx.inflection.persistence,
            ctx.inflection.fsl_ratio,
            ctx.inflection.fallback_period,
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _digest_files(paths: list[Path]) -> str:
    """One digest over a file set: names, presence and contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        if path.exists():
            h.update(b"1")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        else:
            h.update(b"0")
    return h.hexdigest()


class IncrementalPolicy(SchedulingPolicy):
    """The optimized order with up-to-date processes skipped.

    The final artifacts are byte-identical to every other policy's
    (same process bodies); only the amount of work re-done differs.
    :attr:`executed`, :attr:`skipped` and :attr:`restored` report what
    the last run of this instance actually did.
    """

    name = "incremental"
    description = "Incremental: skip processes whose inputs/outputs are unchanged"

    def __init__(self) -> None:
        self.executed: list[int] = []
        self.skipped: list[int] = []
        self.restored: list[int] = []

    def _state_path(self, ctx: RunContext) -> Path:
        return ctx.workspace.root / STATE_FILE

    def _cache_dir(self, ctx: RunContext, pid: int) -> Path:
        return ctx.workspace.root / ".cache" / f"p{pid:02d}"

    def _load_state(self, ctx: RunContext) -> dict:
        path = self._state_path(ctx)
        if not path.exists():
            return {}
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return {}

    def _cache_outputs(self, ctx: RunContext, pid: int, write_paths: list[Path]) -> None:
        cache = self._cache_dir(ctx, pid)
        if cache.exists():
            shutil.rmtree(cache)
        cache.mkdir(parents=True)
        for path in write_paths:
            if path.exists():
                shutil.copy2(path, cache / path.name)

    def _restore_outputs(self, ctx: RunContext, pid: int, write_paths: list[Path]) -> bool:
        """Copy cached output bytes back; False if the cache is stale."""
        cache = self._cache_dir(ctx, pid)
        if not cache.is_dir():
            return False
        cached_names = {p.name for p in cache.iterdir()}
        if {p.name for p in write_paths} - cached_names:
            return False
        for path in write_paths:
            shutil.copy2(cache / path.name, path)
        return True

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        memo: dict = {}
        builder = PipelineBuilder(name=self.name)
        for pid in OPTIMIZED_ORDER:
            spec = PROCESSES[pid]
            # Opaque: the step dispatches through the registry, whose
            # bodies the conformance pass already proved match these
            # declarations.
            builder.add_task(
                spec.label, partial(self._step, memo, pid), span_strategy=SEQ,
                reads=tuple(ref.identity for ref in spec.reads),
                writes=tuple(ref.identity for ref in spec.writes),
                opaque=True,
            )
        for a, b in build_process_graph(OPTIMIZED_ORDER).edges:
            builder.after(f"P{a}", f"P{b}")
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=CUSTOM)
            for task in graph.tasks
        ]
        return graph, regions

    def _step(self, memo: dict, pid: int, ctx: RunContext, result) -> None:
        """Skip, restore or run one process."""
        if not memo:
            # First step of a run: load the recorded state once.
            memo.update(
                state=self._load_state(ctx),
                config=_config_fingerprint(ctx),
                stations=ctx.stations(),
            )
            self.executed, self.skipped, self.restored = [], [], []
        spec = PROCESSES[pid]
        workspace = ctx.workspace
        read_paths: list[Path] = []
        for ref in spec.reads:
            read_paths.extend(workspace.artifact_paths(ref.identity, memo["stations"]))
        write_paths: list[Path] = []
        for ref in spec.writes:
            write_paths.extend(workspace.artifact_paths(ref.identity, memo["stations"]))

        inputs_fp = memo["config"] + _digest_files(read_paths)
        entry = memo["state"].get(str(pid))
        if entry is not None and entry.get("inputs") == inputs_fp:
            if entry.get("outputs") == _digest_files(write_paths):
                self.skipped.append(pid)
                logger.debug("%s up to date, skipped", spec.label)
                return
            # Same inputs, outputs overwritten or deleted: restore the
            # cached bytes instead of recomputing, then verify.
            if (
                self._restore_outputs(ctx, pid, write_paths)
                and entry.get("outputs") == _digest_files(write_paths)
            ):
                self.restored.append(pid)
                logger.debug("%s restored from the output cache", spec.label)
                return

        with maybe_span(
            ctx.tracer, spec.name, kind="process", pid=pid, stage=spec.label,
        ):
            _, elapsed = _timed(pid, ctx)
        record_timing(ctx, result, spec.label, pid, elapsed)
        self.executed.append(pid)
        self._cache_outputs(ctx, pid, write_paths)
        memo["state"][str(pid)] = {
            "inputs": inputs_fp,
            "outputs": _digest_files(write_paths),
        }
        self._state_path(ctx).write_text(json.dumps(memo["state"], indent=1, sort_keys=True))
