"""Traced pipeline runs: span structure and trace/result agreement.

The acceptance bar: for every backend, the per-stage span durations in
the exported trace reproduce ``PipelineResult.stage_durations`` within
1 ms (they are in fact identical — the result is set from the spans).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.context import ParallelSettings
from repro.core.stages import STAGES
from repro.engine import policy_by_name, resolve_policy
from repro.observability.export import to_chrome_trace, write_chrome_trace
from repro.observability.tracer import Tracer

from tests.conftest import SINGLE_EVENT, make_context


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    directory = tmp_path_factory.mktemp("trace-dataset")
    from repro.synth.dataset import generate_event_dataset

    generate_event_dataset(SINGLE_EVENT, directory)
    return directory


def traced_run(tmp_path: Path, dataset_dir: Path, policy, backend: str):
    ctx = make_context(
        tmp_path / "ws",
        parallel=ParallelSettings.uniform(backend, num_workers=2),
    )
    for src in dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    ctx.tracer = Tracer()
    return resolve_policy(policy).run(ctx)


def assert_trace_matches_result(result) -> None:
    trace = result.trace
    assert trace is not None and trace.spans
    span_stages = trace.stage_durations()
    assert set(span_stages) == set(result.stage_durations)
    for stage, duration in result.stage_durations.items():
        assert abs(span_stages[stage] - duration) < 1e-3, stage


@pytest.mark.parametrize(
    "backend",
    ["serial", "thread", pytest.param("process", marks=pytest.mark.slow)],
)
def test_full_parallel_trace_all_backends(
    tmp_path: Path, dataset_dir: Path, backend: str
) -> None:
    result = traced_run(tmp_path, dataset_dir, "full-parallel", backend)
    trace = result.trace
    assert_trace_matches_result(result)

    # Structure: one run root containing one implementation span
    # containing the 11 stage spans, in plan order.
    roots = trace.roots()
    assert len(roots) == 1 and roots[0].kind == "run"
    run = roots[0]
    assert run.attributes["implementation"] == "full-parallel"
    assert run.attributes["loop_backend"] == backend
    (impl_span,) = trace.children(run)
    assert impl_span.kind == "implementation"
    stages = [s for s in trace.children(impl_span) if s.kind == "stage"]
    assert [s.name for s in stages] == [stage.name for stage in STAGES]

    # Leaf work: the parallel stages produced chunk/task spans nested
    # under their stage, regardless of backend.
    assert trace.by_kind("task"), "tasks strategy produced no task spans"
    chunks = trace.by_kind("chunk")
    assert chunks, "loop strategy produced no chunk spans"
    by_id = {s.span_id: s for s in trace.spans}
    for chunk in chunks:
        cursor = chunk
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
            if cursor.kind == "stage":
                break
        assert cursor.kind == "stage", f"chunk {chunk.name} not under a stage"

    # Every span fits inside the run span's window (small slack for the
    # wall-clock placement of cross-process records).
    for span in trace.spans:
        assert span.start_s >= run.start_s - 0.05
        assert span.end_s <= run.end_s + 0.05


def test_sequential_trace_has_process_spans(tmp_path: Path, dataset_dir: Path) -> None:
    result = traced_run(tmp_path, dataset_dir, "seq-optimized", "serial")
    assert_trace_matches_result(result)
    trace = result.trace
    processes = trace.by_kind("process")
    # One process span per executed process, each inside its own stage
    # span, matching the result's process rows one-for-one.
    assert [p.attributes["pid"] for p in processes] == [p.pid for p in result.processes]
    for span in processes:
        parent = next(s for s in trace.spans if s.span_id == span.parent_id)
        assert parent.kind == "stage"


def test_wavefront_trace(tmp_path: Path, dataset_dir: Path) -> None:
    result = traced_run(tmp_path, dataset_dir, "wavefront-parallel", "thread")
    assert_trace_matches_result(result)
    names = {s.name for s in result.trace.by_kind("stage")}
    assert names == {"prologue", "wavefront", "epilogue"}
    assert result.trace.by_kind("chunk"), "station pipelines should be chunk spans"


def test_incremental_trace_has_a_process_span_per_executed_process(
    tmp_path: Path, dataset_dir: Path
) -> None:
    from repro.core.incremental import IncrementalPolicy

    cold = IncrementalPolicy()
    result = traced_run(tmp_path, dataset_dir, cold, "thread")
    assert_trace_matches_result(result)
    spans = result.trace.by_kind("process")
    assert [s.attributes["pid"] for s in spans] == cold.executed
    assert cold.executed == [p.pid for p in result.processes]
    # One region per process: every process span sits in its own stage.
    for span in spans:
        parent = next(s for s in result.trace.spans if s.span_id == span.parent_id)
        assert parent.kind == "stage" and parent.name == f"P{span.attributes['pid']}"

    # A warm rerun of the same workspace executes (and spans) nothing.
    warm = IncrementalPolicy()
    ctx = make_context(tmp_path / "ws", parallel=ParallelSettings(num_workers=2))
    ctx.tracer = Tracer()
    rerun = warm.run(ctx)
    assert warm.executed == []
    assert rerun.trace.by_kind("process") == []


def test_chrome_export_matches_result(tmp_path: Path, dataset_dir: Path) -> None:
    """The acceptance check, end to end through the JSON file."""
    result = traced_run(tmp_path, dataset_dir, "full-parallel", "thread")
    path = write_chrome_trace(tmp_path / "run.trace.json", result.trace)
    doc = json.loads(path.read_text())
    assert doc == to_chrome_trace(result.trace)
    sums: dict[str, float] = {}
    for event in doc["traceEvents"]:
        if event.get("ph") == "X" and event.get("cat") == "stage":
            sums[event["name"]] = sums.get(event["name"], 0.0) + event["dur"] / 1e6
    assert set(sums) == set(result.stage_durations)
    for stage, duration in result.stage_durations.items():
        assert abs(sums[stage] - duration) < 1e-3


def test_untraced_run_has_no_trace(tmp_path: Path, dataset_dir: Path) -> None:
    ctx = make_context(tmp_path / "ws")
    for src in dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    result = policy_by_name("seq-optimized").run(ctx)
    assert ctx.tracer is None
    assert result.trace is None
    assert result.stage_durations  # timing still reported
