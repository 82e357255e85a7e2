"""The one-call ``repro.run()`` facade."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.core import RunContext
from repro.core.context import ParallelSettings
from repro.engine import policy_by_name
from repro.parallel.backend import Backend

from tests.conftest import SINGLE_EVENT, make_context, tiny_response_config


@pytest.fixture(scope="module")
def facade_workspace(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """One generated-and-processed workspace, reused read-only."""
    root = tmp_path_factory.mktemp("facade") / "ws"
    result = repro.run(
        SINGLE_EVENT,
        policy="seq-optimized",
        workspace=root,
        backend="serial",
        response_periods=12,
    )
    assert result.implementation == "seq-optimized"
    return root


def test_event_source_generates_and_runs(facade_workspace: Path) -> None:
    # The fixture ran the pipeline from an EventSpec; the workspace now
    # holds both the generated inputs and the artifacts.
    assert list(facade_workspace.glob("input/*.v1"))
    assert any(facade_workspace.glob("work/**/*.v2"))


def test_directory_source_with_trace(facade_workspace: Path, tmp_path: Path) -> None:
    trace_path = tmp_path / "run.trace.json"
    result = repro.run(
        facade_workspace,
        policy="seq-optimized",
        backend="thread",
        workers=2,
        trace=trace_path,
        response_periods=12,
    )
    assert result.trace is not None
    doc = json.loads(trace_path.read_text())
    stage_events = [e for e in doc["traceEvents"] if e.get("cat") == "stage"]
    assert len(stage_events) == len(result.stage_durations)


def test_trace_true_attaches_without_writing(facade_workspace: Path) -> None:
    result = repro.run(
        facade_workspace, policy="seq-optimized", trace=True, response_periods=12
    )
    assert result.trace is not None
    assert result.trace.stage_durations() == result.stage_durations


def test_untraced_by_default(facade_workspace: Path) -> None:
    result = repro.run(facade_workspace, policy="seq-optimized", response_periods=12)
    assert result.trace is None
    assert result.profile is None


def test_profile_path_writes_speedscope(facade_workspace: Path, tmp_path: Path) -> None:
    out = tmp_path / "run.speedscope.json"
    result = repro.run(
        facade_workspace, policy="seq-optimized", profile=out, response_periods=12
    )
    # Profiling implies tracing: samples attribute through open spans.
    assert result.trace is not None
    assert result.profile is not None
    doc = json.loads(out.read_text())
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    if result.profile.total_samples:  # tiny runs may record few samples
        assert result.profile.attributed_fraction() >= 0.95


def test_policy_name_and_instance(facade_workspace: Path) -> None:
    by_name = repro.run(facade_workspace, policy="seq-optimized", response_periods=12)
    by_instance = repro.run(
        facade_workspace, policy=policy_by_name("seq-optimized"), response_periods=12
    )
    assert by_name.implementation == by_instance.implementation == "seq-optimized"


def test_backend_accepts_enum(facade_workspace: Path) -> None:
    result = repro.run(
        facade_workspace, policy="seq-optimized", backend=Backend.SERIAL,
        response_periods=12,
    )
    assert result.trace is None
    assert result.stage_durations


def test_run_context_source_used_as_is(
    facade_workspace: Path, tmp_path: Path
) -> None:
    ctx = make_context(tmp_path / "ws")
    for src in facade_workspace.glob("input/*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    result = repro.run(ctx, policy="seq-optimized", trace=True)
    assert ctx.tracer is not None
    assert result.trace is not None


def test_run_context_source_rejects_settings(tmp_path: Path) -> None:
    ctx = make_context(tmp_path / "ws")
    with pytest.raises(ValueError, match="RunContext"):
        repro.run(ctx, backend="thread")


def test_unknown_policy_propagates() -> None:
    with pytest.raises(ValueError, match="known"):
        repro.run("anywhere", policy="bogus-policy")


def test_policy_is_keyword_only(facade_workspace: Path) -> None:
    with pytest.raises(TypeError):
        repro.run(facade_workspace, "seq-optimized")


def test_facade_is_exported() -> None:
    assert "run" in repro.__all__
    assert repro.run is not None
    assert repro.Tracer is not None and repro.Trace is not None


def test_uniform_settings_coerce_strings() -> None:
    settings = ParallelSettings.uniform("process", num_workers=3)
    assert settings.loop_backend == Backend.PROCESS
    assert settings.task_backend == Backend.PROCESS
    assert settings.tool_backend == Backend.PROCESS
    assert settings.num_workers == 3
    with pytest.raises(Exception):
        ParallelSettings.uniform("not-a-backend")
