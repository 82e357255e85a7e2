"""Metrics collection across the implementation x backend matrix.

The acceptance bar of the metrics plumbing: for every paper
implementation under both pool backends, the registry the driver hands
in comes back with the run's chunk/task counters, the audit-derived
I/O byte counts and the per-process data-point counts — regardless of
whether the increments happened on driver threads (thread backend) or
in forked workers whose shards travelled home with the results
(process backend).
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.context import ParallelSettings
from repro.engine import PAPER_POLICIES, policy_by_name
from repro.observability.metrics import MetricsRegistry

from tests.conftest import SINGLE_EVENT, make_context

@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    directory = tmp_path_factory.mktemp("metrics-dataset")
    from repro.synth.dataset import generate_event_dataset

    generate_event_dataset(SINGLE_EVENT, directory)
    return directory


def metered_run(tmp_path: Path, dataset_dir: Path, impl_name: str, backend: str):
    ctx = make_context(
        tmp_path / "ws",
        parallel=ParallelSettings.uniform(backend, num_workers=2),
    )
    for src in dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    ctx.metrics = MetricsRegistry()
    policy_by_name(impl_name).run(ctx)
    return ctx.metrics


@pytest.mark.parametrize("impl_name", PAPER_POLICIES)
@pytest.mark.parametrize(
    "backend",
    ["thread", pytest.param("process", marks=pytest.mark.slow)],
)
def test_matrix_populates_registry(
    tmp_path: Path, dataset_dir: Path, impl_name: str, backend: str
) -> None:
    registry = metered_run(tmp_path, dataset_dir, impl_name, backend)

    # Audit-derived I/O flows for every implementation: the pipeline
    # must at minimum read the input .v1 files and write artifacts.
    assert registry.total("repro_artifact_io_bytes_total", op="read") > 0
    assert registry.total("repro_artifact_io_bytes_total", op="write") > 0
    assert registry.total("repro_artifact_io_total") > 0
    assert registry.total("repro_points_processed_total") > 0

    # Every pipeline process P0..P19 executed exactly once.
    runs = {
        dict(labels[1]).get("process"): inst.value
        for labels, inst in registry.samples_all()
        if labels[0] == "repro_process_runs_total"
    }
    assert all(v >= 1 for v in runs.values())
    assert registry.total("repro_process_runs_total") >= len(runs)
    assert registry.total("repro_process_seconds_total") > 0

    chunks = registry.total("repro_parallel_chunks_total")
    tasks = registry.total("repro_parallel_tasks_total")
    if impl_name in ("partial-parallel", "full-parallel"):
        # The parallel implementations must have scheduled real work
        # through the runtime, and the histograms must agree.
        assert chunks + tasks > 0
        observed = sum(
            inst.count
            for labels, inst in registry.samples_all()
            if labels[0] in (
                "repro_parallel_chunk_duration_seconds",
                "repro_parallel_task_duration_seconds",
            )
        )
        assert observed == chunks + tasks
        assert registry.total("repro_parallel_worker_busy_seconds_total") > 0
    else:
        assert chunks == 0 and tasks == 0


@pytest.mark.slow
def test_thread_and_process_backends_agree_on_invariants(
    tmp_path: Path, dataset_dir: Path
) -> None:
    """Backend choice must not change the deterministic counters."""
    reg_thread = metered_run(tmp_path / "t", dataset_dir, "full-parallel", "thread")
    reg_process = metered_run(tmp_path / "p", dataset_dir, "full-parallel", "process")
    for name in (
        "repro_points_processed_total",
        "repro_parallel_chunks_total",
        "repro_parallel_tasks_total",
        "repro_process_runs_total",
    ):
        assert reg_thread.total(name) == reg_process.total(name), name
    # Byte counts are deterministic too: same artifacts, same sizes.
    for op in ("read", "write"):
        assert reg_thread.total(
            "repro_artifact_io_bytes_total", op=op
        ) == reg_process.total("repro_artifact_io_bytes_total", op=op), op
