"""The outside-in tracer: bindings, pool workers, and layer coverage."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layertrace
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def recorder(tmp_path):
    rec = layertrace.install(tmp_path / "trace")
    try:
        yield rec
    finally:
        layertrace.uninstall()


def test_every_binding_is_patched_and_restored(tmp_path):
    import repro.formats.common as common
    import repro.formats.v1 as v1
    from repro.core.registry import PROCESSES

    original = common.format_fixed_block
    run_p16 = PROCESSES[16].run
    layertrace.install(tmp_path / "trace")
    try:
        assert v1.format_fixed_block is common.format_fixed_block is not original
        assert PROCESSES[16].run is not run_p16
    finally:
        layertrace.uninstall()
    assert v1.format_fixed_block is common.format_fixed_block is original
    assert PROCESSES[16].run is run_p16


def test_self_time_excludes_children(recorder):
    from repro.formats.v2 import CorrectedRecord, read_v2, write_v2  # noqa: F401
    from repro.formats.common import format_fixed_block

    format_fixed_block(np.arange(12.0))
    stats = recorder.collect()
    assert stats["formats.codec#calls"] == 1
    assert stats["formats.codec#points"] == 12
    assert stats["formats#incl"] == pytest.approx(stats["formats.codec#incl"])


def test_pool_workers_report_by_pid(recorder):
    from repro.formats.common import format_fixed_block
    from repro.parallel.omp import parallel_for

    blocks = [np.arange(10.0)] * 6
    parallel_for(format_fixed_block, blocks, backend="process", num_workers=2, chunk_size=1)
    stats = recorder.collect()
    files = list(recorder.out_dir.glob("*.json"))
    assert files and all(json.loads(f.read_text()) for f in files)
    assert stats["worker:formats.codec#calls"] == 6
    assert stats["formats.codec#points"] == 60
    assert stats["parallel.loop#calls"] == 1
    assert stats["parallel.pool#starts"] == 1
    assert stats["parallel.busy#items"] >= 1
    assert stats["worker:parallel.busy#s"] > 0


#: Layers that must report calls on every workload, plus the ones that
#: only some workloads exercise.
ALWAYS = ("formats.calls", "fs.files_written", "dsp.calls", "spectra.calls",
          "plotting.calls", "core.calls", "engine.calls", "resilience.calls")
POOLED = ("parallel.loop_calls", "parallel.pool_starts", "parallel.worker_busy_s")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_covers_every_layer(name):
    wl = workloads.workload(name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if wl.telemetry and "HANG" in proc.stdout:
        # The known fork-while-locked deadlock of the process backend
        # with all telemetry on; the run reported it and was killed.
        pytest.xfail("all-telemetry process-backend run hung")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    for layer in ALWAYS:
        assert metrics[layer] > 0, layer
    if wl.backend == "process":
        for layer in POOLED:
            assert metrics[layer] > 0, layer
    else:
        assert metrics["parallel.calls"] == 0
        assert metrics["parallel.pool_starts"] == 0
    if wl.telemetry:
        for layer in ("observability.emit_calls", "observability.spans",
                      "observability.profile_samples", "observability.event_log_bytes"):
            assert metrics[layer] > 0, layer
    else:
        assert metrics["observability.calls"] == 0
    assert metrics["resilience.retries"] == metrics["resilience.quarantined"] == 0
    if not wl.bulletin:
        assert metrics["core.P16_s"] == max(
            v for k, v in metrics.items() if k.startswith("core.P")
        )
