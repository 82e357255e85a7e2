"""Validates the cost hierarchy the paper's analysis rests on, in
*real* runs of our pipeline — not just in the calibrated model."""

import pytest

from repro.engine import policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from tests.conftest import make_context


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory, tiny_dataset_dir):
    import shutil

    ctx = make_context(
        tmp_path_factory.mktemp("profile") / "ws",
        # A realistic oscillator grid so stage IX carries real weight.
        response_config=ResponseSpectrumConfig(
            periods=default_periods(120), dampings=(0.02, 0.05, 0.1)
        ),
    )
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    return policy_by_name("seq-original").run(ctx)


class TestRealCostHierarchy:
    def test_response_spectrum_dominates(self, profiled_run):
        # The paper's central observation: P16 is the most expensive
        # process.  True of our real pipeline too.
        durations = {p.pid: profiled_run.process_duration(p.pid)
                     for p in profiled_run.processes}
        assert max(durations, key=durations.get) == 16

    def test_metadata_processes_are_cheap(self, profiled_run):
        p16 = profiled_run.process_duration(16)
        for pid in (0, 2, 5, 8, 11, 17):
            assert profiled_run.process_duration(pid) < 0.1 * p16

    def test_redundant_processes_cost_real_time(self, profiled_run):
        # The optimization's benefit exists: P6+P12+P14 together take
        # a measurable slice of the run.
        redundant = sum(profiled_run.process_duration(pid) for pid in (6, 12, 14))
        assert redundant > 0.02 * profiled_run.total_s

    def test_both_corrections_cost_similarly(self, profiled_run):
        p4 = profiled_run.process_duration(4)
        p13 = profiled_run.process_duration(13)
        assert 0.3 < p4 / p13 < 3.0

    def test_duplicate_processes_cost_similarly(self, profiled_run):
        # P12 re-does P3's work, so their costs should track.
        p3 = profiled_run.process_duration(3)
        p12 = profiled_run.process_duration(12)
        assert 0.3 < p3 / p12 < 3.0
