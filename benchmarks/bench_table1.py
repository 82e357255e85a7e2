"""Experiment E1 — regenerate Table I.

Model mode reproduces the paper's table on the simulated i5-12450H;
the benchmark times the full six-event, four-implementation
regeneration and asserts the reproduction tolerances.  A measured-mode
bench runs the real pipeline end-to-end (scaled down) for each
implementation so wall-clock on *this* machine is also recorded.
"""

import pytest

from benchmarks.conftest import fresh_context
from repro.bench.table1 import max_relative_error, render_table1, table1_model
from repro.engine import PAPER_POLICIES, policy_by_name


class TestTable1Model:
    def test_bench_table1_model(self, benchmark):
        rows = benchmark(table1_model)
        assert len(rows) == 6
        # Reproduction quality gate: every cell within 12% of Table I
        # (exact on the calibration event, predictions elsewhere).
        assert max_relative_error(rows) < 0.12

    def test_bench_table1_render(self, benchmark):
        rows = table1_model()
        text = benchmark(render_table1, rows)
        assert "SpeedUp" in text


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_bench_table1_measured(benchmark, tmp_path, bench_dataset_dir, policy):
    """Measured mode: one wall-clock pipeline run per paper scheme."""
    counter = iter(range(1_000_000))

    def run():
        ctx = fresh_context(tmp_path / f"r{next(counter)}", bench_dataset_dir)
        return policy_by_name(policy).run(ctx)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.total_s > 0
