"""Experiment E3 — regenerate Fig. 12 (grouped per-event times).

Asserts the figure's qualitative content: each implementation improves
on its predecessor for every event, and execution time grows with the
event's total data points.
"""

from benchmarks.conftest import fresh_context
from repro.bench.figure12 import figure12_model, monotone_in_points, render_figure12
from repro.bench.table1 import table1_model
from repro.engine import policy_by_name


def test_bench_figure12_model(benchmark):
    series = benchmark(figure12_model)
    for i in range(6):
        assert series["seq_original_s"][i] > series["seq_optimized_s"][i]
        assert series["seq_optimized_s"][i] > series["partial_parallel_s"][i]
        assert series["partial_parallel_s"][i] > series["full_parallel_s"][i]


def test_bench_figure12_monotonicity():
    assert monotone_in_points(table1_model())


def test_bench_figure12_render(benchmark):
    series = figure12_model()
    assert "Partially" in benchmark(render_figure12, series)


def test_bench_figure12_measured_pair(benchmark, tmp_path, bench_dataset_dir):
    """Measured mode: sequential-original vs fully-parallel on this box."""
    counter = iter(range(1_000_000))

    def run_both():
        seq = policy_by_name("seq-original").run(
            fresh_context(tmp_path / f"s{next(counter)}", bench_dataset_dir)
        )
        par = policy_by_name("full-parallel").run(
            fresh_context(tmp_path / f"p{next(counter)}", bench_dataset_dir)
        )
        return seq, par

    seq, par = benchmark.pedantic(run_both, rounds=1, iterations=1, warmup_rounds=0)
    # The optimized structure must at least not regress grossly even on
    # a single-core machine (threads cost little here).
    assert par.total_s < 3.0 * seq.total_s
