"""Extension bench — the §VIII wavefront against the paper's best.

Model mode quantifies what removing the stage barriers buys on the
simulated evaluation platform; measured mode runs the real
``wavefront-parallel`` policy on this machine.
"""

import pytest

from benchmarks.conftest import fresh_context
from repro.bench.taskgraphs import simulate_implementation
from repro.bench.workloads import paper_workloads
from repro.engine import policy_by_name


def test_bench_wavefront_model(benchmark):
    workload = paper_workloads()[-1]

    def run():
        return simulate_implementation("wavefront-parallel", workload).makespan_s

    wavefront = benchmark(run)
    seq = simulate_implementation("seq-original", workload).makespan_s
    full = simulate_implementation("full-parallel", workload).makespan_s
    assert wavefront < full
    assert seq / wavefront == pytest.approx(5.2, abs=0.6)


def test_bench_wavefront_all_events_model():
    for workload in paper_workloads():
        full = simulate_implementation("full-parallel", workload).makespan_s
        wavefront = simulate_implementation("wavefront-parallel", workload).makespan_s
        assert wavefront < full, workload.event_id


def test_bench_wavefront_measured(benchmark, tmp_path, bench_dataset_dir):
    counter = iter(range(1_000_000))

    def run():
        ctx = fresh_context(tmp_path / f"wf{next(counter)}", bench_dataset_dir)
        return policy_by_name("wavefront-parallel").run(ctx)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.stage_durations["wavefront"] > 0
