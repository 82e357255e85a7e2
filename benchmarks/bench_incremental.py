"""Extension bench — incremental reprocessing.

Quantifies what the make-style ``incremental`` policy buys an observatory: the cold
run pays full price, the warm rerun costs only fingerprinting plus two
byte restores for the twice-written V2 generation.
"""

from benchmarks.conftest import fresh_context
from repro.core.incremental import IncrementalPolicy


def test_bench_incremental_cold_vs_warm(benchmark, tmp_path, bench_dataset_dir):
    ctx = fresh_context(tmp_path / "incr", bench_dataset_dir)
    cold = IncrementalPolicy()
    cold_result = cold.run(ctx)
    assert cold.executed  # everything ran

    def warm_run():
        policy = IncrementalPolicy()
        return policy.run(ctx), policy

    (warm_result, warm_policy) = benchmark.pedantic(
        warm_run, rounds=3, iterations=1, warmup_rounds=0
    )
    assert warm_policy.executed == []
    # Warm rerun at least 3x faster than the cold one even at this
    # tiny scale (the ratio grows with record size).
    assert warm_result.total_s < cold_result.total_s / 3.0


def test_bench_incremental_single_station_update(benchmark, tmp_path, bench_dataset_dir):
    """Appending data to one station reprocesses without a cold start."""
    ctx = fresh_context(tmp_path / "upd", bench_dataset_dir)
    IncrementalPolicy().run(ctx)
    victim = sorted(ctx.workspace.input_dir.glob("*.v1"))[0]
    original = victim.read_text()

    state = {"flip": False}

    def update_and_rerun():
        # Alternate between two variants so every round sees a change.
        state["flip"] = not state["flip"]
        text = original.replace(" 1.", " 2.", 1) if state["flip"] else original
        victim.write_text(text)
        policy = IncrementalPolicy()
        policy.run(ctx)
        return policy

    policy = benchmark.pedantic(update_and_rerun, rounds=2, iterations=1, warmup_rounds=0)
    assert 16 in policy.executed  # the affected chain really reran
