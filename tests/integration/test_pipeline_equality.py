"""The reproduction's central integration claim: the paper's four
schemes produce byte-identical final artifacts (paper §IV:
the optimization "has no impact on the final output"; §V/§VI: the
parallelizations preserve it too)."""

import shutil

import pytest

from repro.engine import PAPER_POLICIES, policy_by_name
from tests.conftest import hash_tree, make_context


@pytest.fixture(scope="module")
def all_runs(tmp_path_factory, tiny_dataset_dir):
    """Run every paper scheme once on identical inputs."""
    results = {}
    for name in PAPER_POLICIES:
        root = tmp_path_factory.mktemp(f"eq-{name}") / "ws"
        ctx = make_context(root)
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ctx.workspace.input_dir / src.name)
        result = policy_by_name(name).run(ctx)
        results[name] = (ctx, result)
    return results


class TestOutputEquality:
    def test_inventories_match(self, all_runs):
        trees = {name: set(hash_tree(ctx.workspace.work_dir)) for name, (ctx, _) in all_runs.items()}
        base = trees["seq-original"]
        for name, tree in trees.items():
            assert tree == base, f"{name} produced a different artifact inventory"

    def test_bytes_match(self, all_runs):
        trees = {name: hash_tree(ctx.workspace.work_dir) for name, (ctx, _) in all_runs.items()}
        base = trees["seq-original"]
        for name, tree in trees.items():
            diffs = [k for k in base if tree.get(k) != base[k]]
            assert not diffs, f"{name} differs from seq-original in: {diffs[:8]}"

    def test_inventory_is_complete(self, all_runs):
        ctx, _ = all_runs["seq-original"]
        stations = ctx.stations()
        expected = set(ctx.workspace.final_artifact_names(stations))
        actual = set(hash_tree(ctx.workspace.work_dir))
        assert expected <= actual
        # Nothing unexpected beyond the declared inventory either.
        assert actual == expected

    def test_no_temp_residue(self, all_runs):
        for name, (ctx, _) in all_runs.items():
            assert not ctx.workspace.tmp_dir.exists(), f"{name} left tmp folders behind"
            assert not list(ctx.workspace.work_dir.glob("*.max")), name
            assert not list(ctx.workspace.work_dir.glob("tool.cfg")), name


class TestTimingStructure:
    def test_sequential_original_runs_twenty(self, all_runs):
        _, result = all_runs["seq-original"]
        assert [p.pid for p in result.processes] == list(range(20))

    def test_sequential_optimized_runs_seventeen(self, all_runs):
        _, result = all_runs["seq-optimized"]
        pids = [p.pid for p in result.processes]
        assert len(pids) == 17
        assert not {6, 12, 14} & set(pids)

    def test_parallel_implementations_cover_optimized_set(self, all_runs):
        for name in ("partial-parallel", "full-parallel"):
            _, result = all_runs[name]
            assert sorted({p.pid for p in result.processes}) == sorted(
                set(range(20)) - {6, 12, 14}
            )

    def test_stage_durations_recorded(self, all_runs):
        _, result = all_runs["full-parallel"]
        assert set(result.stage_durations) == {
            "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI"
        }
        assert result.total_s > 0
        assert all(d >= 0 for d in result.stage_durations.values())

    def test_total_at_least_sum_of_stages(self, all_runs):
        _, result = all_runs["full-parallel"]
        assert result.total_s >= 0.95 * sum(result.stage_durations.values())

    def test_summary_lines(self, all_runs):
        _, result = all_runs["seq-optimized"]
        lines = result.summary_lines()
        assert result.implementation in lines[0]
        assert len(lines) == 1 + len(result.stage_durations)

    def test_process_duration_lookup(self, all_runs):
        _, result = all_runs["seq-original"]
        assert result.process_duration(16) > 0
        assert result.process_duration(6) > 0
        assert result.process_duration(99) == 0.0
