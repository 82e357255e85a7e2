"""The perf-regression gate: recording, schema, thresholds, CLI."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.observability.perf import (
    METRIC_CLASSES,
    SCHEMA,
    Thresholds,
    check_bench,
    latest_bench,
    main_perf,
    record_bench,
    render_bench,
    render_deltas,
    validate_bench,
    write_bench,
)
from repro.synth.events import EventSpec

PERF_EVENT = EventSpec("EV-PERF", "2020-01-01", 5.0, 1, 30_000, seed=7)


@pytest.fixture(scope="module")
def bench_doc() -> dict:
    """One real (tiny) recording shared by the module's tests."""
    return record_bench(
        events=[PERF_EVENT],
        implementations=("seq-original", "full-parallel"),
        scale=0.02,
        repeats=1,
        periods=8,
        workers=2,
        sample_interval=0.01,
        profile_hz=150.0,
    )


class TestThresholds:
    def test_lower_is_better_band(self):
        t = Thresholds(rel=0.5, abs=0.01)
        assert not t.regressed(1.0, 1.4)
        assert t.regressed(1.0, 1.6)
        assert t.improved(1.0, 0.4)
        assert not t.improved(1.0, 0.6)

    def test_absolute_floor_shields_tiny_values(self):
        t = METRIC_CLASSES["stage_s"]
        # A 5 ms stage doubling stays inside the 20 ms absolute floor.
        assert not t.regressed(0.005, 0.010)

    def test_higher_is_better_inverts(self):
        t = Thresholds(rel=0.3, abs=0.1, higher_is_better=True)
        assert t.regressed(4.0, 2.0)
        assert not t.regressed(4.0, 3.5)
        assert t.improved(4.0, 6.0)


class TestRecord:
    def test_schema_valid(self, bench_doc):
        assert bench_doc["schema"] == SCHEMA
        assert validate_bench(bench_doc) == []

    def test_cells_cover_requested_matrix(self, bench_doc):
        cell = bench_doc["events"]["EV-PERF"]
        assert set(cell["implementations"]) == {"seq-original", "full-parallel"}
        for entry in cell["implementations"].values():
            assert entry["total_s"] > 0
            assert entry["stages"]
            assert entry["stage_self_s"]
            assert entry["io"]["read_bytes"] > 0
            assert entry["io"]["points"] > 0
            assert len(entry["runs_s"]) == 1

    def test_speedup_vs_original(self, bench_doc):
        impls = bench_doc["events"]["EV-PERF"]["implementations"]
        assert impls["seq-original"]["speedup_vs_original"] == pytest.approx(1.0)
        assert impls["full-parallel"]["speedup_vs_original"] > 0

    def test_parallel_counters_only_for_parallel(self, bench_doc):
        impls = bench_doc["events"]["EV-PERF"]["implementations"]
        seq = impls["seq-original"]["parallel"]
        par = impls["full-parallel"]["parallel"]
        assert seq["chunks"] == 0 and seq["tasks"] == 0
        assert par["chunks"] + par["tasks"] > 0

    def test_render_bench_mentions_stages(self, bench_doc):
        text = render_bench(bench_doc)
        assert "EV-PERF" in text
        assert "speedup" in text
        assert "self s" in text

    def test_critical_path_embedded(self, bench_doc):
        for entry in bench_doc["events"]["EV-PERF"]["implementations"].values():
            assert entry["critical_path_s"] > 0
            # The path partitions the run span, so it cannot exceed the
            # measured wall-clock (rounding slack aside).
            assert entry["critical_path_s"] <= entry["total_s"] * 1.01 + 1e-6
            assert entry["critical_path_stages"]

    def test_profile_block_embedded(self, bench_doc):
        for entry in bench_doc["events"]["EV-PERF"]["implementations"].values():
            profile = entry["profile"]
            assert profile["hz"] == 150.0
            assert profile["samples"] >= 0
            assert 0.0 <= profile["attributed_fraction"] <= 1.0
            assert isinstance(profile["top_frames"], list)
            for row in profile["top_frames"]:
                assert set(row) == {"frame", "seconds", "samples"}

    def test_validate_flags_broken_docs(self, bench_doc):
        broken = copy.deepcopy(bench_doc)
        broken["schema"] = "other/9"
        del broken["events"]["EV-PERF"]["implementations"]["full-parallel"]["stages"]
        errors = validate_bench(broken)
        assert any("schema" in e for e in errors)
        assert any("stages" in e for e in errors)

    def test_validate_v2_requires_critical_path(self, bench_doc):
        broken = copy.deepcopy(bench_doc)
        entry = broken["events"]["EV-PERF"]["implementations"]["seq-original"]
        entry["critical_path_s"] = -1.0
        entry["profile"] = {"samples": "many"}
        errors = validate_bench(broken)
        assert any("critical_path_s" in e for e in errors)
        assert any("profile" in e for e in errors)

    def test_validate_accepts_v1_without_v2_fields(self, bench_doc):
        old = copy.deepcopy(bench_doc)
        old["schema"] = "repro-bench/1"
        for entry in old["events"]["EV-PERF"]["implementations"].values():
            del entry["critical_path_s"], entry["critical_path_stages"]
            entry.pop("profile", None)
        assert validate_bench(old) == []


class TestWriteAndDiscover:
    def test_write_and_latest(self, bench_doc, tmp_path: Path):
        path = write_bench(bench_doc, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        older = tmp_path / "BENCH_19990101T000000Z.json"
        older.write_text("{}")
        assert latest_bench(tmp_path) == path
        assert json.loads(path.read_text()) == bench_doc

    def test_latest_empty_dir(self, tmp_path: Path):
        assert latest_bench(tmp_path) is None


class TestCheck:
    def test_identical_docs_pass_clean(self, bench_doc):
        deltas, regressions = check_bench(bench_doc, copy.deepcopy(bench_doc))
        assert deltas
        assert regressions == []
        assert all(d.status == "ok" for d in deltas)

    def test_detects_injected_stage_slowdown(self, bench_doc):
        slow = copy.deepcopy(bench_doc)
        entry = slow["events"]["EV-PERF"]["implementations"]["full-parallel"]
        stage = max(entry["stages"], key=entry["stages"].get)
        # 2x on the heaviest stage, lifted past the absolute floor.
        entry["stages"][stage] = entry["stages"][stage] * 2 + 0.05
        entry["total_s"] = entry["total_s"] * 2 + 0.2
        deltas, regressions = check_bench(bench_doc, slow)
        failing = {(d.implementation, d.metric) for d in regressions}
        assert ("full-parallel", f"stage[{stage}]") in failing
        assert ("full-parallel", "end_to_end_s") in failing

    def test_detects_speedup_collapse(self, bench_doc):
        slow = copy.deepcopy(bench_doc)
        entry = slow["events"]["EV-PERF"]["implementations"]["full-parallel"]
        entry["speedup_vs_original"] = 0.01
        _, regressions = check_bench(bench_doc, slow)
        assert any(d.metric == "speedup" for d in regressions)

    def test_only_common_cells_compared(self, bench_doc):
        shrunk = copy.deepcopy(bench_doc)
        del shrunk["events"]["EV-PERF"]["implementations"]["full-parallel"]
        deltas, regressions = check_bench(bench_doc, shrunk)
        assert regressions == []
        assert all(d.implementation == "seq-original" for d in deltas)

    def test_failure_names_worst_regressed_stage(self, bench_doc, tmp_path, capsys):
        slow = copy.deepcopy(bench_doc)
        entry = slow["events"]["EV-PERF"]["implementations"]["full-parallel"]
        stage = max(entry["stages"], key=entry["stages"].get)
        entry["stages"][stage] = entry["stages"][stage] * 2 + 0.05
        if entry["stage_self_s"].get(stage) is not None:
            entry["stage_self_s"][stage] = entry["stage_self_s"][stage] * 2 + 0.05
        base = write_bench(bench_doc, tmp_path)
        against = tmp_path / "slow.json"
        against.write_text(json.dumps(slow))
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(against)]
        ) == 1
        out = capsys.readouterr().out
        assert f"worst-regressed stage: {stage}" in out
        assert "self-time" in out

    def test_render_deltas(self, bench_doc):
        slow = copy.deepcopy(bench_doc)
        slow["events"]["EV-PERF"]["implementations"]["seq-original"]["total_s"] *= 10
        deltas, _ = check_bench(bench_doc, slow)
        table = render_deltas(deltas)
        assert "REGRESSION" in table
        assert "within thresholds" in table


class TestCli:
    def test_check_without_baseline_exits_2(self, tmp_path: Path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main_perf(["check", "--against", "whatever.json"]) == 2

    def test_check_against_passes_and_fails(
        self, bench_doc, tmp_path: Path, capsys
    ):
        base = write_bench(bench_doc, tmp_path)
        same = tmp_path / "same.json"
        same.write_text(json.dumps(bench_doc))
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(same)]
        ) == 0

        slow_doc = copy.deepcopy(bench_doc)
        for entry in slow_doc["events"]["EV-PERF"]["implementations"].values():
            entry["total_s"] = entry["total_s"] * 3 + 1.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(slow_doc))
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(slow)]
        ) == 1
        # Advisory mode reports but does not fail.
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(slow), "--advisory"]
        ) == 0
        out = capsys.readouterr().out
        assert "ADVISORY" in out


class TestAgainstDirectory:
    """``--against`` accepting a directory of BENCH artifacts."""

    def test_picks_newest_valid_candidate(self, bench_doc, tmp_path: Path):
        from repro.observability.perf import resolve_bench_source

        old = copy.deepcopy(bench_doc)
        old["created_utc"] = "2020-01-01T00:00:00Z"
        write_bench(old, tmp_path)
        newest = write_bench(bench_doc, tmp_path)
        doc, label = resolve_bench_source(tmp_path)
        assert label == str(newest)
        assert doc == bench_doc

    def test_skips_invalid_newer_files(self, bench_doc, tmp_path: Path):
        from repro.observability.perf import resolve_bench_source

        valid = write_bench(bench_doc, tmp_path)
        (tmp_path / "BENCH_99990101T000000Z.json").write_text('{"schema": "nope"}')
        (tmp_path / "BENCH_99990202T000000Z.json").write_text("not json at all")
        doc, label = resolve_bench_source(tmp_path)
        assert label == str(valid)
        assert validate_bench(doc) == []

    def test_empty_directory_is_an_error(self, tmp_path: Path):
        from repro.observability.perf import resolve_bench_source

        with pytest.raises(ValueError, match="no BENCH_"):
            resolve_bench_source(tmp_path)

    def test_error_lists_every_rejected_candidate(self, tmp_path: Path):
        from repro.observability.perf import resolve_bench_source

        (tmp_path / "BENCH_20200101T000000Z.json").write_text('{"schema": "x"}')
        (tmp_path / "BENCH_20200102T000000Z.json").write_text("garbage")
        with pytest.raises(ValueError) as err:
            resolve_bench_source(tmp_path)
        message = str(err.value)
        assert "BENCH_20200101T000000Z.json" in message
        assert "BENCH_20200102T000000Z.json" in message
        assert "unreadable" in message

    def test_cli_check_against_directory(self, bench_doc, tmp_path: Path, capsys):
        base = write_bench(bench_doc, tmp_path)
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        write_bench(bench_doc, artifacts)
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(artifacts)]
        ) == 0
        out = capsys.readouterr().out
        assert "current:  " in out and "artifacts" in out

    def test_cli_reports_unresolvable_directory(self, bench_doc, tmp_path: Path, capsys):
        base = write_bench(bench_doc, tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main_perf(
            ["check", "--baseline", str(base), "--against", str(empty)]
        ) == 2
        assert "no BENCH_" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_bottleneck_reports(self, capsys):
        assert main_perf(
            [
                "explain", "--event", "EV-NOV18",
                "--policies", "seq-original,full-parallel",
                "--scale", "0.02", "--periods", "8", "--workers", "2",
                "--hz", "150",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "== seq-original ==" in out
        assert "== full-parallel ==" in out
        assert "critical path:" in out
        assert "of critical path" in out
        assert "efficiency" in out
        assert "predicted speedup: Amdahl" in out
        # Non-baseline implementations report measured speedup too.
        assert "measured" in out
        assert "span-attributed" in out
