"""Tests for run-configuration files."""

import json

import numpy as np
import pytest

from repro.core.config_io import (
    config_from_context,
    context_from_config,
    load_config,
    save_config,
)
from repro.errors import PipelineError
from tests.conftest import make_context


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PipelineError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PipelineError):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PipelineError):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"filtre": {}}))
        with pytest.raises(PipelineError, match="filtre"):
            load_config(path)

    def test_empty_config_ok(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert load_config(path) == {}


class TestContextFromConfig:
    def test_defaults_from_empty(self, tmp_path):
        ctx = context_from_config(tmp_path / "ws", {})
        assert ctx.default_filter.f_pass_low == pytest.approx(0.10)
        assert ctx.response_config.periods.size == 100
        assert ctx.taper_fraction == pytest.approx(0.05)

    def test_filter_overrides(self, tmp_path):
        config = {"filter": {"f_pass_low": 0.2, "f_stop_low": 0.1}}
        ctx = context_from_config(tmp_path / "ws", config)
        assert ctx.default_filter.f_pass_low == pytest.approx(0.2)
        assert ctx.default_filter.f_pass_high == pytest.approx(25.0)

    def test_period_grid_spec(self, tmp_path):
        config = {"response": {"periods": {"count": 12, "t_min": 0.1, "t_max": 5.0}}}
        ctx = context_from_config(tmp_path / "ws", config)
        assert ctx.response_config.periods.size == 12
        assert ctx.response_config.periods[0] == pytest.approx(0.1)
        assert ctx.response_config.periods[-1] == pytest.approx(5.0)

    def test_explicit_period_list(self, tmp_path):
        config = {"response": {"periods": [0.5, 1.0, 2.0], "dampings": [0.05]}}
        ctx = context_from_config(tmp_path / "ws", config)
        assert np.allclose(ctx.response_config.periods, [0.5, 1.0, 2.0])
        assert ctx.response_config.dampings == (0.05,)

    def test_parallel_section(self, tmp_path):
        config = {"parallel": {"loop_backend": "process", "num_workers": 3}}
        ctx = context_from_config(tmp_path / "ws", config)
        assert ctx.parallel.loop_backend.value == "process"
        assert ctx.parallel.workers == 3

    def test_bad_filter_rejected_at_build(self, tmp_path):
        from repro.errors import ReproError

        config = {"filter": {"f_pass_low": 0.01}}  # below f_stop_low
        ctx = context_from_config(tmp_path / "ws", config)
        # The spec validates lazily, at design time.
        from repro.dsp.fir import design_bandpass

        with pytest.raises(ReproError):
            design_bandpass(ctx.default_filter, 0.01)


class TestRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        ctx = make_context(tmp_path / "ws")
        path = tmp_path / "config.json"
        save_config(path, ctx)
        rebuilt = context_from_config(tmp_path / "ws2", load_config(path))
        assert np.allclose(rebuilt.response_config.periods, ctx.response_config.periods)
        assert rebuilt.response_config.dampings == tuple(ctx.response_config.dampings)
        assert rebuilt.default_filter == ctx.default_filter
        assert rebuilt.inflection == ctx.inflection
        assert rebuilt.taper_fraction == ctx.taper_fraction

    def test_config_dict_is_json_serializable(self, tmp_path):
        ctx = make_context(tmp_path / "ws")
        json.dumps(config_from_context(ctx))


class TestCliIntegration:
    def test_process_with_config(self, tmp_path, tiny_dataset_dir, capsys):
        import shutil

        from repro.cli import main_process

        ws = tmp_path / "ws"
        (ws / "input").mkdir(parents=True)
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ws / "input" / src.name)
        config = {
            "response": {"periods": {"count": 8}, "dampings": [0.05]},
            "parallel": {"num_workers": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main_process([str(ws), "--policy", "seq-optimized", "--config", str(cfg_path)])
        assert rc == 0
        from repro.formats.response import read_response
        from repro.core import Workspace

        r_file = next(Workspace(ws).work_dir.glob("*.r"))
        assert read_response(r_file).periods.size == 8
