"""Tests for the pipeline's logging instrumentation."""

import logging

import pytest

from repro.engine import policy_by_name
from repro.errors import PipelineError
from tests.conftest import make_context


class TestRunLogging:
    def test_start_and_finish_logged(self, workspace_with_input, caplog):
        with caplog.at_level(logging.INFO, logger="repro.core"):
            policy_by_name("seq-optimized").run(workspace_with_input)
        messages = [r.message for r in caplog.records if r.name == "repro.core"]
        assert any("starting run" in m for m in messages)
        assert any("finished in" in m for m in messages)

    def test_per_process_debug_logging(self, workspace_with_input, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            policy_by_name("seq-optimized").run(workspace_with_input)
        messages = [r.message for r in caplog.records]
        assert any(m.startswith("P16 ") for m in messages)

    def test_failure_logged_with_traceback(self, tmp_path, caplog):
        ctx = make_context(tmp_path / "empty")
        (ctx.workspace.input_dir / "BAD.v1").write_text("garbage\n")
        with caplog.at_level(logging.ERROR, logger="repro.core"):
            with pytest.raises(Exception):
                policy_by_name("seq-optimized").run(ctx)
        assert any("run failed" in r.message for r in caplog.records)

    def test_incremental_skip_logging(self, workspace_with_input, caplog):
        policy_by_name("incremental").run(workspace_with_input)
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            policy_by_name("incremental").run(workspace_with_input)
        messages = [r.message for r in caplog.records]
        assert any("up to date, skipped" in m for m in messages)
        assert any("restored from the output cache" in m for m in messages)
