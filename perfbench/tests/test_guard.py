"""The hang and leak guard: a run past its deadline dumps every thread's
stack, is killed with its whole session, and leaves no process behind."""

import argparse
import os
import time
from pathlib import Path

import pytest

import run


def _processes_mentioning(text: str) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            if text.encode() in cmdline:
                found.append(int(entry))
    return found


def test_deadline_dumps_stacks_and_kills_the_session(tmp_path, monkeypatch):
    args = argparse.Namespace(workload="event-large-process", seed=5, seconds=1.0, trace=0)
    log: list[str] = []
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    run.run_phase("prepare", args, tmp_path, log, deadline)
    # The warm-up event alone outlasts this deadline.
    monkeypatch.setattr(run, "EVENT_DEADLINE_S", 0.5)
    with pytest.raises(run.Hang, match="warm-up"):
        run.run_phase("timed", args, tmp_path, log, deadline)
    dump = "\n".join(log)
    assert "HANG" in dump
    assert "most recent call first" in dump
    assert _processes_mentioning(str(tmp_path)) == []


def test_hung_event_counts_as_failed():
    notes = [
        {"t": 0.0, "start": "A", "pass_index": 0},
        {"t": 2.0, "end": "A", "pass_index": 0, "traced": False, "ok": True,
         "mismatch": False, "error": "", "seconds": 2.0, "points": 10, "rss_mb": 1.0},
        {"t": 2.5, "start": "B", "pass_index": 0},
    ]
    (one,) = run.passes_from_notes(notes, hung_at=50.0)
    assert [e["ok"] for e in one["events"]] == [True, False]
    assert one["seconds"] == pytest.approx(2.0 + 47.5)
    metrics = run.end_to_end([one], [1.0], 1.0, 2.0)
    assert metrics["ok_ratio"] == 0.5
    assert metrics["event_s_p50"] == pytest.approx(4.0)
    assert metrics["points_per_s"] == pytest.approx(10 / (49.5 * 2.0))
