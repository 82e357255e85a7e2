"""The repository benchmark: per-event latency and catalog throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload event-large-serial --seed 1 \\
        --seconds 35 --trace 0

One run measures set-up five times (three set-up probes, the ``prepare``
phase and the ``timed`` phase, each a fresh interpreter), generates the
seeded inputs and their serial references, then runs the workload's
events back to back for ``--seconds`` under a per-event deadline.  The
end-to-end timings are scaled to a reference host speed by a kernel
timed throughout the run (``hostspeed.py``).  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see ``perfbench/README.md``).  The command exits
non-zero when an event's artifacts differ from the reference, when a
child process outlives its run, or when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: An event running longer than this is declared hung.
EVENT_DEADLINE_S = 45.0
#: Ceiling on the whole run: every phase is killed past it.
RUN_DEADLINE_S = 170.0
#: Time each process of a hung session gets to dump its stacks.
DUMP_GRACE_S = 0.5
#: Set-up-only interpreters per run; with ``prepare`` and ``timed``,
#: ``setup_s`` is the median of this many plus two set-ups.
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "event_s_p50": "s",
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metrics of a traced run (per pass: one event, or one
#: catalog) with their units, in report order.  Their times are as
#: measured, not scaled to the reference host speed.
LAYER_UNITS = {
    "formats.calls": "count",
    "formats.read_calls": "count",
    "formats.read_s": "s",
    "formats.read_bytes": "bytes",
    "formats.write_calls": "count",
    "formats.write_s": "s",
    "formats.write_bytes": "bytes",
    "formats.points": "count",
    "formats.codec_s": "s",
    "fs.io_s": "s",
    "fs.files_written": "count",
    "fs.bytes_written": "bytes",
    "dsp.calls": "count",
    "dsp.s": "s",
    "spectra.calls": "count",
    "spectra.s": "s",
    "spectra.oscillator_steps": "count",
    "plotting.calls": "count",
    "plotting.s": "s",
    "plotting.bytes": "bytes",
    "core.calls": "count",
    **{f"core.P{pid:02d}_s": "s" for pid in range(20)},
    "core.tempfolder_calls": "count",
    "core.tempfolder_s": "s",
    "engine.calls": "count",
    "engine.s": "s",
    "engine.self_s": "s",
    "engine.regions": "count",
    "parallel.calls": "count",
    "parallel.loop_calls": "count",
    "parallel.task_calls": "count",
    "parallel.pool_starts": "count",
    "parallel.pool_start_s": "s",
    "parallel.driver_wait_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.utilization": "ratio",
    "resilience.calls": "count",
    "resilience.retries": "count",
    "resilience.quarantined": "count",
    "observability.calls": "count",
    "observability.emit_calls": "count",
    "observability.emit_s": "s",
    "observability.event_log_bytes": "bytes",
    "observability.spans": "count",
    "observability.profile_samples": "count",
    "trace.untraced_event_s_p50": "s",
    "trace.traced_event_s_p50": "s",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
}


class Hang(Exception):
    """A phase passed its deadline and was killed with its session."""


def session_members(sid: int) -> list[int]:
    """Pids of live processes in session ``sid`` (Linux /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_phase(phase: str, args, workdir: Path, log: list[str], deadline: float) -> dict:
    """Run one benchmark phase in its own session, under the deadlines.

    ``deadline`` is the ``time.monotonic()`` by which the phase must
    end.  On a hang (an event past :data:`EVENT_DEADLINE_S`, or the
    phase past ``deadline``) every process of the session dumps its
    threads' stacks (faulthandler, SIGUSR1) into the log, then the
    whole session is killed and :class:`Hang` raised.  A process left
    in the session after the phase is killed and fails the run.
    """
    out = workdir / f"{phase}.json"
    progress = workdir / f"{phase}.progress"
    stderr_path = workdir / f"{phase}.stderr"
    cmd = [
        sys.executable, str(HERE / "phases.py"), phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--out", str(out), "--progress", str(progress),
    ]
    env = dict(os.environ)
    env.pop("REPRO_LEDGER", None)
    env["TMPDIR"] = str(workdir)
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=stderr, stderr=stderr, env=env,
            start_new_session=True,
        )
        hung = None
        while proc.poll() is None:
            time.sleep(0.2)
            running = current_event(read_notes(progress))
            if running is not None and time.time() - running[1] > EVENT_DEADLINE_S:
                hung = f"event {running[0]} passed its {EVENT_DEADLINE_S:.0f} s deadline"
            elif time.monotonic() > deadline:
                hung = f"{phase} phase passed the run's {RUN_DEADLINE_S:.0f} s deadline"
            if hung:
                # One process at a time, so the dumps do not interleave.
                for pid in session_members(proc.pid):
                    try:
                        os.kill(pid, signal.SIGUSR1)
                    except ProcessLookupError:
                        pass
                    time.sleep(DUMP_GRACE_S)
                kill_session(proc.pid)
                proc.wait()
                break
    leaked = session_members(proc.pid)
    if leaked:
        kill_session(proc.pid)
        log.append(f"{phase}: {len(leaked)} process(es) outlived the phase: {leaked}")
    text = stderr_path.read_text(errors="replace")
    if hung:
        log.append(f"{phase}: HANG: {hung}; thread stacks follow")
        log.append(text)
        raise Hang(hung)
    if proc.returncode != 0:
        log.append(text)
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    if leaked:
        raise RuntimeError(f"{phase} phase leaked processes {leaked}")
    return json.loads(out.read_text())


def read_notes(progress: Path) -> list[dict]:
    """The timed phase's progress notes (a line still being written is skipped)."""
    try:
        lines = progress.read_text().splitlines()
    except OSError:
        return []
    notes = []
    for line in lines:
        try:
            notes.append(json.loads(line))
        except ValueError:
            continue
    return notes


def current_event(notes: list[dict]) -> tuple[str, float] | None:
    """``(label, start time)`` of the event now running, if any."""
    running = None
    for note in notes:
        if "start" in note:
            running = (note["start"], note["t"])
        elif "warmup" in note:
            running = ("warm-up", note["t"])
        elif "end" in note or "warmup_done" in note:
            running = None
    return running


def passes_from_notes(notes: list[dict], hung_at: float | None = None) -> list[dict]:
    """Rebuild the timed passes from the progress notes.

    With ``hung_at`` (the wall time of the kill), the event left
    running counts as a failed event whose time up to the kill belongs
    to its pass's wall-clock.
    """
    passes: dict[int, dict] = {}

    def get(index: int, traced: bool = False) -> dict:
        return passes.setdefault(
            index, {"traced": traced, "events": [], "seconds": 0.0, "points": 0}
        )

    running = None
    for note in notes:
        if "start" in note:
            running = note
        elif "end" in note:
            running = None
            one = get(note["pass_index"], note["traced"])
            one["events"].append(note)
            one["seconds"] += note["seconds"]
            one["points"] += note["points"]
        elif "pass_done" in note and note["pass_done"] in passes:
            passes[note["pass_done"]]["seconds"] += note["seconds"]
    if hung_at is not None and running is not None:
        one = get(running["pass_index"])
        one["events"].append({"end": running["start"], "ok": False, "mismatch": False,
                              "error": "hang", "seconds": 0.0, "points": 0})
        one["seconds"] += hung_at - running["t"]
    return [passes[i] for i in sorted(passes)]


def event_p50(passes: list[dict]) -> float:
    """Median over the workload's events of each event's median seconds.

    Taking each event's median first keeps a catalog's median from
    depending on how many passes the run made.
    """
    times: dict[str, list[float]] = {}
    for one in passes:
        for e in one["events"]:
            if e["ok"]:
                times.setdefault(e["end"], []).append(e["seconds"])
    if not times:
        return 0.0
    return statistics.median(statistics.median(t) for t in times.values())


def end_to_end(passes: list[dict], setups: list[float], rss_mb: float,
               scale: float) -> dict:
    """The end-to-end metrics.  Event times are multiplied by ``scale``,
    the timed phase's factor from measured to reference-host-speed
    seconds; ``setups`` are already scaled."""
    events = [e for p in passes for e in p["events"]]
    wall = sum(p["seconds"] for p in passes) * scale
    points = sum(p["points"] for p in passes)
    return {
        "event_s_p50": event_p50(passes) * scale,
        "points_per_s": points / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_ratio": sum(e["ok"] for e in events) / len(events),
    }


def per_layer(timed: dict, passes: list[dict], calibration: list[float]) -> dict:
    """Per-layer metrics from the traced passes, per pass (one event or
    one catalog), plus the tracing overhead."""
    s = timed["layers"]
    extra = timed["layer_extra"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)

    def g(key: str) -> float:
        return s.get(key, 0.0) / n

    main_wait = (s.get("parallel#incl", 0.0) - s.get("worker:parallel#incl", 0.0)) / n
    busy = g("parallel.busy#s")
    m = {
        "formats.calls": g("formats.read#calls") + g("formats.write#calls") + g("formats.codec#calls"),
        "formats.read_calls": g("formats.read#calls"),
        "formats.read_s": g("formats.read#incl"),
        "formats.read_bytes": g("formats.read#bytes"),
        "formats.write_calls": g("formats.write#calls"),
        "formats.write_s": g("formats.write#incl"),
        "formats.write_bytes": g("formats.write#bytes"),
        "formats.points": g("formats.codec#points"),
        "formats.codec_s": g("formats.codec#self"),
        "fs.io_s": g("formats.read#self") + g("formats.write#self") + g("plotting.plot#self"),
        "fs.files_written": extra["fs.files_written"] / n,
        "fs.bytes_written": extra["fs.bytes_written"] / n,
        "dsp.calls": g("dsp.call#calls"),
        "dsp.s": g("dsp#incl"),
        "spectra.calls": g("spectra.call#calls"),
        "spectra.s": g("spectra#incl"),
        "spectra.oscillator_steps": g("spectra.call#oscillator_steps"),
        "plotting.calls": g("plotting.plot#calls"),
        "plotting.s": g("plotting#incl"),
        "plotting.bytes": g("plotting.plot#bytes"),
        "core.calls": sum(g(f"core.P{p:02d}#calls") for p in range(20))
        + g("core.tempfolder#calls"),
    }
    for pid in range(20):
        m[f"core.P{pid:02d}_s"] = g(f"core.P{pid:02d}#top")
    m.update({
        "core.tempfolder_calls": g("core.tempfolder#calls"),
        "core.tempfolder_s": g("core.tempfolder#incl"),
        "engine.calls": g("engine.execute#calls"),
        "engine.s": g("engine#incl"),
        "engine.self_s": g("engine.execute#self") + g("engine.region#self"),
        "engine.regions": g("engine.region#calls"),
        "parallel.calls": g("parallel.loop#calls") + g("parallel.task#calls")
        + g("parallel.wait#calls"),
        "parallel.loop_calls": g("parallel.loop#calls"),
        "parallel.task_calls": g("parallel.task#calls"),
        "parallel.pool_starts": g("parallel.pool#starts"),
        "parallel.pool_start_s": g("parallel.pool#start_s"),
        "parallel.driver_wait_s": main_wait,
        "parallel.worker_busy_s": busy,
        "parallel.utilization": (
            busy / (timed["workers"] * main_wait) if main_wait > 0 else 0.0
        ),
        "resilience.calls": g("resilience.lookup#calls") + g("resilience.retry#calls")
        + g("resilience.quarantine#calls"),
        "resilience.retries": g("resilience.retry#calls"),
        "resilience.quarantined": g("resilience.quarantine#calls"),
        "observability.calls": g("observability.emit#calls"),
        "observability.emit_calls": g("observability.emit#calls"),
        "observability.emit_s": g("observability.emit#incl"),
        "observability.event_log_bytes": extra["observability.event_log_bytes"] / n,
        "observability.spans": extra["observability.spans"] / n,
        "observability.profile_samples": extra["observability.profile_samples"] / n,
    })

    m["trace.untraced_event_s_p50"] = event_p50(untraced)
    m["trace.traced_event_s_p50"] = event_p50(traced)
    m["trace.overhead_s"] = m["trace.traced_event_s_p50"] - m["trace.untraced_event_s_p50"]
    m["host.calibration_s"] = statistics.mean(calibration)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    log: list[str] = []
    try:
        return measure(args, workdir, log)
    finally:
        for line in log:
            print(line)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, log: list[str]) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    phases = [run_phase("probe", args, workdir, log, deadline) for _ in range(SETUP_PROBES)]
    phases.append(run_phase("prepare", args, workdir, log, deadline))
    setups = [p["setup_s"] for p in phases]
    setup_calibration = [s for p in phases for s in p["calibration"]]
    progress = workdir / "timed.progress"
    try:
        timed = run_phase("timed", args, workdir, log, deadline)
    except Hang:
        # The hung event counts as failed; nothing is retried.  A
        # traced run has lost its main process's counters, so it reports none.
        if args.trace:
            return 1
        timed = None
        passes = passes_from_notes(read_notes(progress), hung_at=time.time())
    else:
        setups.append(timed["setup_s"])
        passes = passes_from_notes(read_notes(progress))
    events = [e for p in passes for e in p["events"]]
    if not any(e["ok"] for e in events):
        log.append("no event finished; nothing to report")
        return 1
    for e in events:
        if not e["ok"]:
            log.append(f"FAILED {e['end']}: {e['error']}")
    mismatch = any(e["mismatch"] for e in events)
    failed = sum(not e["ok"] for e in events)
    log.append(
        f"{args.workload} seed={args.seed}: {len(events)} events in {len(passes)} "
        f"pass(es), failed_ratio={failed / len(events):.3f}, event seconds "
        + " ".join(f"{e['seconds']:.2f}" for e in events)
    )
    rss = timed["peak_rss_mb"] if timed else max(e.get("rss_mb", 0.0) for e in events)
    # The kernel times taken beside each set of timings scale them.
    calibration = [s for note in read_notes(progress) for s in note.get("calibration", ())]
    scale = hostspeed.factor(calibration)
    setup_scale = hostspeed.factor(setup_calibration)
    log.append(
        f"host speed: kernel {statistics.mean(calibration):.4f} s timed, "
        f"{statistics.mean(setup_calibration):.4f} s set-up (reference "
        f"{hostspeed.REFERENCE_S} s); measured event_s_p50 {event_p50(passes):.4f} s, "
        f"setup_s {statistics.median(setups):.4f} s; scaled by {scale:.4f} and {setup_scale:.4f}"
    )
    if args.trace:
        metrics = per_layer(timed, passes, calibration)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(passes, [s * setup_scale for s in setups], rss, scale)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        log.append(f"  {name:<34} {value:>16.6g} {units[name]}")
    for line in log:
        print(line)
    log.clear()
    print(json.dumps({
        "correct": not mismatch,
        "attempted": len(events),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
