"""One phase of one benchmark run, in a fresh interpreter.

``run.py`` starts this script five times per run, each in a fresh
interpreter whose first act is to time its own set-up (import
``repro``, resolve and plan the workload's policy):

- ``probe``   — set-up only (three times);
- ``prepare`` — generate the seeded inputs and run the serial
  ``seq-optimized`` references (artifact digests, bulletin rows);
- ``timed``   — run the workload's events back to back for the given
  seconds, checking each event's artifacts against the references.

Each phase also times the host-speed kernel (``hostspeed.py``) off the
clock.  Each phase writes its result as JSON to ``--out``.  ``timed``
also appends one line per event boundary and per kernel sample to
``--progress``, which ``run.py`` reads to enforce the per-event
deadline.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401
from repro.core.context import ParallelSettings, RunContext  # noqa: E402
from repro.core.verify import verify_inventory, workspace_digests  # noqa: E402
from repro.engine.policy import resolve_policy  # noqa: E402
from repro.spectra.response import ResponseSpectrumConfig, default_periods  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: Fewest timed passes of a run (one pass = the workload's events once).
MIN_PASSES = 2
#: Host-speed kernel runs in each set-up phase, and before each timed
#: event and after the last.
CALIBRATION_REPEATS = 2

#: Bulletin columns compared with the reference (all numeric columns
#: except the processing time).
BULLETIN_COLUMNS = (
    "n_stations", "total_points", "magnitude", "max_pga_gal", "max_pga_station",
    "max_sa02_gal", "max_sa10_gal", "max_arias_cm_s", "max_significant_duration_s",
    "status",
)


def setup(wl: workloads.Workload, workdir: Path):
    """Resolve and plan the workload's policy; returns (policy, setup_s)."""
    policy = resolve_policy(wl.policy)
    ctx = RunContext.for_directory(workdir / "plan")
    graph, regions = policy.plan(ctx)
    graph.validate_regions(regions)
    return policy, time.perf_counter() - _T0


def make_context(wl: workloads.Workload, root: Path, *, reference: bool = False) -> RunContext:
    """A run context for one event of the workload (or its reference)."""
    kwargs = {}
    if wl.periods is not None:
        kwargs["response_config"] = ResponseSpectrumConfig(periods=default_periods(wl.periods))
    backend = workloads.REFERENCE_BACKEND if reference else wl.backend
    ctx = RunContext.for_directory(
        root, parallel=ParallelSettings.uniform(backend, workloads.WORKERS), **kwargs
    )
    if wl.telemetry and not reference:
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.profiling import SamplingProfiler
        from repro.observability.tracer import Tracer

        ctx.tracer = Tracer()
        ctx.metrics = MetricsRegistry()
        ctx.events = True
        ctx.profiler = SamplingProfiler()
    return ctx


def tree_digest(ctx: RunContext) -> str:
    """One digest over every artifact path and content under work/."""
    h = hashlib.sha256()
    for name, digest in sorted(workspace_digests(ctx.workspace).items()):
        h.update(f"{name}\0{digest}\n".encode())
    return h.hexdigest()


def bulletin_columns(summary) -> dict:
    """The bulletin row's columns that must match the reference."""
    return {column: getattr(summary, column) for column in BULLETIN_COLUMNS}


def run_event(wl, pipeline, spec, source: Path, root: Path, *, reference=False):
    """Stage one event's inputs, then time its run and output check.

    Returns ``(seconds, ctx, result, digest, summary)``, where
    ``summary`` is the event's bulletin row on bulletin workloads;
    staging is outside the clock.
    """
    workloads.stage_inputs(source, root)
    t0 = time.perf_counter()
    ctx = make_context(wl, root, reference=reference)
    result = pipeline.run(ctx)
    report = verify_inventory(ctx.workspace)
    if not report.ok:
        raise OutputMismatch(f"{spec.event_id}: artifact inventory\n{report.render()}")
    digest = tree_digest(ctx)
    summary = None
    if wl.bulletin:
        from repro.core.batch import summarize_event_run

        summary = summarize_event_run(ctx, spec, result)
    return time.perf_counter() - t0, ctx, result, digest, summary


class OutputMismatch(Exception):
    """An event's artifacts differ from the reference."""


def _files_digest(base: Path, paths) -> str:
    """Digest of the files' paths (relative to ``base``) and contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reference_key(wl: workloads.Workload, inputs: Path) -> str:
    """Identifies a reference: the inputs, the numerical settings, and
    the program and benchmark sources that produce and check it."""
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return hashlib.sha256(json.dumps([
        workloads.REFERENCE_POLICY, wl.periods, wl.bulletin,
        _files_digest(ROOT, (p for p in sources if p.is_file())),
        _files_digest(inputs, (p for p in inputs.rglob("*") if p.is_file())),
    ]).encode()).hexdigest()


def phase_prepare(args, wl, workdir: Path) -> dict:
    """Generate the inputs, then reuse or compute their serial references.

    References are kept in ``<workdir>/../references`` by
    :func:`reference_key`: workloads sharing inputs (the two large
    workloads, the two bulletins) and repeated seeds compute them once.
    """
    _, setup_s = setup(wl, workdir)
    calibration = hostspeed.sample(workdir / "hostspeed.txt", CALIBRATION_REPEATS)
    inputs = workdir / "inputs"
    points = workloads.generate_inputs(wl, args.seed, inputs)
    workloads.generate_warmup(wl, args.seed, workdir / "warmup-input")
    cache = workdir.parent / "references" / f"{reference_key(wl, inputs)}.json"
    if cache.is_file():
        return {"setup_s": setup_s, "calibration": calibration,
                "events": json.loads(cache.read_text())}
    if (wl.policy, wl.backend) == (workloads.REFERENCE_POLICY, workloads.REFERENCE_BACKEND):
        # The timed events are themselves serial reference runs of these
        # inputs: the first one that finishes is the reference.
        return {"setup_s": setup_s, "calibration": calibration, "events": {
            event_id: {"digest": None, "row": None, "points": n}
            for event_id, n in points.items()
        }}
    reference = resolve_policy(workloads.REFERENCE_POLICY).pipeline()
    events = {}
    for spec, _ in workloads.event_specs(wl, args.seed):
        _, _, _, digest, summary = run_event(
            wl, reference, spec, inputs / spec.event_id, workdir / "reference", reference=True
        )
        events[spec.event_id] = {
            "digest": digest,
            "row": bulletin_columns(summary) if summary is not None else None,
            "points": points[spec.event_id],
        }
    shutil.rmtree(workdir / "reference")
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(events))
    os.replace(tmp, cache)
    return {"setup_s": setup_s, "calibration": calibration, "events": events}


def _tree_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def phase_timed(args, wl, workdir: Path) -> dict:
    policy, setup_s = setup(wl, workdir)
    pipeline = policy.pipeline()
    reference = json.loads((workdir / "prepare.json").read_text())["events"]
    specs = [spec for spec, _ in workloads.event_specs(wl, args.seed)]
    with open(args.progress, "a", buffering=1) as progress:

        def note(**fields) -> None:
            progress.write(json.dumps({"t": time.time(), **fields}) + "\n")

        def calibrate() -> None:
            note(calibration=hostspeed.sample(workdir / "hostspeed.txt", CALIBRATION_REPEATS))

        # Warm-up: lazy imports and first-use code paths, off the clock.
        warm_spec = workloads.paper_event(workloads.WARMUP_EVENT)
        note(warmup=True)
        run_event(wl, pipeline, warm_spec, workdir / "warmup-input", workdir / "ws")
        note(warmup_done=True)

        recorder = None
        layer_extra = {"fs.files_written": 0, "fs.bytes_written": 0,
                       "observability.event_log_bytes": 0, "observability.spans": 0,
                       "observability.profile_samples": 0}
        clock0 = time.perf_counter()
        # Passes run back to back until --seconds have passed and at least
        # MIN_PASSES are done: a large event takes most of the seconds, and
        # a median needs more than one sample.  With --trace 1 the first
        # pass is the untraced baseline of the tracing overhead; every
        # later pass is traced.
        for index in itertools.count():
            if index >= MIN_PASSES and time.perf_counter() - clock0 >= args.seconds:
                break
            traced = bool(args.trace) and index > 0
            if traced and recorder is None:
                import layertrace

                recorder = layertrace.install(workdir / "layertrace")
            summaries = []
            for spec in specs:
                ref = reference[spec.event_id]
                calibrate()
                note(start=spec.event_id, pass_index=index)
                ok, mismatch, error, seconds = True, False, "", 0.0
                try:
                    seconds, ctx, result, digest, summary = run_event(
                        wl, pipeline, spec, workdir / "inputs" / spec.event_id, workdir / "ws"
                    )
                    if ref["digest"] is None:
                        ref["digest"] = digest
                        ref["row"] = bulletin_columns(summary) if summary is not None else None
                    if digest != ref["digest"]:
                        raise OutputMismatch(f"{spec.event_id}: artifact digest differs from reference")
                    if summary is not None and bulletin_columns(summary) != ref["row"]:
                        raise OutputMismatch(
                            f"{spec.event_id}: bulletin row {bulletin_columns(summary)} "
                            f"!= reference {ref['row']}"
                        )
                except OutputMismatch as exc:
                    ok, mismatch, error = False, True, str(exc)
                except Exception:  # an event that raises counts as failed
                    ok, error = False, traceback.format_exc()
                note(end=spec.event_id, pass_index=index, traced=traced, ok=ok,
                     mismatch=mismatch, error=error, seconds=seconds,
                     points=ref["points"] if ok else 0, rss_mb=peak_rss_mb())
                if not ok:
                    continue
                summaries.append(summary)
                if traced:
                    files, size = _tree_bytes(ctx.workspace.work_dir)
                    layer_extra["fs.files_written"] += files
                    layer_extra["fs.bytes_written"] += size
                    events_dir = ctx.workspace.root / ".events"
                    if events_dir.is_dir():
                        layer_extra["observability.event_log_bytes"] += _tree_bytes(events_dir)[1]
                    if result.trace is not None:
                        layer_extra["observability.spans"] += len(result.trace.spans)
                    if result.profile is not None:
                        layer_extra["observability.profile_samples"] += (
                            result.profile.total_samples
                        )
            render_s = 0.0
            if wl.bulletin and summaries:
                from repro.core.batch import Bulletin

                t0 = time.perf_counter()
                Bulletin(title="benchmark bulletin", events=summaries).render()
                render_s = time.perf_counter() - t0
            note(pass_done=index, seconds=render_s)
        calibrate()
        note(done=True)
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "workers": workloads.WORKERS}
    if recorder is not None:
        out["layers"] = recorder.collect()
        out["layer_extra"] = layer_extra
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest pool worker."""
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_rss + child_rss) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("probe", "prepare", "timed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--progress", type=Path)
    args = parser.parse_args(argv)
    # A stuck run is sent SIGUSR1 before it is killed: every thread's
    # stack goes to stderr, in this process and in its forked workers.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    wl = workloads.workload(args.workload)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.phase == "probe":
        _, setup_s = setup(wl, args.workdir / "probe")
        out = {"setup_s": setup_s, "calibration": hostspeed.sample(
            args.workdir / "probe" / "hostspeed.txt", CALIBRATION_REPEATS)}
    elif args.phase == "prepare":
        out = phase_prepare(args, wl, args.workdir)
    else:
        out = phase_timed(args, wl, args.workdir)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
