"""The benchmark's workloads and their seeded inputs.

A workload names the catalog events it processes, how far they are
scaled down, the response-period grid, the scheduling policy and
backend, whether a bulletin closes each catalog pass, and whether
telemetry is on.  Inputs come from the benchmark seed only.  The
station network (codes, sampling intervals, distances) and the
per-file point counts follow the catalog event, so every seed gives
the same files, points and work structure; each event's sample seed
is derived from the benchmark seed, so another seed gives different
samples.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import numpy as np

from repro.bench.workloads import scaled_workload
from repro.formats.v1 import write_v1
from repro.synth.dataset import synthesize_station_record
from repro.synth.events import PAPER_EVENTS, EventSpec, paper_event
from repro.synth.network import make_network

#: Pool workers of every parallel workload (the benchmark host's core count).
WORKERS = 2

#: Policy and backend of the byte-identity reference runs.
REFERENCE_POLICY = "seq-optimized"
REFERENCE_BACKEND = "serial"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    events: tuple[str, ...]
    scale: float
    #: Response-period grid size; ``None`` keeps the default 100-period grid.
    periods: int | None
    policy: str
    backend: str
    bulletin: bool
    telemetry: bool
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="event-large-process",
            events=("EV-JUL19B",),
            scale=0.1,
            periods=None,
            policy="dag-parallel",
            backend="process",
            bulletin=False,
            telemetry=False,
            why="the paper's headline case: one large event, dag-parallel on "
            "2 process workers; stage IX numerics and codec volume dominate",
        ),
        Workload(
            name="event-large-serial",
            events=("EV-JUL19B",),
            scale=0.1,
            periods=None,
            policy="seq-optimized",
            backend="serial",
            bulletin=False,
            telemetry=False,
            why="the Sequential Optimized baseline: EV-JUL19B at scale 0.1 "
            "with 100 periods on one core; no pool, so codec and spectra "
            "changes show undiluted",
        ),
        Workload(
            name="bulletin-small",
            events=tuple(e.event_id for e in PAPER_EVENTS),
            scale=0.02,
            periods=10,
            policy="dag-parallel",
            backend="process",
            bulletin=True,
            telemetry=False,
            why="six small events and a bulletin: per-event fixed costs "
            "(pool start, planning, barriers, many small files) dominate",
        ),
        Workload(
            name="bulletin-telemetry",
            events=tuple(e.event_id for e in PAPER_EVENTS),
            scale=0.02,
            periods=10,
            policy="dag-parallel",
            backend="process",
            bulletin=True,
            telemetry=True,
            why="bulletin-small with tracer, metrics, events and profiler on: "
            "the only workload where telemetry does work",
        ),
    )
}

#: The warm-up input run before the clock starts (loads lazy imports
#: and code paths without the cost of a full event).
WARMUP_EVENT = "EV-NOV18"
WARMUP_SCALE = 0.01


def workload(name: str) -> Workload:
    """Look a workload up by name (raises listing the valid names)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def derived_seed(seed: int, index: int) -> int:
    """The sample seed of the workload's ``index``-th event."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def event_specs(wl: Workload, seed: int) -> list[tuple[EventSpec, tuple[int, ...]]]:
    """``(spec, per-file points)`` of each event of the workload.

    Point counts come from the catalog event scaled by the workload;
    only the spec's sample seed depends on ``seed``.
    """
    specs = []
    for index, event_id in enumerate(wl.events):
        catalog = paper_event(event_id)
        points = scaled_workload(catalog, wl.scale).file_points
        specs.append((dataclasses.replace(catalog, seed=derived_seed(seed, index)), points))
    return specs


def write_event(spec: EventSpec, points: tuple[int, ...], directory: Path) -> None:
    """Write one event's V1 files: the catalog event's station network,
    samples drawn from ``spec.seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    stations = make_network(len(points), seed=paper_event(spec.event_id).seed)
    for station, npts in zip(stations, points):
        write_v1(directory / f"{station.code}.v1", synthesize_station_record(spec, station, npts))


def generate_inputs(wl: Workload, seed: int, directory: Path) -> dict[str, int]:
    """Write every event's V1 files under ``directory/<event_id>/``.

    Returns the input point count per event.
    """
    points_by_event = {}
    for spec, points in event_specs(wl, seed):
        write_event(spec, points, directory / spec.event_id)
        points_by_event[spec.event_id] = sum(points)
    return points_by_event


def generate_warmup(wl: Workload, seed: int, directory: Path) -> None:
    """Write the warm-up event's V1 files into ``directory``."""
    catalog = paper_event(WARMUP_EVENT)
    points = scaled_workload(catalog, WARMUP_SCALE).file_points
    write_event(dataclasses.replace(catalog, seed=derived_seed(seed, len(wl.events))),
                points, directory)


def stage_inputs(source: Path, workspace_root: Path) -> None:
    """Give a fresh workspace a copy of one event's V1 files."""
    if workspace_root.exists():
        shutil.rmtree(workspace_root)
    shutil.copytree(source, workspace_root / "input")
