#!/usr/bin/env python
"""Continuous monitoring: from a raw stream to processed products.

The step *before* the paper's pipeline: a station records continuously;
an STA/LTA detector finds the event, the triggered window becomes a V1
record, and the pipeline processes it.  This example simulates an hour
of three-component data with two embedded events, detects them, writes
the V1 files and runs the wavefront pipeline over the result.

Run:  python examples/continuous_monitoring.py
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro import RunContext, policy_by_name
from repro.detect import detect_events
from repro.formats.common import COMPONENTS, Header
from repro.formats.v1 import RawRecord, write_v1
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.source import BruneSource
from repro.synth.stochastic import StochasticSimulator


def simulate_continuous(rng, dt=0.01, hours=0.25):
    """Three components of continuous data with two embedded events."""
    n = int(hours * 3600 / dt)
    streams = {c: rng.normal(size=n) * 0.05 for c in COMPONENTS}
    truth = []
    for magnitude, at_s in ((5.4, 300.0), (4.9, 620.0)):
        sim = StochasticSimulator(source=BruneSource(magnitude=magnitude))
        at = int(at_s / dt)
        for comp in COMPONENTS:
            event = sim.simulate(4000, dt, distance_km=18.0, rng=rng,
                                 pre_event_fraction=0.0)
            scale = 0.6 if comp == "v" else 1.0
            streams[comp][at : at + event.size] += scale * event
        truth.append(at_s)
    return streams, dt, truth


def main() -> int:
    rng = np.random.default_rng(77)
    streams, dt, truth = simulate_continuous(rng)
    n = streams["l"].size
    print(f"Simulated {n * dt / 60:.0f} minutes of continuous data "
          f"with events at {truth} s\n")

    # Detect on the vertical (the usual trigger component).
    windows = detect_events(streams["v"], dt, on_threshold=4.0)
    print(f"STA/LTA found {len(windows)} event window(s):")
    for w in windows:
        print(
            f"  trigger at {w.trigger_on * dt:7.1f} s, window "
            f"[{w.start * dt:7.1f}, {w.stop * dt:7.1f}] s, "
            f"peak ratio {w.peak_ratio:.1f}"
        )

    # Cut each window into a V1 record and process the batch.
    out = tempfile.mkdtemp(prefix="repro-monitor-")
    ctx = RunContext.for_directory(
        out,
        response_config=ResponseSpectrumConfig(periods=default_periods(40),
                                               dampings=(0.05,)),
    )
    for i, w in enumerate(windows):
        station = f"TRG{i + 1:02d}"
        header = Header(
            station=station,
            event_id=f"DET-{i + 1}",
            origin_time="2024-06-01",
            magnitude=0.0,  # unknown until located
            dt=dt,
            npts=w.n_samples,
            units="GAL",
        )
        record = RawRecord(
            header=header,
            components={c: streams[c][w.start : w.stop].copy() for c in COMPONENTS},
        )
        write_v1(ctx.workspace.raw_v1(station), record)
    print(f"\nWrote {len(windows)} triggered V1 record(s) to {ctx.workspace.input_dir}")

    result = policy_by_name("wavefront-parallel").run(ctx)
    print(f"Pipeline processed the detections in {result.total_s:.2f} s")
    from repro.formats.v2 import read_v2

    for station in ctx.stations():
        rec = read_v2(ctx.workspace.component_v2(station, "l"))
        print(f"  {station}: PGA {abs(rec.peaks.pga):6.1f} gal, "
              f"FPL {rec.f_pass_low:.3f} Hz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
