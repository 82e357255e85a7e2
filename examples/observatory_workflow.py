#!/usr/bin/env python
"""Observatory workflow: from a fresh event to engineering products.

The scenario motivating the paper's introduction: a seismic event has
just been recorded by the network and the observatory must turn the
raw accelerograms into hazard products — peak-motion tables for the
situation report, response spectra for structural engineers, GEM
exports for risk modeling, and the three plot sets.

Run:  python examples/observatory_workflow.py [output_dir]
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro import EventSpec, RunContext, generate_event_dataset, policy_by_name
from repro.core.context import ParallelSettings
from repro.formats.gem import read_gem
from repro.formats.params import read_filter_params
from repro.formats.response import read_response
from repro.formats.v2 import read_v2
from repro.units import gal_to_g


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-obs-")

    # A moderately strong local event, eight triggered stations.
    event = EventSpec("EV-LOCAL", "2024-06-01", 6.1, 8, 120_000, seed=2024_06_01)
    ctx = RunContext.for_directory(
        out_dir, parallel=ParallelSettings(num_workers=4)
    )
    manifest = generate_event_dataset(event, ctx.workspace.input_dir)
    print(
        f"Event {event.event_id} (M{event.magnitude}): {manifest.n_files} stations, "
        f"{manifest.total_points:,} data points"
    )

    result = policy_by_name("full-parallel").run(ctx)
    print(f"Processed in {result.total_s:.1f} s (fully-parallelized pipeline)\n")

    # --- situation report: PGA per station --------------------------------
    print("Situation report — peak horizontal acceleration:")
    print(f"{'station':>8} {'dist km':>8} {'PGA gal':>9} {'PGA %g':>7}")
    for station in manifest.stations:
        pga = 0.0
        for comp in ("l", "t"):
            rec = read_v2(ctx.workspace.component_v2(station.code, comp))
            pga = max(pga, abs(rec.peaks.pga))
        print(
            f"{station.code:>8} {station.distance_km:8.1f} {pga:9.2f} "
            f"{100 * gal_to_g(pga):7.2f}"
        )

    # --- engineer's view: worst-case design spectrum ------------------------
    print("\nEnvelope 5%-damped SA across the network (gal):")
    periods = None
    envelope = None
    for station in manifest.stations:
        for comp in ("l", "t"):
            rec = read_response(ctx.workspace.component_r(station.code, comp))
            d_idx = int(np.argmin(np.abs(rec.dampings - 0.05)))
            if envelope is None:
                periods = rec.periods
                envelope = rec.sa[d_idx].copy()
            else:
                envelope = np.maximum(envelope, rec.sa[d_idx])
    for t in (0.1, 0.3, 0.5, 1.0, 3.0):
        idx = int(np.argmin(np.abs(periods - t)))
        print(f"  T = {t:4.1f} s : SA = {envelope[idx]:8.2f} gal")

    # --- record quality: the per-trace filter corners P10 chose -------------
    params = read_filter_params(ctx.workspace.work("filter_corrected.par"))
    fpls = [spec.f_pass_low for spec in params.overrides.values()]
    print(
        f"\nDefinitive low-frequency corners (FPL): "
        f"min {min(fpls):.3f} Hz, median {sorted(fpls)[len(fpls)//2]:.3f} Hz, "
        f"max {max(fpls):.3f} Hz across {len(fpls)} traces"
    )

    # --- downstream exports ---------------------------------------------------
    gem = read_gem(ctx.workspace.gem(manifest.stations[0].code, "l", "R", "A"))
    n_gem = len(list(ctx.workspace.work_dir.glob("*.gem")))
    print(f"\n{n_gem} GEM files exported (18 per station); e.g. "
          f"{manifest.stations[0].code}lRA.gem holds {gem.values.size} SA samples")
    n_ps = len(list(ctx.workspace.work_dir.glob("*.ps")))
    print(f"{n_ps} PostScript plot sets rendered under {ctx.workspace.work_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
