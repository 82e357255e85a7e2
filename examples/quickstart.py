#!/usr/bin/env python
"""Quickstart: generate a synthetic event and process it end-to-end.

Creates a three-station event, runs the fully-parallelized pipeline on
it through the one-call :func:`repro.run` facade (recording a span
trace on the way), and prints the headline engineering quantities:
per-station peak ground motion and the 5%-damped spectral acceleration
at a few building periods.

Run:  python examples/quickstart.py [output_dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import EventSpec
from repro.formats.response import read_response
from repro.formats.v2 import read_v2


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-quickstart-")

    # 1+2. A synthetic M5.6 event recorded by three stations (~30k
    # points), processed by the fully-parallelized pipeline — one call.
    event = EventSpec("QUICKSTART", "2024-03-15", 5.6, 3, 30_000, seed=20240315)
    trace_path = Path(out_dir) / "quickstart.trace.json"
    result = repro.run(event, policy="full-parallel", workspace=out_dir, trace=trace_path)
    ctx = repro.RunContext.for_directory(out_dir)
    print(f"Workspace: {out_dir}\n")
    print(f"Pipeline finished in {result.total_s:.2f} s")
    for line in result.summary_lines()[1:]:
        print(line)
    n_spans = len(result.trace.spans) if result.trace else 0
    print(f"\nSpan trace ({n_spans} spans) written to {trace_path}")
    print("  -> open it in chrome://tracing or https://ui.perfetto.dev")

    # 3. Read back the engineering products.
    print("\nPeak ground motion (definitive corrected records):")
    print(f"{'station':>8} {'comp':>4} {'PGA gal':>10} {'PGV cm/s':>10} {'PGD cm':>8}")
    for station in ctx.stations():
        for comp in ("l", "t", "v"):
            rec = read_v2(ctx.workspace.component_v2(station, comp))
            p = rec.peaks
            print(
                f"{station:>8} {comp:>4} {abs(p.pga):10.2f} {abs(p.pgv):10.3f} "
                f"{abs(p.pgd):8.4f}"
            )

    print("\n5%-damped spectral acceleration (gal) at common building periods:")
    building_periods = [0.2, 0.5, 1.0, 2.0]
    header = " ".join(f"T={t:.1f}s" for t in building_periods)
    print(f"{'station':>8} {'comp':>4}  {header}")
    for station in ctx.stations():
        for comp in ("l", "t"):
            rec = read_response(ctx.workspace.component_r(station, comp))
            d_idx = int(np.argmin(np.abs(rec.dampings - 0.05)))
            values = [
                rec.sa[d_idx, int(np.argmin(np.abs(rec.periods - t)))]
                for t in building_periods
            ]
            cells = " ".join(f"{v:6.1f}" for v in values)
            print(f"{station:>8} {comp:>4}  {cells}")

    print(f"\nAll artifacts (V2/F/R/GEM/plots) are under {ctx.workspace.work_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
