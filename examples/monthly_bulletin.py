#!/usr/bin/env python
"""Monthly bulletin: batch-process a catalog of events.

The observatory's recurring workload (paper ref. [21]: hundreds of
events per month): every event in a catalog is processed through the
pipeline and summarized into the monthly seismic-activity bulletin —
peak motions, spectral highlights, intensity measures and processing
statistics.

Run:  python examples/monthly_bulletin.py [scale]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core.batch import BatchRunner
from repro.core.context import ParallelSettings
from repro.engine import policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.events import EventSpec

#: A synthetic month of notable events.
JUNE_2024 = [
    EventSpec("EV-0601", "2024-06-01", 4.6, 2, 18_000, seed=240601),
    EventSpec("EV-0608", "2024-06-08", 5.2, 4, 52_000, seed=240608),
    EventSpec("EV-0613", "2024-06-13", 4.9, 3, 33_000, seed=240613),
    EventSpec("EV-0621", "2024-06-21", 5.8, 6, 96_000, seed=240621),
    EventSpec("EV-0629", "2024-06-29", 4.4, 2, 15_000, seed=240629),
]


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    root = Path(tempfile.mkdtemp(prefix="repro-bulletin-"))
    runner = BatchRunner(
        implementation=policy_by_name("wavefront-parallel").pipeline(),
        root=root,
        scale=scale,
        response_config=ResponseSpectrumConfig(
            periods=default_periods(40), dampings=(0.05,)
        ),
        parallel=ParallelSettings(num_workers=4),
    )
    bulletin = runner.run(
        JUNE_2024, title=f"Seismic activity bulletin — June 2024 (scale {scale:g})"
    )
    print(bulletin.render())
    out = root / "bulletin.txt"
    bulletin.write(out)
    print(f"\nBulletin written to {out}")
    print(f"Per-event workspaces under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
