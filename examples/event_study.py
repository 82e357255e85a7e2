#!/usr/bin/env python
"""Event study: the paper's four schemes on one catalog event.

Reproduces, at laptop scale, the methodology behind Table I: the same
event is processed by Sequential Original, Sequential Optimized,
Partially Parallelized and Fully Parallelized; wall-clock times are
compared and the outputs verified byte-identical.

Run:  python examples/event_study.py [event_id] [scale]
      e.g.  python examples/event_study.py EV-NOV18 0.05
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from repro import RunContext, policy_by_name
from repro.bench.workloads import materialize, scaled_workload
from repro.core.context import ParallelSettings
from repro.engine import PAPER_POLICIES
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.events import paper_event


def tree_digest(work_dir: Path) -> str:
    """One digest over every artifact the run produced."""
    h = hashlib.sha256()
    for p in sorted(work_dir.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    event_id = sys.argv[1] if len(sys.argv) > 1 else "EV-NOV18"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05

    event = paper_event(event_id)
    workload = scaled_workload(event, scale)
    print(
        f"Event {event_id} at scale {scale:g}: {workload.n_files} files, "
        f"{workload.total_points:,} data points\n"
    )

    base = Path(tempfile.mkdtemp(prefix="repro-event-study-"))
    times: dict[str, float] = {}
    digests: dict[str, str] = {}
    for name in PAPER_POLICIES:
        ctx = RunContext.for_directory(
            base / name,
            response_config=ResponseSpectrumConfig(
                periods=default_periods(40), dampings=(0.05,)
            ),
            parallel=ParallelSettings(num_workers=4),
        )
        materialize(event, workload, ctx.workspace.input_dir)
        result = policy_by_name(name).run(ctx)
        times[name] = result.total_s
        digests[name] = tree_digest(ctx.workspace.work_dir)
        print(f"{name:>18}: {result.total_s:7.2f} s   digest {digests[name]}")

    base_time = times["seq-original"]
    print("\nRelative to Sequential Original:")
    for name, t in times.items():
        print(f"{name:>18}: {base_time / t:5.2f}x")

    unique = set(digests.values())
    if len(unique) == 1:
        print("\nAll four implementations produced byte-identical outputs. [OK]")
        return 0
    print(f"\nOutputs differ between implementations: {digests}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
