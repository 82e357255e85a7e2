"""Host-speed calibration: a fixed kernel that does not call the program.

The benchmark host is a shared virtual machine whose CPU speed drifts:
within ten minutes, with nothing else running in it, the same serial
event took 9.3 s and then 5.2 s, and the set-up time moved by the same
factor (see ``README.md``, "Steadiness").  No statistic over one run
removes a drift that slow, so every run also times this kernel, off
the clock, beside its set-ups and between its events, and scales its
timings to a reference host speed: a time is multiplied by
:data:`REFERENCE_S` over the mean kernel time measured beside it.

The kernel does what the program spends its time on, without importing
it: fixed-width float text encoding and parsing (the V1/V2 codecs),
small-array filtering and FFTs (``repro.dsp``, ``repro.spectra``),
dictionary-heavy interpreter work, and a file written and read back.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

#: Mean kernel time, in seconds, that reported timings are scaled to
#: (the kernel's time on the 2-vCPU host the benchmark was defined on,
#: at that host's fastest).
REFERENCE_S = 0.036

_SIGNAL = np.random.default_rng(20240101).standard_normal(24_000)
_B, _A = [0.2, 0.3, 0.2], [1.0, -0.5, 0.1]


def kernel(scratch: Path) -> None:
    """One fixed unit of work."""
    text = "\n".join(f"{v:10.4f}" for v in _SIGNAL)
    scratch.write_text(text)
    parsed = np.array([float(line) for line in scratch.read_text().splitlines()])
    for block in np.split(parsed, 6):
        for _ in range(25):
            block = lfilter(_B, _A, block)
            np.fft.rfft(block)
    counts: dict[int, int] = {}
    for i in range(90_000):
        counts[i % 997] = counts.get(i % 997, 0) + i


def sample(scratch: Path, repeats: int) -> list[float]:
    """Time ``repeats`` runs of the kernel, in seconds each."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(scratch)
        times.append(time.perf_counter() - t0)
    scratch.unlink(missing_ok=True)
    return times


def factor(samples: list[float]) -> float:
    """The factor from measured to reference-speed seconds, given the
    kernel times measured beside those seconds."""
    return REFERENCE_S / statistics.mean(samples)
