"""The shared overhead gate behind ``repro-profile --overhead-check``
and ``repro-top --overhead-check``.

The harness's timed run is replaced by a stub returning fixed timings,
so the verdicts are deterministic: within tolerance, beyond tolerance
and floor, under the noise floor, and the warm-up run not counted.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bench import harness
from repro.observability.profile_cli import OVERHEAD_TOLERANCE, main_profile
from repro.observability.profiling import SamplingProfiler
from repro.observability.top import EVENTS_OVERHEAD_TOLERANCE, main_top

REPEATS = 3


class StubRuns:
    """Stand-in for :func:`repro.bench.harness.timed_run`.

    Bare runs take ``bare`` seconds; instrumented runs ``on`` seconds,
    except the first call (the warm-up), which takes ``warmup``.
    """

    def __init__(self, *, bare: float, on: float, warmup: float | None = None):
        self.bare, self.on = bare, on
        self.warmup = on if warmup is None else warmup
        self.calls: list[bool] = []
        self.contexts: list[SimpleNamespace] = []

    def __call__(self, event, policy, *, instrument, scale, periods, backend, workers):
        self.calls.append(instrument is not None)
        if instrument is None:
            return self.bare
        ctx = SimpleNamespace(profiler=None, events=False)
        instrument(ctx)
        self.contexts.append(ctx)
        return self.warmup if len(self.calls) == 1 else self.on


def _profile(argv: list[str]) -> int:
    return main_profile(["--overhead-check", "--repeats", str(REPEATS), *argv])


def _top(argv: list[str]) -> int:
    return main_top(["--overhead-check", "--repeats", str(REPEATS), *argv])


GATES = [
    pytest.param(_profile, OVERHEAD_TOLERANCE, id="repro-profile"),
    pytest.param(_top, EVENTS_OVERHEAD_TOLERANCE, id="repro-top"),
]


@pytest.fixture
def stub(monkeypatch):
    def install(**timings: float) -> StubRuns:
        runs = StubRuns(**timings)
        monkeypatch.setattr(harness, "timed_run", runs)
        return runs

    return install


@pytest.mark.parametrize("gate, tolerance", GATES)
def test_within_tolerance_passes(gate, tolerance, stub, capsys):
    stub(bare=1.0, on=1.0 + tolerance / 2)
    assert gate([]) == 0
    out = capsys.readouterr().out
    assert f"OK: within {tolerance:.0%} tolerance" in out
    assert f"min of {REPEATS}" in out


@pytest.mark.parametrize("gate, tolerance", GATES)
def test_beyond_tolerance_and_floor_fails(gate, tolerance, stub, capsys):
    stub(bare=1.0, on=1.0 + 2 * tolerance)
    assert gate([]) == 1
    err = capsys.readouterr().err
    assert f"overhead beyond {tolerance:.0%}" in err
    assert f"{harness.OVERHEAD_FLOOR_S:g} s noise floor" in err


@pytest.mark.parametrize("gate, tolerance", GATES)
def test_delta_under_floor_passes(gate, tolerance, stub):
    # Far beyond the relative tolerance, but the absolute delta is noise.
    bare = harness.OVERHEAD_FLOOR_S / 2
    on = bare + harness.OVERHEAD_FLOOR_S * 0.9
    assert (on - bare) / bare > tolerance
    stub(bare=bare, on=on)
    assert gate([]) == 0


@pytest.mark.parametrize("gate, tolerance", GATES)
def test_warmup_runs_first_and_is_not_counted(gate, tolerance, stub):
    # A warm-up counted in the min-of-k would hide the overhead.
    runs = stub(bare=1.0, on=2.0, warmup=0.5)
    assert gate([]) == 1
    assert runs.calls == [True] + [False, True] * REPEATS


def test_profile_gate_attaches_a_profiler_at_the_given_rate(stub):
    runs = stub(bare=1.0, on=1.0)
    assert _profile(["--hz", "50"]) == 0
    assert len(runs.contexts) == REPEATS + 1
    for ctx in runs.contexts:
        assert isinstance(ctx.profiler, SamplingProfiler)
        assert ctx.profiler.hz == 50
        assert ctx.events is False


def test_top_gate_enables_events_only(stub):
    runs = stub(bare=1.0, on=1.0)
    assert _top([]) == 0
    assert len(runs.contexts) == REPEATS + 1
    for ctx in runs.contexts:
        assert ctx.events is True
        assert ctx.profiler is None
