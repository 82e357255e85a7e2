"""Degraded-mode bulletins from the batch layer.

One faulty event among healthy ones must not take the bulletin down:
healthy events render exactly as always, the degraded event's row
covers its survivors, and the appended degraded-mode section carries
backend-invariant failure lines — identical across the implementation
x backend matrix (mirroring tests/observability/test_metrics_matrix.py).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.batch import BatchRunner, Bulletin, EventSummary
from repro.core.context import ParallelSettings
from repro.engine import PAPER_POLICIES, policy_by_name
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.synth.events import EventSpec

from tests.conftest import tiny_response_config

OK_EVENT = EventSpec("EV-OK", "2023-05-01", 5.0, 2, 16_000, seed=21)
BAD_EVENT = EventSpec("EV-BAD", "2023-05-02", 5.4, 2, 16_000, seed=22)

QUARANTINE_PLAN = FaultPlan(
    seed=9,
    faults=(FaultSpec(kind="truncate-v1", target="ST01l.v1"),),
    policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
)

FATAL_PLAN = FaultPlan(
    seed=9,
    faults=(FaultSpec(kind="drop-config", target="P4"),),
    policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
)


def run_batch(root: Path, impl_name: str, backend: str, plans: dict) -> Bulletin:
    runner = BatchRunner(
        implementation=policy_by_name(impl_name).pipeline(),
        root=root,
        response_config=tiny_response_config(),
        parallel=ParallelSettings.uniform(backend, num_workers=2),
        resilience_plans=plans,
    )
    return runner.run([OK_EVENT, BAD_EVENT], title="Degraded-mode test bulletin")


class TestDegradedBulletinMatrix:
    @pytest.mark.parametrize("impl_name", PAPER_POLICIES)
    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=pytest.mark.slow)],
    )
    def test_one_faulty_event_degrades_gracefully(
        self, tmp_path: Path, impl_name: str, backend: str
    ) -> None:
        bulletin = run_batch(
            tmp_path, impl_name, backend, {"EV-BAD": QUARANTINE_PLAN}
        )
        ok, bad = bulletin.events
        assert ok.event_id == "EV-OK"
        assert ok.status == "ok"
        assert ok.quarantined == ()
        assert ok.n_stations == 2
        assert bad.event_id == "EV-BAD"
        assert bad.status == "degraded"
        assert bad.n_stations == 1  # survivors only
        assert len(bad.quarantined) == 1
        assert bad.quarantined[0].startswith("ST01")
        text = bulletin.render()
        assert "degraded events" in text
        assert "EV-BAD" in text
        assert "1 record quarantined" in text

    def test_degraded_text_converges_across_matrix(self, tmp_path: Path) -> None:
        texts = {
            impl_name: run_batch(
                tmp_path / impl_name, impl_name, "thread", {"EV-BAD": QUARANTINE_PLAN}
            ).degraded_text()
            for impl_name in PAPER_POLICIES
        }
        assert len(set(texts.values())) == 1, texts


class TestFailedEvent:
    def test_fatal_fault_downgrades_only_that_event(self, tmp_path: Path) -> None:
        bulletin = run_batch(tmp_path, "seq-optimized", "thread", {"EV-BAD": FATAL_PLAN})
        ok, bad = bulletin.events
        assert ok.status == "ok"
        assert bad.status == "failed"
        assert bad.failure == "MissingArtifactError"
        text = bulletin.render()
        # The failed event stays out of the published table and totals.
        assert "failed: MissingArtifactError" in text
        assert "1 events" in text

    def test_clean_event_failure_still_aborts_the_batch(self, tmp_path: Path) -> None:
        # Events without a plan keep all-or-nothing semantics: soft-fail
        # is a privilege of fault-injected events only.
        from repro.errors import PipelineError

        class Exploding:
            name = "exploding"

            def run(self, ctx):
                raise PipelineError("genuine pipeline bug")

        runner = BatchRunner(
            implementation=Exploding(),  # type: ignore[arg-type]
            root=tmp_path,
            response_config=tiny_response_config(),
        )
        with pytest.raises(PipelineError):
            runner.run([OK_EVENT])


class TestHealthyRenderUnchanged:
    def test_all_ok_bulletin_has_no_degraded_section(self, tmp_path: Path) -> None:
        bulletin = run_batch(tmp_path, "seq-optimized", "thread", {})
        assert bulletin.degraded_lines() == []
        assert "degraded" not in bulletin.render()

    def test_legacy_rows_default_to_ok(self) -> None:
        # Pre-resilience EventSummary construction (no status fields)
        # must keep rendering identically.
        row = EventSummary(
            event_id="EV-X", date="2023-01-01", magnitude=5.0, n_stations=2,
            total_points=100, max_pga_gal=1.0, max_pga_station="ST01",
            max_sa02_gal=1.0, max_sa10_gal=1.0, max_arias_cm_s=0.1,
            max_significant_duration_s=3.0, processing_time_s=0.5,
            implementation="seq-original",
        )
        assert row.status == "ok"
        bulletin = Bulletin(title="t", events=[row])
        assert "degraded" not in bulletin.render()
