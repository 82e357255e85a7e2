"""Policy equivalence matrix.

Every registered policy on both executor backends must produce
byte-identical final artifacts from the same inputs, and four of them
— under one injected :class:`FaultPlan` — converge to the same
quarantine signature and retry totals.  This is the paper's
equivalence claim restated for the engine: the schedule may change,
the outputs may not.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.context import ParallelSettings
from repro.engine import pipeline_factory, policy_names
from repro.observability.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy

from tests.conftest import hash_tree, make_context

POLICIES = ("seq-optimized", "partial-parallel", "full-parallel", "dag-parallel")
BACKENDS = ("thread", "process")
#: Fault-plan legs.
LEGS = [(policy, backend) for policy in POLICIES for backend in BACKENDS]
#: Clean legs: every registered policy.
CLEAN_LEGS = [(policy, backend) for policy in policy_names() for backend in BACKENDS]

FAULT_SEED = 1234


def _run_leg(
    root: Path,
    policy: str,
    backend: str,
    tiny_dataset_dir: Path,
    plan: FaultPlan | None = None,
):
    registry = MetricsRegistry()
    ctx = make_context(
        root,
        parallel=ParallelSettings.uniform(backend, num_workers=2),
        metrics=registry,
        resilience=plan,
    )
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    result = pipeline_factory(policy)().run(ctx)
    return ctx, result, registry


def _signature(result) -> tuple:
    reports = sorted(result.quarantine, key=lambda r: r.record)
    return tuple((r.record, r.process, r.kind, r.error, r.attempts) for r in reports)


@pytest.fixture(scope="module")
def clean_matrix(tmp_path_factory: pytest.TempPathFactory, tiny_dataset_dir: Path):
    """One clean run per (policy, backend) leg, shared read-only."""
    base = tmp_path_factory.mktemp("engine-matrix")
    runs = {}
    for policy, backend in CLEAN_LEGS:
        root = base / f"{policy}-{backend}"
        runs[(policy, backend)] = _run_leg(root, policy, backend, tiny_dataset_dir)
    return runs


def test_clean_matrix_is_byte_identical(clean_matrix) -> None:
    trees = {
        leg: hash_tree(ctx.workspace.work_dir)
        for leg, (ctx, _, _) in clean_matrix.items()
    }
    baseline_leg = ("seq-optimized", "thread")
    baseline = trees[baseline_leg]
    assert baseline  # the run actually produced artifacts
    for leg, tree in trees.items():
        assert tree == baseline, f"{leg} diverges from {baseline_leg}"


def test_clean_matrix_reports_no_faults(clean_matrix) -> None:
    for leg, (_, result, registry) in clean_matrix.items():
        assert not result.quarantine, f"{leg} quarantined records on a clean run"
        assert registry.total("repro_faults_injected_total") == 0


def test_clean_matrix_times_every_scheduled_process(clean_matrix) -> None:
    from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER

    for leg, (_, result, _) in clean_matrix.items():
        policy = leg[0]
        if policy == "seq-original":
            expected = sorted(ORIGINAL_ORDER)
        elif policy in ("wavefront-parallel", "cluster-parallel"):
            expected = [-1]  # the station chains, timed as one row
        else:
            expected = sorted(OPTIMIZED_ORDER)
        assert sorted(t.pid for t in result.processes) == expected, leg


def test_faulty_matrix_converges(
    tmp_path_factory: pytest.TempPathFactory, tiny_dataset_dir: Path
) -> None:
    stations = sorted(p.stem for p in tiny_dataset_dir.glob("*.v1"))
    plan = FaultPlan.randomized(
        FAULT_SEED,
        stations,
        n_faults=2,
        policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
    )
    base = tmp_path_factory.mktemp("engine-chaos")
    outcomes = {}
    for policy, backend in LEGS:
        root = base / f"{policy}-{backend}"
        _, result, registry = _run_leg(root, policy, backend, tiny_dataset_dir, plan)
        outcomes[(policy, backend)] = (
            _signature(result),
            registry.total("repro_retries_total"),
            registry.total("repro_faults_injected_total"),
        )
    baseline_leg = ("seq-optimized", "thread")
    signature, retries, faults = outcomes[baseline_leg]
    assert faults > 0  # the plan actually injected something
    for leg, outcome in outcomes.items():
        assert outcome == (signature, retries, faults), (
            f"{leg} diverges from {baseline_leg}: {outcome} != "
            f"{(signature, retries, faults)}"
        )
