"""Shared fixtures for the test suite.

The expensive fixtures (synthetic datasets, full pipeline runs) are
session-scoped and reused by many tests; everything is deterministic,
so sharing is safe.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import RunContext
from repro.core.context import ParallelSettings
from repro.engine import policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.dataset import generate_event_dataset
from repro.synth.events import EventSpec


TINY_EVENT = EventSpec("EV-TEST", "2020-06-15", 5.3, 2, 16_000, seed=4242)
SINGLE_EVENT = EventSpec("EV-ONE", "2021-02-03", 5.0, 1, 8_000, seed=99)


def tiny_response_config() -> ResponseSpectrumConfig:
    """A small oscillator grid that keeps pipeline tests fast."""
    return ResponseSpectrumConfig(periods=default_periods(12), dampings=(0.05, 0.1))


def make_context(root: Path, **kwargs) -> RunContext:
    """A pipeline context with test-sized numerical settings."""
    kwargs.setdefault("response_config", tiny_response_config())
    kwargs.setdefault("parallel", ParallelSettings(num_workers=2))
    return RunContext.for_directory(root, **kwargs)


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """A generated two-station dataset, shared across the session."""
    directory = tmp_path_factory.mktemp("tiny-dataset")
    generate_event_dataset(TINY_EVENT, directory)
    return directory


@pytest.fixture()
def workspace_with_input(tmp_path: Path, tiny_dataset_dir: Path) -> RunContext:
    """A fresh context whose input/ holds the tiny dataset."""
    ctx = make_context(tmp_path / "ws")
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    return ctx


@pytest.fixture(scope="session")
def completed_run(tmp_path_factory: pytest.TempPathFactory, tiny_dataset_dir: Path) -> RunContext:
    """A finished sequential-optimized run, shared read-only."""
    root = tmp_path_factory.mktemp("completed") / "ws"
    ctx = make_context(root)
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    policy_by_name("seq-optimized").run(ctx)
    return ctx


@pytest.fixture()
def rng() -> np.random.Generator:
    """A per-test deterministic RNG."""
    return np.random.default_rng(20240701)


def hash_tree(work_dir: Path) -> dict[str, str]:
    """Map of relative file path -> md5, for output-equality checks."""
    import hashlib

    out = {}
    for p in sorted(work_dir.rglob("*")):
        if p.is_file():
            out[p.relative_to(work_dir).as_posix()] = hashlib.md5(p.read_bytes()).hexdigest()
    return out
