"""Backend equivalence: the fully-parallel policy produces the
same bytes on every execution backend (serial / thread / process),
worker count notwithstanding."""

import shutil

import pytest

from repro.core.context import ParallelSettings
from repro.engine import policy_by_name
from tests.conftest import SINGLE_EVENT, hash_tree, make_context, tiny_response_config


def run_with(tmp_path_factory, dataset_dir, settings: ParallelSettings, policy="full-parallel"):
    root = tmp_path_factory.mktemp("backend") / "ws"
    ctx = make_context(root, parallel=settings)
    for src in dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    policy_by_name(policy).run(ctx)
    return hash_tree(ctx.workspace.work_dir)


@pytest.fixture(scope="module")
def single_dataset_dir(tmp_path_factory):
    from repro.synth.dataset import generate_event_dataset

    directory = tmp_path_factory.mktemp("single-dataset")
    generate_event_dataset(SINGLE_EVENT, directory)
    return directory


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory, single_dataset_dir):
    return run_with(
        tmp_path_factory,
        single_dataset_dir,
        ParallelSettings(
            loop_backend="serial", task_backend="serial", tool_backend="serial",
            num_workers=1,
        ),
    )


class TestBackendEquivalence:
    def test_thread_backend_matches_serial(
        self, tmp_path_factory, single_dataset_dir, serial_reference
    ):
        threaded = run_with(
            tmp_path_factory,
            single_dataset_dir,
            ParallelSettings(num_workers=3),
        )
        assert threaded == serial_reference

    @pytest.mark.slow
    def test_process_backend_matches_serial(
        self, tmp_path_factory, single_dataset_dir, serial_reference
    ):
        multiproc = run_with(
            tmp_path_factory,
            single_dataset_dir,
            ParallelSettings(
                loop_backend="process",
                task_backend="thread",
                tool_backend="process",
                num_workers=2,
            ),
        )
        assert multiproc == serial_reference

    def test_worker_count_does_not_change_output(
        self, tmp_path_factory, single_dataset_dir, serial_reference
    ):
        many = run_with(
            tmp_path_factory,
            single_dataset_dir,
            ParallelSettings(num_workers=7),
        )
        assert many == serial_reference

    def test_partial_on_threads_matches(self, tmp_path_factory, single_dataset_dir, serial_reference):
        partial = run_with(
            tmp_path_factory,
            single_dataset_dir,
            ParallelSettings(num_workers=3),
            policy="partial-parallel",
        )
        assert partial == serial_reference
