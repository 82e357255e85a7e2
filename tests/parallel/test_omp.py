"""Unit tests for the OpenMP-shaped primitives (parallel_for, TaskGroup)."""

import threading
import time

import pytest

from repro.errors import ParallelError
from repro.parallel.backend import Backend
from repro.parallel.omp import TaskGroup, parallel_for, parallel_for_chunked


def square(x: int) -> int:
    return x * x


def double_batch(chunk: list[int]) -> list[int]:
    return [x * 2 for x in chunk]


def failing(x: int) -> int:
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestParallelFor:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_order_preserved(self, backend):
        out = parallel_for(square, list(range(20)), backend=backend, num_workers=3)
        assert out == [i * i for i in range(20)]

    def test_empty_items(self):
        assert parallel_for(square, [], backend="thread") == []

    def test_single_item(self):
        assert parallel_for(square, [7], backend="thread", num_workers=4) == [49]

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_schedules_agree(self, schedule):
        out = parallel_for(
            square, list(range(17)), backend="thread", num_workers=3, schedule=schedule
        )
        assert out == [i * i for i in range(17)]

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_for(failing, list(range(6)), backend="serial")

    def test_exception_propagates_threaded(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_for(failing, list(range(6)), backend="thread", num_workers=2)

    def test_actually_concurrent_threads(self):
        # Two 50 ms sleeps on two workers should overlap.
        barrier = threading.Barrier(2, timeout=5)

        def body(_: int) -> bool:
            barrier.wait()  # deadlocks unless two bodies run at once
            return True

        out = parallel_for(body, [0, 1], backend="thread", num_workers=2,
                           schedule="dynamic")
        assert out == [True, True]

    def test_thread_results_match_serial(self, rng):
        items = rng.integers(0, 1000, size=50).tolist()
        serial = parallel_for(square, items, backend="serial")
        threaded = parallel_for(square, items, backend="thread", num_workers=4)
        assert serial == threaded


class TestParallelForChunked:
    def test_chunked_body_receives_batches(self):
        seen: list[int] = []

        def body(chunk):
            seen.append(len(chunk))
            return [x + 1 for x in chunk]

        out = parallel_for_chunked(body, list(range(10)), backend="serial", num_workers=3)
        assert out == list(range(1, 11))
        assert sum(seen) == 10

    def test_wrong_result_count_rejected(self):
        def bad(chunk):
            return [0]  # wrong length

        with pytest.raises(ParallelError):
            parallel_for_chunked(bad, list(range(10)), backend="serial", num_workers=2)

    def test_threaded(self):
        def body(chunk):
            return [x * 2 for x in chunk]

        out = parallel_for_chunked(body, list(range(31)), backend="thread", num_workers=4)
        assert out == [x * 2 for x in range(31)]

    def test_empty(self):
        assert parallel_for_chunked(lambda c: list(c), [], backend="thread") == []

    @pytest.mark.slow
    def test_process(self):
        out = parallel_for_chunked(double_batch, list(range(10)), backend="process",
                                   num_workers=2)
        assert out == [x * 2 for x in range(10)]


class TestSharedExecutor:
    def test_serial_yields_none(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("serial") as pool:
            assert pool is None

    def test_single_worker_yields_none(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=1) as pool:
            assert pool is None

    def test_reused_across_loops(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=3) as pool:
            assert pool is not None
            first = parallel_for(square, list(range(10)), executor=pool)
            second = parallel_for(square, list(range(5)), executor=pool)
        assert first == [i * i for i in range(10)]
        assert second == [i * i for i in range(5)]

    def test_exception_propagates_through_shared_pool(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=2) as pool:
            with pytest.raises(ValueError, match="boom on 3"):
                parallel_for(failing, list(range(6)), executor=pool)
            # The pool survives the failure and remains usable.
            assert parallel_for(square, [2], executor=pool) == [4]

    def test_pool_shut_down_after_context(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=2) as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.submit(square, 1)


class TestTaskGroup:
    def test_collects_results_in_submission_order(self):
        with TaskGroup(backend="thread", num_workers=3) as tg:
            tg.task(square, 2)
            tg.task(square, 3)
            tg.task(square, 4)
        assert tg.results == [4, 9, 16]

    def test_serial_backend(self):
        with TaskGroup(backend="serial") as tg:
            tg.task(square, 5)
        assert tg.results == [25]

    def test_explicit_taskwait_batches(self):
        with TaskGroup(backend="thread", num_workers=2) as tg:
            tg.task(square, 1)
            first = tg.taskwait()
            tg.task(square, 2)
        assert first == [1]
        assert tg.results == [1, 4]

    def test_exception_at_barrier(self):
        with pytest.raises(ValueError, match="boom on 3"):
            with TaskGroup(backend="thread", num_workers=2) as tg:
                tg.task(failing, 3)

    def test_tasks_run_concurrently(self):
        barrier = threading.Barrier(2, timeout=5)

        def body() -> bool:
            barrier.wait()
            return True

        with TaskGroup(backend="thread", num_workers=2) as tg:
            tg.task(body)
            tg.task(body)
        assert tg.results == [True, True]

    def test_single_worker_degrades_to_serial(self):
        with TaskGroup(backend="thread", num_workers=1) as tg:
            tg.task(square, 6)
            tg.task(square, 7)
        assert tg.results == [36, 49]
