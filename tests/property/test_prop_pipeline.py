"""Property test: implementation equivalence on randomized events.

For arbitrary (small) synthetic events, the sequential-optimized and
fully-parallel implementations must produce byte-identical artifact
trees — the pipeline-level generalization of the fixed-event
integration tests.  Marked slow: each example is a full double
pipeline run.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import ParallelSettings
from repro.engine import policy_by_name
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.dataset import generate_event_dataset
from repro.synth.events import EventSpec


def tree_hash(work_dir) -> dict[str, str]:
    return {
        p.relative_to(work_dir).as_posix(): hashlib.md5(p.read_bytes()).hexdigest()
        for p in sorted(work_dir.rglob("*"))
        if p.is_file()
    }


@st.composite
def random_events(draw):
    n_files = draw(st.integers(1, 3))
    per_file = draw(st.integers(7_300, 9_000))
    return EventSpec(
        event_id="EV-PROP",
        date="2024-01-01",
        magnitude=draw(st.floats(4.2, 6.5)),
        n_files=n_files,
        total_points=n_files * per_file,
        seed=draw(st.integers(0, 2**20)),
    )


@pytest.mark.slow
class TestPipelinePropertyEquality:
    @given(event=random_events(), workers=st.integers(2, 5))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_parallel_equals_sequential(self, tmp_path_factory, event, workers):
        config = ResponseSpectrumConfig(periods=default_periods(8), dampings=(0.05,))
        trees = {}
        for name in ("seq-optimized", "full-parallel"):
            from repro.core import RunContext

            root = tmp_path_factory.mktemp("prop-pipe") / name
            ctx = RunContext.for_directory(
                root,
                response_config=config,
                parallel=ParallelSettings(num_workers=workers),
            )
            # Scale the event down: keep structure, shrink records.
            points = [max(600, p // 12) for p in event.file_points()]
            generate_event_dataset(event, ctx.workspace.input_dir, points_override=points)
            policy_by_name(name).run(ctx)
            trees[name] = tree_hash(ctx.workspace.work_dir)
        a = trees["seq-optimized"]
        b = trees["full-parallel"]
        assert set(a) == set(b)
        assert not [k for k in a if a[k] != b[k]]
