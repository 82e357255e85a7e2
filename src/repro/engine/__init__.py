"""The DAG-native execution engine.

One engine executes every scheduling scheme.  A pipeline is composed
as a :class:`PipelineBuilder` graph (process tasks wire themselves
from the registry's declared reads/writes; custom tasks wire
explicitly), laid out between barriers by a :class:`SchedulingPolicy`,
and executed by the :class:`Engine` with the platform threaded
through — tracer spans, metrics shards, resilience retry/quarantine,
and the thread/process backends.

    import repro
    from repro.engine import PipelineBuilder

    builder = PipelineBuilder(name="qc-only")
    builder.add_processes([0, 1, 2, 3], strategy="seq")
    result = repro.run("workspace", policy=builder)

The paper's four schemes are the built-in policies ``seq-original``,
``seq-optimized``, ``partial-parallel`` and ``full-parallel``
(:data:`PAPER_POLICIES`); ``full-parallel-fused`` additionally executes
the ``repro-lint`` fusion advisories, ``dag-parallel`` runs the
layering derived straight from the declarations, ``wavefront-parallel``
and ``cluster-parallel`` schedule per-station chains between a
prologue and an epilogue, and ``incremental`` memoizes the optimized
order.  Every registered policy returns a static plan, so every scheme
can be verified (``repro-lint graph --all-policies``) before it runs.
"""

from repro.engine.graph import (
    CUSTOM,
    FUSED,
    LOOP,
    SEQ,
    TASK,
    TEMP_FOLDERS,
    PipelineBuilder,
    Region,
    Task,
    TaskGraph,
)
from repro.engine.executor import Engine, EnginePipeline, run_graph
from repro.engine.policy import (
    PAPER_POLICIES,
    POLICIES,
    ClusterPolicy,
    DerivedPolicy,
    GraphPolicy,
    SchedulingPolicy,
    SequentialPolicy,
    StagedPolicy,
    StationChainPolicy,
    WavefrontPolicy,
    pipeline_factory,
    policy_by_name,
    policy_names,
    register_policy,
    resolve_policy,
)

__all__ = [
    "SEQ",
    "TASK",
    "LOOP",
    "TEMP_FOLDERS",
    "CUSTOM",
    "FUSED",
    "Task",
    "Region",
    "TaskGraph",
    "PipelineBuilder",
    "Engine",
    "EnginePipeline",
    "run_graph",
    "SchedulingPolicy",
    "SequentialPolicy",
    "StagedPolicy",
    "DerivedPolicy",
    "StationChainPolicy",
    "WavefrontPolicy",
    "ClusterPolicy",
    "GraphPolicy",
    "PAPER_POLICIES",
    "POLICIES",
    "pipeline_factory",
    "policy_by_name",
    "policy_names",
    "register_policy",
    "resolve_policy",
]
