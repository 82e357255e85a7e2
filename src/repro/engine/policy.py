"""Scheduling policies: every scheme as a plan over one engine.

A :class:`SchedulingPolicy` owns exactly one decision — *which tasks
run between which barriers, with which per-task strategy* — expressed
as a :class:`~repro.engine.graph.TaskGraph` plus an ordered list of
:class:`~repro.engine.graph.Region` barrier groups.  The engine
executes any valid plan, so the paper's four schemes reduce to four
small policy objects (:data:`PAPER_POLICIES`):

====================  ================================================
``seq-original``      every process its own barrier, numeric order
``seq-optimized``     the 17-process order, redundancies removed
``partial-parallel``  Fig. 9 stages, 5 of 11 parallel
``full-parallel``     Fig. 9 stages, 10 of 11 parallel
====================  ================================================

Beyond the paper, ``full-parallel-fused`` executes the ``repro-lint``
fusion advisories (adjacent stages with no crossing dependency edge
merge into one barrier group), and ``dag-parallel`` drops the Fig. 9
layering entirely, running the layering derived from the registry
declarations — as many barriers as the I/O requires, none extra.
``wavefront-parallel`` (the paper's §VIII wavefront) and
``cluster-parallel`` run prologue / per-station chains / epilogue,
placing the chains on a parallel loop or on SPMD ranks; ``incremental``
memoizes the optimized order, one region per process.

Every plan is validated against the derived dependency graph before
execution: a policy cannot ship a schedule the declarations forbid.
"""

from __future__ import annotations

import difflib
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER
from repro.core.stages import (
    FULL_PARALLEL_STAGES,
    PARTIAL_PARALLEL_STAGES,
    STAGES,
    TASKS,
)
from repro.engine.graph import (
    CUSTOM,
    LOOP,
    SEQ,
    TASK,
    TEMP_FOLDERS,
    PipelineBuilder,
    Region,
    TaskGraph,
)
from repro.errors import PipelineError

#: Stage-level strategy -> per-task strategy of its members.
_MEMBER_STRATEGY = {
    "seq": SEQ,
    "tasks": TASK,
    "loop": LOOP,
    "temp_folders": TEMP_FOLDERS,
}


class SchedulingPolicy:
    """How a pipeline's task graph is laid out between barriers.

    Subclasses implement :meth:`plan`; :meth:`pipeline` wraps the
    policy in an :class:`~repro.engine.executor.EnginePipeline` so it
    can be run, traced, profiled and benchmarked.
    """

    name: str = ""
    description: str = ""

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        """The (graph, barrier regions) pair the engine executes."""
        raise NotImplementedError

    def pipeline(self):
        """An executable :class:`~repro.core.runner.PipelineImplementation`."""
        from repro.engine.executor import EnginePipeline

        return EnginePipeline(self)

    def run(self, ctx):
        """Convenience: execute this policy end-to-end."""
        return self.pipeline().run(ctx)


class SequentialPolicy(SchedulingPolicy):
    """A fixed linear order: every process is its own barrier region.

    The plan is still validated against the derived dependency graph,
    so an order that violates the declarations is rejected before
    anything runs.
    """

    def __init__(
        self, order: Sequence[int], *, name: str, description: str = ""
    ) -> None:
        self.order = tuple(order)
        self.name = name
        self.description = description

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        builder = PipelineBuilder(name=self.name)
        tasks = builder.add_processes(self.order, strategy=SEQ)
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=SEQ) for task in tasks
        ]
        return graph, regions


class StagedPolicy(SchedulingPolicy):
    """The Fig. 9 eleven-stage plan with per-stage strategies.

    ``strategies`` maps stage name to its strategy (missing stages run
    ``seq``).
    With ``fuse=True``, adjacent stages joined by no dependency edge
    merge into single barrier groups: the executed form of the
    ``repro-lint`` schedule advisories (II+III, VI+VII, X+XI on the
    optimized pipeline).
    """

    def __init__(
        self,
        *,
        name: str,
        description: str = "",
        strategies: dict[str, str] | None = None,
        fuse: bool = False,
    ) -> None:
        self.name = name
        self.description = description
        self.strategies = dict(strategies or {})
        self.fuse = fuse

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        builder = PipelineBuilder(name=self.name)
        regions: list[Region] = []
        for stage in STAGES:
            strategy = self.strategies.get(stage.name, SEQ)
            member = _MEMBER_STRATEGY.get(strategy)
            if member is None:
                raise PipelineError(
                    f"unknown stage strategy {strategy!r} for stage {stage.name}"
                )
            members = tuple(
                builder.add_process(pid, strategy=member) for pid in stage.processes
            )
            regions.append(Region(label=stage.name, tasks=members, strategy=strategy))
        graph = builder.build()
        if self.fuse:
            regions = graph.fuse_regions(regions)
        return graph, regions


class DerivedPolicy(SchedulingPolicy):
    """The schedule the declarations imply — no hand-written layering.

    Regions are the dependency graph's topological generations
    (``G1``..``Gn``): as many barriers as the registry's read/write
    declarations require, none that they don't.  Per-process strategies
    are inherited from the fully-parallel scheme so loops and
    temp-folder stages keep their inner parallelism; mixed generations
    execute as fused dispatches.
    """

    def __init__(
        self,
        order: Sequence[int] = OPTIMIZED_ORDER,
        *,
        name: str = "dag-parallel",
        description: str = "DAG-derived: barriers straight from the declarations",
    ) -> None:
        self.order = tuple(order)
        self.name = name
        self.description = description

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        strategy_of = {
            pid: _MEMBER_STRATEGY[stage.full_strategy]
            for stage in STAGES
            for pid in stage.processes
        }
        builder = PipelineBuilder(name=self.name)
        for pid in self.order:
            builder.add_process(pid, strategy=strategy_of.get(pid, SEQ))
        graph = builder.build()
        return graph, graph.derive_regions()


#: Artifact identities one station chain reads and writes (P3, P4, P7,
#: P10, P13, P16, P19 and the three plots, for one station).
_CHAIN_READS = (
    "v1_list", "raw_v1", "filter_params", "comp_v1", "comp_v2", "comp_f", "comp_r",
)
_CHAIN_WRITES = (
    "comp_v1", "comp_v2", "comp_f", "comp_r", "gem",
    "plot_fourier", "plot_acc", "plot_response",
)


class StationChainPolicy(SchedulingPolicy):
    """Prologue / per-station chains / epilogue as three custom tasks.

    After stages I, II and VII the per-station work is independent:
    each station flows through its whole chain
    (:func:`~repro.core.wavefront.process_station_wavefront`) with no
    stage barriers between the former stages.  The prologue builds the
    global lists and metadata every chain relies on; the epilogue
    assembles the global artifacts (``filter_corrected.par``, the
    maxvals files) in sorted order, so outputs stay byte-identical to
    the barriered plans.  Subclasses differ only in the middle task:
    :meth:`_chains` places the chains and leaves the gathered corner
    specs in the run state.
    """

    #: Label of the middle region and the strategy shown on its span.
    chains_label = ""
    chains_strategy = ""

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        state: dict = {"stage": self.chains_label}
        builder = PipelineBuilder(name=self.name)
        # Effects are declared so the graph verifier can prove the
        # three-region plan: prologue and epilogue bodies are
        # cross-checked by inference, the chain fan-out is opaque (its
        # work happens in pool workers or forked rank processes).
        builder.add_task(
            "prologue", self._prologue, span_strategy=SEQ,
            reads=("raw_v1", "v1_list"),
            writes=(
                "flags", "v1_list", "filter_params", "acc_meta",
                "fourier_meta", "response_meta", "fouriergraph_meta",
                "responsegraph_meta", "flags2",
            ),
        )
        builder.add_task(
            self.chains_label, partial(self._chains, state), after=["prologue"],
            span_strategy=self.chains_strategy,
            reads=_CHAIN_READS, writes=_CHAIN_WRITES, opaque=True,
        )
        builder.add_task(
            "epilogue", partial(self._epilogue, state), after=[self.chains_label],
            span_strategy=SEQ,
            reads=("filter_params",),
            writes=("filter_corrected", "maxvals", "maxvals2"),
        )
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=CUSTOM)
            for task in graph.tasks
        ]
        return graph, regions

    @staticmethod
    def _prologue(ctx, result) -> None:
        # Stages I, II and VII, sequential: these are milliseconds and
        # must complete before any chain starts.
        from repro.core.processes.p00_flags import run_p00
        from repro.core.processes.p01_gather import run_p01
        from repro.core.processes.p02_params import run_p02
        from repro.core.processes.p05_metadata import run_p05
        from repro.core.processes.p08_fourier_meta import run_p08
        from repro.core.processes.p11_flags2 import run_p11
        from repro.core.processes.p17_response_meta import run_p17

        run_p00(ctx)
        run_p01(ctx)
        run_p02(ctx)
        run_p05(ctx)
        run_p08(ctx)
        run_p17(ctx)
        run_p11(ctx)

    def _chains(self, state: dict, ctx, result) -> None:
        """Run every station chain; store the corner specs as
        ``state["specs"]`` and a description as ``state["name"]``."""
        raise NotImplementedError

    @staticmethod
    def _epilogue(state: dict, ctx, result) -> None:
        from repro.core.artifacts import (
            FILTER_CORRECTED,
            FILTER_PARAMS,
            MAXVALS,
            MAXVALS2,
        )
        from repro.core.auditing import unit_scope
        from repro.core.runner import ProcessTiming
        from repro.core.wavefront import _merge_suffixed
        from repro.formats.params import (
            FilterParams,
            read_filter_params,
            write_filter_params,
        )

        # Each merge is attributed to the process whose artifact it
        # completes, so an audited run stays conformant.
        with unit_scope("P10"):
            base = read_filter_params(
                ctx.workspace.work(FILTER_PARAMS), process="P10"
            ).default
            params = FilterParams(default=base)
            for station, comp, spec in state["specs"]:
                params.set_override(station, comp, spec)
            write_filter_params(ctx.workspace.work(FILTER_CORRECTED), params)
        with unit_scope("P4"):
            _merge_suffixed(ctx.workspace, "max1", MAXVALS)
        with unit_scope("P13"):
            _merge_suffixed(ctx.workspace, "max2", MAXVALS2)
        # The chains are the run's one unit of process work; their
        # barrier duration was recorded when the middle region closed.
        result.processes.append(
            ProcessTiming(
                pid=-1,
                name=state["name"],
                stage=state["stage"],
                duration_s=result.stage_durations[state["stage"]],
            )
        )


class WavefrontPolicy(StationChainPolicy):
    """Station chains as one parallel loop (the paper's §VIII wavefront).

    A station with a short record finishes its expensive response
    stage while a big station is still filtering: no stage barrier
    holds it back.
    """

    name = "wavefront-parallel"
    description = "Wavefront: per-station pipelines, no stage barriers (§VIII)"
    chains_label = "wavefront"
    chains_strategy = LOOP

    def _chains(self, state: dict, ctx, result) -> None:
        from repro.core.processes.p03_separate import stations_from_list
        from repro.core.wavefront import process_station_wavefront
        from repro.parallel.omp import parallel_for

        stations = stations_from_list(ctx.workspace)
        per_station = parallel_for(
            partial(process_station_wavefront, ctx),
            list(enumerate(stations)),
            backend=ctx.parallel.loop_backend,
            num_workers=ctx.parallel.workers,
            tracer=ctx.tracer,
            span="station_pipeline",
            metrics=ctx.metrics,
        )
        state["specs"] = [spec for specs in per_station for spec in specs]
        state["name"] = "wavefront station pipelines"


def _cluster_rank_body(comm, ctx) -> list:
    """SPMD body: process this rank's round-robin share of stations."""
    from repro.core.processes.p03_separate import stations_from_list
    from repro.core.wavefront import process_station_wavefront

    stations = stations_from_list(ctx.workspace) if comm.rank == 0 else None
    stations = comm.bcast(stations, root=0)
    specs = []
    for index in range(comm.rank, len(stations), comm.size):
        specs.extend(process_station_wavefront(ctx, (index, stations[index])))
    gathered = comm.gather(specs, root=0)
    comm.barrier()
    if comm.rank == 0:
        return [spec for rank_specs in gathered for spec in rank_specs]
    return []


class ClusterPolicy(StationChainPolicy):
    """Station chains distributed across MPI-style SPMD ranks.

    The architecture of the paper's related work [9] (Python + MPI
    over a shared filesystem): rank 0 broadcasts the work list, every
    rank runs its round-robin share of station chains, and the corner
    specs are gathered back for the epilogue.  ``n_ranks`` defaults to
    the context's worker count, clamped to the station count; one rank
    runs inline, like a single-rank MPI job.
    """

    name = "cluster-parallel"
    description = "Cluster: MPI-style ranks over a shared workspace"
    chains_label = "ranks"
    chains_strategy = "cluster"

    def __init__(self, n_ranks: int | None = None) -> None:
        self.n_ranks = n_ranks

    def _chains(self, state: dict, ctx, result) -> None:
        from repro.core.processes.p03_separate import stations_from_list
        from repro.parallel.cluster import run_cluster

        stations = stations_from_list(ctx.workspace)
        ranks = self.n_ranks if self.n_ranks is not None else ctx.parallel.workers
        ranks = max(1, min(ranks, len(stations)))
        per_rank = run_cluster(_cluster_rank_body, ranks, ctx, tracer=ctx.tracer)
        state["specs"] = per_rank[0]
        state["name"] = f"{ranks}-rank station pipelines"


class GraphPolicy(SchedulingPolicy):
    """A user-built graph (or builder), scheduled by its derived layers."""

    def __init__(self, graph_or_builder, *, name: str | None = None) -> None:
        if isinstance(graph_or_builder, PipelineBuilder):
            self._graph = graph_or_builder.build()
            self.name = name or graph_or_builder.name
        elif isinstance(graph_or_builder, TaskGraph):
            self._graph = graph_or_builder
            self.name = name or "custom"
        else:
            raise PipelineError(
                "GraphPolicy expects a PipelineBuilder or TaskGraph, "
                f"got {type(graph_or_builder).__name__}"
            )
        self.description = f"User-built graph ({len(self._graph)} tasks)"

    def plan(self, ctx) -> tuple[TaskGraph, list[Region]]:
        return self._graph, self._graph.derive_regions()


# -- registry ---------------------------------------------------------------


def _incremental() -> SchedulingPolicy:
    # Deferred: the memoizing plan lives with its state/cache helpers.
    from repro.core.incremental import IncrementalPolicy

    return IncrementalPolicy()


def _partial_strategies() -> dict[str, str]:
    return {
        stage.name: stage.partial_strategy
        for stage in STAGES
        if stage.name in PARTIAL_PARALLEL_STAGES
        and stage.partial_strategy in (TASKS, LOOP)
    }


def _full_strategies() -> dict[str, str]:
    return {
        stage.name: stage.full_strategy
        for stage in STAGES
        if stage.name in FULL_PARALLEL_STAGES
    }


#: Policy name -> zero-argument factory.  Extend with
#: :func:`register_policy`.
POLICIES: dict[str, Callable[[], SchedulingPolicy]] = {
    "seq-original": lambda: SequentialPolicy(
        ORIGINAL_ORDER,
        name="seq-original",
        description="Sequential Original: 20 processes in numeric order",
    ),
    "seq-optimized": lambda: SequentialPolicy(
        OPTIMIZED_ORDER,
        name="seq-optimized",
        description="Sequential Optimized: 17 processes, redundancies removed",
    ),
    "partial-parallel": lambda: StagedPolicy(
        name="partial-parallel",
        description="Partially Parallelized: stages I, II, VI, X, XI parallel",
        strategies=_partial_strategies(),
    ),
    "full-parallel": lambda: StagedPolicy(
        name="full-parallel",
        description="Fully Parallelized: all stages except VII parallel",
        strategies=_full_strategies(),
    ),
    "full-parallel-fused": lambda: StagedPolicy(
        name="full-parallel-fused",
        description="Fully Parallelized + fusion: advisory stages merged "
        "into single barrier groups",
        strategies=_full_strategies(),
        fuse=True,
    ),
    "dag-parallel": lambda: DerivedPolicy(),
    "cluster-parallel": lambda: ClusterPolicy(),
    "wavefront-parallel": lambda: WavefrontPolicy(),
    "incremental": _incremental,
}

#: The paper's four schemes, in presentation order (sequential
#: baseline first) — the default set of every measurement harness.
PAPER_POLICIES = ("seq-original", "seq-optimized", "partial-parallel", "full-parallel")


def register_policy(name: str, factory: Callable[[], SchedulingPolicy]) -> None:
    """Add (or replace) a named policy in the registry."""
    POLICIES[str(name)] = factory


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(POLICIES)


def _unknown_name_error(kind: str, name: str, known: Iterable[str]) -> ValueError:
    known = list(known)
    message = f"unknown {kind} {name!r}; known: {known}"
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return ValueError(message)


def policy_by_name(name: str) -> SchedulingPolicy:
    """Look up a scheduling policy by name.

    Raises :class:`ValueError` naming every registered policy (and the
    closest match) instead of a bare ``KeyError``.
    """
    factory = POLICIES.get(str(name))
    if factory is None:
        raise _unknown_name_error("policy", str(name), POLICIES)
    return factory()


def pipeline_factory(name: str) -> Callable:
    """A zero-argument factory of executable pipelines for ``name``.

    Validates the name eagerly (helpful ``ValueError`` on a miss) and
    returns a callable producing a fresh
    :class:`~repro.core.runner.PipelineImplementation` per call — the
    shape the bench/perf harnesses construct their runs from.
    """
    policy_by_name(name)
    return lambda: policy_by_name(name).pipeline()


def resolve_policy(policy) -> SchedulingPolicy:
    """Coerce a name / policy / builder / graph into a policy instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, (PipelineBuilder, TaskGraph)):
        return GraphPolicy(policy)
    if isinstance(policy, str):
        return policy_by_name(policy)
    raise ValueError(
        "policy must be a name, a SchedulingPolicy, a PipelineBuilder or a "
        f"TaskGraph; got {type(policy).__name__}"
    )
