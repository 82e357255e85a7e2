"""Experiment E1 — Table I: per-event execution times and speedups.

Model mode: the calibrated cost model replayed on the simulated
i5-12450H for all six events and all four implementations, compared
against the paper's published row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.bench.paper_data import PAPER_TABLE1, PaperEventRow, paper_row
from repro.bench.report import format_table, relative_error
from repro.bench.taskgraphs import simulate_implementation
from repro.bench.workloads import EventWorkload, paper_workloads
from repro.engine.policy import PAPER_POLICIES
from repro.parallel.simulate import PAPER_MACHINE, SimulatedMachine


@dataclass(frozen=True)
class Table1Row:
    """One reproduced Table I row (all times seconds)."""

    event_id: str
    label: str
    v1_files: int
    data_points: int
    seq_original_s: float
    seq_optimized_s: float
    partial_parallel_s: float
    full_parallel_s: float

    @property
    def speedup(self) -> float:
        """End-to-end speedup (seq original / fully parallel)."""
        return self.seq_original_s / self.full_parallel_s

    def paper(self) -> PaperEventRow:
        """The published row this one reproduces."""
        return paper_row(self.event_id)


def table1_model(
    model: CostModel = DEFAULT_COST_MODEL,
    machine: SimulatedMachine = PAPER_MACHINE,
    workloads: list[EventWorkload] | None = None,
) -> list[Table1Row]:
    """Reproduce Table I in model mode (all six events)."""
    rows = []
    for workload in workloads if workloads is not None else paper_workloads():
        times = {
            impl: simulate_implementation(impl, workload, model, machine).makespan_s
            for impl in PAPER_POLICIES
        }
        rows.append(
            Table1Row(
                event_id=workload.event_id,
                label=workload.label,
                v1_files=workload.n_files,
                data_points=workload.total_points,
                seq_original_s=times["seq-original"],
                seq_optimized_s=times["seq-optimized"],
                partial_parallel_s=times["partial-parallel"],
                full_parallel_s=times["full-parallel"],
            )
        )
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Paper-style rendering with the published values alongside."""
    headers = (
        "Event", "Files", "Points",
        "SeqOri", "(paper)", "SeqOpt", "(paper)",
        "PartPar", "(paper)", "FullPar", "(paper)",
        "SpeedUp", "(paper)",
    )
    body = []
    for row in rows:
        p = row.paper()
        body.append(
            (
                row.label, row.v1_files, row.data_points,
                row.seq_original_s, p.seq_original_s,
                row.seq_optimized_s, p.seq_optimized_s,
                row.partial_parallel_s, p.partial_parallel_s,
                row.full_parallel_s, p.full_parallel_s,
                f"{row.speedup:.2f}x", f"{p.speedup:.2f}x",
            )
        )
    return format_table(headers, body)


def max_relative_error(rows: list[Table1Row]) -> float:
    """Worst |relative error| across every cell of the table."""
    worst = 0.0
    for row in rows:
        p = row.paper()
        for ours, theirs in (
            (row.seq_original_s, p.seq_original_s),
            (row.seq_optimized_s, p.seq_optimized_s),
            (row.partial_parallel_s, p.partial_parallel_s),
            (row.full_parallel_s, p.full_parallel_s),
            (row.speedup, p.speedup),
        ):
            worst = max(worst, abs(relative_error(ours, theirs)))
    return worst
