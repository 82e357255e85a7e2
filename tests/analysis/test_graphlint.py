"""Graph verifier: effect inference, race/ordering proofs, reports.

The verifier must (a) pass every registered policy clean — including
under ``--strict`` — and (b) reject seeded racy, cyclic, mis-declared
and unordered builder graphs with task-pair counterexamples.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.effects import infer_effects
from repro.analysis.graphlint import (
    task_effects,
    verify_builder,
    verify_graph,
    verify_policy,
)
from repro.analysis.lint import main_lint
from repro.analysis.model import ERROR, INFO, WARNING
from repro.engine.graph import PipelineBuilder
from repro.engine.policy import policy_names
from repro.errors import VerificationError


def _noop(ctx, result):
    pass


def _writes_maxvals(ctx, result):
    from repro.core.artifacts import MAXVALS
    from repro.core.processes.common import merge_max_files

    merge_max_files(ctx.workspace.work_dir, MAXVALS)


def _reads_params_writes_corrected(ctx, result):
    from repro.core.artifacts import FILTER_CORRECTED, FILTER_PARAMS
    from repro.formats.params import read_filter_params, write_filter_params

    params = read_filter_params(ctx.workspace.work(FILTER_PARAMS))
    write_filter_params(ctx.workspace.work(FILTER_CORRECTED), params)


def _leaks_workspace(ctx, result):
    import os

    os.listdir(ctx.workspace.root)


# -- effect inference --------------------------------------------------------


class TestInferEffects:
    def test_io_helpers_resolve_to_identities(self):
        effects = infer_effects(_reads_params_writes_corrected)
        assert effects.reads == {"filter_params"}
        assert effects.writes == {"filter_corrected"}
        assert effects.complete

    def test_merge_helper_write_argument(self):
        effects = infer_effects(_writes_maxvals)
        assert effects.writes == {"maxvals"}
        assert effects.complete

    def test_run_process_calls_charge_registry_effects(self):
        from repro.engine.policy import ClusterPolicy

        effects = infer_effects(ClusterPolicy._prologue)
        # The prologue runs P0,P1,P2,P5,P8,P17,P11; the union of their
        # registry declarations is what the walk must recover.
        assert effects.reads == {"raw_v1", "v1_list"}
        assert "flags" in effects.writes and "flags2" in effects.writes
        assert "v1_list" in effects.writes
        assert effects.complete

    def test_partial_and_bound_methods_unwrap(self):
        from functools import partial

        from repro.engine.policy import ClusterPolicy

        effects = infer_effects(partial(ClusterPolicy._epilogue, {}))
        assert effects.writes == {"filter_corrected", "maxvals", "maxvals2"}
        assert effects.complete

    def test_workspace_escape_is_reported_not_guessed(self):
        effects = infer_effects(_leaks_workspace)
        assert not effects.complete
        assert any("workspace" in why for why in effects.unknowns)

    def test_unanalyzable_source_degrades_to_unknown(self):
        effects = infer_effects(len)
        assert not effects.complete


# -- per-task conformance ----------------------------------------------------


class TestTaskEffects:
    def test_opaque_task_is_trusted_with_info(self):
        builder = PipelineBuilder()
        task = builder.add_task(
            "black-box", _noop, reads=("comp_v1",), writes=("comp_v2",), opaque=True
        )
        effects, findings = task_effects(task)
        assert effects.reads == {"comp_v1"} and effects.writes == {"comp_v2"}
        assert [f.severity for f in findings] == [INFO]

    def test_undeclared_inferred_write_is_an_error(self):
        builder = PipelineBuilder()
        task = builder.add_task("sneaky", _writes_maxvals, reads=("comp_v2",))
        _, findings = task_effects(task)
        errors = [f for f in findings if f.severity == ERROR]
        assert any("writes 'maxvals'" in f.message for f in errors)

    def test_declared_but_never_performed_is_a_warning(self):
        builder = PipelineBuilder()
        task = builder.add_task(
            "overdeclared", _writes_maxvals, writes=("maxvals", "maxvals2")
        )
        _, findings = task_effects(task)
        warnings = [f for f in findings if f.severity == WARNING]
        assert any("'maxvals2'" in f.message for f in warnings)


# -- the registered policies all verify clean --------------------------------


@pytest.mark.parametrize("name", policy_names())
def test_registered_policy_verifies_strict_clean(name):
    findings = verify_policy(name)
    problems = [f for f in findings if f.severity in (ERROR, WARNING)]
    assert problems == [], [f.render() for f in problems]


def test_unplannable_policy_is_an_error():
    # A policy whose plan() raises is broken, not "dynamic": it must
    # fail verification instead of passing as an advisory.
    from repro.engine.policy import StagedPolicy

    findings = verify_policy(StagedPolicy(name="x", strategies={"IX": "bogus"}))
    assert [f.severity for f in findings] == [ERROR]
    assert "unknown stage strategy 'bogus'" in findings[0].message


def test_cli_graph_strict_fails_unplannable_policy(capsys):
    from repro.engine.policy import POLICIES, StagedPolicy, register_policy

    register_policy("broken", lambda: StagedPolicy(name="broken", strategies={"IX": "bogus"}))
    try:
        assert main_lint(["graph", "--policy", "broken", "--strict"]) == 1
    finally:
        POLICIES.pop("broken", None)
    assert "[broken] FINDINGS" in capsys.readouterr().out


def test_seq_original_rediscovers_the_redundant_processes():
    findings = verify_policy("seq-original")
    redundant = {f.process for f in findings if "redundant" in f.message}
    assert redundant == {"P6", "P12", "P14"}


def test_fused_policy_gets_fusion_certificates():
    findings = verify_policy("full-parallel-fused")
    certified = {
        f.message.split()[1] for f in findings if f.message.startswith("fusion")
    }
    assert certified == {"II+III", "VI+VII", "X+XI"}
    assert all(f.severity == INFO for f in findings if "fusion" in f.message)


# -- seeded unsafe graphs are rejected with counterexamples ------------------


def _racy_builder() -> PipelineBuilder:
    builder = PipelineBuilder(name="racy")
    builder.add_processes([0, 1, 2], strategy="seq")
    builder.add_process(3, strategy="loop")
    builder.add_task("clobber", _noop, after=["P1"], writes=("comp_v1",), opaque=True)
    return builder


def test_racy_graph_rejected_with_task_pair_counterexample():
    findings = verify_builder(_racy_builder())
    errors = [f for f in findings if f.severity == ERROR]
    assert errors, "the clobber/P3 write-write race must be found"
    message = errors[0].message
    assert "'clobber'" in message and "P3" in message
    assert "write/write" in message and ".v1" in message


def test_cycle_reported_as_finding_not_exception():
    builder = PipelineBuilder(name="cyclic")
    builder.add_task("a", _noop)
    builder.add_task("b", _noop, after=["a"])
    builder.after("b", "a")
    findings = verify_builder(builder)
    assert [f.severity for f in findings] == [ERROR]
    assert "cycle" in findings[0].message


def test_unordered_producer_consumer_is_an_error():
    builder = PipelineBuilder(name="unordered")
    builder.add_task("makeparams", _noop, writes=("filter_params",), opaque=True)
    builder.add_task("useparams", _noop, reads=("filter_params",), opaque=True)
    findings = verify_builder(builder)
    errors = [f for f in findings if f.severity == ERROR]
    assert any(
        f.process == "useparams" and "every producer runs no earlier" in f.message
        for f in errors
    )


def test_unknown_artifact_identity_is_an_error():
    builder = PipelineBuilder()
    builder.add_task("typo", _noop, writes=("comp_v9",), opaque=True)
    findings = verify_builder(builder)
    assert any(
        f.severity == ERROR and "unknown artifact identity 'comp_v9'" in f.message
        for f in findings
    )


def test_missing_producer_is_a_warning_only():
    builder = PipelineBuilder(name="tail-only")
    builder.add_task("plotter", _noop, reads=("comp_f",), opaque=True)
    findings = verify_builder(builder)
    assert [f.severity for f in findings if "no task in this graph" in f.message] == [
        WARNING
    ]


def test_custom_dead_write_screen():
    builder = PipelineBuilder(name="dead-write")
    builder.add_task("scribble", _writes_maxvals)
    builder.add_task("rewrite", _writes_maxvals, after=["scribble"])
    findings = verify_builder(builder)
    assert any(
        f.process == "scribble" and "appears redundant" in f.message
        for f in findings
    )


# -- build-time and run-time gates -------------------------------------------


def test_build_verify_raises_on_racy_graph():
    with pytest.raises(VerificationError, match="write/write"):
        _racy_builder().build(verify=True)


def test_build_verify_passes_clean_graph():
    builder = PipelineBuilder(name="clean")
    builder.add_processes([0, 1, 2, 3], strategy="seq")
    graph = builder.build(verify=True)
    assert len(graph) == 4


def test_engine_verify_refuses_before_execution(workspace_with_input):
    from repro.engine.executor import run_graph

    ctx = workspace_with_input
    with pytest.raises(VerificationError):
        run_graph(_racy_builder(), ctx, verify=True)
    # Nothing ran: the workspace work dir stays empty.
    assert not any(ctx.workspace.work_dir.iterdir())


def test_verify_graph_accepts_derived_layering_by_default():
    graph = _racy_builder().build()
    findings = verify_graph(graph)
    assert any(f.severity == ERROR for f in findings)


# -- the CLI -----------------------------------------------------------------


def test_cli_graph_all_policies_strict_clean(capsys):
    assert main_lint(["graph", "--all-policies", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "[dag-parallel] clean" in out
    assert "0 error(s)" in out


def test_cli_graph_single_policy_json(capsys):
    assert main_lint(["graph", "--policy", "full-parallel-fused", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["policy"] == "full-parallel-fused" for entry in payload)
    assert any("fusion" in entry["message"] for entry in payload)


def test_cli_graph_audit_without_plan_warns(tmp_path, capsys):
    (tmp_path / ".audit").mkdir()
    code = main_lint(["graph", "--policy", "dag-parallel", "--audit", str(tmp_path),
                      "--strict"])
    assert code == 1  # the missing plan is a warning; --strict fails it
    assert "no recorded plan" in capsys.readouterr().out


def test_cli_classic_lint_still_works(capsys):
    assert main_lint([]) == 0
    assert "error(s)" in capsys.readouterr().out
