"""The graph-invariant auditor: policy parsing, clean runs, injected bugs."""

import json

import pytest

from repro import ConstraintSystem
from repro.graph.base import ConstraintGraphBase
from repro.resilience import (
    AuditFailure,
    AuditPolicy,
    GraphInvariantError,
    audit_graph,
)
from repro.resilience.audit import (
    CHECK_NONREP_STATE,
    CHECK_UF_CYCLE,
)
from repro.resilience.errors import ResilienceError
from repro.solver import SolverEngine, solve
from repro.trace import CollectorSink, JsonlSink, read_jsonl
from repro.experiments.config import EXPERIMENT_LABELS, options_for
from repro.workloads.generator import RandomSystemConfig, random_system


class TestAuditPolicy:
    def test_off(self):
        for spec in (None, "off"):
            policy = AuditPolicy.parse(spec)
            assert not policy.enabled
            assert not policy.final
            assert policy.stride is None

    def test_final(self):
        policy = AuditPolicy.parse("final")
        assert policy.enabled and policy.final and policy.stride is None

    def test_stride_implies_final(self):
        policy = AuditPolicy.parse("stride-128")
        assert policy.enabled and policy.final and policy.stride == 128

    def test_bad_specs_rejected(self):
        for spec in ("sometimes", "stride-", "stride-0", "stride-x", ""):
            with pytest.raises(ResilienceError):
                AuditPolicy.parse(spec)


class TestCleanRuns:
    @pytest.mark.parametrize("label", EXPERIMENT_LABELS)
    def test_all_configs_audit_clean(self, label):
        system = random_system(RandomSystemConfig(seed=2))
        solution = solve(system, options_for(label, audit="stride-50"))
        assert audit_graph(solution.graph) == []

    def test_partial_runs_audit_clean_at_stop(self):
        from repro.solver import SolveBudget, SolverOptions

        system = random_system(RandomSystemConfig(seed=4))
        solution = solve(system, SolverOptions(
            budget=SolveBudget(max_work=25), on_budget="partial",
            check_stride=1, audit="stride-10",
        ))
        assert audit_graph(solution.graph) == []


def cyclic_system():
    """A seeded system whose closure collapses cycles under both online
    configurations (verified by ``test_premise_collapses_happen``)."""
    return random_system(RandomSystemConfig(
        seed=0, sinks=0, structural=0, extremes=0.0, feedback=0.4,
    ))


def test_premise_collapses_happen():
    """The injected-bug tests below are vacuous unless the healthy run
    actually eliminates variables; pin that premise."""
    for label in ("SF-Online", "IF-Online"):
        engine = SolverEngine(cyclic_system(), options_for(label))
        engine.run()
        assert engine.stats.vars_eliminated > 0, label


class TestInjectedBug:
    """A deliberately broken collapse is caught by the auditor."""

    def _break_absorb(self, monkeypatch):
        # Union the variables but leave the absorbed variable's edge
        # sets populated and unemitted — exactly the class of corruption
        # the nonrep-state invariant exists to catch.
        def broken(self, absorbed, witness):
            self.unionfind.union_into(witness, absorbed)
            self.stats.vars_eliminated += 1

        monkeypatch.setattr(ConstraintGraphBase, "_absorb", broken)

    def test_final_audit_raises(self, monkeypatch):
        self._break_absorb(monkeypatch)
        with pytest.raises(GraphInvariantError) as excinfo:
            solve(cyclic_system(), options_for("IF-Online", audit="final"))
        failures = excinfo.value.failures
        assert failures
        assert any(f.check == CHECK_NONREP_STATE for f in failures)

    def test_failures_reach_the_trace_sink(self, monkeypatch):
        self._break_absorb(monkeypatch)
        sink = CollectorSink()
        with pytest.raises(GraphInvariantError):
            solve(cyclic_system(),
                  options_for("IF-Online", audit="final", sink=sink))
        audit_events = [e for e in sink.events if e.name == "audit.failure"]
        assert audit_events
        assert audit_events[0].args["check"] == CHECK_NONREP_STATE

    def test_failures_reach_the_jsonl_trace(self, monkeypatch, tmp_path):
        self._break_absorb(monkeypatch)
        path = str(tmp_path / "audit.jsonl")
        sink = JsonlSink(path)
        with pytest.raises(GraphInvariantError) as excinfo:
            solve(cyclic_system(),
                  options_for("IF-Online", audit="final", sink=sink))
        sink.close()
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        raw = [line for line in lines if line["ev"] == "audit.failure"]
        assert len(raw) == len(excinfo.value.failures)
        events = [e for e in read_jsonl(path) if e.name == "audit.failure"]
        assert len(events) == len(raw)
        first = excinfo.value.failures[0]
        assert events[0].args == {
            "check": first.check,
            "subject": first.subject,
            "detail": first.detail,
        }

    def test_stride_audit_catches_mid_run(self, monkeypatch):
        self._break_absorb(monkeypatch)
        with pytest.raises(GraphInvariantError):
            solve(cyclic_system(),
                  options_for("SF-Online", audit="stride-1"))


class TestAuditGraphDirect:
    def test_unionfind_cycle_detected(self):
        system = cyclic_system()
        engine = SolverEngine(system, options_for("IF-Online"))
        engine.run()
        uf = engine.graph.unionfind
        # Corrupt the forest: a two-node parent cycle.
        uf._parent[0], uf._parent[1] = 1, 0
        failures = audit_graph(engine.graph)
        assert any(f.check == CHECK_UF_CYCLE for f in failures)

    def test_failure_str_is_informative(self):
        failure = AuditFailure(CHECK_NONREP_STATE, 7, "stale sources")
        text = str(failure)
        assert CHECK_NONREP_STATE in text and "7" in text
