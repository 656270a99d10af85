"""Unit tests for the per-candidate analysis and the IR values read
through it."""

import pytest

from repro.core.analysis import CandidateAnalysis, analyze
from repro.core.builder import ExecutionBuilder
from repro.core.events import Label
from repro.core.lifting import stronglift, weaklift
from repro.core.relation import Relation
from repro.ir import nodes as N
from repro.ir import prelude as P
from repro.ir.eval import evaluate
from repro.models.registry import get_model, model_names
from repro.obs import telemetry, trace


def txn_execution():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w1 = t0.write("x")
    w2 = t0.write("y")
    b.txn([w1, w2], atomic=True)
    r1 = t1.read("y")
    r2 = t1.read("x")
    b.rf(w2, r1)
    return b.build()


def plain_execution():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w = t0.write("x")
    t0.fence("mfence")
    r = t1.read("x")
    b.rf(w, r)
    return b.build()


class TestSharing:
    def test_of_is_idempotent_and_shared(self):
        x = txn_execution()
        a = CandidateAnalysis.of(x)
        assert CandidateAnalysis.of(x) is a
        assert analyze(x) is a
        assert analyze(a) is a

    def test_delegated_relations_match_execution(self):
        """The base and shortcut nodes evaluate to the execution's own
        cached relations and event sets."""
        x = txn_execution()
        a = analyze(x)
        nodes = {
            "po": P.po, "fr": P.fr, "com": P.com, "sloc": P.loc,
            "sthd": P.int_, "po_loc": P.po_loc, "rfe": P.rfe,
            "coe": P.coe, "fre": P.fre, "come": P.come, "stxn": P.stxn,
            "stxnat": P.stxnat, "tfence": P.tfence,
        }
        for name, node in nodes.items():
            assert evaluate(node, a) == getattr(a.x, name), name
        assert evaluate(P.R, a) == x.reads
        assert evaluate(P.W, a) == x.writes
        assert evaluate(N.bset("TXN"), a) == x.txn_events

    def test_helper_values_are_correct(self):
        """Lifts, products, fence relations, the §3.3 liftings, ``ext``
        and the shared axiom operands, evaluated as IR nodes."""
        x = txn_execution()
        a = analyze(x)
        assert evaluate(N.lift(P.W), a) == Relation.lift(x.n, x.writes)
        assert evaluate(N.cross(P.R, P.W), a) == Relation.cross(
            x.n, x.reads, x.writes
        )
        assert evaluate(P.fencerel("MFENCE"), a) == x.fence_rel(Label.MFENCE)
        assert evaluate(P.stronglift(P.com), a) == stronglift(x.com, x.stxn)
        assert evaluate(P.weaklift(P.com), a) == weaklift(x.com, x.stxn)
        assert evaluate(P.ext, a) == Relation.full(x.n) - x.sthd
        assert evaluate(P.coherence, a) == (x.po_loc | x.com)
        assert evaluate(P.rmw_isol, a) == (x.rmw_rel & (x.fre @ x.coe))


class TestBaseline:
    def test_baseline_of_txn_free_execution_is_itself(self):
        a = analyze(plain_execution())
        assert a.baseline is a

    def test_baseline_erases_transactions(self):
        x = txn_execution()
        a = analyze(x)
        b = a.baseline
        assert b is not a
        assert b.baseline is b
        assert b.stxn.is_empty()
        assert b.stxnat.is_empty()
        assert b.tfence.is_empty()
        assert b.txn_events == frozenset()
        assert b.atomic_txn_events == frozenset()

    def test_baseline_matches_without_transactions(self):
        x = txn_execution()
        b = analyze(x).baseline
        y = x.without_transactions()
        assert evaluate(P.po, b) == y.po
        assert evaluate(P.fr, b) == y.fr
        assert evaluate(P.stxn, b) == y.stxn
        assert evaluate(P.tfence, b) == y.tfence
        assert b.execution.signature() == y.signature()
        assert b.execution is b.execution

    def test_models_agree_with_legacy_tm_false_path(self):
        x = txn_execution()
        for name in model_names():
            model = get_model(name, tm=False)
            legacy = model.relations(x.without_transactions())
            shared = model.relations(model._analysis(x))
            assert set(legacy) == set(shared), name
            for key in legacy:
                assert legacy[key] == shared[key], (name, key)


class TestModelEntryPoints:
    def test_relations_accept_execution_and_analysis(self):
        x = txn_execution()
        for name in model_names():
            model = get_model(name)
            via_x = model.relations(x)
            via_a = model.relations(analyze(x))
            assert set(via_x) == set(via_a)
            for key in via_x:
                assert via_x[key] == via_a[key], (name, key)

    def test_consistent_accepts_analysis(self):
        x = plain_execution()
        a = analyze(x)
        for name in model_names():
            model = get_model(name)
            assert model.consistent(a) == model.consistent(x), name

    def test_cat_env_built_from_analysis(self):
        """Every primitive a ``.cat`` source can name evaluates the same
        from the execution and from its analysis, to the shared value."""
        x = txn_execution()
        a = analyze(x)
        primitives = [N.bset(name) for name in sorted(N.BASE_SETS)]
        primitives += [N.base(name) for name in sorted(N.BASE_RELATIONS)]
        for node in primitives:
            assert evaluate(node, x) is evaluate(node, a), node

    def test_cat_models_accept_analysis(self):
        from repro.cat.model import load_cat_model

        x = txn_execution()
        model = load_cat_model("x86")
        assert model.consistent(analyze(x)) == model.consistent(x)

    def test_every_registry_model_enforces_coherence(self):
        for name in model_names():
            assert get_model(name).enforces_coherence, name

    def test_checkless_library_preludes_stay_conservative(self):
        from repro.cat.model import load_cat_model

        # stdlib/powerppo define relations but carry no checks; tagging
        # them coherence-enforcing would flip observable() verdicts.
        assert not load_cat_model("stdlib.cat").enforces_coherence
        assert not load_cat_model("powerppo.cat").enforces_coherence
        assert load_cat_model("x86tm.cat").enforces_coherence

    def test_repeated_cat_evaluation_is_stable_with_diamond_includes(self):
        """``powerppo.cat`` itself includes ``stdlib.cat``; the explicit
        second include must compile to nothing, and checking twice (the
        second time off the memoized analysis) must give one verdict."""
        from repro.cat.model import CatModel

        source = (
            '"diamond"\n'
            'include "powerppo.cat"\n'
            'include "stdlib.cat"\n'
            "acyclic po | com as Order\n"
        )
        model = CatModel(source)
        assert [c.name for c in model.compiled.checks] == ["Order"]
        x = txn_execution()
        first = model.check(x)
        second = model.check(x)
        assert [r.name for r in first.results] == ["Order"]
        assert second == first


class TestProfiling:
    def test_stage_accounting_is_self_time(self):
        prof = telemetry.enable().tracer
        try:
            with trace.stage("axioms"):
                with trace.stage("expansion"):
                    pass
        finally:
            telemetry.disable()
        assert set(prof.seconds) == {"axioms", "expansion"}
        assert prof.calls == {"axioms": 1, "expansion": 1}
        report = prof.report()
        assert "axioms" in report and "expansion" in report

    def test_disabled_profiling_is_a_noop(self):
        assert trace.ACTIVE is None
        with trace.stage("whatever"):
            pass
        trace.count("whatever")

    def test_campaign_profile_records_pipeline_stages(self):
        from repro.engine import diy_suite, run_campaign
        from repro.litmus.candidates import _expand_test, expand_program

        expand_program.cache_clear()
        _expand_test.cache_clear()
        prof = telemetry.enable().tracer
        try:
            run_campaign(diy_suite("x86", max_length=2), ["x86", "sc"])
        finally:
            telemetry.disable()
        assert "expansion" in prof.seconds
        assert "axioms" in prof.seconds
        assert prof.counters.get("candidates", 0) > 0


class TestExpansionCacheLimit:
    def test_fall_through_to_reenumeration(self, monkeypatch):
        from repro.litmus import candidates
        from repro.litmus.candidates import (
            _expand_test,
            candidate_executions,
            expand_program,
        )
        from repro.litmus.program import Load, Program, Store

        program = Program((
            (Store("x", 1), Store("x", 2)),
            (Load("r0", "x"), Load("r1", "x")),
        ))
        expand_program.cache_clear()
        _expand_test.cache_clear()
        unbounded = [c.execution.signature() for c in
                     candidate_executions(program)]
        assert len(unbounded) > 4

        monkeypatch.setattr(candidates, "EXPANSION_CACHE_LIMIT", 3)
        try:
            expand_program.cache_clear()
            stream = expand_program(program)
            first = [c.execution.signature() for c in stream]
            second = [c.execution.signature() for c in stream]
            assert first == unbounded
            assert second == unbounded
            # Only the capped prefix was retained.
            assert len(stream._seen) == 3
        finally:
            expand_program.cache_clear()
