"""Tests for MemSynth-style model synthesis (paper §9 related work).

The flagship checks: the synthesizer recovers TSO's preserved program
order from classic-shape verdicts, and recovers the paper's TM axiom
story — TxnOrder alone explains the transactional corpus, reproducing
the paper's remark that TxnOrder subsumes StrongIsol.
"""

import itertools
from collections import namedtuple

import pytest

from repro.catalog import CATALOG
from repro.core.analysis import analyze
from repro.core.events import Label
from repro.core.lifting import stronglift
from repro.core.relation import Relation
from repro.models.base import witness_for
from repro.models.registry import get_model
from repro.synth.diy import Cycle, classic, cycle_execution
from repro.synth.modelsynth import (
    DEP_HOLES,
    PPO_HOLES,
    TM_HOLES,
    Example,
    ModelParams,
    SketchModel,
    SynthesisOutcome,
    _fence_kinds,
    synthesize_model,
)


def x86_corpus() -> list[Example]:
    x86 = get_model("x86")
    corpus = []
    for name in ("sb", "mp", "lb", "iriw", "2+2w", "wrc"):
        x = classic(name)
        corpus.append(Example(x, x86.consistent(x), name))
    corpus.append(
        Example(
            cycle_execution(Cycle.of("MFencedWR", "Fre", "MFencedWR", "Fre")),
            False,
            "sb+mfence",
        )
    )
    return corpus


def txn_corpus() -> list[Example]:
    corpus = x86_corpus()
    corpus.append(
        Example(
            cycle_execution(Cycle.of("TxndWR", "Fre", "TxndWR", "Fre")),
            False,
            "sb-txn",
        )
    )
    for name in (
        "fig2",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig3d",
        "rmw_split",
        "sb_txn_both",
        "sb_txn_one",
        "mp_txn_both",
        "txn_reads_own_write",
    ):
        entry = CATALOG[name]
        if "x86" in entry.expected:
            corpus.append(
                Example(entry.execution, entry.expected["x86"], name)
            )
    return corpus


#: One axiom of the reference sketch: a check over a relation-dict key.
Axiom = namedtuple("Axiom", "name kind relation")


class ReferenceSketch:
    """The sketch as a relation dictionary plus an axiom list — the
    formulation :class:`SketchModel` had before it was expressed as IR
    nodes, kept verbatim as its oracle."""

    def __init__(self, params: ModelParams) -> None:
        self.params = params

    def relations(self, x):
        x = analyze(x).execution
        n = x.n
        p = self.params
        kind_sets = {"W": x.writes, "R": x.reads}

        hb = x.rfe | x.coe | x.fre
        for pair in p.ppo:
            hb = hb | (
                Relation.cross(n, kind_sets[pair[0]], kind_sets[pair[1]])
                & x.po
            )
        if "addr" in p.deps:
            hb = hb | x.addr_rel
        if "data" in p.deps:
            hb = hb | x.data_rel
        if "ctrl" in p.deps:
            hb = hb | x.ctrl_rel
        for kind in p.fences:
            hb = hb | x.fence_rel(kind)
        if "tfence" in p.tm:
            hb = hb | x.tfence

        relations = {
            "coherence": x.po_loc | x.com,
            "rmw_isol": x.rmw_rel & (x.fre @ x.coe),
            "hb": hb,
        }
        if "strong_isol" in p.tm:
            relations["strong_isol"] = stronglift(x.com, x.stxn)
        if "txn_order" in p.tm:
            relations["txn_order"] = stronglift(hb.plus(), x.stxn)
        if "txn_cancels_rmw" in p.tm:
            relations["txn_cancels_rmw"] = x.rmw_rel & x.tfence
        return relations

    def axioms(self):
        out = [
            Axiom("Coherence", "acyclic", "coherence"),
            Axiom("RMWIsol", "empty", "rmw_isol"),
            Axiom("Order", "acyclic", "hb"),
        ]
        if "strong_isol" in self.params.tm:
            out.append(Axiom("StrongIsol", "acyclic", "strong_isol"))
        if "txn_order" in self.params.tm:
            out.append(Axiom("TxnOrder", "acyclic", "txn_order"))
        if "txn_cancels_rmw" in self.params.tm:
            out.append(Axiom("TxnCancelsRMW", "empty", "txn_cancels_rmw"))
        return tuple(out)

    def results(self, x, tm: bool):
        """``(name, holds, witness)`` per axiom, in declaration order."""
        a = analyze(x)
        relations = self.relations(a if tm else a.baseline)
        out = []
        for axiom in self.axioms():
            witness = witness_for(axiom.kind, relations[axiom.relation])
            out.append((axiom.name, witness is None, witness))
        return out


def _sketches(corpus):
    """Every sketch point ``synthesize_model(corpus)`` scans."""
    holes = (PPO_HOLES, DEP_HOLES, _fence_kinds(corpus), TM_HOLES)
    subsets = [
        [
            frozenset(c)
            for r in range(len(group) + 1)
            for c in itertools.combinations(group, r)
        ]
        for group in holes
    ]
    for ppo, deps, fences, tm in itertools.product(*subsets):
        yield ModelParams(ppo=ppo, deps=deps, fences=fences, tm=tm)


class TestModelParams:
    def test_unknown_holes_rejected(self):
        with pytest.raises(ValueError, match="unknown ppo holes"):
            ModelParams(ppo=frozenset({"XX"}))
        with pytest.raises(ValueError, match="unknown tm holes"):
            ModelParams(tm=frozenset({"magic"}))

    def test_unknown_fence_holes_rejected(self):
        """A fence hole must name a fence flavour: one that orders
        nothing would only double the search space."""
        with pytest.raises(ValueError, match="unknown fences holes"):
            ModelParams(fences=frozenset({"bogus"}))
        with pytest.raises(ValueError, match="unknown fences holes"):
            synthesize_model(
                x86_corpus(), include_tm=False, extra_fences=("bogus",)
            )

    def test_every_fence_flavour_is_a_hole(self):
        for kind in Label.FENCE_KINDS:
            params = ModelParams(fences=frozenset({kind}))
            assert SketchModel(params).consistent(classic("sb"))

    def test_ordering(self):
        weak = ModelParams(ppo=frozenset({"WW"}))
        strong = ModelParams(ppo=frozenset({"WW", "RR"}))
        assert weak <= strong
        assert not strong <= weak

    def test_size_and_describe(self):
        params = ModelParams(
            ppo=frozenset({"WW"}), fences=frozenset({"mfence"})
        )
        assert params.size == 2
        assert "ppo={WW}" in params.describe()


class TestSketchModel:
    def test_monotone_in_parameters(self):
        """Adding holes can only forbid more executions."""
        weak = SketchModel(ModelParams())
        strong = SketchModel(
            ModelParams(
                ppo=frozenset(PPO_HOLES), deps=frozenset(DEP_HOLES)
            )
        )
        for name in ("sb", "mp", "lb", "iriw"):
            x = classic(name)
            if strong.consistent(x):
                assert weak.consistent(x)

    def test_empty_sketch_is_weak(self):
        model = SketchModel(ModelParams())
        assert model.consistent(classic("mp"))
        assert model.consistent(classic("sb"))

    def test_coherence_always_on(self):
        from repro.core.builder import ExecutionBuilder

        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        w1 = t0.write("x")
        w2 = t0.write("x")
        ra = t1.read("x")
        rb = t1.read("x")
        b.rf(w2, ra)
        b.rf(w1, rb)
        assert not SketchModel(ModelParams()).consistent(b.build())

    def test_tm_axiom_names(self):
        model = SketchModel(ModelParams(tm=frozenset(TM_HOLES)))
        names = [a.name for a in model.axioms()]
        assert "StrongIsol" in names and "TxnOrder" in names
        assert "TxnCancelsRMW" in names

    @pytest.mark.parametrize("corpus", [x86_corpus, txn_corpus])
    @pytest.mark.parametrize("tm", [True, False])
    def test_matches_the_relation_dictionary_reference(self, corpus, tm):
        """On every sketch the synthesizer scans, ``consistent`` and
        ``check`` (names, holds, witnesses) equal the reference."""
        examples = [example.execution for example in corpus()]
        for params in _sketches(corpus()):
            model = SketchModel(params, tm=tm)
            reference = ReferenceSketch(params)
            for x in examples:
                want = reference.results(x, tm)
                verdict = model.check(x)
                got = [(r.name, r.holds, r.witness) for r in verdict.results]
                assert got == want, (params.describe(), x)
                expected = all(holds for _, holds, _ in want)
                assert verdict.consistent == expected
                assert model.consistent(x) == expected


class TestTsoRecovery:
    @pytest.fixture(scope="class")
    def outcome(self) -> SynthesisOutcome:
        return synthesize_model(x86_corpus(), include_tm=False)

    def test_satisfiable(self, outcome):
        assert outcome.satisfiable
        assert outcome.candidates_tried == 256  # 2^4 ppo × 2^3 deps × 2 fence

    def test_unique_weakest_is_tso(self, outcome):
        assert len(outcome.weakest) == 1
        params = outcome.weakest[0]
        assert params.ppo == {"WW", "RW", "RR"}  # everything but W->R
        assert params.fences == {"mfence"}
        assert params.deps == frozenset()
        assert params.tm == frozenset()

    def test_every_consistent_sketch_extends_the_weakest(self, outcome):
        weakest = outcome.weakest[0]
        for params in outcome.consistent:
            assert weakest.ppo <= params.ppo
            assert weakest.fences <= params.fences

    def test_recovered_model_agrees_with_x86_on_corpus(self, outcome):
        model = SketchModel(outcome.weakest[0])
        for example in x86_corpus():
            assert model.consistent(example.execution) == example.allowed


class TestTmRecovery:
    @pytest.fixture(scope="class")
    def outcome(self) -> SynthesisOutcome:
        return synthesize_model(txn_corpus())

    def test_satisfiable(self, outcome):
        assert outcome.satisfiable

    def test_txn_order_subsumes_strong_isol(self, outcome):
        """The weakest TM hole set is {txn_order} alone — the paper's
        'TxnOrder subsumes the StrongIsol axiom' (section 3.4)."""
        tm_sets = {params.tm for params in outcome.weakest}
        assert frozenset({"txn_order"}) in tm_sets
        # No weakest solution needs strong_isol *in addition to*
        # txn_order.
        for params in outcome.weakest:
            assert not {"txn_order", "strong_isol"} <= params.tm

    def test_base_holes_still_tso(self, outcome):
        for params in outcome.weakest:
            assert params.ppo == {"WW", "RW", "RR"}


class TestConflicts:
    def test_contradictory_corpus_unsat(self):
        x = classic("sb")
        corpus = [Example(x, True, "yes"), Example(x, False, "no")]
        outcome = synthesize_model(corpus, include_tm=False)
        assert not outcome.satisfiable

    def test_conflict_witness_for_unreachable_forbid(self):
        # MP forbidden is fine; MP allowed together with a shape that
        # needs the same ppo bits is not expressible... simplest direct
        # witness: forbid something even the strongest sketch allows.
        from repro.core.builder import ExecutionBuilder

        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x")
        trivial = b.build()
        outcome = synthesize_model([Example(trivial, False, "trivial")])
        assert not outcome.satisfiable
        assert outcome.conflict is not None
        assert outcome.conflict.name == "trivial"

    def test_conflict_witness_for_coherence_violation(self):
        from repro.core.builder import ExecutionBuilder

        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        w1 = t0.write("x")
        w2 = t0.write("x")
        ra = t1.read("x")
        rb = t1.read("x")
        b.rf(w2, ra)
        b.rf(w1, rb)
        outcome = synthesize_model([Example(b.build(), True, "corr")])
        assert not outcome.satisfiable
        assert outcome.conflict is not None

    def test_sketch_expressiveness_boundary(self):
        """The Fig. 10 lock-elision execution needs LOCK'd-RMW implied
        fences, which the sketch has no hole for: adding it with its
        x86 verdict makes the corpus unsatisfiable.  (MemSynth reports
        the same phenomenon: synthesis is relative to the sketch.)"""
        entry = CATALOG["armv8_lock_elision"]
        corpus = txn_corpus() + [
            Example(entry.execution, entry.expected["x86"], "lock-elision")
        ]
        assert not synthesize_model(corpus).satisfiable
