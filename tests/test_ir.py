"""The unified relational IR: interning, evaluation, and the differential
suite asserting the ``.cat`` lowering matches the native models everywhere.

Three layers of assurance:

* unit tests for the hash-consing invariants (AC normalisation, closure
  towers, lifting recognition, txn-freeness, digest stability);
* evaluator correctness: every registered shortcut equals its structural
  evaluation; a lowered ``let rec`` is the native Power ``ppo`` node, and
  its value equals the closure computed by :class:`Relation` operators;
* the differential suite: for every catalog execution and every model,
  the IR-compiled ``.cat`` model and the native model agree axiom for
  axiom, witnesses included (both ``tm`` sweeps), and the ``tm=True``
  verdicts equal the pinned golden matrix, plus a seeded fuzz smoke run
  comes back clean.
"""

import json
from pathlib import Path

import pytest

from repro.catalog import CATALOG
from repro.cat.compile import compile_model
from repro.cat.library import library_files, library_source
from repro.cat.model import CAT_MODEL_FILES, CatModel, load_cat_model
from repro.cat.model import _parse_library as _loader
from repro.cat.parser import parse
from repro.core.analysis import analyze
from repro.core.builder import ExecutionBuilder
from repro.ir import ir_definition, prelude as P
from repro.ir import nodes as N
from repro.ir.eval import _SHORTCUTS, STATS, evaluate
from repro.ir.model import IRAxiom
from repro.models.base import canonical_cycle, witness_for
from repro.models.registry import get_model, model_names

GOLDEN = Path(__file__).parent / "golden_verdicts.json"


# ----------------------------------------------------------------------
# Interning and normalisation
# ----------------------------------------------------------------------


class TestInterning:
    def test_structural_identity(self):
        assert (P.po | P.rf) is (P.rf | P.po)
        assert (P.po & P.loc) is P.po_loc

    def test_union_flattens_and_dedupes(self):
        assert (P.po | (P.rf | P.co)) is ((P.po | P.rf) | P.co)
        assert (P.po | P.po) is P.po
        assert N.union(P.po) is P.po
        assert N.union() is N.empty()

    def test_identity_elements(self):
        assert (P.po | N.empty()) is P.po
        assert N.inter(P.po, N.empty()) is N.empty()
        assert N.diff(P.po, N.empty()) is P.po
        assert N.diff(P.po, P.po) is N.empty()
        assert N.comp(P.po, N.empty()) is N.empty()
        assert N.comp(P.po, P.id_) is P.po

    def test_closure_towers(self):
        assert N.opt(N.opt(P.po)) is N.opt(P.po)
        assert N.star(N.plus(P.po)) is N.star(P.po)
        assert N.plus(N.opt(P.po)) is N.star(P.po)
        assert N.opt(N.star(P.po)) is N.star(P.po)
        assert N.inverse(N.inverse(P.po)) is P.po

    def test_comp_flattens(self):
        a, b, c = P.po, P.rf, P.co
        assert N.comp(N.comp(a, b), c) is N.comp(a, N.comp(b, c))
        assert N.comp(a, b, c).args == (a, b, c)

    def test_lifting_recognised(self):
        body = P.po | P.com
        weak = N.comp(P.stxn, N.diff(body, P.stxn), P.stxn)
        assert weak is N.weaklift(body)
        strong = N.comp(
            N.opt(P.stxn), N.diff(body, P.stxn), N.opt(P.stxn)
        )
        assert strong is N.stronglift(body)

    def test_txn_freeness(self):
        assert P.coherence.txn_free
        assert not P.stxn.txn_free
        assert not N.stronglift(P.com).txn_free
        assert not (P.po | P.tfence).txn_free
        assert not N.bset("TXN").txn_free

    def test_digest_is_order_independent(self):
        assert (P.po | P.rf).digest == (P.rf | P.po).digest
        assert (P.po | P.rf).digest != (P.po & P.rf).digest

    def test_set_normalisation(self):
        assert N.sinter(P.R, P.W, P.R) is N.sinter(P.W, P.R)
        assert N.sunion(P.R, N.sempty()) is P.R
        assert N.lift(N.sempty()) is N.empty()
        assert N.cross(P.R, N.sempty()) is N.empty()

    def test_fix_binds_its_variables(self):
        bodies = (N.var(0) | P.po,)
        node = N.fix(bodies, 0)
        assert not node.free_vars
        assert N.var(0).free_vars

    def test_axiom_rejects_open_nodes(self):
        with pytest.raises(ValueError):
            IRAxiom("bad", "acyclic", "bad", N.var(0))
        with pytest.raises(ValueError):
            IRAxiom("bad", "bogus", "bad", P.po)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def _sample_executions():
    out = [CATALOG[name].execution for name in ("sb", "mp", "fig2", "iriw")]
    b = ExecutionBuilder()
    t0 = b.thread()
    r = t0.read("x")
    w = t0.write("y")
    b.data(r, w)
    out.append(b.build())
    return out


class TestEvaluation:
    def test_shortcuts_match_structural_evaluation(self):
        """Every registered shortcut is extensionally the node it tags."""
        for x in _sample_executions():
            a = analyze(x)
            for node_id, getter in list(_SHORTCUTS.items()):
                node = next(
                    n
                    for n in _all_interned()
                    if n.id == node_id
                )
                structural = _compute_without_shortcuts(node, a)
                assert getter(a) == structural, node

    def test_fixpoint_matches_tree_walk(self):
        """``powerppo.cat``'s ``let rec`` lowers to the very fixpoint
        node the native Power model declares."""
        from repro.models.power import power_ppo_node

        source = library_source("powerppo.cat")
        compiled = compile_model(parse(source), _loader)
        assert dict(compiled.bindings)["ppo"] is power_ppo_node()

    def test_baseline_sharing(self):
        x = CATALOG["fig2"].execution
        a = analyze(x)
        node = P.coherence
        value = evaluate(node, a)
        # txn-free values computed on the baseline land on the parent.
        assert evaluate(node, a.baseline) is value

    def test_txn_dependent_on_baseline_is_erased(self):
        x = CATALOG["fig2"].execution
        a = analyze(x)
        assert evaluate(P.stxn, a.baseline).is_empty()
        assert not evaluate(P.stxn, a).is_empty()

    def test_stats_count_computes_and_memo_hits(self):
        """One ``STATS.computes`` per node computed (a shortcut node
        counts once, its operands not at all) and one
        ``STATS.memo_hits`` per memo reuse; telemetry reports them as
        ``ir_node_computes`` and ``ir_memo_hits``."""
        x = CATALOG["fig2"].execution
        shared = P.po @ P.rf
        node = shared | shared.inverse()
        cases = [(node, 2, (5, 2)), (P.com, 1, (1, 0))]
        for root, times, expected in cases:
            fresh = analyze(x.with_txns(x.txns))
            computes, hits = STATS.computes, STATS.memo_hits
            for _ in range(times):
                evaluate(root, fresh)
            delta = (STATS.computes - computes, STATS.memo_hits - hits)
            assert delta == expected, root


def _all_interned():
    from repro.ir.nodes import _INTERN

    return _INTERN.values()


def _compute_without_shortcuts(node, a):
    """Evaluate ``node`` structurally, ignoring the shortcut table.

    Uses a *fresh* execution (fresh analysis memo) so values cached via
    shortcuts earlier cannot leak into the structural evaluation.
    """
    saved = dict(_SHORTCUTS)
    _SHORTCUTS.clear()
    try:
        fresh = analyze(a.x.with_txns(a.x.txns))
        return evaluate(node, fresh)
    finally:
        _SHORTCUTS.update(saved)


# ----------------------------------------------------------------------
# The .cat compiler
# ----------------------------------------------------------------------


class TestCompiler:
    def test_whole_library_compiles(self):
        for name in library_files():
            compiled = compile_model(parse(library_source(name)), _loader)
            assert compiled is not None

    @pytest.mark.parametrize("name", sorted(CAT_MODEL_FILES))
    def test_compiled_cat_shares_nodes_with_native(self, name):
        """Each library model's axiom operands are the *same interned
        nodes* as the native model's (except dongol/power where native
        and .cat are textually identical anyway)."""
        native = get_model(name)
        definition = ir_definition(native)
        assert definition is not None
        cat = load_cat_model(name)
        assert cat.compiled is not None
        cat_nodes = {
            c.name: c.node for c in cat.compiled.axiom_checks
        }
        native_nodes = {ax.name: ax.node for ax in definition.axioms}
        assert set(cat_nodes) == set(native_nodes)
        for axiom_name, node in native_nodes.items():
            assert cat_nodes[axiom_name] is node, (
                f"{name}.{axiom_name} not shared"
            )

    def test_letrec_lowers_to_fix(self):
        src = "let rec a = a | po\nacyclic a as A\n"
        compiled = compile_model(parse(src), None)
        assert compiled.axiom_checks[0].node.kind == "fix"

    def test_single_letrec_matches_tree_walk(self):
        """The least fixpoint of ``a = (a; a) | po | rf`` is the
        transitive closure of ``po | rf``."""
        src = "let rec a = (a; a) | po | rf\nacyclic a as A\n"
        compiled = compile_model(parse(src), None)
        for x in _sample_executions():
            assert evaluate(compiled.axiom_checks[0].node, x) == (
                (x.po | x.rf_rel).plus()
            )


# ----------------------------------------------------------------------
# The differential suite
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CAT_MODEL_FILES))
@pytest.mark.parametrize("tm", [True, False])
def test_ir_matches_legacy_tree_walk(name, tm):
    """The compiled ``.cat`` model == the native model, axiom for axiom
    and witness for witness, over the whole catalog; with ``tm`` both
    also reproduce the pinned golden matrix."""
    native = get_model(name, tm=tm)
    cat = load_cat_model(name, tm=tm)
    golden = json.loads(GOLDEN.read_text())
    for entry_name, entry in sorted(CATALOG.items()):
        x = entry.execution
        cat_verdict = cat.check(x)
        native_verdict = native.check(x)
        assert cat_verdict.consistent == native_verdict.consistent, entry_name
        assert [r.name for r in cat_verdict.results] == [
            r.name for r in native_verdict.results
        ], entry_name
        for result, native_result in zip(
            cat_verdict.results, native_verdict.results
        ):
            assert result.holds == native_result.holds, (
                f"{entry_name}: {name}.{result.name}"
            )
            assert result.witness == native_result.witness, (
                f"{entry_name}: {name}.{result.name} witness"
            )
        assert cat.consistent(x) == cat_verdict.consistent, entry_name
        assert native.consistent(x) == native_verdict.consistent, entry_name
        if tm:
            assert cat_verdict.consistent == golden[entry_name][name], (
                entry_name
            )


def test_golden_verdicts_unchanged_through_ir():
    """The golden matrix (pre-refactor verdicts) through the IR path."""
    golden = json.loads(GOLDEN.read_text())
    for entry_name, models in golden.items():
        if entry_name.startswith("litmus:"):
            # Litmus-observability rows (frontend↔catalog agreement)
            # are pinned by tests/test_corpus.py, not the IR sweep.
            continue
        x = CATALOG[entry_name].execution
        for model_name, expected in models.items():
            assert get_model(model_name).consistent(x) == expected, (
                entry_name,
                model_name,
            )


def test_seeded_fuzz_smoke_clean(test_seed):
    """A seeded differential smoke run across all checker families."""
    from repro.conformance import run_fuzz

    report = run_fuzz(
        "x86", seed=test_seed, budget="smoke", shrink=False, cache=None
    )
    assert not report.disagreements
    assert not report.errors


# ----------------------------------------------------------------------
# Planner, tokens, witnesses
# ----------------------------------------------------------------------


class TestPlannerAndTokens:
    def test_plan_is_cost_sorted_and_complete(self):
        for name in model_names():
            definition = ir_definition(get_model(name))
            assert definition is not None
            costs = [ax.node.cost for ax in definition.plan]
            assert costs == sorted(costs)
            assert {ax.name for ax in definition.plan} == {
                ax.name for ax in definition.axioms
            }

    def test_definition_token_stability_and_distinctness(self):
        tokens = {}
        for name in model_names():
            token = get_model(name).definition_token()
            assert token == get_model(name).definition_token()
            tokens[name] = token
        assert len(set(tokens.values())) == len(tokens)
        assert get_model("x86", tm=False).definition_token() != tokens["x86"]

    def test_cat_token_ignores_formatting_but_not_semantics(self):
        base = CatModel("let hb = po | rf\nacyclic hb as Order\n", name="t")
        spaced = CatModel(
            '"retitled"\n(* comment *)\nlet  hb  =  rf | po\n'
            "acyclic hb as Order\n",
            name="t",
        )
        changed = CatModel(
            "let hb = po | rf | co\nacyclic hb as Order\n", name="t"
        )
        assert base.definition_token() == spaced.definition_token()
        assert base.definition_token() != changed.definition_token()

    def test_mutant_tokens_track_stock_digest(self):
        from repro.conformance.mutants import drop_axiom

        mutant = drop_axiom("armv8", "TxnOrder")
        stock = get_model("armv8")
        assert mutant.definition_token() != stock.definition_token()
        assert len(mutant.definition().axioms) == len(
            stock.definition().axioms
        ) - 1
        # Surviving axiom nodes are shared with stock by interning.
        stock_nodes = {ax.name: ax.node for ax in stock.definition().axioms}
        for ax in mutant.definition().axioms:
            assert ax.node is stock_nodes[ax.name]


class TestWitnessDeterminism:
    def test_canonical_cycle_rotation(self):
        assert canonical_cycle([3, 1, 2]) == [1, 2, 3]
        assert canonical_cycle([]) == []
        assert canonical_cycle([0]) == [0]

    def test_witnesses_are_sorted(self):
        from repro.core.relation import Relation

        rel = Relation.from_pairs(4, [(3, 1), (0, 2), (1, 1)])
        assert witness_for("empty", rel) == [[0, 2], [1, 1], [3, 1]]
        assert witness_for("irreflexive", rel) == [1]

    def test_check_witnesses_stable_across_paths(self):
        """Native IR check and compiled cat check produce identical
        witnesses (both canonical)."""
        x = CATALOG["fig2"].execution
        native = get_model("x86").check(x)
        cat = load_cat_model("x86").check(x)
        native_by_name = {r.name: r.witness for r in native.results}
        for r in cat.results:
            assert r.witness == native_by_name[r.name], r.name
