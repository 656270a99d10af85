"""Unit tests for ``.cat`` semantics against hand-built executions.

A source means its IR lowering: expressions are compiled
(:func:`~repro.cat.compile.compile_model`) and their bindings evaluated
by the scalar IR reference; checks and flags go through
:class:`~repro.cat.model.CatModel`.  Expected values are hand-computed
or come from the native ``Execution`` relations and the
``repro.core.lifting`` functions, which share no code with the lowering.
Type and name errors are raised at compile time.
"""

import pytest

from repro.cat.compile import compile_model
from repro.cat.errors import CatError, CatNameError, CatTypeError
from repro.cat.library import library_source
from repro.cat.model import CatModel
from repro.cat.parser import parse
from repro.core.builder import ExecutionBuilder
from repro.core.events import Label
from repro.core.lifting import stronglift, weaklift
from repro.core.relation import Relation
from repro.ir.eval import evaluate


def compile_source(source):
    """Compile a source that needs no ``include`` loader."""
    return compile_model(parse(source), None)


def binding(compiled, name, x):
    """The value ``name`` is bound to, IR-evaluated on ``x``."""
    return evaluate(dict(compiled.bindings)[name], x)


def evaluate_expr(source, x):
    """The value of one expression under the primitive environment."""
    return binding(compile_source(f"let probe = {source}"), "probe", x)


@pytest.fixture
def mp():
    """Message-passing: t0 writes x then y; t1 reads y (from t0) then x
    (stale, from the initial state)."""
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    wx = t0.write("x")
    wy = t0.write("y")
    ry = t1.read("y")
    rx = t1.read("x")
    b.rf(wy, ry)
    return b.build()


@pytest.fixture
def txn_exec():
    """One transaction on each thread, conflicting on x."""
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    a = t0.write("x")
    c = t1.write("x")
    d = t1.read("x")
    b.rf(a, d)
    b.co(c, a)
    b.txn([a])
    b.txn([c, d])
    return b.build()


class TestPrimitives:
    def test_po(self, mp):
        po = evaluate_expr("po", mp)
        assert (0, 1) in po and (2, 3) in po
        assert (0, 2) not in po

    def test_sets(self, mp):
        assert evaluate_expr("W", mp) == frozenset({0, 1})
        assert evaluate_expr("R", mp) == frozenset({2, 3})
        assert evaluate_expr("M", mp) == frozenset(range(4))

    def test_universe(self, mp):
        assert evaluate_expr("_", mp) == frozenset(range(4))

    def test_rf(self, mp):
        assert list(evaluate_expr("rf", mp).pairs()) == [(1, 2)]

    def test_fr_includes_init_reads(self, mp):
        # rx reads the initial x, so it is fr-before the write wx.
        assert (3, 0) in evaluate_expr("fr", mp)

    def test_loc(self, mp):
        loc = evaluate_expr("loc", mp)
        assert (0, 3) in loc and (1, 2) in loc
        assert (0, 1) not in loc

    def test_int_ext_partition_non_diagonal_pairs(self, mp):
        union = evaluate_expr("int | ext", mp)
        assert union == Relation.full(4)

    def test_empty_relation_literal(self, mp):
        assert evaluate_expr("0", mp).is_empty()

    def test_empty_set_literal(self, mp):
        assert evaluate_expr("{}", mp) == frozenset()


class TestOperators:
    def test_union_and_intersection_on_sets(self, mp):
        assert evaluate_expr("R | W", mp) == frozenset(range(4))
        assert evaluate_expr("R & W", mp) == frozenset()

    def test_difference_on_sets(self, mp):
        assert evaluate_expr("M \\ R", mp) == frozenset({0, 1})

    def test_cross_product(self, mp):
        wr = evaluate_expr("W * R", mp)
        assert (0, 2) in wr and (1, 3) in wr and (2, 0) not in wr

    def test_cross_on_relations_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="Cartesian"):
            evaluate_expr("po * rf", mp)

    def test_mixed_boolean_op_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="two sets or two relations"):
            evaluate_expr("po | W", mp)

    def test_lift(self, mp):
        lifted = evaluate_expr("[W]", mp)
        assert list(lifted.pairs()) == [(0, 0), (1, 1)]

    def test_lift_of_relation_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="event set"):
            evaluate_expr("[po]", mp)

    def test_seq(self, mp):
        # po ; rf : wx -> ry
        assert (0, 2) in evaluate_expr("po ; rf", mp)

    def test_seq_promotes_sets_to_identity(self, mp):
        explicit = evaluate_expr("[W] ; po ; [R]", mp)
        promoted = evaluate_expr("W ; po ; R", mp)
        assert explicit == promoted

    def test_complement_of_set(self, mp):
        assert evaluate_expr("~R", mp) == frozenset({0, 1})

    def test_complement_of_relation_includes_diagonal(self, mp):
        compl = evaluate_expr("~po", mp)
        assert (0, 0) in compl and (1, 0) in compl and (0, 1) not in compl

    def test_closures(self, mp):
        assert evaluate_expr("po^?", mp) == evaluate_expr("po", mp).opt()
        assert evaluate_expr("po^+", mp) == evaluate_expr("po", mp).plus()
        assert evaluate_expr("po^*", mp) == evaluate_expr("po", mp).star()

    def test_inverse(self, mp):
        assert list(evaluate_expr("rf^-1", mp).pairs()) == [(2, 1)]

    def test_closure_of_set_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="expects a relation"):
            evaluate_expr("W^+", mp)

    def test_unbound_name(self, mp):
        with pytest.raises(CatNameError, match="unbound name 'zz'"):
            evaluate_expr("zz", mp)


class TestStatements:
    def test_let_binds(self, mp):
        model = CatModel("let hb = po | rf\nacyclic hb as Order")
        assert model.consistent(mp)
        assert binding(model.compiled, "hb", mp) == evaluate_expr(
            "po | rf", mp
        )

    def test_let_function_and_application(self, mp):
        source = """
        let fences(S) = po; [S]; po
        let f = fences(W)
        empty f \\ po as Sub
        """
        assert CatModel(source).consistent(mp)

    def test_function_wrong_arity(self, mp):
        with pytest.raises(CatTypeError, match="expects 1 argument"):
            compile_source("let f(x) = x\nlet y = f(po, rf)")

    def test_calling_a_relation_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="not a function"):
            compile_source("let y = po(rf)")

    def test_domain_and_range(self, mp):
        model = CatModel(
            "let d = domain(rf)\nlet r = range(rf)\n"
            "empty [d] \\ [W] as DomW\nempty [r] \\ [R] as RanR"
        )
        assert model.consistent(mp)
        assert binding(model.compiled, "d", mp) == frozenset({1})
        assert binding(model.compiled, "r", mp) == frozenset({2})

    def test_domain_of_set_is_an_error(self, mp):
        with pytest.raises(CatTypeError, match="expects a relation"):
            compile_source("let d = domain(W)")

    def test_let_rec_fixpoint(self, mp):
        # Transitive closure of po by recursion.
        compiled = compile_source("let rec tc = po | (tc; tc)")
        assert binding(compiled, "tc", mp) == evaluate_expr("po^+", mp)

    def test_let_rec_mutual(self, mp):
        source = """
        let rec a = po | (b; b)
        and b = rf | a
        """
        compiled = compile_source(source)
        assert binding(compiled, "a", mp) <= binding(compiled, "b", mp)

    def test_let_rec_must_be_relation(self, mp):
        with pytest.raises(CatTypeError, match="relation-valued"):
            compile_source("let rec s = W")

    @pytest.mark.parametrize("body", ["po \\ r", "po | ~r"])
    def test_non_monotone_let_rec_rejected_at_load(self, body):
        with pytest.raises(
            CatTypeError, match=r"let rec 'r' is not monotone.* line 1:"
        ):
            compile_source(f"let rec r = {body}")

    @pytest.mark.parametrize(
        "body, expected",
        [("(po | r) \\ rf", "po \\ rf"), ("~~r", "0")],
    )
    def test_positive_let_rec_accepted(self, mp, body, expected):
        compiled = compile_source(f"let rec r = {body}")
        assert binding(compiled, "r", mp) == evaluate_expr(expected, mp)

    def test_failing_check_reported(self, mp):
        model = CatModel("acyclic po | po^-1 as Bad")
        verdict = model.check(mp)
        assert not verdict.consistent
        (check,) = model.compiled.axiom_checks
        (result,) = verdict.results
        assert check.name == result.name == "Bad" and not result.holds
        assert "VIOLATED" in check.describe(result.holds)

    def test_negated_check(self, mp):
        """``~kind`` holds when ``kind`` fails; its witness is the plain
        check's, and kernels leave such a model to the scalar path."""
        model = CatModel("acyclic po as Order\n~empty rf as HasRf")
        verdict = model.check(mp)
        assert verdict.consistent and model.consistent(mp)
        _, has_rf = verdict.results
        assert has_rf.name == "HasRf" and has_rf.holds
        assert has_rf.witness == [list(p) for p in sorted(mp.rf_rel.pairs())]

        b = ExecutionBuilder()
        b.thread().write("x")
        b.thread().read("x")
        no_rf = b.build()
        verdict = model.check(no_rf)
        assert not verdict.consistent and not model.consistent(no_rf)
        (failure,) = verdict.failures
        assert failure.name == "HasRf" and failure.witness is None
        assert [ax.negated for ax in model.axioms()] == [False, True]
        assert model.batch_definition() is None

    def test_checks_sharing_a_name(self, mp):
        """Both checks are kept and reported; the repeat gets its own
        relation key, so the model stays batchable."""
        model = CatModel("acyclic po as A\nacyclic po | po^-1 as A")
        verdict = model.check(mp)
        assert [(r.name, r.holds) for r in verdict.results] == [
            ("A", True),
            ("A", False),
        ]
        assert not model.consistent(mp)
        assert [ax.key for ax in model.axioms()] == ["A", "A#2"]
        assert set(model.relations(mp)) == {"A", "A#2"}
        assert model.batch_definition() is model.definition()

    def test_flag_does_not_affect_consistency(self, mp):
        model = CatModel("flag ~empty po as Diag\nacyclic po as Order")
        assert model.consistent(mp)
        assert model.flags_raised(mp) == ["Diag"]

    def test_flag_not_raised_when_test_fails(self, mp):
        assert CatModel("flag ~empty 0 as Diag").flags_raised(mp) == []

    def test_include_without_loader_fails(self, mp):
        with pytest.raises(CatError, match="needs a loader"):
            compile_source('include "stdlib.cat"')

    def test_relation_accessor_type_guard(self, mp):
        with pytest.raises(CatTypeError):
            compile_source("let s = W\nlet t = s^-1")


class TestStdlib:
    def _eval(self, extra: str, x):
        """The stdlib bindings plus ``extra``, IR-evaluated on ``x``."""
        model = CatModel(library_source("stdlib.cat") + "\n" + extra)
        return {
            name: evaluate(node, x) for name, node in model.compiled.bindings
        }

    def test_rfe_rfi(self, mp):
        bindings = self._eval("let probe = rfe", mp)
        assert bindings["rfe"] == mp.rfe
        assert bindings["rfi"] == mp.rfi

    def test_com(self, mp):
        bindings = self._eval("let probe = com", mp)
        assert bindings["com"] == mp.com

    def test_po_loc(self, mp):
        bindings = self._eval("let probe = po_loc", mp)
        assert bindings["po_loc"] == mp.po_loc

    def test_fencerel_matches_native(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x")
        t0.fence(Label.SYNC)
        t0.write("y")
        x = b.build()
        bindings = self._eval("let s = fencerel(SYNC)", x)
        assert bindings["s"] == x.fence_rel(Label.SYNC)

    def test_weaklift_matches_native(self, txn_exec):
        bindings = self._eval("let wl = weaklift(com, stxn)", txn_exec)
        assert bindings["wl"] == weaklift(txn_exec.com, txn_exec.stxn)

    def test_stronglift_matches_native(self, txn_exec):
        bindings = self._eval("let sl = stronglift(com, stxn)", txn_exec)
        assert bindings["sl"] == stronglift(txn_exec.com, txn_exec.stxn)

    def test_tfence_primitive(self, txn_exec):
        assert evaluate_expr("tfence", txn_exec) == txn_exec.tfence

    def test_stxn_primitive(self, txn_exec):
        assert evaluate_expr("stxn", txn_exec) == txn_exec.stxn
