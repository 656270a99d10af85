"""Unit tests for the program→candidate-execution expansion."""

import itertools

import pytest

from repro.core.wellformed import is_wellformed
from repro.engine.campaign import diy_suite, run_campaign
from repro.litmus import candidates as cand
from repro.litmus.candidates import candidate_executions
from repro.litmus.program import (
    CtrlBranch,
    Fence,
    Load,
    Program,
    Store,
    TxBegin,
    TxEnd,
)


def prog(*threads):
    return Program(tuple(tuple(t) for t in threads))


def candidates(*threads):
    return list(candidate_executions(prog(*threads)))


class TestExpansionCounts:
    def test_single_load_two_candidates(self):
        # The load reads the initial value or the store.
        cands = candidates([Load("r0", "x")], [Store("x", 1)])
        assert len(cands) == 2
        values = {c.outcome.registers[(0, "r0")] for c in cands}
        assert values == {0, 1}

    def test_co_permutations(self):
        cands = candidates([Store("x", 1)], [Store("x", 2)])
        orders = {c.outcome.write_orders["x"] for c in cands}
        assert orders == {(1, 2), (2, 1)}

    def test_txn_commit_and_abort_variants(self):
        cands = candidates([TxBegin(), Store("x", 1), TxEnd()])
        assert len(cands) == 2
        committed = [c for c in cands if c.outcome.committed]
        aborted = [c for c in cands if c.outcome.aborted]
        assert len(committed) == 1 and len(aborted) == 1
        assert aborted[0].execution.n == 0  # events vanish (§3.1)
        assert committed[0].execution.txns

    def test_all_candidates_wellformed(self):
        cands = candidates(
            [TxBegin(), Load("r0", "x"), Store("y", 1, data_dep=("r0",)), TxEnd()],
            [Store("x", 1), Load("r0", "y")],
        )
        for c in cands:
            assert is_wellformed(c.execution)


class TestStructure:
    def test_register_carried_data_dep(self):
        cands = candidates(
            [Load("r0", "x"), Store("y", 1, data_dep=("r0",))]
        )
        for c in cands:
            assert (0, 1) in c.execution.data

    def test_addr_dep(self):
        cands = candidates([Load("r0", "x"), Load("r1", "y", addr_dep=("r0",))])
        for c in cands:
            assert (0, 1) in c.execution.addr

    def test_ctrl_branch_downward_closed(self):
        cands = candidates(
            [Load("r0", "x"), CtrlBranch(("r0",)), Store("y", 1), Store("z", 2)]
        )
        for c in cands:
            assert (0, 1) in c.execution.ctrl
            assert (0, 2) in c.execution.ctrl

    def test_exclusive_pairing(self):
        cands = candidates(
            [Load("r0", "x", excl=True), Store("x", 1, excl=True)]
        )
        for c in cands:
            assert (0, 1) in c.execution.rmw

    def test_exclusive_pairing_same_location_only(self):
        cands = candidates(
            [Load("r0", "x", excl=True), Store("y", 1, excl=True)]
        )
        for c in cands:
            assert not c.execution.rmw

    def test_fences_are_events(self):
        cands = candidates([Store("x", 1), Fence("sync"), Store("y", 1)])
        for c in cands:
            assert len(c.execution.fences) == 1

    def test_atomic_txn_flag(self):
        cands = candidates([TxBegin(atomic=True), Store("x", 1), TxEnd()])
        committed = [c for c in cands if c.outcome.committed]
        assert committed[0].execution.txns[0].atomic

    def test_two_txns_independent_fates(self):
        cands = candidates(
            [TxBegin(), Store("x", 1), TxEnd(), TxBegin(), Store("y", 1), TxEnd()]
        )
        fates = {
            (len(c.outcome.committed), len(c.outcome.aborted)) for c in cands
        }
        assert fates == {(2, 0), (1, 1), (0, 2)}

    def test_memory_final_values(self):
        cands = candidates([Store("x", 1), Store("x", 2)])
        finals = {c.outcome.memory["x"] for c in cands}
        # po order does not constrain candidates' co... but wellformedness
        # of the outcome means the final is the co-last of each order.
        assert finals == {1, 2}


class TestSharedShapes:
    """Thread shapes are shared within one campaign sweep, and only
    within it."""

    @staticmethod
    def _distinct_shapes(items) -> int:
        """The suite's distinct ``(thread, commit choice)`` pairs."""
        keys = set()
        for item in items:
            for thread in item.payload.program.threads:
                txns = sum(isinstance(i, TxBegin) for i in thread)
                for choice in itertools.product([True, False], repeat=txns):
                    keys.add((thread, choice))
        return len(keys)

    def test_one_expansion_per_distinct_thread_per_sweep(self, monkeypatch):
        items = diy_suite("power", max_length=5)
        threads = sum(len(i.payload.program.threads) for i in items)
        distinct = self._distinct_shapes(items)
        assert distinct < threads  # otherwise there is nothing to share
        calls = []
        real = cand._expand_thread

        def spy(thread, committed):
            calls.append(thread)
            return real(thread, committed)

        monkeypatch.setattr(cand, "_expand_thread", spy)
        models = [
            "armv8", "cpp", "power", "power-dongol", "riscv", "sc", "tsc",
            "x86",
        ]
        for _ in range(2):
            # A fresh sweep: no retained stream to replay.
            cand._expand_program_cached.cache_clear()
            cand._expand_test.cache_clear()
            calls.clear()
            run_campaign(items, models)
            assert len(calls) == distinct

    def test_no_memo_outside_a_block(self):
        assert cand._SHAPES.get() is None
        with cand.shared_shapes():
            outer = cand._SHAPES.get()
            with cand.shared_shapes():
                assert cand._SHAPES.get() is not outer
            assert cand._SHAPES.get() is outer
        assert cand._SHAPES.get() is None
