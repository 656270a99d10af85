"""Per-model unit tests beyond the catalog expectations."""

import itertools

import pytest

from repro.catalog import CATALOG
from repro.core.analysis import analyze
from repro.core.builder import ExecutionBuilder
from repro.core.events import Label
from repro.models.base import Axiom, Verdict
from repro.models.cpp import Cpp, acquire_events, atomic_events, release_events, sc_events
from repro.models.power import power_ppo
from repro.models.registry import get_model, model_names
from repro.synth.generate import EnumerationSpace, enumerate_executions


class TestRegistry:
    def test_all_models_instantiate(self):
        for name in model_names():
            model = get_model(name)
            assert model.consistent is not None

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            get_model("itanium")

    def test_baseline_flag(self):
        assert get_model("x86", tm=False).tm is False
        assert "(no TM)" in get_model("x86", tm=False).name


class TestVerdicts:
    def test_check_reports_all_axioms(self):
        b = ExecutionBuilder()
        b.thread().write("x")
        verdict = get_model("x86").check(b.build())
        assert isinstance(verdict, Verdict)
        names = [r.name for r in verdict.results]
        assert names == [
            "Coherence", "RMWIsol", "Order", "StrongIsol", "TxnOrder",
        ]
        assert verdict.consistent
        assert "consistent" in str(verdict)

    def test_failed_axioms(self):
        from repro.catalog import CATALOG

        x = CATALOG["fig2"].execution
        assert "StrongIsol" in get_model("x86").failed_axioms(x)

    def test_bad_axiom_kind(self):
        axiom = Axiom("x", "bogus", "r")
        with pytest.raises(ValueError):
            axiom.holds({"r": None})


class TestBaselineVsTm:
    def test_baseline_ignores_txns(self):
        from repro.catalog import CATALOG

        x = CATALOG["fig2"].execution
        assert not get_model("x86").consistent(x)
        assert get_model("x86", tm=False).consistent(x)

    @pytest.mark.parametrize("arch", ["x86", "power", "armv8", "cpp", "tsc"])
    def test_txn_free_agreement(self, arch):
        from repro.catalog import CATALOG

        for name in ("sb", "mp", "lb", "iriw"):
            x = CATALOG[name].execution
            assert get_model(arch).consistent(x) == get_model(
                arch, tm=False
            ).consistent(x), (arch, name)


class TestPowerPpo:
    def test_data_dep_in_ppo(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        r = t0.read("x")
        w = t0.write("y")
        b.data(r, w)
        x = b.build()
        assert (r, w) in power_ppo(x)

    def test_plain_po_not_in_ppo(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        r = t0.read("x")
        w = t0.write("y")
        x = b.build()
        assert (r, w) not in power_ppo(x)

    def test_addr_dep_read_read(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        r1 = t0.read("x")
        r2 = t0.read("y")
        b.addr(r1, r2)
        x = b.build()
        assert (r1, r2) in power_ppo(x)

    def test_ctrl_to_read_not_in_ppo(self):
        # Control dependencies order only writes (without isync).
        b = ExecutionBuilder()
        t0 = b.thread()
        r1 = t0.read("x")
        r2 = t0.read("y")
        b.ctrl(r1, r2)
        x = b.build()
        assert (r1, r2) not in power_ppo(x)

    def test_ctrl_isync_orders_reads(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        r1 = t0.read("x")
        f = t0.fence(Label.ISYNC)
        r2 = t0.read("y")
        b.ctrl(r1, f)
        x = b.build()
        assert (r1, r2) in power_ppo(x)

    def test_rdw_chain(self):
        # poloc read pairs reading different external writes are ordered.
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        r1 = t0.read("x")
        r2 = t0.read("x")
        w = t1.write("x")
        b.rf(w, r2)
        x = b.build()
        assert (r1, r2) in power_ppo(x)


# The Python definitions of the C++ event sets that preceded the IR set
# nodes, kept as the oracle for them: the expressions are verbatim, with
# the analysis memo around each dropped (``a.labelled`` is
# ``Execution.with_label``).
_ORACLE_ACQ_MODES = frozenset({Label.ACQ, Label.ACQ_REL, Label.SC})
_ORACLE_REL_MODES = frozenset({Label.REL, Label.ACQ_REL, Label.SC})


def _oracle_atomic_events(a) -> frozenset[int]:
    return a.with_label(Label.ATO) & a.accesses


def _oracle_acquire_events(a) -> frozenset[int]:
    return frozenset(
        i
        for i, e in enumerate(a.events)
        if e.mode in _ORACLE_ACQ_MODES and (e.is_read or e.is_fence)
    )


def _oracle_release_events(a) -> frozenset[int]:
    return frozenset(
        i
        for i, e in enumerate(a.events)
        if e.mode in _ORACLE_REL_MODES and (e.is_write or e.is_fence)
    )


def _oracle_sc_events(a) -> frozenset[int]:
    return frozenset(
        i for i, e in enumerate(a.events) if e.mode == Label.SC
    )


_CPP_SETS = (
    (atomic_events, _oracle_atomic_events),
    (acquire_events, _oracle_acquire_events),
    (release_events, _oracle_release_events),
    (sc_events, _oracle_sc_events),
)


class TestCppSets:
    def test_ir_sets_match_python_oracle(self):
        """The IR-evaluated sets equal the Python definitions on every
        three-event C++ execution and on the catalog, on both views."""
        space = EnumerationSpace.for_arch("cpp", 3)
        executions = itertools.chain(
            enumerate_executions(space),
            (entry.execution for entry in CATALOG.values()),
        )
        count = 0
        nonempty = set()
        for x in executions:
            count += 1
            for helper, oracle in _CPP_SETS:
                want = oracle(x)
                assert helper(x) == want, (helper.__name__, x.describe())
                assert helper(analyze(x).baseline) == want, helper.__name__
                if want:
                    nonempty.add(helper.__name__)
        assert count > 100_000
        assert len(nonempty) == len(_CPP_SETS)

    def build(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        na = t0.read("x")
        acq = t0.atomic_read("y", Label.ACQ)
        sc_w = t0.atomic_write("z", Label.SC)
        rel = t0.atomic_write("y", Label.REL)
        return b.build(), (na, acq, sc_w, rel)

    def test_atomic_events(self):
        x, (na, acq, sc_w, rel) = self.build()
        assert atomic_events(x) == {acq, sc_w, rel}

    def test_acquire_release(self):
        x, (na, acq, sc_w, rel) = self.build()
        assert acq in acquire_events(x)
        assert rel in release_events(x)
        assert sc_w in release_events(x)
        assert sc_w not in acquire_events(x)  # an SC *write* is not Acq

    def test_sc_events(self):
        x, (na, acq, sc_w, rel) = self.build()
        assert sc_events(x) == {sc_w}

    def test_races_symmetric_pairing(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.write("x")
        t1.write("x")
        b.co(0, 1)
        x = b.build()
        cpp = Cpp()
        races = cpp.races(x)
        assert (0, 1) in races and (1, 0) in races
        assert not cpp.race_free(x)

    def test_same_thread_no_race(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x")
        t0.write("x")
        assert Cpp().race_free(b.build())

    def test_release_acquire_removes_race(self):
        from repro.catalog import CATALOG

        # MP with rel/acq is racy only in the weak outcome; the entry
        # (forbidden outcome) has hb covering the data accesses.
        x = CATALOG["cpp_mp_rel_acq"].execution
        assert Cpp().race_free(x)


class TestSCvsTSC:
    def test_tsc_stronger_than_sc(self):
        from repro.catalog import CATALOG

        sc = get_model("sc")
        tsc = get_model("tsc")
        for entry in CATALOG.values():
            x = entry.execution
            if x.calls:
                continue
            if tsc.consistent(x):
                assert sc.consistent(x), entry.name

    def test_tsc_equals_sc_without_txns(self):
        from repro.catalog import CATALOG

        sc = get_model("sc")
        tsc = get_model("tsc")
        for name in ("sb", "mp", "lb", "iriw", "2+2w", "corr"):
            x = CATALOG[name].execution
            assert sc.consistent(x) == tsc.consistent(x)
