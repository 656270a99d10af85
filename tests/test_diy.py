"""Tests for the Diy-style critical-cycle generator (paper §9 related
work: Diy "generates litmus tests by enumerating relaxations of SC")."""

import itertools

import pytest

from repro.catalog import CATALOG
from repro.conformance.generators import DIY_VOCABS
from repro.models.registry import get_model
from repro.synth.diy import (
    CLASSIC_CYCLES,
    COM_EDGES,
    Cycle,
    DEP_EDGES,
    Edge,
    FENCE_EDGES,
    PO_EDGES,
    TXN_EDGES,
    classic,
    cycle_execution,
    edge,
    enumerate_cycles,
    interesting_cycles,
)


class TestEdges:
    def test_lookup(self):
        assert edge("Rfe").com == "rf"
        assert edge("PodWR").src == "W" and edge("PodWR").dst == "R"
        assert edge("PosRR").same_loc
        assert edge("DpAddrdR").dep == "addr"
        assert edge("SyncdWW").fence == "sync"
        assert edge("TxndWR").txn

    def test_unknown_edge(self):
        with pytest.raises(ValueError, match="unknown edge"):
            edge("PodXY")

    def test_vocabularies_disjoint_names(self):
        groups = [COM_EDGES, PO_EDGES, DEP_EDGES, FENCE_EDGES, TXN_EDGES]
        names = [n for g in groups for n in g]
        assert len(names) == len(set(names))

    def test_str(self):
        assert str(edge("Fre")) == "Fre"


class TestCycleValidity:
    def test_kind_mismatch_rejected(self):
        # PodWR ends at R; Wse starts at W.
        cycle = Cycle.of("PodWR", "Wse")
        assert not cycle.is_valid()
        assert any("ends at R" in p for p in cycle.problems())

    def test_po_only_rejected(self):
        cycle = Cycle.of("PodWR", "PodRW")
        assert not cycle.is_valid()
        assert any("never leaves" in p for p in cycle.problems())

    def test_classics_valid(self):
        for name, cycle in CLASSIC_CYCLES.items():
            assert cycle.is_valid(), name

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Cycle(())

    def test_invalid_cycle_not_realisable(self):
        with pytest.raises(ValueError):
            cycle_execution(Cycle.of("PodWR", "Wse"))

    def test_canonical_rotation(self):
        a = Cycle.of("PodWR", "Fre", "PodWR", "Fre")
        b = Cycle.of("Fre", "PodWR", "Fre", "PodWR")
        assert a.canonical() == b.canonical()

    def test_str_lists_edges(self):
        assert str(Cycle.of("PodWR", "Fre")) == "PodWR Fre"


class TestClassicRealisation:
    def test_shapes(self):
        for name, n_events, n_threads, n_locs in [
            ("sb", 4, 2, 2),
            ("mp", 4, 2, 2),
            ("lb", 4, 2, 2),
            ("wrc", 5, 3, 2),
            ("iriw", 6, 4, 2),
            ("2+2w", 4, 2, 2),
        ]:
            x = classic(name)
            assert x.n == n_events, name
            assert len(x.threads) == n_threads, name
            assert len(x.locations) == n_locs, name

    def test_all_classics_sc_forbidden(self):
        sc = get_model("sc")
        for name in CLASSIC_CYCLES:
            assert not sc.consistent(classic(name)), name

    def test_well_formed(self):
        from repro.core.wellformed import check as check_wellformed

        for name in CLASSIC_CYCLES:
            assert not check_wellformed(classic(name)), name

    def test_x86_verdicts(self):
        x86 = get_model("x86")
        assert x86.consistent(classic("sb"))  # TSO allows SB
        assert not x86.consistent(classic("mp"))
        assert not x86.consistent(classic("iriw"))

    def test_power_verdicts(self):
        power = get_model("power")
        assert power.consistent(classic("sb"))
        assert power.consistent(classic("mp"))
        assert power.consistent(classic("lb"))
        assert power.consistent(classic("iriw"))

    def test_riscv_verdicts(self):
        riscv = get_model("riscv")
        assert riscv.consistent(classic("sb"))
        assert riscv.consistent(classic("mp"))

    def test_verdicts_match_catalog_classics(self):
        """The diy-built shapes get the same verdicts as the hand-built
        catalog entries of the same name, under every expected model."""
        pairs = [("sb", "sb"), ("mp", "mp"), ("lb", "lb"), ("iriw", "iriw")]
        for diy_name, cat_name in pairs:
            if cat_name not in CATALOG:
                continue
            entry = CATALOG[cat_name]
            x = classic(diy_name)
            for model_name, expected in entry.expected.items():
                model = get_model(model_name)
                assert model.consistent(x) == expected, (
                    f"{diy_name} under {model_name}"
                )


class TestDecorations:
    def test_fenced_sb_forbidden_on_x86(self):
        x = cycle_execution(Cycle.of("MFencedWR", "Fre", "MFencedWR", "Fre"))
        assert x.fences, "fence events must be materialised"
        assert not get_model("x86").consistent(x)

    def test_sync_mp_forbidden_on_power(self):
        x = cycle_execution(Cycle.of("SyncdWW", "Rfe", "SyncdRR", "Fre"))
        assert not get_model("power").consistent(x)

    def test_lwsync_sb_still_allowed_on_power(self):
        x = cycle_execution(Cycle.of("LwSyncdWR", "Fre", "LwSyncdWR", "Fre"))
        assert get_model("power").consistent(x)

    def test_dep_mp_forbidden_on_armv8(self):
        x = cycle_execution(Cycle.of("DmbdWW", "Rfe", "DpAddrdR", "Fre"))
        assert not get_model("armv8").consistent(x)

    def test_dep_lb_forbidden_on_power(self):
        x = cycle_execution(Cycle.of("DpDatadW", "Rfe", "DpDatadW", "Rfe"))
        assert not get_model("power").consistent(x)

    def test_txn_sb_forbidden_with_tm_only(self):
        x = cycle_execution(Cycle.of("TxndWR", "Fre", "TxndWR", "Fre"))
        assert len(x.txns) == 2
        assert not get_model("x86").consistent(x)
        assert get_model("x86", tm=False).consistent(x)

    def test_txn_decoration_spans_are_contiguous(self):
        from repro.core.wellformed import check as check_wellformed

        x = cycle_execution(Cycle.of("TxndWW", "Wse", "TxndWW", "Wse"))
        assert not check_wellformed(x)

    def test_fre_after_rfe_forces_coherence(self):
        # WRC-style: the fr source reads a write, so the fr target must
        # be co-later than that write.
        x = cycle_execution(Cycle.of("Rfe", "PosRR", "Fre", "PodWW"))
        # the read chain is on one location; co must order the rf source
        # before the fr target.
        assert any(len(order) == 2 for order in x.co.values())


class TestEnumeration:
    VOCAB = ["PodWR", "PodWW", "PodRR", "PodRW", "Rfe", "Fre", "Wse"]

    def test_all_valid_and_canonical(self):
        cycles = list(enumerate_cycles(self.VOCAB, 4))
        assert cycles
        for cycle in cycles:
            assert cycle.is_valid()
            assert cycle == cycle.canonical()

    def test_no_rotation_duplicates(self):
        keys = {
            tuple(e.name for e in c.edges)
            for c in enumerate_cycles(self.VOCAB, 4)
        }
        cycles = list(enumerate_cycles(self.VOCAB, 4))
        assert len(keys) == len(cycles)

    def test_classics_discovered(self):
        found = {str(c) for c in enumerate_cycles(self.VOCAB, 4)}
        assert str(CLASSIC_CYCLES["sb"].canonical()) in found
        assert str(CLASSIC_CYCLES["mp"].canonical()) in found
        assert str(CLASSIC_CYCLES["lb"].canonical()) in found

    def test_min_length_respected(self):
        for cycle in enumerate_cycles(self.VOCAB, 4, min_length=3):
            assert len(cycle.edges) >= 3

    def test_interesting_cycles_forbidden(self):
        x86 = get_model("x86")
        pairs = list(interesting_cycles(self.VOCAB, 4, x86))
        assert pairs
        for cycle, execution in pairs:
            assert not x86.consistent(execution), str(cycle)

    def test_interesting_excludes_allowed(self):
        x86 = get_model("x86")
        names = {str(c) for c, _ in interesting_cycles(self.VOCAB, 4, x86)}
        # SB is TSO-allowed, so its cycle must not be "interesting".
        assert str(CLASSIC_CYCLES["sb"].canonical()) not in names

    def test_every_realisation_is_wellformed(self):
        from repro.core.wellformed import check as check_wellformed

        for cycle in enumerate_cycles(self.VOCAB + ["PosWW", "PosRR"], 3):
            assert not check_wellformed(cycle_execution(cycle)), str(cycle)


def product_filter(vocabulary, max_length, min_length=2):
    """The product filter ``enumerate_cycles`` was before it became a
    necklace search, verbatim: the sequence oracle for the search."""
    vocab = [e if isinstance(e, Edge) else edge(e) for e in vocabulary]
    seen: set[tuple[str, ...]] = set()
    for length in range(min_length, max_length + 1):
        for combo in itertools.product(vocab, repeat=length):
            cycle = Cycle(tuple(combo))
            if not cycle.is_valid():
                continue
            key = tuple(e.name for e in cycle.canonical().edges)
            if key in seen:
                continue
            seen.add(key)
            yield cycle.canonical()


BASE_VOCAB = ["PodWR", "PodWW", "PodRR", "PodRW", "Rfe", "Fre", "Wse"]
TXN_VOCAB = BASE_VOCAB + ["TxndWR", "TxndWW", "TxndRR", "TxndRW"]

#: id -> (vocabulary, max_length, min_length)
ORACLE_CASES = {
    "base-l6": (BASE_VOCAB, 6, 2),
    "tm-l5": (TXN_VOCAB, 5, 2),
    **{f"{arch}-l4": (vocab, 4, 2) for arch, vocab in DIY_VOCABS.items()},
    "repeated-name": (["Rfe", "PodRR", "Fre", "Rfe", "PodWW", "PodRR"], 6, 2),
    "min-length-4": (BASE_VOCAB, 5, 4),
    "base-pos": (BASE_VOCAB + ["PosWW", "PosRR"], 5, 2),
    "wse-from-1": (["Wse"], 5, 1),
    "empty": ([], 5, 2),
    "max-below-min": (BASE_VOCAB, 3, 4),
}


class TestSearchMatchesProductFilter:
    """The necklace search yields the product filter's *sequence*, not
    just its set: the fuzzer takes the first N cycles, so the order is
    observable in its streams and in ``repro diy`` output."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_identical_sequence(self, case):
        vocab, max_length, min_length = ORACLE_CASES[case]
        got = enumerate_cycles(vocab, max_length, min_length)
        want = product_filter(vocab, max_length, min_length)
        assert [str(c) for c in got] == [str(c) for c in want]

    @pytest.mark.parametrize(
        "vocab, count", [(BASE_VOCAB, 1526), (TXN_VOCAB, 25808)],
        ids=["base", "tm"],
    )
    def test_length_7_counts(self, vocab, count):
        # Too slow for the oracle: 960k and 21M product tuples.
        assert sum(1 for _ in enumerate_cycles(vocab, 7)) == count

    def test_lazy(self):
        # The first cycle comes without searching the longer lengths.
        first = next(iter(enumerate_cycles(TXN_VOCAB, 40)))
        assert len(first.edges) == 2

    @pytest.mark.parametrize("min_length", [0, -1])
    def test_min_length_below_one_rejected(self, min_length):
        with pytest.raises(ValueError, match="at least one edge"):
            enumerate_cycles(BASE_VOCAB, 3, min_length=min_length)

    def test_unknown_edge_rejected_at_the_call(self):
        with pytest.raises(ValueError, match="unknown edge 'PodXY'"):
            enumerate_cycles(["PodXY", "Rfe"], 3)
