"""Randomized equivalence suite: pruned enumeration vs. brute force.

The constraint-pruned incremental enumerator of
:mod:`repro.litmus.candidates` must be *semantics-preserving*:

* the full stream yields exactly the brute-force candidate set (as
  execution signatures and outcomes), with a ``coherent`` bit equal to
  ``acyclic(po_loc ∪ com)`` computed from first principles;
* the ``coherent_only`` stream is exactly the coherent subset;
* the postcondition-filtered stream is exactly the satisfying subset;
* :func:`~repro.litmus.candidates.observable` and
  :func:`~repro.litmus.candidates.all_outcomes` agree with the naive
  reference loop for every model.

Programs are generated pseudo-randomly over the full instruction
vocabulary: loads/stores with dependencies and exclusives, fences,
control branches, and committed/aborted/conditionally-aborting
transactions.  All randomness derives from ``REPRO_TEST_SEED`` (printed
in the pytest header), so any failure is reproducible from the log line
alone.
"""

import itertools
import pathlib
import random
from typing import Iterator

import pytest

from repro.conformance.generators import random_postcondition
from repro.conformance.seeds import derive_seed, reproducible_seed
from repro.core.events import Event
from repro.core.execution import Execution, Transaction
from repro.litmus.candidates import (
    Candidate,
    _coww_ok,
    _enumerate_candidates,
    _expand_thread,
    _ThreadShape,
    _txn_counts,
    brute_force_candidates,
    brute_force_observable,
    brute_force_outcomes,
    all_outcomes,
    observable,
    shared_shapes,
)
from repro.litmus.program import (
    CtrlBranch,
    Fence,
    Load,
    Program,
    Store,
    TxAbort,
    TxBegin,
    TxEnd,
)
from repro.litmus.test import CoSeq, LitmusTest, MemEq, Outcome, RegEq, TxnOk
from repro.models.registry import get_model

#: Hard cap on brute-force candidates per program (keeps the suite fast).
_MAX_CANDIDATES = 1500

#: Session seed: $REPRO_TEST_SEED or the fixed default.
_SEED = reproducible_seed()


def random_program(rng: random.Random) -> Program:
    """A small random program over the full instruction vocabulary."""
    locs = ["x", "y", "z"][: rng.randint(1, 3)]
    next_value = {loc: 0 for loc in locs}
    threads = []
    for _tid in range(rng.randint(1, 3)):
        instrs = []
        defined: list[str] = []
        in_txn = False
        reg_counter = 0
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            loc = rng.choice(locs)
            if roll < 0.35:
                next_value[loc] += 1
                deps = {}
                if defined and rng.random() < 0.3:
                    deps["data_dep"] = (rng.choice(defined),)
                if defined and rng.random() < 0.15:
                    deps["addr_dep"] = (rng.choice(defined),)
                instrs.append(
                    Store(
                        loc,
                        next_value[loc],
                        excl=rng.random() < 0.1,
                        **deps,
                    )
                )
            elif roll < 0.7:
                reg = f"r{reg_counter}"
                reg_counter += 1
                deps = {}
                if defined and rng.random() < 0.2:
                    deps["addr_dep"] = (rng.choice(defined),)
                instrs.append(
                    Load(reg, loc, excl=rng.random() < 0.1, **deps)
                )
                defined.append(reg)
            elif roll < 0.78:
                instrs.append(
                    Fence(rng.choice(["mfence", "sync", "lwsync", "dmb"]))
                )
            elif roll < 0.84 and defined:
                instrs.append(CtrlBranch((rng.choice(defined),)))
            elif roll < 0.94 and not in_txn:
                instrs.append(TxBegin(atomic=rng.random() < 0.3))
                in_txn = True
            elif in_txn:
                if rng.random() < 0.3:
                    reg = rng.choice(defined) if (
                        defined and rng.random() < 0.7
                    ) else None
                    instrs.append(TxAbort(reg))
                instrs.append(TxEnd())
                in_txn = False
        if in_txn:
            instrs.append(TxEnd())
        if instrs:
            threads.append(tuple(instrs))
    if not threads:
        threads.append((Store("x", 1),))
        next_value.setdefault("x", 0)
        next_value["x"] = max(next_value.get("x", 0), 1)
    return Program(tuple(threads))


def _corpus(n: int, seed: int = _SEED):
    """Deterministic corpus of (program, brute-force candidate list)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        program = random_program(rng)
        brute = []
        for candidate in brute_force_candidates(program):
            brute.append(candidate)
            if len(brute) > _MAX_CANDIDATES:
                break
        else:
            out.append((program, brute))
    return out


CORPUS = _corpus(30)


def _key(candidate):
    return (
        candidate.execution.signature(),
        candidate.outcome.key(),
        candidate.coherent,
    )


class TestCandidateSetEquivalence:
    def test_full_stream_matches_brute_force(self):
        """Same signatures, outcomes, AND coherence bits (the pruned
        enumerator's pattern-based bit must equal the from-first-
        principles ``acyclic(po_loc ∪ com)``)."""
        for program, brute in CORPUS:
            new = list(map(_key, _enumerate_candidates(program)))
            old = list(map(_key, brute))
            # Keys are unique per candidate (rf/co/commit choices pin the
            # signature and outcome), so set equality plus equal counts
            # is multiset equality.
            assert len(new) == len(old), program
            assert set(new) == set(old), program

    def test_coherent_only_stream_is_the_coherent_subset(self):
        for program, brute in CORPUS:
            pruned = list(
                map(_key, _enumerate_candidates(program, coherent_only=True))
            )
            expected = [_key(c) for c in brute if c.coherent]
            assert len(pruned) == len(expected), program
            assert set(pruned) == set(expected), program

    def test_filtered_stream_is_the_satisfying_subset(self):
        rng = random.Random(derive_seed(_SEED, "equivalence-filtered"))
        for program, brute in CORPUS:
            post = random_postcondition(rng, program)
            test = LitmusTest("rand", "neutral", program, post)
            filtered = list(
                map(_key, _enumerate_candidates(program, postcondition=post))
            )
            expected = [_key(c) for c in brute if test.check(c.outcome)]
            assert len(filtered) == len(expected), (program, post)
            assert set(filtered) == set(expected), (program, post)


# ----------------------------------------------------------------------
# Sequence oracle: the enumerator before shapes were shared
# ----------------------------------------------------------------------

# ``reference_candidates`` and ``_reference_expand_memory`` are the
# enumerator as it was before thread shapes were shared within a sweep
# and memory expansion became one pass, copied verbatim (renamed only):
# the oracle for the candidate *sequence*, not just the set.


def reference_candidates(
    program: Program,
    postcondition: tuple | None = None,
    coherent_only: bool = False,
) -> Iterator[Candidate]:
    counts = _txn_counts(program)
    txn_atoms = (
        [a for a in postcondition if isinstance(a, TxnOk)]
        if postcondition
        else []
    )
    for atom in txn_atoms:
        if atom.tid >= len(counts) or atom.index >= counts[atom.tid]:
            return  # the transaction never exists: unsatisfiable
    commit_spaces = [
        list(itertools.product([True, False], repeat=c)) for c in counts
    ]
    for commit_choice in itertools.product(*commit_spaces):
        committed_sets = [
            {i: ok for i, ok in enumerate(choices)} for choices in commit_choice
        ]
        # TxnOk atoms are decided entirely by the commit choice: prune
        # contradicting choices before expanding any thread.
        if any(
            committed_sets[a.tid][a.index] != a.ok for a in txn_atoms
        ):
            continue
        shapes = [
            _expand_thread(thread, committed_sets[tid])
            for tid, thread in enumerate(program.threads)
        ]
        if any(shape is None for shape in shapes):
            continue  # a committed transaction aborts unconditionally
        yield from _reference_expand_memory(
            program, shapes, committed_sets, postcondition=postcondition,
            coherent_only=coherent_only,
        )


def _reference_expand_memory(
    program: Program,
    shapes: list[_ThreadShape],
    committed_sets: list[dict[int, bool]],
    postcondition: tuple | None = None,
    coherent_only: bool = False,
) -> Iterator[Candidate]:
    """Incrementally enumerate rf choices and co orders for fixed shapes.

    All shape-level structure is hoisted; rf is assigned read by read
    with the uniproc coherence patterns checked against the chosen co,
    and postcondition atoms are applied at the outermost loop level that
    decides them.
    """
    # -- global renumbering: threads in order, events in program order --
    offset: list[int] = []
    events: list[Event] = []
    threads: list[list[int]] = []
    thread_of: list[int] = []
    for tid, shape in enumerate(shapes):
        offset.append(len(events))
        threads.append(list(range(len(events), len(events) + len(shape.events))))
        events.extend(shape.events)
        thread_of.extend([tid] * len(shape.events))

    def glob(tid: int, local: int) -> int:
        return offset[tid] + local

    store_values: dict[int, int] = {}
    writes_by_loc: dict[str, list[int]] = {}
    for tid, shape in enumerate(shapes):
        for local, value in shape.store_values.items():
            store_values[glob(tid, local)] = value
    for eid, event in enumerate(events):
        if event.is_write:
            writes_by_loc.setdefault(event.loc, []).append(eid)

    reads: list[tuple[int, int, str]] = []  # (tid, global id, reg)
    for tid, shape in enumerate(shapes):
        for local, reg in shape.reads:
            reads.append((tid, glob(tid, local), reg))

    # Conditional aborts in committed transactions: the condition read
    # must observe zero, i.e. the initial value (store values are
    # non-zero by validation) — its rf space collapses to {init}.
    condition_reads: set[int] = set()
    for tid, shape in enumerate(shapes):
        condition_reads.update(glob(tid, c) for c in shape.abort_conditions)

    deps = {"addr": [], "data": [], "ctrl": [], "rmw": []}
    txns: list[Transaction] = []
    for tid, shape in enumerate(shapes):
        for name in ("addr", "data", "ctrl", "rmw"):
            deps[name].extend(
                (glob(tid, a), glob(tid, b)) for a, b in getattr(shape, name)
            )
        for first, last, atomic in shape.txns:
            txns.append(
                Transaction(
                    tuple(range(glob(tid, first), glob(tid, last) + 1)), atomic
                )
            )

    committed = frozenset(
        (tid, idx)
        for tid, chosen in enumerate(committed_sets)
        for idx, ok in chosen.items()
        if ok
    )
    aborted = frozenset(
        (tid, idx)
        for tid, chosen in enumerate(committed_sets)
        for idx, ok in chosen.items()
        if not ok
    )

    # -- postcondition atoms decided by this shape -----------------------
    reg_atoms: dict[tuple[int, str], int] = {}
    mem_atoms: dict[str, int] = {}
    coseq_atoms: dict[str, tuple[int, ...]] = {}
    if postcondition is not None:
        for atom in postcondition:
            if isinstance(atom, RegEq):
                want = reg_atoms.setdefault((atom.tid, atom.reg), atom.value)
                if want != atom.value:
                    return  # contradictory conjunction
            elif isinstance(atom, MemEq):
                want = mem_atoms.setdefault(atom.loc, atom.value)
                if want != atom.value:
                    return
            elif isinstance(atom, CoSeq):
                want = coseq_atoms.setdefault(atom.loc, atom.values)
                if want != atom.values:
                    return
        # Registers never defined in this shape stay 0.
        defined = {(tid, reg) for tid, _, reg in reads}
        for key, value in reg_atoms.items():
            if key not in defined and value != 0:
                return
        # Locations with fewer than two writes have a fixed final state.
        for loc, value in mem_atoms.items():
            ws = writes_by_loc.get(loc, [])
            if len(ws) < 2:
                final = store_values[ws[0]] if ws else 0
                if final != value:
                    return
        for loc, values in coseq_atoms.items():
            ws = writes_by_loc.get(loc, [])
            if len(ws) < 2:
                fixed = tuple(store_values[w] for w in ws)
                if fixed != values:
                    return

    # -- rf spaces, statically restricted --------------------------------
    last_def: dict[tuple[int, str], int] = {}
    for i, (tid, _, reg) in enumerate(reads):
        last_def[(tid, reg)] = i

    rf_spaces: list[list[int | None]] = []
    for i, (tid, gid, reg) in enumerate(reads):
        if gid in condition_reads:
            space: list[int | None] = [None]
        else:
            space = [None] + writes_by_loc.get(events[gid].loc, [])
        want = reg_atoms.get((tid, reg))
        if want is not None and last_def[(tid, reg)] == i:
            space = [
                w
                for w in space
                if (0 if w is None else store_values[w]) == want
            ]
        if not space:
            return
        rf_spaces.append(space)

    # -- per-read structure for the uniproc coherence patterns -----------
    read_loc = [events[gid].loc for _, gid, _ in reads]
    #: same-thread same-location writes po-before / po-after each read
    writes_before: list[list[int]] = []
    writes_after: list[list[int]] = []
    #: po-earlier same-thread same-location reads (indices into reads)
    prev_reads: list[list[int]] = []
    for i, (tid, gid, _) in enumerate(reads):
        ws = writes_by_loc.get(read_loc[i], [])
        writes_before.append(
            [w for w in ws if thread_of[w] == tid and w < gid]
        )
        writes_after.append(
            [w for w in ws if thread_of[w] == tid and w > gid]
        )
        prev_reads.append(
            [
                j
                for j in range(i)
                if reads[j][0] == tid and read_loc[j] == read_loc[i]
            ]
        )

    # -- co permutation tables, postcondition- and coWW-annotated --------
    base_co = {
        loc: (ws[0],) for loc, ws in writes_by_loc.items() if len(ws) == 1
    }
    co_locs = [loc for loc, ws in writes_by_loc.items() if len(ws) > 1]
    co_tables: list[list[tuple[tuple[int, ...], bool]]] = []
    for loc in co_locs:
        table = []
        mem_want = mem_atoms.get(loc)
        seq_want = coseq_atoms.get(loc)
        for perm in itertools.permutations(writes_by_loc[loc]):
            if mem_want is not None and store_values[perm[-1]] != mem_want:
                continue
            if seq_want is not None and (
                tuple(store_values[w] for w in perm) != seq_want
            ):
                continue
            ok = _coww_ok(perm, thread_of)
            if coherent_only and not ok:
                continue
            table.append((perm, ok))
        if not table:
            return
        co_tables.append(table)

    # -- structure shared by every candidate -----------------------------
    events_t = tuple(events)
    nonempty_threads = tuple(t for t in threads if t)
    addr_fs = frozenset(deps["addr"])
    data_fs = frozenset(deps["data"])
    ctrl_fs = frozenset(deps["ctrl"])
    rmw_fs = frozenset(deps["rmw"])
    txns_t = tuple(txns)
    n_reads = len(reads)
    chosen: list[int | None] = [None] * n_reads

    for co_sel in itertools.product(*co_tables):
        co: dict[str, tuple[int, ...]] = dict(base_co)
        co_ok = True
        copos: dict[int, int] = {}
        for loc, (perm, ok) in zip(co_locs, co_sel):
            co[loc] = perm
            co_ok = co_ok and ok
            for pos, w in enumerate(perm):
                copos[w] = pos
        for loc, order in base_co.items():
            copos[order[0]] = 0

        memory = {
            loc: store_values[order[-1]] for loc, order in co.items()
        }
        write_orders = {
            loc: tuple(store_values[w] for w in order)
            for loc, order in co.items()
        }

        # Incremental rf assignment with per-read coherence checks
        # against the chosen co.
        def assign(i: int, ok_prefix: bool) -> Iterator[Candidate]:
            if i == n_reads:
                rf = {
                    reads[j][1]: w
                    for j, w in enumerate(chosen)
                    if w is not None
                }
                execution = Execution(
                    events=events_t,
                    threads=nonempty_threads,
                    rf=rf,
                    co=co,
                    addr=addr_fs,
                    data=data_fs,
                    ctrl=ctrl_fs,
                    rmw=rmw_fs,
                    txns=txns_t,
                )
                registers = {
                    (tid, reg): (
                        store_values[chosen[j]]
                        if chosen[j] is not None
                        else 0
                    )
                    for j, (tid, _, reg) in enumerate(reads)
                }
                outcome = Outcome(
                    registers=registers,
                    memory=memory,
                    committed=committed,
                    aborted=aborted,
                    write_orders=write_orders,
                )
                # The atom-level pruning above is exhaustive; this final
                # check is a cheap guard so the filtered stream can never
                # over-approximate the postcondition.
                if postcondition is None or all(
                    outcome.satisfies(atom) for atom in postcondition
                ):
                    yield Candidate(execution, outcome, coherent=ok_prefix)
                return
            tid, gid, _ = reads[i]
            for w in rf_spaces[i]:
                ok = ok_prefix
                if ok:
                    if w is None:
                        # coWR-init: a same-thread write was overtaken.
                        if writes_before[i]:
                            ok = False
                        else:
                            # coRR-init: an earlier read saw a write.
                            for j in prev_reads[i]:
                                if chosen[j] is not None:
                                    ok = False
                                    break
                    else:
                        pos = copos[w]
                        # coRW1: reading a po-later same-thread write.
                        if thread_of[w] == tid and w > gid:
                            ok = False
                        if ok:
                            # coWR: a po-earlier same-thread write is
                            # co-after the write being read.
                            for wb in writes_before[i]:
                                if copos[wb] > pos:
                                    ok = False
                                    break
                        if ok:
                            # coRW2: a po-later same-thread write is
                            # co-before the write being read.
                            for wa in writes_after[i]:
                                if copos[wa] < pos:
                                    ok = False
                                    break
                        if ok:
                            # coRR: same-thread reads observing writes
                            # against the coherence order.
                            for j in prev_reads[i]:
                                wj = chosen[j]
                                if wj is not None and copos[wj] > pos:
                                    ok = False
                                    break
                if coherent_only and not ok:
                    continue
                chosen[i] = w
                yield from assign(i + 1, ok)
            chosen[i] = None

        yield from assign(0, co_ok)


#: Candidates compared per stream: enough to cover every candidate of
#: most tests, few enough to keep the suite within seconds.
_ORACLE_PREFIX = 2000


def _oracle_programs():
    """``(id, program, postcondition)`` for the oracle inputs: the
    random corpus above, the power diy suite up to length 5, the x86 TM
    diy suite (the 11-edge vocabulary) up to length 4, and every
    committed corpus file."""
    from repro.engine.campaign import DIY_VOCAB, diy_suite, litmus_suite

    rng = random.Random(derive_seed(_SEED, "equivalence-oracle"))
    out = [
        (f"random-{i}", program, random_postcondition(rng, program))
        for i, (program, _) in enumerate(CORPUS)
    ]
    tm_vocab = DIY_VOCAB + ("TxndWR", "TxndWW", "TxndRR", "TxndRW")
    here = pathlib.Path(__file__).parent
    corpus = sorted(str(p) for p in (here / "corpus").glob("*/*.litmus"))
    for items in (
        diy_suite("power", max_length=5),
        diy_suite("x86", tm_vocab, 4),
        litmus_suite(corpus),
    ):
        out.extend(
            (item.name, item.payload.program, item.payload.postcondition)
            for item in items
        )
    return out


class TestSequenceOracle:
    """The enumerator yields the reference enumerator's candidates in
    the reference order, with and without the postcondition and for
    both coherence modes — inside a shared-shape block, as the campaign
    prefill runs it, and outside one."""

    @pytest.mark.parametrize("coherent_only", [False, True])
    def test_identical_sequence(self, coherent_only):
        programs = _oracle_programs()
        assert len(programs) > 600, "oracle inputs shrank"
        with shared_shapes():
            for name, program, post in programs:
                for postcondition in (None, post):
                    want = [
                        _key(c)
                        for c in itertools.islice(
                            reference_candidates(
                                program, postcondition, coherent_only
                            ),
                            _ORACLE_PREFIX,
                        )
                    ]
                    got = [
                        _key(c)
                        for c in itertools.islice(
                            _enumerate_candidates(
                                program, postcondition, coherent_only
                            ),
                            _ORACLE_PREFIX,
                        )
                    ]
                    assert got == want, (name, postcondition)

    def test_identical_sequence_outside_a_sweep(self):
        for name, program, post in _oracle_programs()[: len(CORPUS)]:
            want = list(map(_key, reference_candidates(program, post)))
            got = list(map(_key, _enumerate_candidates(program, post)))
            assert got == want, name


# The reference semantics now live next to the enumerators themselves
# (they double as the differential fuzzer's ground-truth checker).
_reference_observable = brute_force_observable
_reference_outcomes = brute_force_outcomes


class TestVerdictEquivalence:
    MODELS = ["sc", "tsc", "x86", "power", "armv8", "riscv", "cpp"]

    def test_observable_matches_reference(self):
        rng = random.Random(derive_seed(_SEED, "equivalence-observable"))
        models = [get_model(name) for name in self.MODELS]
        models.append(get_model("x86", tm=False))
        for program, _ in CORPUS[:12]:
            post = random_postcondition(rng, program)
            test = LitmusTest("rand", "neutral", program, post)
            for model in models:
                assert observable(test, model) == _reference_observable(
                    test, model
                ), (program, post, model.name)

    def test_observable_matches_reference_cat(self):
        from repro.cat.model import load_cat_model

        rng = random.Random(derive_seed(_SEED, "equivalence-cat"))
        model = load_cat_model("x86")
        assert model.enforces_coherence
        for program, _ in CORPUS[:4]:
            post = random_postcondition(rng, program)
            test = LitmusTest("rand", "neutral", program, post)
            assert observable(test, model) == _reference_observable(
                test, model
            ), (program, post)

    def test_all_outcomes_matches_reference(self):
        for program, _ in CORPUS[:6]:
            test = LitmusTest("rand", "neutral", program, ())
            for name in ("x86", "sc", "armv8"):
                model = get_model(name)
                assert all_outcomes(test, model) == _reference_outcomes(
                    test, model
                ), (program, name)
