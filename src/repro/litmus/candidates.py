"""Expand a litmus program into its candidate executions.

This is the front half of a herd-style axiomatic checker (the paper's
"candidate executions of a program are obtained by assuming a
non-deterministic memory system", section 2): every load may observe any
same-location store or the initial value, every location's stores are
ordered arbitrarily by coherence, and every transaction independently
commits or aborts (an aborted transaction's events vanish, section 3.1).

The enumeration is an *incremental constraint-pruned search* rather than
a materialised cross-product:

* a thread's shape (its events, registers, dependencies and transactions
  under one commit choice) depends only on the thread's instructions and
  that choice, so inside a :func:`shared_shapes` block — the campaign
  prefill opens one per sweep — every stream expanded reuses the shapes
  already built for structurally equal threads;
* per-test work (global renumbering, write and read indexes,
  dependency/transaction lifting, per-location permutation tables) is
  one pass over the shapes, hoisted out of the rf × co loops, and the
  co tables, which refute many postcondition-filtered tests outright,
  are built before any per-read structure;
* every candidate carries a ``coherent`` bit — the classic uniproc
  patterns (coWW/coRW/coWR/coRR) are detected incrementally while rf is
  assigned, which is exactly ``acyclic(po_loc ∪ com)``.  Consumers
  checking a model that :attr:`~repro.models.base.MemoryModel.
  enforces_coherence` skip the full axiom sweep for incoherent
  candidates; ``coherent_only=True`` prunes them *before* an
  ``Execution`` is even built;
* :func:`expand_test` threads a litmus test's postcondition through the
  search: commit choices contradicting ``TxnOk`` atoms, rf choices
  contradicting register atoms, and co permutations contradicting final
  -memory/coherence-sequence atoms are pruned at their loop level, so
  the permutations of locations the postcondition cannot distinguish
  are never expanded for failing branches.

:func:`observable` then answers the question the Litmus tool answers on
hardware: can this test's postcondition be satisfied under a given
model?  :func:`brute_force_candidates` retains the original
cross-product enumerator as the oracle for the randomized equivalence
suite (``tests/test_equivalence.py``).
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from ..obs import trace
from ..core.events import Event, EventKind, Label
from ..core.execution import Execution, Transaction
from ..models.base import MemoryModel
from .program import (
    CtrlBranch,
    Fence,
    Load,
    Program,
    Store,
    TxAbort,
    TxBegin,
    TxEnd,
)
from .test import CoSeq, LitmusTest, MemEq, Outcome, RegEq, TxnOk

__all__ = [
    "Candidate",
    "candidate_executions",
    "expand_program",
    "expand_test",
    "brute_force_candidates",
    "brute_force_forall",
    "brute_force_observable",
    "brute_force_outcomes",
    "observable",
    "forall_holds",
    "all_outcomes",
    "set_batch_size",
    "shared_shapes",
]


# ----------------------------------------------------------------------
# The prefill switch
# ----------------------------------------------------------------------

#: Whether campaigns run the cross-item batched prefill
#: (:func:`repro.engine.batchsweep.prefill_units`, its only reader) —
#: the one batched path.  Everything else here checks candidates on the
#: scalar reference.
_prefill = True


def set_batch_size(size: "int | None") -> None:
    """Turn the campaign prefill off or back on.

    ``0`` (or ``1``) turns it off, so every cell runs on the scalar
    per-cell path — the reference the batched-vs-scalar differentials
    and the benchmark verdict digests are taken from; ``None`` or any
    larger size turns it back on.  Forked pool workers inherit the
    setting.
    """
    global _prefill
    if size is not None and size < 0:
        raise ValueError(f"batch size must be >= 0, got {size}")
    _prefill = size is None or size > 1


@dataclass(frozen=True)
class Candidate:
    """One candidate execution of a program plus its final state.

    ``coherent`` records whether the execution satisfies per-location
    coherence (``acyclic(po_loc ∪ com)``), determined for free during
    the incremental enumeration.
    """

    execution: Execution
    outcome: Outcome
    coherent: bool = True


@dataclass
class _ThreadShape:
    """Per-thread expansion state for one commit/abort choice."""

    events: list[Event]
    regs: dict[str, int]  # register -> defining load event (thread-local id)
    reads: list[tuple[int, str]]  # (local event id, dst register)
    store_values: dict[int, int]  # local event id -> stored value
    addr: list[tuple[int, int]]
    data: list[tuple[int, int]]
    ctrl: list[tuple[int, int]]
    rmw: list[tuple[int, int]]
    txns: list[tuple[int, int, bool]]  # (first, last, atomic) local ids
    #: Commit feasibility conditions from conditional TxAborts inside
    #: *committed* transactions: (local read event id, required value is
    #: zero).  A committed transaction means no abort fired, so every
    #: condition register must have read zero.
    abort_conditions: list[int]


def _expand_thread(
    thread: tuple, committed: dict[int, bool]
) -> _ThreadShape | None:
    """Expand one thread given commit decisions for its transactions.

    Returns ``None`` if a transaction chosen as committed contains an
    unconditional ``TxAbort`` — that choice is infeasible (Remark 7.1:
    such a transaction never succeeds).

    A register whose *only* definition sits inside an aborted
    transaction is rolled back with it (the operational machines restore
    the register snapshot, section 3.1: an aborted transaction's events
    vanish): later uses read the pre-transaction definition if one
    exists, else the initial value 0 — and induce no dependency edge,
    since the defining load event does not exist in this candidate.
    """
    shape = _ThreadShape([], {}, [], {}, [], [], [], [], [], [])
    pending_ctrl: list[int] = []  # defining loads of all open branches
    open_excl: dict[str, int] = {}  # loc -> unpaired exclusive load
    txn_counter = -1
    in_txn = False
    txn_start = 0
    txn_atomic = False
    skipping = False

    for instr in thread:
        if isinstance(instr, TxBegin):
            txn_counter += 1
            if committed[txn_counter]:
                in_txn = True
                txn_atomic = instr.atomic
                txn_start = len(shape.events)
            else:
                skipping = True
            continue
        if isinstance(instr, TxEnd):
            if skipping:
                skipping = False
            elif in_txn:
                in_txn = False
                if len(shape.events) > txn_start:
                    shape.txns.append(
                        (txn_start, len(shape.events) - 1, txn_atomic)
                    )
            continue
        if skipping:
            continue
        if isinstance(instr, TxAbort):
            if not in_txn:
                continue
            if instr.reg is None:
                return None  # committed choice is infeasible
            if instr.reg in shape.regs:
                shape.abort_conditions.append(shape.regs[instr.reg])
            # A rolled-back condition register reads 0: the abort never
            # fires, so a committed choice needs no extra condition.
            continue
        if isinstance(instr, CtrlBranch):
            for reg in instr.regs:
                if reg in shape.regs:
                    pending_ctrl.append(shape.regs[reg])
            continue
        if isinstance(instr, Fence):
            eid = len(shape.events)
            shape.events.append(Event(EventKind.FENCE, None, frozenset({instr.kind})))
            shape.ctrl.extend((src, eid) for src in pending_ctrl)
            continue
        if isinstance(instr, Load):
            eid = len(shape.events)
            labels = set(instr.labels)
            if instr.excl:
                labels.add(Label.EXCL)
            shape.events.append(Event(EventKind.READ, instr.loc, frozenset(labels)))
            shape.addr.extend(
                (shape.regs[r], eid) for r in instr.addr_dep if r in shape.regs
            )
            shape.regs[instr.dst] = eid
            shape.reads.append((eid, instr.dst))
            shape.ctrl.extend((src, eid) for src in pending_ctrl)
            if instr.excl:
                open_excl[instr.loc] = eid
            continue
        if isinstance(instr, Store):
            eid = len(shape.events)
            labels = set(instr.labels)
            if instr.excl:
                labels.add(Label.EXCL)
            shape.events.append(Event(EventKind.WRITE, instr.loc, frozenset(labels)))
            shape.store_values[eid] = instr.value
            shape.data.extend(
                (shape.regs[r], eid) for r in instr.data_dep if r in shape.regs
            )
            shape.addr.extend(
                (shape.regs[r], eid) for r in instr.addr_dep if r in shape.regs
            )
            shape.ctrl.extend((src, eid) for src in pending_ctrl)
            if instr.excl and instr.loc in open_excl:
                shape.rmw.append((open_excl.pop(instr.loc), eid))
            continue
        raise TypeError(f"unknown instruction {instr!r}")
    return shape


def _txn_counts(program: Program) -> list[int]:
    return [
        sum(isinstance(i, TxBegin) for i in thread) for thread in program.threads
    ]


#: The shape memo of the innermost open :func:`shared_shapes` block,
#: ``(thread, that thread's commit choice) -> shape or None``; ``None``
#: outside every block.
_SHAPES: "contextvars.ContextVar[dict | None]" = contextvars.ContextVar(
    "repro_shared_shapes", default=None
)

_UNBUILT = object()


@contextmanager
def shared_shapes():
    """Share thread shapes among the streams expanded inside the block.

    A shape depends only on the thread's instructions (frozen
    dataclasses, so the key is structural) and on the thread's commit
    choice, and it is only read once built, so structurally equal
    threads of different tests — diy families, corpus fence variants —
    share one.  The memo is looked up per commit choice while a stream
    is pulled: a stream resumed after the block ends expands without
    it, and the shapes die with the block, so nothing outlives the
    sweep that built them.
    """
    token = _SHAPES.set({})
    try:
        yield
    finally:
        _SHAPES.reset(token)


# ----------------------------------------------------------------------
# Replayable, bounded candidate streams
# ----------------------------------------------------------------------

#: Candidates retained per stream for replay by later consumers (the
#: same test checked against another model).  Beyond the cap, iteration
#: falls through to re-enumeration, so huge tests cannot pin their full
#: candidate set in memory via the expansion memos.
EXPANSION_CACHE_LIMIT = 20_000


class _LazyExpansion:
    """A replayable view of one candidate stream.

    Candidates are pulled from the underlying enumerator on demand and
    retained (up to the cache limit), so early-exiting consumers
    (:func:`observable` stops at the first witness) pay only for the
    prefix they visit, while later consumers — the same test checked
    against another model — replay the retained prefix instead of
    re-enumerating.  Past the limit each consumer re-enumerates its own
    tail from the deterministic source, trading CPU for bounded memory.
    """

    def __init__(self, factory: Callable[[], Iterator[Candidate]]) -> None:
        self._factory = factory
        self._source = factory()
        self._seen: list[Candidate] = []
        self._done = False

    def _pull(self) -> None:
        """Advance the shared source by one candidate into ``_seen``."""
        self._seen.append(_next_profiled(self._source))

    def __iter__(self) -> Iterator[Candidate]:
        i = 0
        while True:
            if i < len(self._seen):
                yield self._seen[i]
                i += 1
            elif self._done:
                return
            elif len(self._seen) >= EXPANSION_CACHE_LIMIT:
                # Retention cap reached (read at iteration time, so a
                # lowered cap also bounds already-memoized streams):
                # this consumer re-enumerates its own tail — the source
                # is deterministic.
                tail = itertools.islice(self._factory(), i, None)
                while True:
                    try:
                        yield _next_profiled(tail)
                    except StopIteration:
                        return
            else:
                try:
                    self._pull()
                except StopIteration:
                    self._done = True


def _next_profiled(source: Iterator[Candidate]) -> Candidate:
    """``next(source)`` attributed to the ``expansion`` profiling stage."""
    if trace.ACTIVE is not None:
        with trace.stage("expansion"):
            item = next(source)
        trace.count("candidates")
        return item
    return next(source)


def candidate_executions(
    program: Program, coherent_only: bool = False
) -> Iterator[Candidate]:
    """Yield every candidate execution of ``program``.

    Expansion is memoized per program (see :func:`expand_program`), so
    checking the same test against many models — the campaign engine's
    cross-product, repeated :func:`observable` calls — enumerates once.
    The stream stays lazy: consumers that stop early (a postcondition
    witnessed by the first candidate) never force the full expansion.

    ``coherent_only=True`` prunes candidates violating per-location
    coherence during the search (sound for any consumer whose model
    enforces the Coherence axiom — all of the paper's models do).
    """
    return iter(expand_program(program, coherent_only))


@lru_cache(maxsize=256)
def _expand_program_cached(
    program: Program, coherent_only: bool
) -> _LazyExpansion:
    return _LazyExpansion(
        lambda: _enumerate_candidates(program, coherent_only=coherent_only)
    )


def expand_program(
    program: Program, coherent_only: bool = False
) -> _LazyExpansion:
    """The memoized (lazily materialized) expansion of ``program``.

    ``Program`` is a frozen dataclass, so the cache key is structural:
    two syntactically identical tests share one expansion.  The cache is
    bounded; ``expand_program.cache_clear()`` resets it (tests use this).
    """
    # Normalize the argument shape so ``expand_program(p)`` and
    # ``candidate_executions(p)`` share one cache entry.
    return _expand_program_cached(program, bool(coherent_only))


expand_program.cache_clear = _expand_program_cached.cache_clear
expand_program.cache_info = _expand_program_cached.cache_info


def expand_test(
    test: LitmusTest, coherent_only: bool = False
) -> _LazyExpansion:
    """The memoized postcondition-filtered expansion of ``test``.

    The stream contains exactly the candidates whose outcome satisfies
    the test's postcondition, enumerated with the postcondition pushed
    into the search (see the module docstring), and is shared by every
    model the test is checked against.  The memo key is the (program,
    postcondition) pair — the only inputs expansion depends on.
    """
    return _expand_test(test.program, test.postcondition, coherent_only)


@lru_cache(maxsize=256)
def _expand_test(
    program: Program,
    postcondition: tuple,
    coherent_only: bool,
) -> _LazyExpansion:
    return _LazyExpansion(
        lambda: _enumerate_candidates(
            program, postcondition=postcondition, coherent_only=coherent_only
        )
    )


# ----------------------------------------------------------------------
# The incremental search
# ----------------------------------------------------------------------


def _enumerate_candidates(
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
        memo = _SHAPES.get()
        if memo is None:  # outside a sweep: share within this choice only
            memo = {}
        shapes = []
        for thread, choices, committed in zip(
            program.threads, commit_choice, committed_sets
        ):
            key = (thread, choices)
            shape = memo.get(key, _UNBUILT)
            if shape is _UNBUILT:
                shape = memo[key] = _expand_thread(thread, committed)
            shapes.append(shape)
        if any(shape is None for shape in shapes):
            continue  # a committed transaction aborts unconditionally
        yield from _expand_memory(
            program, shapes, committed_sets, postcondition=postcondition,
            coherent_only=coherent_only,
        )


#: The dependency set of every candidate without such dependencies (an
#: ``Execution`` keeps a frozenset it is given as is).
_NO_PAIRS: frozenset = frozenset()


def _coww_ok(order: tuple[int, ...], thread_of: list[int]) -> bool:
    """True iff a coherence order agrees with po on same-thread writes
    (ids within a thread are po-ordered by construction)."""
    last: dict[int, int] = {}
    for w in order:
        tid = thread_of[w]
        prev = last.get(tid)
        if prev is not None and prev > w:
            return False
        last[tid] = w
    return True


def _expand_memory(
    program: Program,
    shapes: list[_ThreadShape],
    committed_sets: list[dict[int, bool]],
    postcondition: tuple | None = None,
    coherent_only: bool = False,
) -> Iterator[Candidate]:
    """Incrementally enumerate rf choices and co orders for fixed shapes.

    One pass over the shapes renumbers their events (threads in order,
    events in program order) and indexes everything the search reads:
    store values, each location's writes, the reads and the condition
    reads, plus dependencies and transactions for the shapes that have
    any.  The postcondition atoms and the co tables come next — between
    them they refute many postcondition-filtered tests outright — and
    only then the rf spaces and the per-read coherence structure.  rf is
    assigned read by read with the uniproc coherence patterns checked
    against the chosen co, and postcondition atoms are applied at the
    outermost loop level that decides them.
    """
    # -- one pass: renumbering, writes, reads, deps, transactions --------
    events: list[Event] = []
    threads: list[range] = []
    thread_of: list[int] = []
    store_values: dict[int, int] = {}
    writes_by_loc: dict[str, list[int]] = {}
    reads: list[tuple[int, int, str]] = []  # (tid, global id, reg)
    #: (tid, reg) -> index in ``reads`` of the register's last definition
    last_def: dict[tuple[int, str], int] = {}
    # Conditional aborts in committed transactions: the condition read
    # must observe zero, i.e. the initial value (store values are
    # non-zero by validation) — its rf space collapses to {init}.
    condition_reads: set[int] = set()
    deps = {"addr": [], "data": [], "ctrl": [], "rmw": []}
    txns: list[Transaction] = []
    for tid, shape in enumerate(shapes):
        base = len(events)
        local_events = shape.events
        events.extend(local_events)
        threads.append(range(base, len(events)))
        thread_of.extend([tid] * len(local_events))
        # Store values are keyed in program order, so every location's
        # writes are listed in global event order.
        for local, value in shape.store_values.items():
            w = base + local
            store_values[w] = value
            loc = local_events[local].loc
            ws = writes_by_loc.get(loc)
            if ws is None:
                writes_by_loc[loc] = [w]
            else:
                ws.append(w)
        for local, reg in shape.reads:
            last_def[(tid, reg)] = len(reads)
            reads.append((tid, base + local, reg))
        for local in shape.abort_conditions:
            condition_reads.add(base + local)
        if shape.addr or shape.data or shape.ctrl or shape.rmw:
            for name, pairs in (
                ("addr", shape.addr),
                ("data", shape.data),
                ("ctrl", shape.ctrl),
                ("rmw", shape.rmw),
            ):
                deps[name].extend((base + a, base + b) for a, b in pairs)
        for first, last, atomic in shape.txns:
            txns.append(
                Transaction(tuple(range(base + first, base + last + 1)), atomic)
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
        for key, value in reg_atoms.items():
            if key not in last_def and value != 0:
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

    # -- rf spaces, statically restricted; uniproc per-read structure ---
    rf_spaces: list[list[int | None]] = []
    #: same-thread same-location writes po-before / po-after each read
    writes_before: list[list[int]] = []
    writes_after: list[list[int]] = []
    #: po-earlier same-thread same-location reads (indices into reads)
    prev_reads: list[list[int]] = []
    earlier: dict[tuple[int, str], list[int]] = {}
    for i, (tid, gid, reg) in enumerate(reads):
        loc = events[gid].loc
        ws = writes_by_loc.get(loc, [])
        if gid in condition_reads:
            space: list[int | None] = [None]
        else:
            space = [None] + ws
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
        writes_before.append(
            [w for w in ws if thread_of[w] == tid and w < gid]
        )
        writes_after.append(
            [w for w in ws if thread_of[w] == tid and w > gid]
        )
        same = earlier.setdefault((tid, loc), [])
        prev_reads.append(list(same))
        same.append(i)

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

    # -- structure shared by every candidate -----------------------------
    events_t = tuple(events)
    nonempty_threads = tuple(t for t in threads if t)
    addr_fs = frozenset(deps["addr"]) if deps["addr"] else _NO_PAIRS
    data_fs = frozenset(deps["data"]) if deps["data"] else _NO_PAIRS
    ctrl_fs = frozenset(deps["ctrl"]) if deps["ctrl"] else _NO_PAIRS
    rmw_fs = frozenset(deps["rmw"]) if deps["rmw"] else _NO_PAIRS
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
    # ``assign`` reaches itself through its closure.  Unbinding it when
    # the search ends lets reference counting free the per-test
    # structure it holds, instead of leaving a cycle to the collector.
    assign = None  # noqa: F841


# ----------------------------------------------------------------------
# Reference brute-force enumerator (kept as the equivalence oracle)
# ----------------------------------------------------------------------


def brute_force_candidates(program: Program) -> Iterator[Candidate]:
    """The original materialised rf × co cross-product, unpruned.

    Kept as the reference semantics: the randomized equivalence suite
    asserts the incremental search yields exactly this candidate set
    (as execution signatures and outcomes).  The ``coherent`` bit is
    computed from first principles here.
    """
    counts = _txn_counts(program)
    commit_spaces = [
        list(itertools.product([True, False], repeat=c)) for c in counts
    ]
    for commit_choice in itertools.product(*commit_spaces):
        committed_sets = [
            {i: ok for i, ok in enumerate(choices)} for choices in commit_choice
        ]
        shapes = [
            _expand_thread(thread, committed_sets[tid])
            for tid, thread in enumerate(program.threads)
        ]
        if any(shape is None for shape in shapes):
            continue
        offset: list[int] = []
        events: list[Event] = []
        threads: list[list[int]] = []
        for shape in shapes:
            offset.append(len(events))
            threads.append(
                list(range(len(events), len(events) + len(shape.events)))
            )
            events.extend(shape.events)

        store_values: dict[int, int] = {}
        writes_by_loc: dict[str, list[int]] = {}
        for tid, shape in enumerate(shapes):
            for local, value in shape.store_values.items():
                store_values[offset[tid] + local] = value
        for eid, event in enumerate(events):
            if event.is_write:
                writes_by_loc.setdefault(event.loc, []).append(eid)

        reads: list[tuple[int, int, str]] = []
        for tid, shape in enumerate(shapes):
            for local, reg in shape.reads:
                reads.append((tid, offset[tid] + local, reg))

        condition_reads = [
            offset[tid] + c
            for tid, shape in enumerate(shapes)
            for c in shape.abort_conditions
        ]

        deps = {"addr": [], "data": [], "ctrl": [], "rmw": []}
        txns: list[Transaction] = []
        for tid, shape in enumerate(shapes):
            for name in ("addr", "data", "ctrl", "rmw"):
                deps[name].extend(
                    (offset[tid] + a, offset[tid] + b)
                    for a, b in getattr(shape, name)
                )
            for first, last, atomic in shape.txns:
                txns.append(
                    Transaction(
                        tuple(
                            range(offset[tid] + first, offset[tid] + last + 1)
                        ),
                        atomic,
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

        rf_spaces = [
            [None] + writes_by_loc.get(events[r].loc, [])
            for _, r, _ in reads
        ]
        co_locs = [loc for loc, ws in writes_by_loc.items() if len(ws) > 1]
        co_spaces = [
            list(itertools.permutations(writes_by_loc[loc])) for loc in co_locs
        ]

        nonempty_threads = [t for t in threads if t]
        for rf_choice in itertools.product(*rf_spaces):
            rf = {
                r: w
                for (_, r, _), w in zip(reads, rf_choice)
                if w is not None
            }
            if any(c in rf for c in condition_reads):
                continue  # a committed transaction's abort would have fired
            for co_choice in itertools.product(*co_spaces):
                co = {loc: order for loc, order in zip(co_locs, co_choice)}
                for loc, ws in writes_by_loc.items():
                    if len(ws) == 1:
                        co[loc] = tuple(ws)
                execution = Execution(
                    events=events,
                    threads=nonempty_threads,
                    rf=rf,
                    co=co,
                    addr=deps["addr"],
                    data=deps["data"],
                    ctrl=deps["ctrl"],
                    rmw=deps["rmw"],
                    txns=txns,
                )
                registers = {
                    (tid, reg): (store_values[rf[r]] if r in rf else 0)
                    for tid, r, reg in reads
                }
                memory = {
                    loc: store_values[order[-1]]
                    for loc, order in co.items()
                    if order
                }
                write_orders = {
                    loc: tuple(store_values[w] for w in order)
                    for loc, order in co.items()
                    if order
                }
                outcome = Outcome(
                    registers=registers,
                    memory=memory,
                    committed=committed,
                    aborted=aborted,
                    write_orders=write_orders,
                )
                coherent = (execution.po_loc | execution.com).is_acyclic()
                yield Candidate(execution, outcome, coherent=coherent)


def brute_force_observable(test: LitmusTest, model: MemoryModel) -> bool:
    """Reference :func:`observable`, enumerated by brute force.

    This walks the unpruned, unmemoized cross-product and applies the
    postcondition and the model *after* the fact, candidate by candidate
    on the scalar reference, so it shares nothing with the incremental
    search or with the batched kernels of the campaign prefill — the
    differential fuzzer uses it as the ground-truth oracle for
    enumeration splits, and the randomized equivalence suite as its
    reference semantics.
    """
    return any(
        test.check(c.outcome) and model.consistent(c.execution)
        for c in brute_force_candidates(test.program)
    )


def brute_force_outcomes(test: LitmusTest, model: MemoryModel) -> set[tuple]:
    """Reference :func:`all_outcomes`, enumerated by brute force on the
    scalar reference (see :func:`brute_force_observable`)."""
    return {
        c.outcome.key()
        for c in brute_force_candidates(test.program)
        if model.consistent(c.execution)
    }


def brute_force_forall(test: LitmusTest, model: MemoryModel) -> bool:
    """Reference :func:`forall_holds`, enumerated by brute force on the
    scalar reference (see :func:`brute_force_observable`)."""
    return all(
        test.check(c.outcome)
        for c in brute_force_candidates(test.program)
        if model.consistent(c.execution)
    )


# ----------------------------------------------------------------------
# Consumers
# ----------------------------------------------------------------------


#: Bound on the per-sweep verdict memo: past this the memo resets, so a
#: huge test cannot pin every distinct candidate (and its attached
#: analysis) in memory — mirroring the expansion retention cap.
_VERDICT_MEMO_LIMIT = 1 << 12


def _consistent_stream(
    candidates: Iterator[Candidate],
    model: MemoryModel,
    skip: Callable[[Candidate], bool] | None = None,
) -> Iterator[Candidate]:
    """The candidates of ``candidates`` consistent under ``model``,
    checked one at a time on the scalar reference.

    The single home of the coherence gate (models declaring
    :attr:`~repro.models.base.MemoryModel.enforces_coherence` never see
    incoherent candidates) and the bounded signature-keyed verdict memo
    (structurally identical candidates are checked once per sweep).
    ``skip`` drops candidates *before* the model runs — used by
    :func:`forall_holds` to avoid consistency checks on candidates that
    cannot decide the verdict.  The stream is lazy, so a consumer that
    stops at its first witness checks no candidate past it.
    """
    coherence_gate = getattr(model, "enforces_coherence", False)
    verdicts: dict[Execution, bool] = {}
    for candidate in candidates:
        if coherence_gate and not candidate.coherent:
            continue  # never consistent under this model
        if skip is not None and skip(candidate):
            continue
        verdict = verdicts.get(candidate.execution)
        if verdict is None:
            verdict = model.consistent(candidate.execution)
            if len(verdicts) >= _VERDICT_MEMO_LIMIT:
                verdicts.clear()
            verdicts[candidate.execution] = verdict
        if verdict:
            yield candidate


def observable(test: LitmusTest, model: MemoryModel) -> bool:
    """Can ``test``'s postcondition be satisfied under ``model``?

    This is the axiomatic analogue of running the test on hardware: the
    test is observable iff some consistent candidate execution satisfies
    the postcondition.

    The candidate stream is postcondition-filtered during enumeration
    (shared by every model checking the same test); when the model
    declares :attr:`~repro.models.base.MemoryModel.enforces_coherence`,
    incoherent candidates are pruned before executions are built.
    """
    coherent_only = getattr(model, "enforces_coherence", False)
    stream = _consistent_stream(expand_test(test, coherent_only), model)
    return next(iter(stream), None) is not None


def forall_holds(test: LitmusTest, model: MemoryModel) -> bool:
    """Does every consistent candidate satisfy ``test``'s postcondition?

    This is herd7's ``forall`` condition semantics: the quantifier
    ranges over the final states the model admits.  The candidate
    stream cannot be postcondition-filtered here (a *failing* candidate
    is exactly what decides the verdict); candidates that already
    satisfy the postcondition skip the model entirely.
    """
    refuting = _consistent_stream(
        candidate_executions(test.program),
        model,
        skip=lambda c: test.check(c.outcome),
    )
    return next(iter(refuting), None) is None


def all_outcomes(test: LitmusTest, model: MemoryModel) -> set[tuple]:
    """All final states reachable under ``model`` (as hashable keys)."""
    return {
        candidate.outcome.key()
        for candidate in _consistent_stream(
            candidate_executions(test.program), model
        )
    }
