"""Executions: graphs of events related by po, rf, co, dependencies, rmw,
and transactions (paper sections 2.1 and 3.1).

An :class:`Execution` stores the *primitive* structure — the per-thread
event sequences (from which ``po`` is derived), the reads-from map, the
per-location coherence orders, dependency edges, ``rmw`` pairs, and
successful transactions — and exposes every *derived* relation used by the
models (``fr``, ``com``, ``sloc``, external/internal restrictions,
architecture fence relations, ``stxn``, ``tfence``, …) as cached
properties.

Executions are immutable; the surgery methods (``without_event`` etc.)
used by the minimisation order of section 4.2 return new executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .events import Event, EventKind, Label
from .relation import Relation, _trusted

__all__ = ["Transaction", "Execution"]

_READ, _WRITE = EventKind.READ, EventKind.WRITE
#: The ``sloc`` group key of events that access no location.
_NOT_ACCESS = object()


@dataclass(frozen=True)
class Transaction:
    """A *successful* transaction: a contiguous run of events in one thread.

    ``events`` are event ids in program order.  ``atomic`` distinguishes
    C++ ``atomic{}`` transactions (members of ``stxnat``) from relaxed
    ``synchronized{}`` transactions; hardware transactions ignore the flag.
    """

    events: tuple[int, ...]
    atomic: bool = False

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("a transaction must contain at least one event")


class Execution:
    """An execution graph.

    Args:
        events: the event vertices; event ids are positions in this tuple.
        threads: per-thread event-id sequences in program order.  Together
            they must partition ``range(len(events))``.
        rf: reads-from map, ``read id -> write id``.  Reads absent from the
            map observe the (implicit) initial value.
        co: per-location coherence orders, ``loc -> write ids`` in the
            order writes hit memory.
        addr, data, ctrl: dependency edges (always from a read to a
            po-later event).
        rmw: read half to write half of read-modify-write operations.
        txns: the successful transactions (section 3.1); failed
            transactions vanish and therefore have no representation.
    """

    def __init__(
        self,
        events: Sequence[Event],
        threads: Sequence[Sequence[int]],
        rf: Mapping[int, int] | Iterable[tuple[int, int]] = (),
        co: Mapping[str, Sequence[int]] | None = None,
        addr: Iterable[tuple[int, int]] = (),
        data: Iterable[tuple[int, int]] = (),
        ctrl: Iterable[tuple[int, int]] = (),
        rmw: Iterable[tuple[int, int]] = (),
        txns: Sequence[Transaction] = (),
    ) -> None:
        self.events: tuple[Event, ...] = tuple(events)
        self.threads: tuple[tuple[int, ...], ...] = tuple(
            tuple(thread) for thread in threads
        )
        self.rf: dict[int, int] = dict(rf.items() if isinstance(rf, Mapping) else rf)
        self.co: dict[str, tuple[int, ...]] = {
            loc: tuple(ws) for loc, ws in (co or {}).items() if ws
        }
        self.addr = frozenset(addr)
        self.data = frozenset(data)
        self.ctrl = frozenset(ctrl)
        self.rmw = frozenset(rmw)
        self.txns: tuple[Transaction, ...] = tuple(txns)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of events."""
        return len(self.events)

    def event(self, eid: int) -> Event:
        return self.events[eid]

    @cached_property
    def tid_of(self) -> dict[int, int]:
        """Map each event id to the index of its thread."""
        out: dict[int, int] = {}
        for tid, thread in enumerate(self.threads):
            for eid in thread:
                out[eid] = tid
        return out

    @cached_property
    def reads(self) -> frozenset[int]:
        """``R``: the read events."""
        return frozenset(i for i, e in enumerate(self.events) if e.is_read)

    @cached_property
    def writes(self) -> frozenset[int]:
        """``W``: the write events."""
        return frozenset(i for i, e in enumerate(self.events) if e.is_write)

    @cached_property
    def fences(self) -> frozenset[int]:
        """``F``: the fence events."""
        return frozenset(i for i, e in enumerate(self.events) if e.is_fence)

    @cached_property
    def calls(self) -> frozenset[int]:
        """Lock-elision call events (section 8.3)."""
        return frozenset(i for i, e in enumerate(self.events) if e.is_call)

    @cached_property
    def accesses(self) -> frozenset[int]:
        """Reads and writes."""
        return self.reads | self.writes

    def with_label(self, label: str) -> frozenset[int]:
        """All events carrying ``label``."""
        return frozenset(i for i, e in enumerate(self.events) if e.has(label))

    @cached_property
    def locations(self) -> tuple[str, ...]:
        """All locations accessed, in first-use order."""
        seen: dict[str, None] = {}
        for thread in self.threads:
            for eid in thread:
                loc = self.events[eid].loc
                if loc is not None and loc not in seen:
                    seen[loc] = None
        return tuple(seen)

    def writes_to(self, loc: str) -> tuple[int, ...]:
        """The coherence order for ``loc`` (empty if no writes)."""
        return self.co.get(loc, ())

    @cached_property
    def txn_of(self) -> dict[int, int]:
        """Map each transactional event id to its transaction's index."""
        out: dict[int, int] = {}
        for idx, txn in enumerate(self.txns):
            for eid in txn.events:
                out[eid] = idx
        return out

    # ------------------------------------------------------------------
    # Primitive relations
    # ------------------------------------------------------------------

    @cached_property
    def po(self) -> Relation:
        """Program order: strict total order per thread."""
        rows = [0] * self.n
        for thread in self.threads:
            later = 0
            for e in reversed(thread):
                rows[e] = later
                later |= 1 << e
        return _trusted(self.n, tuple(rows))

    @cached_property
    def rf_rel(self) -> Relation:
        """Reads-from as a relation (write → read)."""
        return Relation.from_pairs(self.n, ((w, r) for r, w in self.rf.items()))

    @cached_property
    def co_rel(self) -> Relation:
        """Coherence order as a relation."""
        rows = [0] * self.n
        for order in self.co.values():
            later = 0
            for e in reversed(order):
                rows[e] |= later
                later |= 1 << e
        return _trusted(self.n, tuple(rows))

    @cached_property
    def addr_rel(self) -> Relation:
        return Relation.from_pairs(self.n, self.addr)

    @cached_property
    def data_rel(self) -> Relation:
        return Relation.from_pairs(self.n, self.data)

    @cached_property
    def ctrl_rel(self) -> Relation:
        return Relation.from_pairs(self.n, self.ctrl)

    @cached_property
    def rmw_rel(self) -> Relation:
        return Relation.from_pairs(self.n, self.rmw)

    # ------------------------------------------------------------------
    # Derived relations (section 2.1)
    # ------------------------------------------------------------------

    @cached_property
    def sloc(self) -> Relation:
        """Same-location relation over accesses (reflexive on accesses).

        Accesses whose ``loc`` is ``None`` form one group of their own.
        """
        groups: dict[str | None, int] = {}
        locs = []
        for i, event in enumerate(self.events):
            kind = event.kind
            if kind is _READ or kind is _WRITE:
                loc = event.loc
                groups[loc] = groups.get(loc, 0) | (1 << i)
            else:
                loc = _NOT_ACCESS
            locs.append(loc)
        return _trusted(self.n, tuple([groups.get(loc, 0) for loc in locs]))

    @cached_property
    def sthd(self) -> Relation:
        """Same-thread relation, ``(po ∪ po⁻¹)*`` (reflexive)."""
        rows = [0] * self.n
        for thread in self.threads:
            mask = 0
            for e in thread:
                mask |= 1 << e
            for e in thread:
                rows[e] = mask
        return _trusted(self.n, tuple(rows))

    @cached_property
    def fr(self) -> Relation:
        """From-read: ``([R]; sloc; [W]) \\ (rf⁻¹; (co⁻¹)*)``.

        Computed on row masks: a read's row is its same-location writes
        minus its ``rf`` source and that write's ``co``-predecessors
        (through the transitive closure of ``co``, so the set is the
        formula's for a malformed ``co`` as well).  A read of the initial
        value (absent from ``rf``) keeps every same-location write.  The
        formula built from :class:`Relation` operators is the test oracle
        (``tests/test_properties.py``).
        """
        n = self.n
        writes = 0
        for w in self.writes:
            writes |= 1 << w
        co_pred = self.co_rel.inverse()._rows
        sloc = self.sloc._rows
        rf = self.rf
        rows = [0] * n
        for r in self.reads:
            row = sloc[r] & writes
            w = rf.get(r)
            if w is not None:
                # ``(co⁻¹)*`` from w: w and every co-predecessor.
                seen = 1 << w
                todo = co_pred[w] & ~seen
                while todo:
                    low = todo & -todo
                    seen |= low
                    todo = (todo | co_pred[low.bit_length() - 1]) & ~seen
                row &= ~seen
            rows[r] = row
        return _trusted(n, tuple(rows))

    @cached_property
    def com(self) -> Relation:
        """Communication: ``rf ∪ co ∪ fr``."""
        return self.rf_rel | self.co_rel | self.fr

    # External / internal restrictions (``r^e`` and ``r^i`` in the paper).

    def external(self, rel: Relation) -> Relation:
        """``r^e = r \\ (po ∪ po⁻¹)*``: keep only inter-thread pairs."""
        return rel - self.sthd

    def internal(self, rel: Relation) -> Relation:
        """``r^i = r ∩ (po ∪ po⁻¹)*``: keep only intra-thread pairs."""
        return rel & self.sthd

    @cached_property
    def rfe(self) -> Relation:
        return self.external(self.rf_rel)

    @cached_property
    def rfi(self) -> Relation:
        return self.internal(self.rf_rel)

    @cached_property
    def coe(self) -> Relation:
        return self.external(self.co_rel)

    @cached_property
    def coi(self) -> Relation:
        return self.internal(self.co_rel)

    @cached_property
    def fre(self) -> Relation:
        return self.external(self.fr)

    @cached_property
    def fri(self) -> Relation:
        return self.internal(self.fr)

    @cached_property
    def come(self) -> Relation:
        return self.external(self.com)

    @cached_property
    def po_loc(self) -> Relation:
        """``po ∩ sloc``."""
        return self.po & self.sloc

    def fence_rel(self, kind: str) -> Relation:
        """Pairs of events separated in po by a fence event of ``kind``.

        This is the derivation described in the paper's footnote 1:
        ``po; [F_kind]; po``.
        """
        fkind = Relation.lift(
            self.n,
            (i for i in self.fences if self.events[i].has(kind)),
        )
        return self.po.then(fkind, self.po)

    # ------------------------------------------------------------------
    # Transactions (section 3.1)
    # ------------------------------------------------------------------

    @cached_property
    def stxn(self) -> Relation:
        """The successful-transaction relation: a partial equivalence whose
        classes are the transactions (reflexive on transactional events)."""
        rel = Relation.empty(self.n)
        for txn in self.txns:
            rel = rel | Relation.cross(self.n, txn.events, txn.events)
        return rel

    @cached_property
    def stxnat(self) -> Relation:
        """The sub-relation of ``stxn`` for *atomic* transactions (C++)."""
        rel = Relation.empty(self.n)
        for txn in self.txns:
            if txn.atomic:
                rel = rel | Relation.cross(self.n, txn.events, txn.events)
        return rel

    @cached_property
    def txn_events(self) -> frozenset[int]:
        """All events inside some successful transaction."""
        return frozenset(e for txn in self.txns for e in txn.events)

    @cached_property
    def tfence(self) -> Relation:
        """Implicit transaction-boundary fences (sections 5.2, 6.1):
        ``po ∩ ((¬stxn; stxn) ∪ (stxn; ¬stxn))``.
        """
        if not self.txns:
            return Relation.empty(self.n)
        not_stxn = self.stxn.complement()
        boundary = (not_stxn @ self.stxn) | (self.stxn @ not_stxn)
        return self.po & boundary

    # ------------------------------------------------------------------
    # Surgery (used by section 4.2 minimisation and the metatheory)
    # ------------------------------------------------------------------

    def _renumber(self, keep: Sequence[int]) -> dict[int, int]:
        return {old: new for new, old in enumerate(keep)}

    def without_event(self, eid: int) -> "Execution":
        """Remove an event and all incident edges (weakening (i))."""
        keep = [i for i in range(self.n) if i != eid]
        remap = self._renumber(keep)

        def map_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
            return [
                (remap[a], remap[b]) for a, b in pairs if a != eid and b != eid
            ]

        threads = [
            [remap[i] for i in thread if i != eid] for thread in self.threads
        ]
        txns = []
        for txn in self.txns:
            kept = tuple(remap[i] for i in txn.events if i != eid)
            if kept:
                txns.append(Transaction(kept, txn.atomic))
        return Execution(
            events=[self.events[i] for i in keep],
            threads=[t for t in threads if t],
            rf={remap[r]: remap[w] for r, w in self.rf.items() if eid not in (r, w)},
            co={
                loc: tuple(remap[w] for w in order if w != eid)
                for loc, order in self.co.items()
            },
            addr=map_pairs(self.addr),
            data=map_pairs(self.data),
            ctrl=map_pairs(self.ctrl),
            rmw=map_pairs(self.rmw),
            txns=txns,
        )

    def without_dep(self, kind: str, pair: tuple[int, int]) -> "Execution":
        """Remove a single dependency/rmw edge (weakening (ii))."""
        fields = {
            "addr": set(self.addr),
            "data": set(self.data),
            "ctrl": set(self.ctrl),
            "rmw": set(self.rmw),
        }
        if kind not in fields:
            raise ValueError(f"unknown dependency kind {kind!r}")
        fields[kind].discard(pair)
        return Execution(
            events=self.events,
            threads=self.threads,
            rf=self.rf,
            co=self.co,
            txns=self.txns,
            **fields,
        )

    def with_event(self, eid: int, event: Event) -> "Execution":
        """Replace the event at ``eid`` (used for downgrading, (iii))."""
        events = list(self.events)
        events[eid] = event
        return Execution(
            events=events,
            threads=self.threads,
            rf=self.rf,
            co=self.co,
            addr=self.addr,
            data=self.data,
            ctrl=self.ctrl,
            rmw=self.rmw,
            txns=self.txns,
        )

    def with_txns(self, txns: Sequence[Transaction]) -> "Execution":
        """Replace the transaction structure (weakening (v), coalescing…)."""
        return Execution(
            events=self.events,
            threads=self.threads,
            rf=self.rf,
            co=self.co,
            addr=self.addr,
            data=self.data,
            ctrl=self.ctrl,
            rmw=self.rmw,
            txns=txns,
        )

    def without_transactions(self) -> "Execution":
        """The non-transactional baseline view of this execution."""
        return self.with_txns(())

    # ------------------------------------------------------------------
    # Values (used by litmus-test generation, section 2.2)
    # ------------------------------------------------------------------

    @cached_property
    def write_values(self) -> dict[int, int]:
        """Assign each write a unique non-zero value: its coherence position.

        Writes to a location with no ``co`` entry (single write) get 1.
        """
        values: dict[int, int] = {}
        for loc in self.locations:
            order = self.co.get(loc)
            if order:
                for pos, w in enumerate(order):
                    values[w] = pos + 1
            else:
                for w in sorted(self.writes):
                    if self.events[w].loc == loc:
                        values[w] = 1
        return values

    def read_value(self, rid: int) -> int:
        """The value observed by read ``rid`` (0 for the initial value)."""
        w = self.rf.get(rid)
        return 0 if w is None else self.write_values[w]

    def final_value(self, loc: str) -> int:
        """The final value of ``loc``: that of the co-last write (or 0)."""
        order = self.co.get(loc)
        if order:
            return self.write_values[order[-1]]
        candidates = [
            self.write_values[w]
            for w in self.writes
            if self.events[w].loc == loc
        ]
        return candidates[0] if candidates else 0

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------

    @cached_property
    def _signature(self) -> tuple:
        return (
            self.events,
            self.threads,
            tuple(sorted(self.rf.items())),
            tuple(sorted(self.co.items())),
            tuple(sorted(self.addr)),
            tuple(sorted(self.data)),
            tuple(sorted(self.ctrl)),
            tuple(sorted(self.rmw)),
            tuple((txn.events, txn.atomic) for txn in self.txns),
        )

    def signature(self) -> tuple:
        """A hashable value identifying the execution up to nothing (exact
        structural identity); used for deduplication in the synthesizer.
        Cached — executions are immutable and the synthesizer and the
        campaign engine's memo hash the same execution repeatedly."""
        return self._signature

    @cached_property
    def _sig_hash(self) -> int:
        return hash(self._signature)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Execution):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return self._sig_hash

    def __repr__(self) -> str:
        parts = [f"{len(self.events)} events", f"{len(self.threads)} threads"]
        if self.txns:
            parts.append(f"{len(self.txns)} txns")
        return f"Execution({', '.join(parts)})"

    def describe(self) -> str:
        """A multi-line human-readable rendering (for examples and debug)."""
        lines = []
        for tid, thread in enumerate(self.threads):
            lines.append(f"thread {tid}:")
            for eid in thread:
                event = self.events[eid]
                marks = []
                if eid in self.txn_of:
                    txn = self.txns[self.txn_of[eid]]
                    marks.append("txn" + ("(atomic)" if txn.atomic else ""))
                if eid in self.rf:
                    marks.append(f"rf<-e{self.rf[eid]}")
                elif event.is_read:
                    marks.append("rf<-init")
                suffix = f"  [{' '.join(marks)}]" if marks else ""
                lines.append(f"  e{eid}: {event}{suffix}")
        for loc, order in sorted(self.co.items()):
            if len(order) > 1:
                chain = " -> ".join(f"e{w}" for w in order)
                lines.append(f"co({loc}): {chain}")
        for name, pairs in (
            ("addr", self.addr),
            ("data", self.data),
            ("ctrl", self.ctrl),
            ("rmw", self.rmw),
        ):
            for a, b in sorted(pairs):
                lines.append(f"{name}: e{a} -> e{b}")
        return "\n".join(lines)
