"""A Diy-style critical-cycle litmus-test generator.

The paper's related-work section describes Diy [3] — "which generates
litmus tests by enumerating relaxations of SC" — as the classic
alternative to Memalloy-style synthesis.  This module implements that
approach over this repository's execution framework, both because it is
a useful generator in its own right (it scales to shapes the bounded
enumerator cannot reach) and because it provides an independent source
of tests for cross-checking the models and the catalog.

A *candidate relaxation* is an edge kind in the style of diy7 notation:

=================  =========================================================
``Rfe``            inter-thread reads-from
``Fre``            inter-thread from-read
``Wse``            inter-thread coherence (diy calls coe "Ws")
``PodWR`` …        program order between two accesses of *d*\\ ifferent
                   locations, by source/target kind (``WR``, ``WW``,
                   ``RR``, ``RW``)
``PosWR`` …        program order, *s*\\ ame location
``DpAddrdR`` …     address dependency to a different-location read/write
                   (``DpDatadW``, ``DpCtrldW`` analogous)
``FencedWR`` …     program order through a full fence (``LwSyncdWW`` etc.
                   via :data:`FENCE_EDGES`)
``TxndWR`` …       program order inside one transaction (both endpoints
                   in the same successful transaction)
=================  =========================================================

A *cycle* is a sequence of edges; walking it builds exactly one
execution whose event graph contains those edges and wraps around
(section 2 of the diy tool's documentation calls these critical cycles).
The classic shapes fall out immediately::

    SB   = Cycle([PodWR, Fre, PodWR, Fre])
    MP   = Cycle([PodWW, Rfe, PodRR, Fre])
    LB   = Cycle([PodRW, Rfe, PodRW, Rfe])
    2+2W = Cycle([PodWW, Wse, PodWW, Wse])

:func:`cycle_execution` converts a cycle into an
:class:`~repro.core.execution.Execution`; :func:`enumerate_cycles`
enumerates canonical cycles (up to rotation) from a relaxation
vocabulary; and :func:`interesting_cycles` keeps those the target model
*forbids* — the diy notion of a test worth running.

The enumeration is a search, not a filter: a depth-first walk over
vocabulary positions that only chains edges whose event kinds meet
and only builds the least rotation of each cycle (a necklace), so the
11-edge transactional vocabulary reaches length 7 (25808 cycles) in
well under a second.  Walking positions in order yields the cycles in
exactly the order a filter over ``itertools.product(vocabulary,
repeat=length)`` would first meet them, so the first *N* cycles — what
the conformance fuzzer takes — do not depend on how they are found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.events import Label
from ..core.execution import Execution, Transaction
from ..models.base import MemoryModel

__all__ = [
    "Edge",
    "Cycle",
    "COM_EDGES",
    "PO_EDGES",
    "DEP_EDGES",
    "FENCE_EDGES",
    "TXN_EDGES",
    "edge",
    "cycle_execution",
    "enumerate_cycles",
    "interesting_cycles",
    "classic",
    "CLASSIC_CYCLES",
]


@dataclass(frozen=True)
class Edge:
    """One candidate relaxation.

    Attributes:
        name: the diy-style name (``"PodWR"``, ``"Rfe"``, ...).
        kind: ``"com"`` for communication edges (they change thread and
            keep the location) or ``"po"`` for program-order edges (they
            stay in the thread and, for *d* edges, change location).
        src: kind of the source event, ``"R"`` or ``"W"``.
        dst: kind of the target event.
        same_loc: for po edges, whether the two accesses share the
            location.
        fence: fence flavour placed between the two accesses (po only).
        dep: dependency kind placed between them (po only).
        txn: both endpoints belong to one successful transaction.
        com: for com edges, which communication relation the edge is
            (``"rf"``, ``"fr"``, ``"ws"``).
    """

    name: str
    kind: str
    src: str
    dst: str
    same_loc: bool = False
    fence: str | None = None
    dep: str | None = None
    txn: bool = False
    com: str | None = None

    def __str__(self) -> str:
        return self.name


def _com_edge(name: str, com: str, src: str, dst: str) -> Edge:
    return Edge(name=name, kind="com", src=src, dst=dst, com=com)


#: The three inter-thread communication edges.
COM_EDGES: dict[str, Edge] = {
    "Rfe": _com_edge("Rfe", "rf", "W", "R"),
    "Fre": _com_edge("Fre", "fr", "R", "W"),
    "Wse": _com_edge("Wse", "ws", "W", "W"),
}

#: Plain program-order edges (d = different location, s = same).
PO_EDGES: dict[str, Edge] = {}
for _s, _d in itertools.product("WR", repeat=2):
    PO_EDGES[f"Pod{_s}{_d}"] = Edge(
        name=f"Pod{_s}{_d}", kind="po", src=_s, dst=_d
    )
    PO_EDGES[f"Pos{_s}{_d}"] = Edge(
        name=f"Pos{_s}{_d}", kind="po", src=_s, dst=_d, same_loc=True
    )

#: Dependency edges: source must be a read.
DEP_EDGES: dict[str, Edge] = {
    "DpAddrdR": Edge("DpAddrdR", "po", "R", "R", dep="addr"),
    "DpAddrdW": Edge("DpAddrdW", "po", "R", "W", dep="addr"),
    "DpDatadW": Edge("DpDatadW", "po", "R", "W", dep="data"),
    "DpCtrldW": Edge("DpCtrldW", "po", "R", "W", dep="ctrl"),
    "DpCtrldR": Edge("DpCtrldR", "po", "R", "R", dep="ctrl"),
}

#: Fenced program-order edges, per fence flavour.
FENCE_EDGES: dict[str, Edge] = {}
for _flavour, _tag in [
    (Label.MFENCE, "MFence"),
    (Label.SYNC, "Sync"),
    (Label.LWSYNC, "LwSync"),
    (Label.DMB, "Dmb"),
    (Label.FENCE_RW_RW, "FenceRwRw"),
]:
    for _s, _d in itertools.product("WR", repeat=2):
        name = f"{_tag}d{_s}{_d}"
        FENCE_EDGES[name] = Edge(
            name=name, kind="po", src=_s, dst=_d, fence=_flavour
        )

#: Program-order edges inside one successful transaction.
TXN_EDGES: dict[str, Edge] = {}
for _s, _d in itertools.product("WR", repeat=2):
    TXN_EDGES[f"Txnd{_s}{_d}"] = Edge(
        name=f"Txnd{_s}{_d}", kind="po", src=_s, dst=_d, txn=True
    )

_ALL_EDGES: dict[str, Edge] = {
    **COM_EDGES,
    **PO_EDGES,
    **DEP_EDGES,
    **FENCE_EDGES,
    **TXN_EDGES,
}


def edge(name: str) -> Edge:
    """Look an edge up by its diy-style name."""
    try:
        return _ALL_EDGES[name]
    except KeyError:
        raise ValueError(
            f"unknown edge {name!r}; known: {', '.join(sorted(_ALL_EDGES))}"
        ) from None


@dataclass(frozen=True)
class Cycle:
    """A critical cycle: a non-empty sequence of edges.

    Valid cycles alternate consistently: each edge's target kind must
    equal the next edge's source kind (wrapping around), communication
    edges keep the location while changing thread, and po edges keep the
    thread.  A cycle needs at least one com edge (otherwise it never
    leaves the thread) and must return to its starting location.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a cycle needs at least one edge")

    @classmethod
    def of(cls, *names: str) -> "Cycle":
        """Build a cycle from edge names: ``Cycle.of("PodWR", "Fre", ...)``."""
        return cls(tuple(edge(n) for n in names))

    def __str__(self) -> str:
        return " ".join(e.name for e in self.edges)

    # -- validity ---------------------------------------------------------

    def problems(self) -> list[str]:
        """Why this cycle cannot be realised (empty list = valid)."""
        out = []
        n = len(self.edges)
        if all(e.kind == "po" for e in self.edges):
            out.append("cycle never leaves the thread (no com edge)")
        for i, e in enumerate(self.edges):
            nxt = self.edges[(i + 1) % n]
            if e.dst != nxt.src:
                out.append(
                    f"edge {i} ({e.name}) ends at {e.dst} but edge "
                    f"{(i + 1) % n} ({nxt.name}) starts at {nxt.src}"
                )
        # Location balance: com and Pos edges preserve the location, Pod
        # edges change it; the walk must return to the start location.
        # With fresh locations per Pod edge this only fails if there are
        # no Pod edges but the events cannot all share one location
        # consistently — which is always realisable, so nothing to check.
        # Thread balance: consecutive po edges stay in one thread; each
        # com edge switches. The walk returns to the starting thread iff
        # it is a cycle in the graph sense, which the construction
        # guarantees by folding the last thread into the first.
        return out

    def is_valid(self) -> bool:
        return not self.problems()

    def canonical(self) -> "Cycle":
        """The lexicographically-least rotation (for deduplication)."""
        rotations = [
            self.edges[i:] + self.edges[:i] for i in range(len(self.edges))
        ]
        return Cycle(min(rotations, key=lambda es: [e.name for e in es]))


def cycle_execution(cycle: Cycle) -> Execution:
    """Realise a valid cycle as an execution.

    The walk starts a new thread at every com edge and a new location at
    every non-same-loc po edge; rf/ws/fr edges are oriented so that the
    cycle is exactly the execution's ``com ∪ po`` critical cycle: for
    ``Rfe`` the source write feeds the target read, for ``Wse`` the
    source write is co-earlier, and for ``Fre`` the source read observes
    the co-predecessor of the target write.
    """
    problems = cycle.problems()
    if problems:
        raise ValueError("; ".join(problems))

    from ..core.builder import ExecutionBuilder

    builder = ExecutionBuilder()
    edges = cycle.edges

    # Rotate so the cycle starts right after a com edge: per-thread runs
    # are then maximal and the final edge is the inter-thread wrap.
    first_com = next(i for i, e in enumerate(edges) if e.kind == "com")
    edges = edges[first_com + 1:] + edges[: first_com + 1]

    # Locations form their own cycle: every non-same-loc po edge steps to
    # the next location, and the walk must return to the starting
    # location when it wraps (com edges preserve the location).
    n_locs = sum(
        1 for e in edges if e.kind == "po" and not e.same_loc
    ) or 1
    loc_step = 0
    current_loc = "x0"

    threads = [builder.thread()]
    events: list[int] = []  # event ids, one per edge source

    def add_event(kind: str, loc: str, thread) -> int:
        if kind == "W":
            return thread.write(loc)
        return thread.read(loc)

    # First event of the walk (target of the rotated-away com edge).
    events.append(add_event(edges[-1].dst, current_loc, threads[-1]))

    txn_runs: list[tuple[int, int]] = []  # (first, last) walk indices

    for i, e in enumerate(edges[:-1]):
        if e.kind == "com":
            threads.append(builder.thread())
            # com edges preserve the location.
        elif not e.same_loc:
            loc_step += 1
            current_loc = f"x{loc_step % n_locs}"
        events.append(add_event(e.dst, current_loc, threads[-1]))
        walk_src, walk_dst = len(events) - 2, len(events) - 1
        if e.kind == "po":
            if e.dep == "addr":
                builder.addr(events[walk_src], events[walk_dst])
            elif e.dep == "data":
                builder.data(events[walk_src], events[walk_dst])
            elif e.dep == "ctrl":
                builder.ctrl(events[walk_src], events[walk_dst])
            if e.txn:
                txn_runs.append((walk_src, walk_dst))

    # Communication constraints: rf and ws first, then fr (an fr source
    # that reads from some write via an rf edge needs a coherence edge
    # from that write to the fr target).
    n = len(events)
    rf_map: dict[int, int] = {}
    for i, e in enumerate(edges):
        src, dst = events[i], events[(i + 1) % n]
        if e.kind != "com":
            continue
        if e.com == "rf":
            builder.rf(src, dst)
            rf_map[dst] = src
        elif e.com == "ws":
            builder.co(src, dst)
    for i, e in enumerate(edges):
        src, dst = events[i], events[(i + 1) % n]
        if e.kind == "com" and e.com == "fr":
            if src in rf_map:
                builder.co(rf_map[src], dst)
            # Otherwise the read observes the initial value and is
            # fr-before every write to the location automatically.

    # Coalesce overlapping transactional runs into intervals.
    merged: list[list[int]] = []
    for a, b in sorted(txn_runs):
        if merged and a <= merged[-1][-1]:
            merged[-1][-1] = max(merged[-1][-1], b)
        else:
            merged.append([a, b])
    x = builder.build()
    if merged or any(e.fence for e in edges):
        x = _decorate(x, cycle, edges, events, merged)
    return x


def _decorate(
    x: Execution,
    cycle: Cycle,
    edges: Sequence[Edge],
    events: Sequence[int],
    txn_intervals: Sequence[Sequence[int]],
) -> Execution:
    """Insert fence events and transaction spans into the built execution.

    The builder cannot insert fences between already-appended events, so
    fenced cycles are rebuilt event list in hand.
    """
    from ..core.events import Event, EventKind

    new_events: list[Event] = []
    new_threads: list[list[int]] = []
    remap: dict[int, int] = {}

    fence_after: dict[int, str] = {}
    for i, e in enumerate(edges[:-1]):
        if e.kind == "po" and e.fence:
            fence_after[events[i]] = e.fence
    # The rotated last edge is always a com edge, so no fence there.

    for thread in x.threads:
        ids: list[int] = []
        for eid in thread:
            remap[eid] = len(new_events)
            new_events.append(x.events[eid])
            ids.append(remap[eid])
            if eid in fence_after:
                fid = len(new_events)
                new_events.append(
                    Event(EventKind.FENCE, None, frozenset({fence_after[eid]}))
                )
                ids.append(fid)
        new_threads.append(ids)

    def map_pairs(pairs):
        return [(remap[a], remap[b]) for a, b in pairs]

    txns = [
        Transaction(
            tuple(
                remap[events[w]]
                for w in range(interval[0], interval[-1] + 1)
            )
        )
        for interval in txn_intervals
    ]
    # Transactions must cover contiguous runs including interleaved
    # fences: expand each span to the contiguous po range.
    expanded: list[Transaction] = []
    for txn in txns:
        lo, hi = min(txn.events), max(txn.events)
        thread = next(t for t in new_threads if lo in t)
        span = [eid for eid in thread if lo <= eid <= hi]
        expanded.append(Transaction(tuple(span)))

    return Execution(
        events=new_events,
        threads=new_threads,
        rf={remap[r]: remap[w] for r, w in x.rf.items()},
        co={
            loc: tuple(remap[w] for w in order) for loc, order in x.co.items()
        },
        addr=map_pairs(x.addr),
        data=map_pairs(x.data),
        ctrl=map_pairs(x.ctrl),
        rmw=map_pairs(x.rmw),
        txns=expanded,
    )


#: The classic six, as critical cycles.
CLASSIC_CYCLES: dict[str, Cycle] = {
    "sb": Cycle.of("PodWR", "Fre", "PodWR", "Fre"),
    "mp": Cycle.of("PodWW", "Rfe", "PodRR", "Fre"),
    "lb": Cycle.of("PodRW", "Rfe", "PodRW", "Rfe"),
    "wrc": Cycle.of("Rfe", "PodRW", "Rfe", "PodRR", "Fre"),
    "iriw": Cycle.of("Rfe", "PodRR", "Fre", "Rfe", "PodRR", "Fre"),
    "2+2w": Cycle.of("PodWW", "Wse", "PodWW", "Wse"),
}


def classic(name: str) -> Execution:
    """The execution of one of the classic shapes, from its cycle."""
    return cycle_execution(CLASSIC_CYCLES[name])


def enumerate_cycles(
    vocabulary: Sequence[Edge] | Sequence[str],
    max_length: int,
    min_length: int = 2,
) -> Iterator[Cycle]:
    """All valid canonical cycles over ``vocabulary`` of ``min_length``
    to ``max_length`` edges, lazily, shortest first.

    Cycles are deduplicated up to rotation; reflections are kept (they
    correspond to genuinely different tests for non-symmetric models).
    Edges are identified by name: a repeated name counts once, at its
    first position.

    Within one length the cycles come in the order of their least
    rotation as a tuple of vocabulary positions.  That is the order in
    which a filter over ``itertools.product(vocabulary, repeat=length)``
    first meets each rotation class, since validity does not change
    under rotation; so the sequence, not just the set, is the filter's.
    Callers that take the first *N* cycles (the fuzzer) depend on it.
    Each cycle is yielded as its :meth:`Cycle.canonical` rotation.

    The search builds only those least rotations: a depth-first walk in
    position order that extends a path only by an edge whose source
    kind is the previous edge's target kind, and only while the path is
    a prefix of some necklace.  Unknown edge names and ``min_length <
    1`` raise :class:`ValueError` at the call.
    """
    if min_length < 1:
        raise ValueError("a cycle needs at least one edge")
    vocab: dict[str, Edge] = {}
    for e in vocabulary:
        e = e if isinstance(e, Edge) else edge(e)
        vocab.setdefault(e.name, e)
    return _necklaces(list(vocab.values()), min_length, max_length)


def _necklaces(
    vocab: list[Edge], min_length: int, max_length: int
) -> Iterator[Cycle]:
    """The search behind :func:`enumerate_cycles`.

    ``path`` holds vocabulary positions and is always a prenecklace: a
    prefix of some string that no rotation undercuts.  With ``period``
    the length of its longest Lyndon prefix, appending ``j`` keeps it
    one iff ``j >= path[-period]``, and a full-length prenecklace is a
    necklace iff ``period`` divides the length (the Fredricksen–
    Kessler–Maiorana step); ties are necklaces, so periodic cycles such
    as ``Wse Wse`` survive.
    """
    follows = [
        [j for j, b in enumerate(vocab) if b.src == a.dst] for a in vocab
    ]
    path: list[int] = []

    def extend(length: int, period: int) -> Iterator[Cycle]:
        t = len(path)
        if t == length:
            if (
                length % period == 0
                and vocab[path[-1]].dst == vocab[path[0]].src
                and any(vocab[i].kind == "com" for i in path)
            ):
                yield Cycle(tuple(vocab[i] for i in path)).canonical()
            return
        floor = path[t - period]
        for j in follows[path[-1]]:
            if j >= floor:
                path.append(j)
                yield from extend(length, period if j == floor else t + 1)
                path.pop()

    for length in range(min_length, max_length + 1):
        for first in range(len(vocab)):
            path.append(first)
            yield from extend(length, 1)
            path.pop()


def interesting_cycles(
    vocabulary: Sequence[Edge] | Sequence[str],
    max_length: int,
    model: MemoryModel,
) -> Iterator[tuple[Cycle, Execution]]:
    """Cycles whose realisations the ``model`` forbids — diy's notion of
    a test worth running on hardware."""
    for cycle in enumerate_cycles(vocabulary, max_length):
        execution = cycle_execution(cycle)
        if not model.consistent(execution):
            yield cycle, execution
