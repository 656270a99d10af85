"""Batch plans: the schedule and leaf values behind the generated kernels.

A campaign re-checks the same model over thousands of stacks; the
shape of that work is fixed once the definition and universe size are.
:class:`BatchPlan` records it once per ``(definition_token, universe
size)``: a topologically ordered, dead-node-pruned node schedule that
:mod:`repro.ir.codegen` lowers to a straight-line kernel.

* axioms keep their planner (cheapest-first) order; each axiom owns the
  *segment* of nodes not already produced by an earlier axiom (dead
  nodes — anything not reachable from a checked axiom — are never
  scheduled);
* a ``[S]`` lift inside a composition schedules only its set: the
  kernel applies it as a domain/range mask, not a matmul.

This module also owns the batched *leaves* — base relations and event
sets as ``float32`` stacks, memoized in the context under the leaf
node's id so every model swept over one context shares them.
Structural leaves (``po``, ``int``, ``loc``, kind and label sets) are
broadcast from a dense per-stack event profile; ``rf``, ``co``, the
dependencies and ``rmw`` are scattered straight from each execution's
own fields into one zeroed array; ``fr`` is a handful of array
operations over ``rf``/``co``/``loc``.  The transactional leaves are
zeros for a stack without transactions and are otherwise packed from
each candidate's scalar analysis (:func:`repro.ir.batch.
pack_relations`), like the transactional event sets.

:func:`consistent_on` is the one kernel entry, called only by the
campaign prefill (:func:`repro.engine.batchsweep.prefill_units`):
verdicts for a stack of same-universe executions under one model, with
the scalar path's ``tm`` baseline handling, telemetry stages, and the
scalar fallback for small stacks and unbuildable kernels.
"""

from __future__ import annotations

import time
from itertools import combinations

from ..core.events import EventKind
from ..obs import metrics as obs_metrics
from ..obs import trace
from . import nodes as _nodes
from .batch import BatchContext, _np, pack_relations, pack_sets
from .eval import _BASE_RELATION, _BASE_SET, _KIND_CODE, _LABEL_FOR_SET, STATS
from .nodes import Node

__all__ = [
    "BatchPlan",
    "base_value",
    "consistent_on",
    "kernel_floor",
    "plan_for",
    "schedule_args",
    "set_value",
]

#: Below this stack size building a kernel costs more than it saves
#: (packed-int ops on small universes are fast; array construction is
#: not), so ``consistent_on`` checks per candidate with
#: :meth:`MemoryModel.consistent` — which shares the same predicate
#: memos, so verdicts are identical either way.  Tests pin this to 1 to
#: force the kernels onto tiny stacks.
MIN_KERNEL_BATCH = 8

#: The floor once the generated kernel is built for the plan: what
#: remains per stack is cheap array ops — worth it from two candidates
#: up.  A batch of one still walks the scalar path.
CODEGEN_KERNEL_BATCH = 2


def kernel_floor(token: str | None = None, n: int | None = None) -> int:
    """The minimum stack size for the batched kernels.

    :data:`MIN_KERNEL_BATCH` while the plan's kernel is cold;
    :data:`CODEGEN_KERNEL_BATCH` once it is built for ``(token, n)``.
    A test pin of ``MIN_KERNEL_BATCH`` below the warm floor is kept:
    the warm rule only ever lowers the floor.
    """
    floor = MIN_KERNEL_BATCH
    if floor > CODEGEN_KERNEL_BATCH and token is not None and n is not None:
        if codegen.is_warm(token, n):
            return CODEGEN_KERNEL_BATCH
    return floor


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------

#: Memo key of the per-context dense event profile.
_PROFILE_KEY = "_event_profile"

_KIND_FLAGS = {
    EventKind.READ: "R",
    EventKind.WRITE: "W",
    EventKind.FENCE: "F",
    EventKind.CALL: "CALL",
}


def _profile(tctx: BatchContext):
    """Dense per-event attributes of the stack.

    One Python pass over the events collects thread ids, program-order
    positions, location ids, kind flags and label flags as small
    ``[batch, n]`` arrays; every structural leaf afterwards is a
    broadcasted comparison over them — no per-candidate scalar
    :class:`Relation` construction at all.  Transaction structure is
    deliberately absent: everything here is txn-free, and the txn-free
    routing means a baseline context never builds its own profile.
    """
    prof = tctx._memo.get(_PROFILE_KEY)
    if prof is None:
        batch, n = tctx.batch, tctx.n
        tid = _np.zeros((batch, n), _np.int16)
        pos = _np.zeros((batch, n), _np.int16)
        locid = _np.full((batch, n), -1, _np.int16)
        flags = {
            k: _np.zeros((batch, n), _np.float32)
            for k in ("R", "W", "F", "CALL")
        }
        labels: dict[str, object] = {}
        for b, a in enumerate(tctx.analyses):
            x = a.execution
            for t, thread in enumerate(x.threads):
                for p, e in enumerate(thread):
                    tid[b, e] = t
                    pos[b, e] = p
            locs: dict = {}
            for e, event in enumerate(x.events):
                flag = _KIND_FLAGS.get(event.kind)
                if flag is not None:
                    flags[flag][b, e] = 1.0
                if flag == "R" or flag == "W":
                    locid[b, e] = locs.setdefault(event.loc, len(locs))
                for lab in event.labels:
                    row = labels.get(lab)
                    if row is None:
                        labels[lab] = row = _np.zeros((batch, n), _np.float32)
                    row[b, e] = 1.0
        flags["M"] = flags["R"] + flags["W"]  # kinds are disjoint
        flags["_"] = _np.ones((batch, n), _np.float32)
        prof = (tid, pos, locid, flags, labels)
        tctx._memo[_PROFILE_KEY] = prof
    return prof


def _structural(tctx: BatchContext, token: str):
    """``po`` / ``int`` / ``loc`` as broadcasted profile comparisons,
    matching the scalar definitions bit for bit: ``po`` is same-thread
    strict program order, ``int`` (= ``sthd``) is reflexive same-thread,
    ``loc`` (= ``sloc``) is reflexive same-location over accesses."""
    tid, pos, locid, _, _ = _profile(tctx)
    same_thread = tid[:, :, None] == tid[:, None, :]
    if token == "po":
        data = same_thread & (pos[:, :, None] < pos[:, None, :])
    elif token == "int":
        data = same_thread
    else:  # "loc"
        data = (locid[:, :, None] == locid[:, None, :]) & (
            locid[:, :, None] >= 0
        )
    return data.astype(_np.float32)


def _fr(tctx: BatchContext):
    """From-read, mirroring :attr:`Execution.fr` exactly:
    ``([R]; sloc; [W]) \\ (rf⁻¹; (co⁻¹)*)`` — the lifts are masks, and
    ``co`` is built transitively closed (per-location total orders), so
    ``(co⁻¹)*`` is just ``(co⁻¹)?``."""
    rf = base_value(tctx, "rf")
    co = base_value(tctx, "co")
    sloc = base_value(tctx, "loc")
    reads = set_value(tctx, "R")
    writes = set_value(tctx, "W")
    eye = _np.eye(tctx.n, dtype=_np.float32)
    overwritten = rf.swapaxes(1, 2) @ _np.maximum(co.swapaxes(1, 2), eye)
    return (
        sloc
        * reads[:, :, None]
        * writes[:, None, :]
        * (overwritten == 0)
    )


#: The base relations every :class:`~repro.core.execution.Execution`
#: stores as pairs, read off as ``(i, j)`` pairs; ``co`` is every ordered
#: pair of each location's order, which is ``co_rel``'s transitive order.
_FIELD_PAIRS = {
    "rf": lambda x: ((w, r) for r, w in x.rf.items()),
    "co": lambda x: (
        pair for order in x.co.values() for pair in combinations(order, 2)
    ),
    "addr": lambda x: x.addr,
    "data": lambda x: x.data,
    "ctrl": lambda x: x.ctrl,
    "rmw": lambda x: x.rmw,
}


def _scatter(tctx: BatchContext, pairs_of):
    """The ``float32 [batch, n, n]`` stack with a 1 at every pair
    ``pairs_of`` reads off each candidate's execution: one fancy-index
    assignment into a zeroed array, no scalar :class:`Relation`."""
    n = tctx.n
    nn = n * n
    flat: list[int] = []
    for b, a in enumerate(tctx.analyses):
        base = b * nn
        flat.extend(base + i * n + j for i, j in pairs_of(a.x))
    data = _np.zeros(tctx.batch * nn, _np.float32)
    data[flat] = 1.0
    return data.reshape(tctx.batch, n, n)


def _build_relation(tctx: BatchContext, token: str):
    if token in ("po", "int", "loc"):
        return _structural(tctx, token)
    if token == "fr":
        return _fr(tctx)
    if token == "ext":  # ``full \ sthd``
        return 1.0 - base_value(tctx, "int")
    if token == "id":
        eye = _np.eye(tctx.n, dtype=_np.float32)
        return _np.broadcast_to(eye, (tctx.batch, tctx.n, tctx.n))
    pairs_of = _FIELD_PAIRS.get(token)
    if pairs_of is not None:
        return _scatter(tctx, pairs_of)
    # ``stxn``, ``stxnat`` and ``tfence``: empty on a baseline view and
    # on every candidate without a transaction.
    if tctx._parent is not None or not any(a.x.txns for a in tctx.analyses):
        return _np.zeros((tctx.batch, tctx.n, tctx.n), _np.float32)
    getter = _BASE_RELATION[token]
    return pack_relations([getter(a) for a in tctx.analyses], tctx.n)


def _build_set(tctx: BatchContext, token: str):
    if token in _nodes.TXN_BASES:  # the profile is txn-free: pack these
        getter = _BASE_SET[token]
        return pack_sets([getter(a) for a in tctx.analyses], tctx.n)
    _, _, _, flags, labels = _profile(tctx)
    if token in flags:
        return flags[token]
    row = labels.get(_LABEL_FOR_SET[token])
    if row is None:
        return _np.zeros((tctx.batch, tctx.n), _np.float32)
    return row


def base_value(tctx: BatchContext, token: str):
    """Build-or-fetch base relation ``token`` as a ``float32`` stack.

    Stored under the interned leaf node's id in ``tctx``'s memo, so
    every kernel swept over the context reuses it.  ``tctx`` is the
    context the leaf routes to (the parent, for txn-free tokens of a
    baseline context).
    """
    node_id = _nodes.base(token).id
    memo = tctx._memo
    val = memo.get(node_id)
    if val is None:
        STATS.batch_computes += 1
        val = memo[node_id] = _build_relation(tctx, token)
    return val


def set_value(tctx: BatchContext, token: str):
    """Build-or-fetch base or labelled event set ``token`` (same
    sharing as :func:`base_value`)."""
    node_id = _nodes.bset(token).id
    memo = tctx._memo
    val = memo.get(node_id)
    if val is None:
        STATS.batch_computes += 1
        val = memo[node_id] = _build_set(tctx, token)
    return val


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------


def schedule_args(node: Node):
    """``node``'s arguments as the kernels consume them: a comp's
    ``[S]`` factors are replaced by their set, which the comp kernel
    applies as a mask (the lift node itself is only scheduled if some
    other parent needs its relation value)."""
    if node.kind != "comp":
        return node.args
    return [a.args[0] if a.kind == "lift" else a for a in node.args]


def _schedule(node: Node, seen: set[int], steps: list) -> None:
    """Post-order DFS over the closed sub-DAG: arguments before uses.

    Fixpoint nodes are atomic steps (the kernel's inline Kleene loop
    owns their bodies); free-variable nodes are reached only inside
    fixpoint bodies.
    """
    if node.id in seen or node.free_vars:
        return
    seen.add(node.id)
    if node.kind != "fix":
        for arg in schedule_args(node):
            _schedule(arg, seen, steps)
    steps.append(node)


def _memo_row(ctx: BatchContext, txn_free: bool) -> list:
    """The per-candidate scalar predicate memos an axiom's verdicts
    route to (the routing of :func:`repro.ir.eval.axiom_holds`), cached
    per context — every model swept over the same context probes the
    same two rows."""
    key = "_pred_memos_tf" if txn_free else "_pred_memos"
    row = ctx._memo.get(key)
    if row is None:
        if txn_free:
            row = [
                (a._parent if a._parent is not None else a)._ir_memo
                for a in ctx.analyses
            ]
        else:
            row = [a._ir_memo for a in ctx.analyses]
        ctx._memo[key] = row
    return row


class BatchPlan:
    """The node schedule for one definition at one universe size (see
    the module docstring).  ``segments`` holds one
    ``(nodes, kind, axiom_node, predicate_memo_key)`` per axiom."""

    __slots__ = ("n", "segments")

    def __init__(self, definition, n: int) -> None:
        self.n = n
        seen: set[int] = set()
        segments = []
        for ax in definition.plan:
            steps: list = []
            _schedule(ax.node, seen, steps)
            key = -(ax.node.id * 4 + _KIND_CODE[ax.kind])
            segments.append((tuple(steps), ax.kind, ax.node, key))
        self.segments = tuple(segments)


#: How many ``(definition_token, n)`` kernels the kernel cache
#: (:data:`repro.ir.codegen._COMPILED`) keeps, least recently used
#: evicted first, so a long-lived pool worker that keeps meeting new
#: ``.cat`` definitions stays bounded.  An evicted kernel is rebuilt on
#: its next use.  A perfbench workload uses at most 32.
KERNEL_CACHE_SIZE = 256


def plan_for(token: str, definition, n: int) -> BatchPlan:
    """The plan for ``definition`` (named by ``token``) at universe
    size ``n``, built once per kernel build: the kernel cache keeps the
    kernel, not the plan."""
    return BatchPlan(definition, n)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def consistent_on(model, definition, ctx: BatchContext) -> list[bool]:
    """Batched :meth:`MemoryModel.consistent` over ``ctx``, a context of
    same-universe executions.

    The campaign prefill (:mod:`repro.engine.batchsweep`) builds one
    :class:`BatchContext` per universe-size bucket and sweeps *every*
    model's kernel over it, so leaf packing and hash-consed node values
    are shared across models, not just across candidates.  ``ctx`` must
    be the unstripped stack — the ``tm`` baseline split is applied
    here, as in the scalar :meth:`MemoryModel._analysis`.

    Stacks below :func:`kernel_floor`, hosts without numpy, and plans
    whose kernel cannot be built are checked per candidate on the
    scalar reference — identical verdicts either way.
    """
    token = model.definition_token()
    kernel = None
    if ctx.batch >= kernel_floor(token, ctx.n):
        kernel = codegen.compiled_for(token, definition, ctx.n)
    if kernel is None:
        return [bool(model.consistent(a)) for a in ctx.analyses]
    target = ctx if model.tm else ctx.baseline
    STATS.batch_candidates += ctx.batch
    registry = obs_metrics.ACTIVE
    if trace.ACTIVE is None and registry is None:
        return kernel(target)
    start = time.perf_counter()
    if trace.ACTIVE is not None:
        with trace.stage("axioms"):
            flags = kernel(target)
        trace.count("batched_candidates", ctx.batch)
    else:
        flags = kernel(target)
    if registry is not None:
        registry.histogram("batch_size").observe(ctx.batch)
        registry.histogram("batch_kernel_seconds").observe(
            time.perf_counter() - start
        )
    return flags


# The kernels live in codegen, which imports this module for the plans
# and leaves; binding it last lets the import cycle resolve with both
# modules complete.  Importing it with this module, rather than on first
# use, also means forked pool workers inherit it instead of each
# importing it again.
from . import codegen  # noqa: E402
