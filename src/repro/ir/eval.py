"""The one evaluation engine behind every model.

:func:`evaluate` maps an interned IR :class:`~repro.ir.nodes.Node` plus a
shared :class:`~repro.core.analysis.CandidateAnalysis` to a concrete
:class:`~repro.core.relation.Relation` (or ``frozenset`` for set-valued
nodes).  Results are memoized **per (analysis, node)** in the
analysis's IR memo, keyed by node id, with the node's ``txn_free`` flag
routing a baseline view's transaction-independent values to its
parent's memo — so:

* when a campaign sweeps eight models over one candidate, every node the
  models share (and hash-consing makes them share aggressively) is
  computed exactly once;
* a ``tm=False`` baseline sweep shares every transaction-independent
  value with the ``tm=True`` sweep of the same candidate.

Base relations and event sets are read off the candidate's
:class:`~repro.core.execution.Execution` (``a.x``); only the
transactional ones (``stxn``, ``stxnat``, ``tfence``, ``TXN``,
``TXNAT``) come from the analysis, which erases them on a baseline
view.  Lifts, products and the §3.3 liftings are computed directly with
:class:`~repro.core.relation.Relation` and :mod:`repro.core.lifting`.

Fixpoint nodes (the lowering of ``.cat``'s ``let rec``) are evaluated by
simultaneous Kleene iteration from the empty relations; all components
over the same body tuple share one iteration.  Free fixpoint variables
are resolved against an explicit environment and never memoized.

A small *shortcut table* maps a handful of prelude nodes (``rfe``,
``po_loc``, ``com``, the fence relations, ...) straight onto the cached
properties of the execution, so the IR path reuses the values every
other subsystem already computed rather than re-deriving them.
"""

from __future__ import annotations

from typing import Callable

from ..core.analysis import CandidateAnalysis
from ..core.events import Label
from ..core.lifting import stronglift, weaklift
from ..core.relation import Relation
from .nodes import Node

__all__ = [
    "axiom_holds",
    "evaluate",
    "register_shortcut",
    "EvalStats",
    "STATS",
]


class EvalStats:
    """Process-wide counters (cheap; used by bench_ir, ``explain``, and
    the telemetry snapshot, which reports them as deltas-since-enable)."""

    __slots__ = (
        "computes",
        "fix_iterations",
        "memo_hits",
        "batch_computes",
        "batch_candidates",
        "kernel_build_failures",
        "prefill_fallbacks",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.computes = 0
        self.fix_iterations = 0
        self.memo_hits = 0
        #: Batched node-kernel computations (one per (node, chunk)).
        self.batch_computes = 0
        #: Candidates whose consistency ran through the batched kernels.
        self.batch_candidates = 0
        #: ``(definition_token, n)`` kernels that failed to build, whose
        #: stacks therefore fell back to the scalar path.
        self.kernel_build_failures = 0
        #: Steps of the campaign prefill (:mod:`repro.engine.batchsweep`)
        #: that raised and sent their cells to the per-cell path.
        self.prefill_fallbacks = 0


STATS = EvalStats()

#: node id -> analysis getter, bypassing the structural computation.
_SHORTCUTS: dict[int, Callable[[CandidateAnalysis], object]] = {}


def register_shortcut(
    node: Node, getter: Callable[[CandidateAnalysis], object]
) -> Node:
    """Route ``node`` to a cached execution value instead of recomputing.

    The getter must be extensionally equal to the structural evaluation
    of the node; ``tests/test_ir.py`` cross-checks every registered
    shortcut against the structural value.
    """
    _SHORTCUTS[node.id] = getter
    return node


_LABEL_FOR_SET = {
    "ACQ": Label.ACQ,
    "REL": Label.REL,
    "ACQREL": Label.ACQ_REL,
    "SC": Label.SC,
    "RLX": Label.RLX,
    "ATO": Label.ATO,
    "X": Label.EXCL,
    "MFENCE": Label.MFENCE,
    "SYNC": Label.SYNC,
    "LWSYNC": Label.LWSYNC,
    "ISYNC": Label.ISYNC,
    "DMB": Label.DMB,
    "DMB.LD": Label.DMB_LD,
    "DMB.ST": Label.DMB_ST,
    "ISB": Label.ISB,
    "FENCE.RW.RW": Label.FENCE_RW_RW,
    "FENCE.R.RW": Label.FENCE_R_RW,
    "FENCE.RW.W": Label.FENCE_RW_W,
    "FENCE.TSO": Label.FENCE_TSO,
}

_BASE_RELATION = {
    "po": lambda a: a.x.po,
    "rf": lambda a: a.x.rf_rel,
    "co": lambda a: a.x.co_rel,
    "fr": lambda a: a.x.fr,
    "loc": lambda a: a.x.sloc,
    "int": lambda a: a.x.sthd,
    "ext": lambda a: Relation.full(a.n) - a.x.sthd,
    "addr": lambda a: a.x.addr_rel,
    "data": lambda a: a.x.data_rel,
    "ctrl": lambda a: a.x.ctrl_rel,
    "rmw": lambda a: a.x.rmw_rel,
    "stxn": lambda a: a.stxn,
    "stxnat": lambda a: a.stxnat,
    "tfence": lambda a: a.tfence,
    "id": lambda a: Relation.identity(a.n),
}

_BASE_SET = {
    "_": lambda a: frozenset(range(a.n)),
    "R": lambda a: a.x.reads,
    "W": lambda a: a.x.writes,
    "F": lambda a: a.x.fences,
    "M": lambda a: a.x.accesses,
    "CALL": lambda a: a.x.calls,
    "TXN": lambda a: a.txn_events,
    "TXNAT": lambda a: a.atomic_txn_events,
}


def evaluate(
    node: Node,
    x: "CandidateAnalysis | object",
    env: tuple[Relation, ...] | None = None,
):
    """The value of ``node`` over the candidate analysed by ``x``.

    ``x`` may be an execution or its analysis (as everywhere else in the
    codebase).  ``env`` binds fixpoint variables during iteration; nodes
    containing free variables are computed directly, closed nodes go
    through the per-candidate memo.
    """
    if not isinstance(x, CandidateAnalysis):
        x = CandidateAnalysis.of(x)
    return _eval(node, x, env)


def _eval(node: Node, a: CandidateAnalysis, env):
    """The memoized recursion (``a`` is already an analysis).

    Closed nodes are memoized in the analysis's ``_ir_memo`` dict,
    keyed by node id; txn-free nodes evaluated on a baseline view store
    on the *parent* analysis, so the ``tm=True`` and ``tm=False`` sweeps
    of one candidate share them (this is the hottest loop in a
    campaign).
    """
    if node.free_vars:
        if env is None:
            raise ValueError(f"node {node!r} has free fixpoint variables")
        return _compute(node, a, env)
    target = a
    if node.txn_free and a._parent is not None:
        target = a._parent
    memo = target._ir_memo
    node_id = node.id
    hit = memo.get(node_id, _MISSING)
    if hit is _MISSING:
        # :func:`_compute`, inlined so a computed node costs one frame.
        STATS.computes += 1
        shortcut = _SHORTCUTS.get(node_id)
        if shortcut is not None:
            hit = shortcut(target)
        else:
            hit = _DISPATCH[node.kind](node, target, env)
        memo[node_id] = hit
    else:
        STATS.memo_hits += 1
    return hit


_MISSING = object()


def _compute(node: Node, a: CandidateAnalysis, env):
    STATS.computes += 1
    shortcut = _SHORTCUTS.get(node.id)
    if shortcut is not None:
        return shortcut(a)
    return _DISPATCH[node.kind](node, a, env)


def _c_base(node, a, env):
    return _BASE_RELATION[node.token](a)


def _c_set(node, a, env):
    getter = _BASE_SET.get(node.token)
    if getter is not None:
        return getter(a)
    return a.x.with_label(_LABEL_FOR_SET[node.token])


def _c_union(node, a, env):
    args = node.args
    out = _eval(args[0], a, env)
    for item in args[1:]:
        out = out | _eval(item, a, env)
    return out


def _c_inter(node, a, env):
    args = node.args
    out = _eval(args[0], a, env)
    for item in args[1:]:
        out = out & _eval(item, a, env)
    return out


def _c_diff(node, a, env):
    left, right = node.args
    return _eval(left, a, env) - _eval(right, a, env)


def _c_comp(node, a, env):
    args = node.args
    out = _eval(args[0], a, env)
    for item in args[1:]:
        out = out @ _eval(item, a, env)
    return out


_DISPATCH = {
    "base": _c_base,
    "set": _c_set,
    "empty": lambda node, a, env: Relation.empty(a.n),
    "sempty": lambda node, a, env: frozenset(),
    "var": lambda node, a, env: env[node.token],
    "fix": lambda node, a, env: _eval_fix(node, a)[node.token],
    "union": _c_union,
    "sunion": _c_union,
    "inter": _c_inter,
    "sinter": _c_inter,
    "diff": _c_diff,
    "sdiff": _c_diff,
    "compl": lambda node, a, env: _eval(node.args[0], a, env).complement(),
    "scompl": lambda node, a, env: (
        frozenset(range(a.n)) - _eval(node.args[0], a, env)
    ),
    "comp": _c_comp,
    "inverse": lambda node, a, env: _eval(node.args[0], a, env).inverse(),
    "opt": lambda node, a, env: _eval(node.args[0], a, env).opt(),
    "plus": lambda node, a, env: _eval(node.args[0], a, env).plus(),
    "star": lambda node, a, env: _eval(node.args[0], a, env).star(),
    "lift": lambda node, a, env: Relation.lift(
        a.n, _eval(node.args[0], a, env)
    ),
    "cross": lambda node, a, env: Relation.cross(
        a.n, _eval(node.args[0], a, env), _eval(node.args[1], a, env)
    ),
    "domain": lambda node, a, env: _eval(node.args[0], a, env).domain(),
    "range": lambda node, a, env: _eval(node.args[0], a, env).codomain(),
    "stronglift": lambda node, a, env: stronglift(
        _eval(node.args[0], a, env), a.stxn
    ),
    "weaklift": lambda node, a, env: weaklift(
        _eval(node.args[0], a, env), a.stxn
    ),
}

#: Axiom-predicate memo keys: negative ints derived from (node, kind),
#: disjoint from the non-negative node-id keys of ``_ir_memo``.
_KIND_CODE = {"acyclic": 1, "irreflexive": 2, "empty": 3}


def axiom_holds(kind: str, node: Node, x) -> bool:
    """Memoized ``kind(node)`` predicate over one candidate.

    Many models share axiom operands verbatim (``Coherence``,
    ``RMWIsol``, ``stronglift(com)`` appear in most architecture
    models); memoizing the *predicate* result means a campaign checks
    each shared axiom once per candidate, not once per model.
    """
    if not isinstance(x, CandidateAnalysis):
        x = CandidateAnalysis.of(x)
    a = x
    if node.txn_free and a._parent is not None:
        a = a._parent
    memo = a._ir_memo
    key = -(node.id * 4 + _KIND_CODE[kind])
    hit = memo.get(key)
    if hit is None:
        rel = _eval(node, a, None)
        if kind == "acyclic":
            hit = rel.is_acyclic()
        elif kind == "irreflexive":
            hit = rel.is_irreflexive()
        else:
            hit = rel.is_empty()
        memo[key] = hit
    return hit


def _eval_fix(node: Node, a: CandidateAnalysis) -> tuple[Relation, ...]:
    """The simultaneous least fixpoint of ``node.args``, memoized once
    per candidate for all components (every ``fix(bodies, i)`` shares
    the tuple computed for its body list)."""
    bodies = node.args
    key = ("fix",) + tuple(b.id for b in bodies)
    memo = a._ir_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    rels = tuple(Relation.empty(a.n) for _ in bodies)
    # Monotone bodies give an increasing chain bounded by the full
    # relation.  A ``.cat`` source with a non-monotone ``let rec`` is
    # rejected at load (``cat/compile.py``); the step bound guards
    # hand-built IR.
    max_steps = a.n * a.n * len(bodies) + 8
    for _ in range(max_steps):
        STATS.fix_iterations += 1
        new = tuple(_eval(b, a, rels) for b in bodies)
        if new == rels:
            memo[key] = rels
            return rels
        rels = new
    raise RuntimeError(
        f"IR fixpoint over {len(bodies)} bindings did not converge"
    )
