"""Hash-consed relational expression nodes.

Every model in this repository — the eight native Python models and every
``.cat`` file in the library — is a predicate over the same derived-relation
algebra (paper section 2.1).  This module gives that algebra a first-class
*intermediate representation*: immutable expression nodes, structurally
interned, so that identical subexpressions built anywhere in the process —
by two different native models, by a native model and the ``.cat`` compiler,
by two mutants of the same model — are the **same object**.

Node kinds
==========

Relation-valued
    ``base`` (a primitive relation of the candidate analysis: ``po``,
    ``rf``, ``co``, ``fr``, ``loc``, ``int``, ``ext``, ``addr``, ``data``,
    ``ctrl``, ``rmw``, ``stxn``, ``stxnat``, ``tfence``, ``id``),
    ``empty``, ``union``, ``inter``, ``diff``, ``compl``, ``comp`` (``;``),
    ``inverse``, ``opt``, ``plus``, ``star``, ``lift`` (``[s]``), ``cross``
    (``s1 × s2``), ``stronglift``/``weaklift`` (the section 3.3 transaction
    liftings w.r.t. ``stxn``), ``fix`` (simultaneous least fixpoint, the
    lowering of ``let rec``) and ``var`` (a fixpoint-bound variable).

Set-valued
    ``set`` (a primitive event set: ``R``, ``W``, ``F``, ``M``, label
    sets, ``TXN``, ``TXNAT``, ``_``), ``sempty``, ``sunion``, ``sinter``,
    ``sdiff``, ``scompl``, ``domain``, ``range``.

Interning and normalisation
===========================

Construction goes through the smart constructors below, which normalise
before interning:

* ``union``/``inter`` (and their set forms) are flattened to n-ary,
  deduplicated, and sorted by structural digest — ``(a | b) | c``,
  ``c | (b | a)`` and ``a | b | c | b`` are all the same node;
* ``comp`` is flattened to n-ary (composition is associative) and drops
  ``id`` operands;
* identity elements are eliminated (``r | 0 = r``, ``r ; 0 = 0``,
  ``r \\ 0 = r``, ``r \\ r = 0``) and closure towers collapse
  (``(r?)? = r?``, ``(r⁺)* = r*``, ``(r?)⁺ = r*``, ``(r⁻¹)⁻¹ = r``);
* a composition matching a transaction-lifting pattern is rewritten to
  the dedicated node: ``stxn ; (r \\ stxn) ; stxn`` becomes
  ``weaklift(r)`` and ``stxn? ; (r \\ stxn) ; stxn?`` becomes
  ``stronglift(r)`` — so ``.cat`` code inlining the stdlib's
  ``weaklift(r, stxn)`` closure and native code calling
  :func:`weaklift` intern to the same node.

Every node carries:

``digest``
    a structural SHA-256 prefix, *stable across processes* (child order
    in commutative nodes is digest-sorted, never intern-order-sorted),
    from which model ``definition_token()``\\ s — and hence the campaign
    cache keys — are derived;
``txn_free``
    True iff the node's value is independent of the transactional
    structure (no ``stxn``/``stxnat``/``tfence``/``TXN``/``TXNAT`` or
    lifting underneath) — the evaluator's memo uses this to share values
    between the ``tm=True`` analysis and its ``tm=False`` baseline view;
``cost``
    a static evaluation-cost heuristic used by the axiom planner to
    order a model's axioms cheapest-first on the ``consistent()``
    short-circuit hot path;
``size``
    the as-if-tree node count, whose ratio against the DAG node count is
    the sharing statistic reported by ``repro explain`` and
    ``benchmarks/bench_ir.py``.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable

__all__ = [
    "Node",
    "BASE_RELATIONS",
    "BASE_SETS",
    "TXN_BASES",
    "base",
    "bset",
    "empty",
    "sempty",
    "union",
    "inter",
    "diff",
    "compl",
    "comp",
    "inverse",
    "opt",
    "plus",
    "star",
    "lift",
    "cross",
    "sunion",
    "sinter",
    "sdiff",
    "scompl",
    "domain",
    "range_",
    "stronglift",
    "weaklift",
    "fix",
    "var",
    "reachable",
    "dag_stats",
    "cross_model_stats",
]

#: Primitive relation names resolvable against a candidate analysis.
BASE_RELATIONS = frozenset(
    {
        "id",
        "po",
        "rf",
        "co",
        "fr",
        "loc",
        "int",
        "ext",
        "addr",
        "data",
        "ctrl",
        "rmw",
        "stxn",
        "stxnat",
        "tfence",
    }
)

#: Primitive event-set names (the .cat base environment's sets).
BASE_SETS = frozenset(
    {
        "_",
        "R",
        "W",
        "F",
        "M",
        "CALL",
        "ACQ",
        "REL",
        "ACQREL",
        "SC",
        "RLX",
        "ATO",
        "X",
        "MFENCE",
        "SYNC",
        "LWSYNC",
        "ISYNC",
        "DMB",
        "DMB.LD",
        "DMB.ST",
        "ISB",
        "FENCE.RW.RW",
        "FENCE.R.RW",
        "FENCE.RW.W",
        "FENCE.TSO",
        "TXN",
        "TXNAT",
    }
)

#: Primitive names whose value depends on the transactional structure.
TXN_BASES = frozenset({"stxn", "stxnat", "tfence", "TXN", "TXNAT"})

#: Node kinds that are set-valued.
_SET_KINDS = frozenset(
    {"set", "sempty", "sunion", "sinter", "sdiff", "scompl", "domain", "range"}
)


class Node:
    """One interned IR node.  Never construct directly — use the smart
    constructors, which normalise and intern."""

    __slots__ = (
        "id",
        "kind",
        "token",
        "args",
        "is_set",
        "txn_free",
        "free_vars",
        "digest",
        "cost",
        "size",
    )

    id: int
    kind: str
    token: object
    args: "tuple[Node, ...]"
    is_set: bool
    txn_free: bool
    free_vars: bool
    digest: str
    cost: int
    size: int

    # -- operator sugar mirroring repro.core.relation.Relation ----------

    def __or__(self, other: "Node") -> "Node":
        return sunion(self, other) if self.is_set else union(self, other)

    def __and__(self, other: "Node") -> "Node":
        return sinter(self, other) if self.is_set else inter(self, other)

    def __sub__(self, other: "Node") -> "Node":
        return sdiff(self, other) if self.is_set else diff(self, other)

    def __matmul__(self, other: "Node") -> "Node":
        return comp(self, other)

    def opt(self) -> "Node":
        return opt(self)

    def plus(self) -> "Node":
        return plus(self)

    def star(self) -> "Node":
        return star(self)

    def inverse(self) -> "Node":
        return inverse(self)

    def complement(self) -> "Node":
        return scompl(self) if self.is_set else compl(self)

    def __repr__(self) -> str:
        return f"<ir #{self.id} {describe(self)}>"


# ----------------------------------------------------------------------
# Interning
# ----------------------------------------------------------------------

_INTERN: dict[tuple, Node] = {}
_LOCK = threading.Lock()
_NEXT_ID = 0

#: Kinds whose value is NOT txn-free even when their children are.
_TXN_KINDS = frozenset({"stronglift", "weaklift"})

_COST = {
    "base": 1,
    "set": 1,
    "empty": 0,
    "sempty": 0,
    "id": 1,
    "lift": 2,
    "cross": 2,
    "domain": 2,
    "range": 2,
    "inverse": 3,
    "opt": 2,
    "compl": 3,
    "scompl": 2,
    "stronglift": 6,
    "weaklift": 6,
    "plus": 12,
    "star": 14,
    "var": 0,
}


def _make(kind: str, token: object, args: tuple[Node, ...]) -> Node:
    """Intern (kind, token, args) into a node, computing the metadata."""
    key = (kind, token, tuple(a.id for a in args))
    with _LOCK:
        found = _INTERN.get(key)
        if found is not None:
            return found
        global _NEXT_ID
        node = Node.__new__(Node)
        node.id = _NEXT_ID
        _NEXT_ID += 1
        node.kind = kind
        node.token = token
        node.args = args
        node.is_set = kind in _SET_KINDS
        if kind in ("base", "set"):
            node.txn_free = token not in TXN_BASES
        elif kind in _TXN_KINDS:
            node.txn_free = False
        else:
            node.txn_free = all(a.txn_free for a in args)
        if kind == "fix":
            # A fixpoint binds every variable its bodies reference
            # (nested ``let rec`` is rejected at compile time).
            node.free_vars = False
        else:
            node.free_vars = kind == "var" or any(a.free_vars for a in args)
        hasher = hashlib.sha256()
        hasher.update(kind.encode())
        hasher.update(b"\x00")
        hasher.update(str(token).encode())
        for a in args:
            hasher.update(b"\x00")
            hasher.update(a.digest.encode())
        node.digest = hasher.hexdigest()[:16]
        child_cost = sum(a.cost for a in args)
        if kind in ("union", "inter", "diff", "sunion", "sinter", "sdiff"):
            node.cost = child_cost + len(args)
        elif kind == "comp":
            node.cost = child_cost + 3 * len(args)
        elif kind == "fix":
            node.cost = child_cost * 8 + 16
        else:
            node.cost = child_cost + _COST.get(kind, 2)
        node.size = 1 + sum(a.size for a in args)
        _INTERN[key] = node
        return node


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------


def base(name: str) -> Node:
    """A primitive relation of the candidate analysis."""
    if name not in BASE_RELATIONS:
        raise ValueError(f"unknown base relation {name!r}")
    return _make("base", name, ())


def bset(name: str) -> Node:
    """A primitive event set (cat base-environment name)."""
    if name not in BASE_SETS:
        raise ValueError(f"unknown base set {name!r}")
    return _make("set", name, ())


def empty() -> Node:
    """The empty relation."""
    return _make("empty", None, ())


def sempty() -> Node:
    """The empty event set."""
    return _make("sempty", None, ())


def var(index: int) -> Node:
    """A fixpoint-bound variable (see :func:`fix`)."""
    return _make("var", index, ())


# ----------------------------------------------------------------------
# Boolean structure (relations)
# ----------------------------------------------------------------------


def _flatten(kind: str, items: Iterable[Node]) -> list[Node]:
    out: list[Node] = []
    for item in items:
        if item.kind == kind:
            out.extend(item.args)
        else:
            out.append(item)
    return out


def _assoc_comm(kind: str, empty_node: Node, items: tuple[Node, ...]) -> Node:
    """Shared normalisation for union-like operators."""
    flat = _flatten(kind, items)
    seen: dict[int, Node] = {}
    for item in flat:
        if item.kind in ("empty", "sempty"):
            continue
        seen.setdefault(item.id, item)
    if not seen:
        return empty_node
    ordered = sorted(seen.values(), key=lambda n: n.digest)
    if len(ordered) == 1:
        return ordered[0]
    return _make(kind, None, tuple(ordered))


def union(*items: Node) -> Node:
    """``r1 ∪ r2 ∪ ...`` — n-ary, deduplicated, digest-sorted."""
    for item in items:
        if item.is_set:
            raise TypeError("union() expects relations (use sunion for sets)")
    return _assoc_comm("union", empty(), items)


def inter(*items: Node) -> Node:
    """``r1 ∩ r2 ∩ ...`` — n-ary, deduplicated, digest-sorted."""
    flat = _flatten("inter", items)
    for item in flat:
        if item.is_set:
            raise TypeError("inter() expects relations (use sinter for sets)")
        if item.kind == "empty":
            return empty()
    seen: dict[int, Node] = {}
    for item in flat:
        seen.setdefault(item.id, item)
    ordered = sorted(seen.values(), key=lambda n: n.digest)
    if len(ordered) == 1:
        return ordered[0]
    return _make("inter", None, tuple(ordered))


def diff(left: Node, right: Node) -> Node:
    """``r1 \\ r2``."""
    if left.is_set or right.is_set:
        raise TypeError("diff() expects relations (use sdiff for sets)")
    if right.kind == "empty" :
        return left
    if left.kind == "empty" or left.id == right.id:
        return empty()
    return _make("diff", None, (left, right))


def compl(body: Node) -> Node:
    """``¬r``."""
    if body.is_set:
        raise TypeError("compl() expects a relation")
    return _make("compl", None, (body,))


# ----------------------------------------------------------------------
# Relational operators
# ----------------------------------------------------------------------


def comp(*items: Node) -> Node:
    """``r1 ; r2 ; ...`` — n-ary (associative), with ``id`` and lifting
    normalisation (see module docstring)."""
    coerced = tuple(lift(i) if i.is_set else i for i in items)
    flat: list[Node] = []
    for item in _flatten("comp", coerced):
        if item.kind == "empty":
            return empty()
        if item.kind == "base" and item.token == "id":
            continue
        flat.append(item)
    if not flat:
        return base("id")
    if len(flat) == 1:
        return flat[0]
    node = _recognise_lifting(tuple(flat))
    if node is not None:
        return node
    return _make("comp", None, tuple(flat))


def _recognise_lifting(args: tuple[Node, ...]) -> Node | None:
    """Rewrite lifting-shaped compositions to the dedicated nodes."""
    if len(args) != 3:
        return None
    stxn = base("stxn")
    first, mid, last = args
    if mid.kind != "diff" or mid.args[1].id != stxn.id:
        return None
    body = mid.args[0]
    if first.id == stxn.id and last.id == stxn.id:
        return _make("weaklift", None, (body,))
    stxn_opt_id = _make("opt", None, (stxn,)).id
    if first.id == stxn_opt_id and last.id == stxn_opt_id:
        return _make("stronglift", None, (body,))
    return None


def inverse(body: Node) -> Node:
    """``r⁻¹``; ``(r⁻¹)⁻¹`` collapses."""
    if body.is_set:
        raise TypeError("inverse() expects a relation")
    if body.kind == "inverse":
        return body.args[0]
    return _make("inverse", None, (body,))


def opt(body: Node) -> Node:
    """``r?``; closure towers collapse."""
    if body.is_set:
        body = lift(body)
    if body.kind in ("opt", "star"):
        return body
    if body.kind == "plus":
        return _make("star", None, body.args)
    return _make("opt", None, (body,))


def plus(body: Node) -> Node:
    """``r⁺``."""
    if body.is_set:
        body = lift(body)
    if body.kind in ("plus", "star"):
        return body
    if body.kind == "opt":
        return _make("star", None, body.args)
    return _make("plus", None, (body,))


def star(body: Node) -> Node:
    """``r*``."""
    if body.is_set:
        body = lift(body)
    if body.kind == "star":
        return body
    if body.kind in ("plus", "opt"):
        return _make("star", None, body.args)
    return _make("star", None, (body,))


def stronglift(body: Node) -> Node:
    """``stronglift(r, stxn)`` (section 3.3) as a dedicated node."""
    if body.is_set:
        raise TypeError("stronglift() expects a relation")
    return _make("stronglift", None, (body,))


def weaklift(body: Node) -> Node:
    """``weaklift(r, stxn)`` (section 3.3) as a dedicated node."""
    if body.is_set:
        raise TypeError("weaklift() expects a relation")
    return _make("weaklift", None, (body,))


# ----------------------------------------------------------------------
# Set structure and set/relation bridges
# ----------------------------------------------------------------------


def sunion(*items: Node) -> Node:
    for item in items:
        if not item.is_set:
            raise TypeError("sunion() expects sets")
    return _assoc_comm("sunion", sempty(), items)


def sinter(*items: Node) -> Node:
    flat = _flatten("sinter", items)
    for item in flat:
        if not item.is_set:
            raise TypeError("sinter() expects sets")
        if item.kind == "sempty":
            return sempty()
    seen: dict[int, Node] = {}
    for item in flat:
        seen.setdefault(item.id, item)
    ordered = sorted(seen.values(), key=lambda n: n.digest)
    if len(ordered) == 1:
        return ordered[0]
    return _make("sinter", None, tuple(ordered))


def sdiff(left: Node, right: Node) -> Node:
    if not (left.is_set and right.is_set):
        raise TypeError("sdiff() expects sets")
    if right.kind == "sempty":
        return left
    if left.kind == "sempty" or left.id == right.id:
        return sempty()
    return _make("sdiff", None, (left, right))


def scompl(body: Node) -> Node:
    if not body.is_set:
        raise TypeError("scompl() expects a set")
    if body.kind == "scompl":
        return body.args[0]
    return _make("scompl", None, (body,))


def lift(body: Node) -> Node:
    """``[s]`` — the identity restricted to the event set ``s``."""
    if not body.is_set:
        raise TypeError("lift() expects an event set")
    if body.kind == "sempty":
        return empty()
    return _make("lift", None, (body,))


def cross(sources: Node, targets: Node) -> Node:
    """``s1 × s2`` as a relation."""
    if not (sources.is_set and targets.is_set):
        raise TypeError("cross() expects event sets")
    if sources.kind == "sempty" or targets.kind == "sempty":
        return empty()
    return _make("cross", None, (sources, targets))


def domain(body: Node) -> Node:
    """``domain(r)`` — set of events with an outgoing edge."""
    if body.is_set:
        raise TypeError("domain() expects a relation")
    return _make("domain", None, (body,))


def range_(body: Node) -> Node:
    """``range(r)`` — set of events with an incoming edge."""
    if body.is_set:
        raise TypeError("range() expects a relation")
    return _make("range", None, (body,))


# ----------------------------------------------------------------------
# Fixpoints (the lowering of .cat ``let rec``)
# ----------------------------------------------------------------------


def fix(bodies: tuple[Node, ...], index: int) -> Node:
    """Component ``index`` of the simultaneous least fixpoint of
    ``bodies``, where :func:`var`\\ ``(i)`` inside any body refers to the
    ``i``-th component.  All components over the same bodies share one
    fixpoint computation in the evaluator."""
    if not 0 <= index < len(bodies):
        raise ValueError(f"fixpoint index {index} out of range")
    for body in bodies:
        if body.is_set:
            raise TypeError("fix() bodies must be relation-valued")
    return _make("fix", index, tuple(bodies))


# ----------------------------------------------------------------------
# DAG inspection
# ----------------------------------------------------------------------


def reachable(roots: Iterable[Node]) -> dict[int, Node]:
    """All nodes reachable from ``roots``, keyed by node id."""
    out: dict[int, Node] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in out:
            continue
        out[node.id] = node
        stack.extend(node.args)
    return out


def cross_model_stats(root_lists: "list[list[Node]]") -> dict[str, float]:
    """Sharing across several models' DAGs (the headline IR metric).

    ``sum_of_models`` counts each model's distinct reachable nodes as if
    compiled alone; ``union_nodes`` counts the distinct nodes of the
    combined DAG; ``sharing`` is their ratio (≥ 1).  Used by both
    ``repro explain`` and ``benchmarks/bench_ir.py`` (whose CI artifact
    asserts it stays > 1.5× over the full model roster).
    """
    individual = sum(len(reachable(roots)) for roots in root_lists)
    union_nodes = len(reachable(n for roots in root_lists for n in roots))
    return {
        "models": len(root_lists),
        "union_nodes": union_nodes,
        "sum_of_models": individual,
        "sharing": (individual / union_nodes) if union_nodes else 1.0,
    }


def dag_stats(roots: Iterable[Node]) -> dict[str, float]:
    """Sharing statistics for the DAG spanned by ``roots``.

    ``tree_size`` counts nodes as if every subexpression were duplicated
    (the cost of the old per-model interpreters); ``dag_nodes`` counts
    distinct interned nodes; ``sharing`` is their ratio (≥ 1).
    """
    roots = list(roots)
    nodes = reachable(roots)
    tree = sum(r.size for r in roots)
    dag = len(nodes)
    return {
        "roots": len(roots),
        "dag_nodes": dag,
        "tree_size": tree,
        "sharing": (tree / dag) if dag else 1.0,
    }


def describe(node: Node, maxdepth: int = 4) -> str:
    """A compact human-readable rendering (for ``repro explain``)."""
    if node.kind in ("base", "set"):
        return str(node.token)
    if node.kind == "empty":
        return "0"
    if node.kind == "sempty":
        return "{}"
    if node.kind == "var":
        return f"${node.token}"
    if maxdepth == 0:
        return f"#{node.id}"
    parts = [describe(a, maxdepth - 1) for a in node.args]
    infix = {
        "union": " | ",
        "inter": " & ",
        "sunion": " | ",
        "sinter": " & ",
        "comp": "; ",
    }
    if node.kind in infix:
        return "(" + infix[node.kind].join(parts) + ")"
    if node.kind in ("diff", "sdiff"):
        return f"({parts[0]} \\ {parts[1]})"
    if node.kind in ("compl", "scompl"):
        return f"~{parts[0]}"
    if node.kind == "inverse":
        return f"{parts[0]}^-1"
    if node.kind == "opt":
        return f"{parts[0]}?"
    if node.kind == "plus":
        return f"{parts[0]}^+"
    if node.kind == "star":
        return f"{parts[0]}^*"
    if node.kind == "lift":
        return f"[{parts[0]}]"
    if node.kind == "cross":
        return f"({parts[0]} * {parts[1]})"
    if node.kind == "fix":
        return f"fix.{node.token}({', '.join(parts)})"
    return f"{node.kind}({', '.join(parts)})"
