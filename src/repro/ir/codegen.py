"""Generated straight-line kernels: the batched evaluator.

:func:`compiled_for` lowers a :class:`~repro.ir.plan.BatchPlan` once
per ``(definition_token, universe size)`` into *generated Python
source*: one ``_consistent(ctx)`` function that checks a whole
:class:`~repro.ir.batch.BatchContext` against the model.

* every value is a ``float32`` 0/1 stack (see :mod:`repro.ir.batch`):
  union is ``maximum``, intersection ``*``, difference ``a * (1 - b)``,
  inverse an axis swap, composition a BLAS matmul reclamped by
  ``minimum(·, 1)`` — exact, since counts are bounded by ``n``, far
  under 2**24 — and ``[S]`` factors of a composition broadcast masks;
* every hash-consed node value is bound to a local variable exactly
  once, with node ids, memo keys and predicate keys inlined as
  literals — no dispatch, no per-step bookkeeping;
* leaves and every node carrying a matmul (``comp``, closures, the
  §3.3 liftings) publish to the context memo, shared *across models*:
  the roster's common subexpressions compute once per stack however
  many models sweep it;
* closures use bounded squaring (``⌈log₂(n−1)⌉`` matmuls) with a
  raw-bytes fixed-point early exit, and ``acyclic(r)`` is decided as
  ``any(r & (r*)ᵀ)`` — one elementwise product instead of a second
  matmul;
* fixpoints (``let rec``) are an inline Kleene loop: the closed
  sub-DAG of the bodies is hoisted into ordinary steps and only the
  recursive part re-evaluates per iteration; the component tuple is
  memoized under the scalar path's ``("fix", ...)`` key shape;
* axiom segments keep the plan's cheapest-first order, read and write
  the scalar per-candidate predicate memos (so scalar and batched
  sweeps share verdicts both ways), *defer* segments whose verdicts
  were all memo hits in case a later axiom needs their nodes, and stop
  once every candidate is inconsistent.

Kernels are built on first use and kept per process.  A kernel that
cannot be built is remembered as ``None``, counted in
:attr:`repro.ir.eval.EvalStats.kernel_build_failures`, warned about
once, and its stacks are checked on the scalar reference.  The module
imports without numpy; kernels are only built with it.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict

from . import plan as _plan
from .batch import _np
from .eval import STATS

__all__ = ["compiled_for", "generate_source", "is_warm", "reset"]


def _make_helpers(n: int) -> dict:
    """The runtime namespace of a generated kernel at universe size n."""
    f32 = _np.float32
    eye = _np.eye(n, dtype=f32)
    # (r | I) ** m covers all paths of length <= m, and transitive
    # closure only needs simple paths (length <= n-1): squaring
    # ceil(log2(n-1)) times reaches it with a fixed op count.
    squarings = max(0, (n - 2).bit_length())

    def _mm(a, b):
        x = a @ b
        _np.minimum(x, 1.0, out=x)
        return x

    def _tstar(a):
        cur = _np.maximum(a, eye)
        for _ in range(squarings):
            nxt = cur @ cur
            _np.minimum(nxt, 1.0, out=nxt)
            # Monotone under squaring, and 0.0/1.0 have canonical bit
            # patterns: a raw-bytes compare is an exact fixed-point
            # test far cheaper than another matmul.
            if nxt.tobytes() == cur.tobytes():
                return cur
            cur = nxt
        return cur

    def _tplus(a):
        # r+ == r ; r*
        return _mm(a, _tstar(a))

    return {
        "_STATS": STATS,
        "_memo_row": _plan._memo_row,
        "_base": _plan.base_value,
        "_set": _plan.set_value,
        "_np": _np,
        "_f32": f32,
        "_EYE": eye,
        "_IDX": _np.arange(n),
        "_mm": _mm,
        "_tstar": _tstar,
        "_tplus": _tplus,
    }


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------

#: Step kinds whose values come from a memoizing leaf helper (which
#: counts its own STATS and stores on a miss).
_LEAF_KINDS = frozenset(("base", "set"))

#: Step kinds whose values are shared across models through the context
#: memo: the leaves plus everything carrying a matmul.  Elementwise
#: interiors are cheaper to recompute than to probe-and-store.
_MEMO_KINDS = frozenset(
    ("base", "set", "comp", "plus", "star", "stronglift", "weaklift")
)


def _chunked(prefix: str, items: list[str], per_line: int = 10) -> list[str]:
    return [
        prefix + ", ".join(items[i : i + per_line])
        for i in range(0, len(items), per_line)
    ]


def _closed_schedule(node, seen: set[int], out: list) -> None:
    """Post-order schedule of the *closed* sub-DAG under ``node`` —
    the hoistable part of a fixpoint body.  Free-variable nodes are
    descended through (their closed children are hoisted) but never
    emitted; they re-evaluate inside the Kleene loop."""
    if not node.free_vars:
        if node.id in seen:
            return
        seen.add(node.id)
    if node.kind != "fix":
        for a in _plan.schedule_args(node):
            _closed_schedule(a, seen, out)
    if not node.free_vars:
        out.append(node)


def _iter_schedule(node, seen: set[int], out: list) -> None:
    """Post-order schedule of the free-variable nodes of a fixpoint
    body: the part that genuinely re-evaluates per Kleene iteration."""
    if not node.free_vars or node.kind == "var" or node.id in seen:
        return
    seen.add(node.id)
    for a in _plan.schedule_args(node):
        _iter_schedule(a, seen, out)
    out.append(node)


def _ordered_segment_steps(plan) -> list[list]:
    """Per-segment node lists in emission order: the plan's schedule
    with each fixpoint's closed body sub-DAG hoisted in front of it
    (recursively, so a closed inner fixpoint is hoisted before the
    outer one), each node appearing exactly once across all segments."""
    named: set[int] = set()
    ordered: list[list] = []
    for steps, _kind, _node, _key in plan.segments:
        seg: list = []

        def place(node) -> None:
            if node.id in named:
                return
            if node.kind == "fix":
                hoisted: list = []
                for b in node.args:
                    _closed_schedule(b, set(named), hoisted)
                for h in hoisted:
                    place(h)
            named.add(node.id)
            seg.append(node)

        for node in steps:
            place(node)
        ordered.append(seg)
    return ordered


class _Emitter:
    """Stateful source emitter for one plan (see the module docstring
    for the emission strategy)."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: node id -> local variable name (hash-consed: bound once).
        self.names: dict[int, str] = {}
        self.fixes = 0

    def name(self, node) -> str:
        name = f"v{len(self.names)}"
        self.names[node.id] = name
        return name

    def ref(self, node) -> str:
        return self.names[node.id]

    # -- expressions ----------------------------------------------------

    def _comp_expr(self, node, ref) -> str:
        """The comp-lift peephole, unrolled at generation time: ``[S]``
        factors become domain/range masks."""
        out = None
        masks: list[str] = []
        for a in node.args:
            if a.kind == "lift":
                r = ref(a.args[0])
                if out is None:
                    masks.append(r)
                else:
                    out = f"({out}) * {r}[:, None, :]"
                continue
            val = ref(a)
            for m in masks:
                val = f"({val}) * {m}[:, :, None]"
            masks = []
            out = val if out is None else f"_mm({out}, {val})"
        if out is None:  # every factor was a lift: [A];[B] = [A & B]
            return f"_EYE * ({' * '.join(masks)})[:, :, None]"
        return out

    def emit_node(self, node, name, ref, body, indent) -> None:
        """Append the line(s) computing ``node`` into local ``name``,
        resolving argument references through ``ref``."""
        kind = node.kind
        n = self.n
        c = "p" if node.txn_free else "ctx"

        def put(expr: str) -> None:
            body.append(f"{indent}{name} = {expr}")

        if kind == "base":
            return put(f"_base({c}, {node.token!r})")
        if kind == "set":
            return put(f"_set({c}, {node.token!r})")
        if kind == "fix":
            return self._emit_fix(node, name, body, indent)
        if kind == "comp":
            return put(self._comp_expr(node, ref))
        a = [ref(arg) for arg in node.args]
        if kind == "empty":
            return put(f"_np.zeros((batch, {n}, {n}), _f32)")
        if kind == "sempty":
            return put(f"_np.zeros((batch, {n}), _f32)")
        if kind in ("union", "sunion"):
            out = a[0]
            for r in a[1:]:
                out = f"_np.maximum({out}, {r})"
            return put(out)
        if kind in ("inter", "sinter"):
            return put(" * ".join(a))
        if kind in ("diff", "sdiff"):
            return put(f"{a[0]} * (1.0 - {a[1]})")
        if kind in ("compl", "scompl"):
            return put(f"1.0 - {a[0]}")
        if kind == "inverse":
            return put(f"{a[0]}.swapaxes(1, 2)")
        if kind == "opt":
            return put(f"_np.maximum({a[0]}, _EYE)")
        if kind == "plus":
            return put(f"_tplus({a[0]})")
        if kind == "star":
            return put(f"_tstar({a[0]})")
        if kind == "lift":
            return put(f"_EYE * {a[0]}[:, :, None]")
        if kind == "cross":
            return put(f"{a[0]}[:, :, None] * {a[1]}[:, None, :]")
        if kind == "domain":
            return put(f"{a[0]}.any(2).astype(_f32)")
        if kind == "range":
            return put(f"{a[0]}.any(1).astype(_f32)")
        if kind in ("stronglift", "weaklift"):
            # §3.3 liftings w.r.t. the (context-memoized) stxn leaf.
            t, outer = f"_t_{name}", f"_to_{name}"
            body.append(f"{indent}{t} = _base({c}, 'stxn')")
            if kind == "stronglift":
                body.append(f"{indent}{outer} = _np.maximum({t}, _EYE)")
            else:
                outer = t
            inner = f"{a[0]} * (1.0 - {t})"
            return put(f"_mm(_mm({outer}, {inner}), {outer})")
        raise NotImplementedError(f"no codegen emission for kind {kind!r}")

    # -- steps ----------------------------------------------------------

    def emit_step(self, node, name, body) -> int:
        """Emit one top-level step; returns how many computes the
        *segment-level* STATS line should attribute to it (memoized,
        leaf and fixpoint steps count themselves on a miss instead)."""
        indent = "        "
        if node.kind not in _MEMO_KINDS:
            self.emit_node(node, name, self.ref, body, indent)
            return 0 if node.kind == "fix" else 1
        memo = "_mp" if node.txn_free else "_mc"
        body.append(f"{indent}{name} = {memo}.get({node.id})")
        body.append(f"{indent}if {name} is None:")
        inner = indent + "    "
        if node.kind not in _LEAF_KINDS:
            body.append(f"{inner}_STATS.batch_computes += 1")
        self.emit_node(node, name, self.ref, body, inner)
        if node.kind not in _LEAF_KINDS:
            body.append(f"{inner}{memo}[{node.id}] = {name}")
        return 0

    def _emit_fix(self, node, name, body, indent) -> None:
        """An inline Kleene iteration (see the module docstring).
        Closed body subexpressions were hoisted into ordinary steps by
        :func:`_ordered_segment_steps`; only the recursive part
        re-emits per iteration."""
        j = self.fixes
        self.fixes += 1
        n = self.n
        memo = "_mp" if node.txn_free else "_mc"
        bodies = node.args
        key = ("fix",) + tuple(b.id for b in bodies)
        comps = [f"_f{j}_{k}" for k in range(len(bodies))]
        fresh = [f"_g{j}_{k}" for k in range(len(bodies))]
        iter_names: dict[int, str] = {}

        def iter_ref(sub) -> str:
            if sub.kind == "var":
                return comps[sub.token]
            if sub.free_vars:
                return iter_names[sub.id]
            return self.names[sub.id]

        body.append(f"{indent}_h{j} = {memo}.get({key!r})")
        body.append(f"{indent}if _h{j} is None:")
        inner = indent + "    "
        body.append(f"{inner}_STATS.batch_computes += 1")
        for comp in comps:
            body.append(f"{inner}{comp} = _np.zeros((batch, {n}, {n}), _f32)")
        body.append(f"{inner}for _ in range({n * n * len(bodies) + 8}):")
        loop = inner + "    "
        body.append(f"{loop}_STATS.fix_iterations += 1")
        # Shared free-variable subexpressions are still computed once
        # per iteration (hash-consed like the rest).
        scheduled: list = []
        seen: set[int] = set()
        for b in bodies:
            _iter_schedule(b, seen, scheduled)
        for k, sub in enumerate(scheduled):
            iter_names[sub.id] = tname = f"_t{j}_{k}"
            self.emit_node(sub, tname, iter_ref, body, loop)
        for k, b in enumerate(bodies):
            body.append(f"{loop}{fresh[k]} = {iter_ref(b)}")
        same = " and ".join(
            f"{g}.tobytes() == {f}.tobytes()" for g, f in zip(fresh, comps)
        )
        body.append(f"{loop}if {same}:")
        body.append(f"{loop}    break")
        for comp, g in zip(comps, fresh):
            body.append(f"{loop}{comp} = {g}")
        body.append(f"{inner}else:")
        body.append(
            f"{inner}    raise RuntimeError('batched IR fixpoint over "
            f"{len(bodies)} bindings did not converge')"
        )
        body.append(f"{inner}_h{j} = {memo}[{key!r}] = ({', '.join(comps)},)")
        body.append(f"{indent}{name} = _h{j}[{node.token}]")

    def predicate(self, kind: str, node) -> str:
        var = self.names[node.id]
        if kind == "acyclic":
            # A cycle through i exists iff some edge i->k meets a
            # closure path k->i: r & transpose(r*).
            return (
                f"(~({var} * _tstar({var}).swapaxes(1, 2))"
                ".any((1, 2))).tolist()"
            )
        if kind == "irreflexive":
            return f"(~{var}[:, _IDX, _IDX].any(1)).tolist()"
        return f"(~{var}.any((1, 2))).tolist()"


def generate_source(plan, n: int) -> str:
    """The generated module source for one plan at universe size n."""
    em = _Emitter(n)
    seg_blocks: list[list[str]] = []
    ordered = _ordered_segment_steps(plan)
    for si, (_steps, kind, node, key) in enumerate(plan.segments):
        body: list[str] = []
        assigned: list[str] = []
        interior = 0
        for step_node in ordered[si]:
            name = em.name(step_node)
            assigned.append(name)
            interior += em.emit_step(step_node, name, body)
        block = [f"    def _seg{si}():"]
        block.extend(_chunked("        nonlocal ", assigned))
        if interior:
            block.append(f"        _STATS.batch_computes += {interior}")
        block.extend(body if body else ["        pass"])
        block.append(f"    memos = _memo_row(ctx, {node.txn_free!r})")
        block.append(f"    flags = [m.get({key}) for m in memos]")
        block.append("    if None in flags:")
        block.append("        for _s in deferred:")
        block.append("            _s()")
        block.append("        del deferred[:]")
        block.append(f"        _seg{si}()")
        block.append(f"        flags = {em.predicate(kind, node)}")
        block.append("        for m, _f in zip(memos, flags):")
        block.append(f"            m[{key}] = _f")
        block.append("    else:")
        block.append("        _STATS.memo_hits += len(flags)")
        block.append(f"        deferred.append(_seg{si})")
        block.append("    alive = [a and f for a, f in zip(alive, flags)]")
        block.append("    if not any(alive):")
        block.append("        return alive")
        seg_blocks.append(block)

    lines = [
        "def _consistent(ctx):",
        "    p = ctx._parent or ctx",
        "    batch = ctx.batch",
        "    _mp = p._memo",
        "    _mc = ctx._memo",
    ]
    all_names = sorted(em.names.values(), key=lambda s: int(s[1:]))
    for i in range(0, len(all_names), 10):
        lines.append("    " + " = ".join(all_names[i : i + 10]) + " = None")
    lines.append("    alive = [True] * batch")
    lines.append("    deferred = []")
    for block in seg_blocks:
        lines.extend(block)
    lines.append("    return alive")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: ``(definition_token, n) -> kernel | None``, least recently used
#: first and at most :data:`repro.ir.plan.KERNEL_CACHE_SIZE` long — None
#: records a build failure (those stacks are checked on the scalar path).
_COMPILED: OrderedDict[tuple[str, int], object] = OrderedDict()

_MISSING = object()


def compiled_for(token: str, definition, n: int):
    """The generated kernel for ``definition`` at universe size ``n``,
    built on first use: a function from a :class:`BatchContext` to one
    verdict per candidate.

    Returns None without numpy, and when the build failed — counted in
    ``STATS.kernel_build_failures``, warned about once per ``(token,
    n)``, and remembered so it is not retried per stack.
    """
    if _np is None:
        return None
    key = (token, n)
    hit = _COMPILED.get(key, _MISSING)
    if hit is not _MISSING:
        _COMPILED.move_to_end(key)
        return hit
    try:
        plan = _plan.plan_for(token, definition, n)
        source = generate_source(plan, n)
        ns = _make_helpers(n)
        exec(compile(source, f"<kernel {token} n={n}>", "exec"), ns)
        kernel = ns["_consistent"]
    except Exception as exc:
        kernel = None
        STATS.kernel_build_failures += 1
        warnings.warn(
            f"could not build the batched kernel for {token} at n={n} "
            f"({exc!r}); checking those candidates on the scalar path",
            RuntimeWarning,
            stacklevel=2,
        )
    _COMPILED[key] = kernel
    while len(_COMPILED) > _plan.KERNEL_CACHE_SIZE:
        _COMPILED.popitem(last=False)
    return kernel


def is_warm(token: str, n: int) -> bool:
    """Whether the kernel for this plan is already built — the signal
    :func:`repro.ir.plan.kernel_floor` uses to lower the batch floor."""
    return _COMPILED.get((token, n)) is not None


def reset() -> None:
    """Drop per-process kernels (tests)."""
    _COMPILED.clear()
