"""Compile parsed ``.cat`` models onto the unified relational IR.

This lowering is the only meaning a ``.cat`` source has: the AST is
compiled **once** into interned :mod:`repro.ir` nodes — the same
hash-consed DAG the native models declare their axioms in — and every
verdict, flag and binding is an IR evaluation of those nodes, so that:

* per-candidate evaluation is a memo lookup per node instead of an AST
  walk (``let`` bindings, closure inlining, include resolution all
  happen at compile time);
* a ``.cat`` model and its native twin share every common subexpression
  per candidate (``x86tm.cat``'s ``hb`` *is* the native x86 ``hb``
  node);
* ``let rec`` lowers to an explicit simultaneous-fixpoint node.

Compilation strategy
====================

The compile environment maps names to IR nodes (sets or relations) or to
:class:`_CompiledClosure` values (user functions, inlined at every
application — the dialect has no recursion through closures).  The
stdlib's ``weaklift``/``stronglift`` inline to compositions that the
``comp`` smart constructor recognises and rewrites to the dedicated
transaction-lifting nodes, so sharing with the native models is
preserved without special-casing the function names.

``flag`` checks and negated checks compile like any other; their special
semantics live in the :class:`CompiledCheck` record.

Errors are raised at compile time, with the source position of the
offending expression: :class:`~repro.cat.errors.CatNameError` for an
unbound name or function, :class:`~repro.cat.errors.CatTypeError` for an
operator applied to the wrong kind of operand (only ``;`` and checks
promote an event set to its identity relation) or for a ``let rec``
binding that is not monotone (a bound name under ``~`` or on the right
of ``\\``, where the least fixpoint may not exist), and
:class:`~repro.cat.errors.CatError` for an ``include`` without a loader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..ir import nodes as N
from ..ir.nodes import Node
from .ast import (
    Apply,
    Binary,
    Check,
    EmptyRel,
    Expr,
    Include,
    Let,
    LetRec,
    Lift,
    Model,
    Name,
    Postfix,
    SetLiteral,
    Show,
    Stmt,
    Unary,
)
from .errors import CatError, CatNameError, CatTypeError

__all__ = ["CompiledCheck", "CompiledModel", "compile_model"]

#: Callback that resolves ``include "name.cat"`` to a parsed model.
Loader = Callable[[str], Model]

#: Closure and converse operators (the parser normalises bare ``+``/``?``).
_POSTFIX = {"^+": N.plus, "^*": N.star, "^?": N.opt, "^-1": N.inverse}


@dataclass(frozen=True)
class _CompiledClosure:
    """A user function, applied by inlining its body."""

    name: str
    params: tuple[str, ...]
    body: Expr
    env: dict

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class CompiledCheck:
    """One ``[flag] [~] acyclic|irreflexive|empty expr as name``."""

    name: str
    kind: str
    negated: bool
    flag: bool
    node: Node

    def describe(self, holds: bool) -> str:
        """One report line: ``[flag ][~]kind ... as name: ok|VIOLATED``."""
        tag = "flag " if self.flag else ""
        neg = "~" if self.negated else ""
        status = "ok" if holds else "VIOLATED"
        return f"{tag}{neg}{self.kind} ... as {self.name}: {status}"


@dataclass(frozen=True)
class CompiledModel:
    """A ``.cat`` model lowered onto the IR DAG."""

    title: str
    checks: tuple[CompiledCheck, ...]
    #: Name → node for every relation/set binding visible at the end of
    #: the file; IR-evaluating a node inspects that binding's value.
    bindings: tuple[tuple[str, Node], ...] = field(default_factory=tuple)

    @property
    def axiom_checks(self) -> tuple[CompiledCheck, ...]:
        """The consistency checks (non-flag), in declaration order."""
        return tuple(c for c in self.checks if not c.flag)

    @property
    def flag_checks(self) -> tuple[CompiledCheck, ...]:
        return tuple(c for c in self.checks if c.flag)


def _err(message: str, node, cls: type[CatError] = CatTypeError) -> CatError:
    return cls(message, node.line, node.col)


#: Operators antitone in the argument at the given position.
_NEGATING = {("compl", 0), ("scompl", 0), ("diff", 1), ("sdiff", 1)}


def _negative_var(body: Node) -> int | None:
    """A fixpoint variable in negative position in ``body``, or ``None``.

    An occurrence is negative when it sits under an odd number of
    complements and right-hand sides of differences; every other
    operator is monotone, so a body without negative occurrences is
    monotone and Kleene iteration from the empty relations reaches its
    least fixpoint.
    """
    seen = set()
    stack = [(body, False)]
    while stack:
        node, negative = stack.pop()
        if not node.free_vars or (node.id, negative) in seen:
            continue
        seen.add((node.id, negative))
        if node.kind == "var":
            if negative:
                return node.token
            continue
        for position, arg in enumerate(node.args):
            flip = (node.kind, position) in _NEGATING
            stack.append((arg, negative != flip))
    return None


class _Compiler:
    def __init__(self, loader: Loader | None) -> None:
        self.loader = loader
        self.env: dict[str, object] = {}
        for name in N.BASE_SETS:
            self.env[name] = N.bset(name)
        for name in N.BASE_RELATIONS:
            if name not in ("loc", "int", "id"):
                self.env[name] = N.base(name)
        # .cat surface names that differ from the IR base tokens.
        self.env["loc"] = N.base("loc")
        self.env["int"] = N.base("int")
        self.env["id"] = N.base("id")
        self.env["domain"] = "domain"
        self.env["range"] = "range"
        self.checks: list[CompiledCheck] = []
        self.included: set[str] = set()

    # -- expressions -----------------------------------------------------

    def compile(self, expr: Expr, env: dict) -> object:
        if isinstance(expr, Name):
            try:
                return env[expr.ident]
            except KeyError:
                raise _err(
                    f"unbound name {expr.ident!r}", expr, CatNameError
                ) from None
        if isinstance(expr, EmptyRel):
            return N.empty()
        if isinstance(expr, SetLiteral):
            return N.sempty()
        if isinstance(expr, Lift):
            body = self._node(self.compile(expr.body, env), expr)
            if not body.is_set:
                raise _err("[...] expects an event set", expr)
            return N.lift(body)
        if isinstance(expr, Unary):
            body = self._node(self.compile(expr.body, env), expr)
            return N.scompl(body) if body.is_set else N.compl(body)
        if isinstance(expr, Postfix):
            body = self._node(self.compile(expr.body, env), expr)
            if body.is_set:
                raise _err(f"{expr.op} expects a relation", expr)
            return _POSTFIX[expr.op](body)
        if isinstance(expr, Binary):
            return self._binary(expr, env)
        if isinstance(expr, Apply):
            return self._apply(expr, env)
        raise _err(f"unhandled node {type(expr).__name__}", expr, CatError)

    def _node(self, value: object, where) -> Node:
        if isinstance(value, Node):
            return value
        raise _err("expected a set or relation", where)

    def _binary(self, expr: Binary, env: dict) -> Node:
        left = self._node(self.compile(expr.left, env), expr)
        right = self._node(self.compile(expr.right, env), expr)
        op = expr.op
        if op == ";":
            return N.comp(left, right)
        if op == "*":
            if left.is_set and right.is_set:
                return N.cross(left, right)
            raise _err(
                "* is the Cartesian product of two event sets "
                "(use ^* for reflexive-transitive closure)",
                expr,
            )
        if left.is_set != right.is_set:
            raise _err(
                f"{op!r} needs two sets or two relations", expr
            )
        if left.is_set:
            if op == "|":
                return N.sunion(left, right)
            if op == "&":
                return N.sinter(left, right)
            return N.sdiff(left, right)
        if op == "|":
            return N.union(left, right)
        if op == "&":
            return N.inter(left, right)
        return N.diff(left, right)

    def _apply(self, expr: Apply, env: dict) -> Node:
        try:
            func = env[expr.func]
        except KeyError:
            raise _err(
                f"unbound function {expr.func!r}", expr, CatNameError
            ) from None
        builtin = func == "domain" or func == "range"
        if not builtin and not isinstance(func, _CompiledClosure):
            raise _err(f"{expr.func!r} is not a function", expr)
        arity = 1 if builtin else func.arity
        if arity != len(expr.args):
            raise _err(
                f"{expr.func!r} expects {arity} argument(s), "
                f"got {len(expr.args)}",
                expr,
            )
        args = [self.compile(arg, env) for arg in expr.args]
        if builtin:
            rel = self._node(args[0], expr)
            if rel.is_set:
                raise _err(f"{func}() expects a relation", expr)
            return N.domain(rel) if func == "domain" else N.range_(rel)
        call_env = dict(func.env)
        call_env.update(zip(func.params, args))
        return self._node(self.compile(func.body, call_env), expr)

    # -- statements ------------------------------------------------------

    def _let_rec(self, stmt: LetRec) -> None:
        names = [name for name, _ in stmt.bindings]
        rec_env = dict(self.env)
        for index, name in enumerate(names):
            rec_env[name] = N.var(index)
        bodies = []
        for name, body in stmt.bindings:
            node = self._node(self.compile(body, rec_env), stmt)
            if node.is_set:
                raise _err(f"let rec {name!r} must be relation-valued", stmt)
            var = _negative_var(node)
            if var is not None:
                raise _err(
                    f"let rec {name!r} is not monotone: {names[var]!r} "
                    f"occurs in negative position (under ~ or on the "
                    f"right of \\), so its least fixpoint may not exist",
                    body,
                )
            bodies.append(node)
        body_tuple = tuple(bodies)
        for index, name in enumerate(names):
            self.env[name] = N.fix(body_tuple, index)

    def _check(self, stmt: Check) -> None:
        node = self._node(self.compile(stmt.expr, self.env), stmt.expr)
        if node.is_set:
            node = N.lift(node)
        self.checks.append(
            CompiledCheck(stmt.name, stmt.kind, stmt.negated, stmt.flag, node)
        )

    def run(self, model: Model) -> None:
        for stmt in model.statements:
            self._statement(stmt)

    def _statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            if stmt.params:
                self.env[stmt.name] = _CompiledClosure(
                    stmt.name, stmt.params, stmt.body, dict(self.env)
                )
            else:
                self.env[stmt.name] = self.compile(stmt.body, self.env)
        elif isinstance(stmt, LetRec):
            self._let_rec(stmt)
        elif isinstance(stmt, Check):
            self._check(stmt)
        elif isinstance(stmt, Include):
            if self.loader is None:
                raise _err(
                    f'include "{stmt.filename}" needs a loader', stmt, CatError
                )
            if stmt.filename in self.included:
                return
            self.included.add(stmt.filename)
            self.run(self.loader(stmt.filename))
        elif isinstance(stmt, Show):
            return
        else:
            raise _err(
                f"unhandled statement {type(stmt).__name__}", stmt, CatError
            )


def compile_model(model: Model, loader: Loader | None = None) -> CompiledModel:
    """Lower a parsed ``.cat`` model onto the IR DAG.

    Raises :class:`~repro.cat.errors.CatError` (see the module
    docstring) for an ill-formed model.
    """
    compiler = _Compiler(loader)
    compiler.run(model)
    bindings = tuple(
        (name, value)
        for name, value in compiler.env.items()
        if isinstance(value, Node)
    )
    return CompiledModel(model.title, tuple(compiler.checks), bindings)
