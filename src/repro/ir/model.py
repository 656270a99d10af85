"""Axiomatic models as IR data: :class:`IRDefinition` and :class:`IRModel`.

An :class:`IRModel` declares its semantics once, as a tuple of
:class:`IRAxiom` records (name, check kind, operand *node*) plus optional
extra named relations, instead of imperatively recomputing a relation
dictionary per execution.  Everything else — ``check``, ``consistent``,
``relations``, the ``tm=False`` baseline behaviour — is inherited
machinery driven by the shared IR evaluator:

* ``consistent()`` evaluates axioms **cheapest-IR-cost-first** (the
  planner), lazily, so the short-circuit hot path of the synthesizer
  never materialises operands it does not need;
* ``check()`` evaluates in declaration order and reports deterministic
  witnesses;
* ``definition_token()`` is derived from the interned structural digest
  of the axioms, so the campaign cache invalidates exactly when a
  model's *semantics* change (reformatting a file no longer does it,
  editing an axiom always does).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core.analysis import analyze
from ..obs import trace
from ..models.base import Axiom, MemoryModel
from .eval import axiom_holds, evaluate
from .nodes import Node, dag_stats

__all__ = ["IRAxiom", "IRDefinition", "IRModel"]

_CHECKS = {
    "acyclic": lambda rel: rel.is_acyclic(),
    "irreflexive": lambda rel: rel.is_irreflexive(),
    "empty": lambda rel: rel.is_empty(),
}


@dataclass(frozen=True)
class IRAxiom:
    """One axiom: ``kind(node)`` must hold; ``key`` names the operand in
    the ``relations()`` dictionary (kept distinct from ``name`` so the
    existing model APIs are unchanged)."""

    name: str
    kind: str
    key: str
    node: Node

    def __post_init__(self) -> None:
        if self.kind not in _CHECKS:
            raise ValueError(f"unknown axiom kind {self.kind!r}")
        if self.node.is_set or self.node.free_vars:
            raise ValueError(
                f"axiom {self.name!r} operand must be a closed relation node"
            )


@dataclass(frozen=True)
class IRDefinition:
    """A model's complete semantics as IR data."""

    axioms: tuple[IRAxiom, ...]
    #: Extra named relations exposed via ``relations()`` but not checked
    #: (e.g. cpp's ``hb``, consumed by the race predicate).
    extras: tuple[tuple[str, Node], ...] = ()

    def __post_init__(self) -> None:
        keys = [ax.key for ax in self.axioms] + [k for k, _ in self.extras]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate relation keys in {keys}")

    @cached_property
    def digest(self) -> str:
        """Stable structural digest of the whole definition."""
        import hashlib

        hasher = hashlib.sha256()
        for ax in self.axioms:
            hasher.update(
                f"{ax.name}:{ax.kind}:{ax.node.digest};".encode()
            )
        return hasher.hexdigest()[:16]

    @cached_property
    def plan(self) -> tuple[IRAxiom, ...]:
        """Axioms ordered cheapest-first for the short-circuit path."""
        order = sorted(
            range(len(self.axioms)),
            key=lambda i: (self.axioms[i].node.cost, i),
        )
        return tuple(self.axioms[i] for i in order)

    def roots(self) -> list[Node]:
        return [ax.node for ax in self.axioms] + [n for _, n in self.extras]

    def stats(self) -> dict[str, float]:
        """DAG sharing statistics (see :func:`repro.ir.nodes.dag_stats`)."""
        return dag_stats(self.roots())

    def drop(self, axiom_name: str) -> "IRDefinition":
        """The definition with one axiom removed (the uniform mutant
        constructor used by the conformance fuzzer)."""
        if axiom_name not in [ax.name for ax in self.axioms]:
            raise ValueError(f"no axiom named {axiom_name!r}")
        return IRDefinition(
            tuple(ax for ax in self.axioms if ax.name != axiom_name),
            self.extras,
        )


class IRModel(MemoryModel):
    """A :class:`~repro.models.base.MemoryModel` whose semantics is an
    :class:`IRDefinition`.

    Subclasses implement :meth:`define` (called once per class; the
    result is interned IR, execution-independent).  The public surface —
    ``relations``/``axioms``/``check``/``consistent``/``failed_axioms``
    — is identical to every other model's.
    """

    @classmethod
    def define(cls) -> IRDefinition:
        raise NotImplementedError

    def definition(self) -> IRDefinition:
        """This model's (cached) IR definition."""
        cls = type(self)
        cached = cls.__dict__.get("_ir_definition")
        if cached is None:
            cached = cls.define()
            cls._ir_definition = cached
        return cached

    # -- the MemoryModel surface, driven by the definition ---------------

    def relations(self, x):
        # ``check`` hands over the analysis ``tm`` already selected.
        definition = self.definition()
        a = analyze(x)
        out = {ax.key: evaluate(ax.node, a) for ax in definition.axioms}
        for key, node in definition.extras:
            out[key] = evaluate(node, a)
        return out

    def axioms(self) -> tuple[Axiom, ...]:
        return tuple(
            Axiom(ax.name, ax.kind, ax.key)
            for ax in self.definition().axioms
        )

    def consistent(self, x) -> bool:
        """Planner-ordered, lazily evaluated short-circuit consistency."""
        a = self._analysis(x)
        plan = self._checks_plan()
        if trace.ACTIVE is not None:
            with trace.stage("axioms"):
                return all(
                    axiom_holds(kind, node, a) for kind, node in plan
                )
        return all(axiom_holds(kind, node, a) for kind, node in plan)

    def _checks_plan(self):
        """Cached ``(kind, node)`` pairs in planner order (the per-call
        hot path avoids re-touching the definition)."""
        plan = getattr(self, "_plan_cache", None)
        if plan is None:
            plan = tuple(
                (ax.kind, ax.node) for ax in self.definition().plan
            )
            self._plan_cache = plan
        return plan

    def definition_token(self) -> str:
        """Names this model's semantics for engine cache keying: the
        structural IR digest (plus the ``tm`` flag), so persistent
        cached verdicts are invalidated precisely when an axiom's
        meaning changes."""
        return f"ir:{self.arch}:tm={self.tm}:{self.definition().digest}"

    def batch_definition(self):
        """Native IR models are always batchable."""
        return self.definition()
