"""Axiomatic models as IR data: :class:`IRDefinition` and :class:`IRModel`.

Every model is an :class:`IRModel` — the native models, the ``.cat``
models, the fuzzer's mutants and the MemSynth sketches alike.  It
declares its semantics once, as a tuple of :class:`IRAxiom` records
(name, check kind, operand *node*, negation) plus optional extra named
relations, and this module implements the model surface once for all
of them, driven by the shared IR evaluator:

* ``consistent()`` evaluates axioms **cheapest-IR-cost-first** (the
  planner), lazily, so the short-circuit hot path of the synthesizer
  never materialises operands it does not need;
* ``check()`` evaluates in declaration order and reports deterministic
  witnesses;
* ``batch_definition()`` hands the definition to the campaign prefill's
  kernels unless an axiom is negated (only a ``.cat`` ``~kind`` check
  is), in which case every cell runs on the scalar path;
* ``definition_token()`` is derived from the interned structural digest
  of the axioms, so the campaign cache invalidates exactly when a
  model's *semantics* change (reformatting a file no longer does it,
  editing an axiom always does).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core.relation import Relation
from ..obs import trace
from ..models.base import AxiomResult, MemoryModel, Verdict, witness_for
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
    """One axiom: ``kind(node)`` must hold, or must fail when
    ``negated`` (a ``.cat`` ``~kind`` check); ``key`` names the operand
    in the ``relations()`` dictionary (kept distinct from ``name``,
    which two ``.cat`` checks may share)."""

    name: str
    kind: str
    key: str
    node: Node
    negated: bool = False

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
            neg = "~" if ax.negated else ""
            hasher.update(
                f"{ax.name}:{neg}{ax.kind}:{ax.node.digest};".encode()
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

    Native models implement :meth:`define` (called once per class; the
    result is interned IR, execution-independent); a model built per
    instance (``.cat`` source, mutant, sketch) overrides
    :meth:`definition` instead.
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

    # -- the model surface, driven by the definition ---------------------

    def relations(self, x) -> dict[str, Relation]:
        """Every axiom operand by key, plus the definition's extras,
        evaluated on the analysis this model checks (the ``tm=False``
        view for a baseline model)."""
        definition = self.definition()
        a = self._analysis(x)
        out = {ax.key: evaluate(ax.node, a) for ax in definition.axioms}
        for key, node in definition.extras:
            out[key] = evaluate(node, a)
        return out

    def axioms(self) -> tuple[IRAxiom, ...]:
        """The model's axioms in declaration order."""
        return self.definition().axioms

    def check(self, x) -> Verdict:
        """Evaluate every axiom in declaration order; return a full
        report with witnesses (:func:`~repro.models.base.witness_for`)."""
        a = self._analysis(x)
        results = []
        for ax in self.definition().axioms:
            witness = witness_for(ax.kind, evaluate(ax.node, a))
            holds = (witness is None) != ax.negated
            results.append(AxiomResult(ax.name, holds, witness))
        return Verdict(
            self.name, all(r.holds for r in results), tuple(results)
        )

    def consistent(self, x) -> bool:
        """Planner-ordered, lazily evaluated short-circuit consistency."""
        a = self._analysis(x)
        plan = self._checks_plan()
        if trace.ACTIVE is not None:
            with trace.stage("axioms"):
                return all(
                    axiom_holds(kind, node, a) != negated
                    for kind, node, negated in plan
                )
        return all(
            axiom_holds(kind, node, a) != negated
            for kind, node, negated in plan
        )

    def _checks_plan(self):
        """Cached ``(kind, node, negated)`` triples in planner order (the
        per-call hot path avoids re-touching the definition)."""
        plan = getattr(self, "_plan_cache", None)
        if plan is None:
            plan = tuple(
                (ax.kind, ax.node, ax.negated)
                for ax in self.definition().plan
            )
            self._plan_cache = plan
        return plan

    def definition_token(self) -> str:
        """Names this model's semantics for engine cache keying: the
        structural IR digest (plus the ``tm`` flag), so persistent
        cached verdicts are invalidated precisely when an axiom's
        meaning changes."""
        return f"ir:{self.arch}:tm={self.tm}:{self.definition().digest}"

    def batch_definition(self) -> "IRDefinition | None":
        """The definition the campaign prefill's kernels check, or
        ``None`` when an axiom is negated: kernels evaluate plain axioms
        only, so such a model's cells run on the scalar path."""
        definition = self.definition()
        if any(ax.negated for ax in definition.axioms):
            return None
        return definition
