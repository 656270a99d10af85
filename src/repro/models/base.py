"""Memory-model interface.

A model is a list of named axioms over the derived relations of an
execution (paper section 2).  Three axiom forms appear in the paper and
are supported here:

* ``acyclic(r)``   — ``r`` must have no cycles;
* ``irreflexive(r)`` — ``r`` must have no reflexive pairs;
* ``empty(r)``     — ``r`` must contain no pairs.

:meth:`MemoryModel.check` evaluates every axiom and returns a
:class:`Verdict` with failure witnesses; :meth:`MemoryModel.consistent`
short-circuits on the first failure (the hot path of the synthesizer).

Models take a ``tm`` flag: with ``tm=False`` the transactional structure of
the execution is ignored entirely (``stxn`` treated as empty), which gives
the *non-transactional baseline* used when synthesizing the Forbid suites
("forbidden by our transactional models but allowed under the
non-transactional baselines", section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import trace
from ..core.analysis import CandidateAnalysis, analyze
from ..core.execution import Execution
from ..core.relation import Relation

__all__ = [
    "Axiom",
    "AxiomResult",
    "Verdict",
    "MemoryModel",
    "DerivedRelations",
    "canonical_cycle",
    "witness_for",
]

#: The derived-relation dictionary each model computes per execution.
DerivedRelations = dict[str, Relation]


def canonical_cycle(cycle: list[int]) -> list[int]:
    """Rotate a cycle so its smallest event comes first.

    ``find_cycle`` is deterministic for a given relation, but the DFS
    entry point is an implementation detail; canonicalising keeps
    witnesses byte-stable across refactors of the search (golden and
    fuzz reports diff cleanly).
    """
    if not cycle:
        return cycle
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def witness_for(kind: str, rel: Relation):
    """A deterministic failure witness for ``kind`` over ``rel``.

    Returns ``None`` when the check holds; otherwise a canonical cycle
    (``acyclic``), the sorted reflexive events (``irreflexive``), or the
    sorted offending pairs (``empty``).
    """
    if kind == "acyclic":
        cycle = rel.find_cycle()
        return None if cycle is None else canonical_cycle(cycle)
    if kind == "irreflexive":
        witness = sorted(i for i in range(rel.n) if (i, i) in rel)
        return witness or None
    if kind == "empty":
        witness = [list(pair) for pair in sorted(rel.pairs())]
        return witness or None
    raise ValueError(f"unknown axiom kind {kind!r}")


@dataclass(frozen=True)
class Axiom:
    """A named constraint of one of the three standard forms."""

    name: str
    kind: str  # "acyclic" | "irreflexive" | "empty"
    relation: str  # key into the model's derived-relation dict

    def evaluate(self, relations: DerivedRelations) -> "AxiomResult":
        witness = witness_for(self.kind, relations[self.relation])
        return AxiomResult(self.name, witness is None, witness)

    def holds(self, relations: DerivedRelations) -> bool:
        rel = relations[self.relation]
        if self.kind == "acyclic":
            return rel.is_acyclic()
        if self.kind == "irreflexive":
            return rel.is_irreflexive()
        if self.kind == "empty":
            return rel.is_empty()
        raise ValueError(f"unknown axiom kind {self.kind!r}")


@dataclass(frozen=True)
class AxiomResult:
    """The outcome of evaluating one axiom: pass/fail plus a witness."""

    name: str
    holds: bool
    witness: object = None

    def __str__(self) -> str:
        status = "ok" if self.holds else f"VIOLATED (witness: {self.witness})"
        return f"{self.name}: {status}"


@dataclass(frozen=True)
class Verdict:
    """Full consistency report for one execution under one model."""

    model: str
    consistent: bool
    results: tuple[AxiomResult, ...] = field(default_factory=tuple)

    @property
    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def __str__(self) -> str:
        head = f"{self.model}: {'consistent' if self.consistent else 'INCONSISTENT'}"
        lines = [head] + [f"  {r}" for r in self.results]
        return "\n".join(lines)


class MemoryModel:
    """Base class for every model in :mod:`repro.models`.

    Subclasses implement :meth:`relations` (the derived-relation
    dictionary) and :meth:`axioms` (the axiom list); everything else is
    inherited.
    """

    #: Short architecture tag ("sc", "x86", "power", "armv8", "cpp").
    arch: str = ""

    #: True iff the model's axioms imply per-location coherence
    #: (``acyclic(po_loc ∪ com)``).  The candidate enumerator tags each
    #: candidate with a coherence bit; consumers skip the full axiom
    #: sweep for incoherent candidates of models that declare this.
    #: Every architecture model in the paper enforces it; the default is
    #: conservative for ad-hoc subclasses.
    enforces_coherence: bool = False

    def __init__(self, tm: bool = True) -> None:
        self.tm = tm

    @property
    def name(self) -> str:
        suffix = "" if self.tm else " (no TM)"
        return f"{self.arch}{suffix}"

    # -- to be provided by subclasses ----------------------------------

    def relations(self, x: "Execution | CandidateAnalysis") -> DerivedRelations:
        """Compute the model's derived relations for ``x``.

        IR models evaluate their axiom nodes on ``analyze(x)``, whose
        IR memo computes each node once per candidate however many
        models check it.  A model written as Python relations reads
        ``analyze(x).execution`` (the transaction-stripped execution
        on a ``tm=False`` baseline view).
        """
        raise NotImplementedError

    def axioms(self) -> tuple[Axiom, ...]:
        """The model's axioms in evaluation order."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------

    def _analysis(self, x: "Execution | CandidateAnalysis") -> CandidateAnalysis:
        """The analysis this model evaluates against: the candidate's
        shared analysis, or its transaction-erased baseline view when
        ``tm=False`` (the section 5.3 non-transactional sweep)."""
        a = analyze(x)
        return a if self.tm else a.baseline

    def check(self, x: "Execution | CandidateAnalysis") -> Verdict:
        """Evaluate every axiom; return a full report with witnesses."""
        relations = self.relations(self._analysis(x))
        results = tuple(axiom.evaluate(relations) for axiom in self.axioms())
        return Verdict(self.name, all(r.holds for r in results), results)

    def batch_definition(self):
        """The :class:`~repro.ir.model.IRDefinition` the batched
        evaluation path may check instead of per-candidate
        :meth:`consistent` calls, or ``None`` when this model's
        consistency is not expressible as plain IR axioms (then every
        consumer falls back to the scalar path)."""
        return None

    def consistent(self, x: "Execution | CandidateAnalysis") -> bool:
        """Fast yes/no consistency (short-circuits on first failure)."""
        if trace.ACTIVE is not None:
            with trace.stage("axioms"):
                relations = self.relations(self._analysis(x))
                return all(
                    axiom.holds(relations) for axiom in self.axioms()
                )
        relations = self.relations(self._analysis(x))
        return all(axiom.holds(relations) for axiom in self.axioms())

    def failed_axioms(self, x: "Execution | CandidateAnalysis") -> list[str]:
        """Names of the axioms the execution violates."""
        return [r.name for r in self.check(x).failures]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} tm={self.tm}>"


def chain(*relations: Relation) -> Relation:
    """Compose relations left to right (helper for model definitions)."""
    result = relations[0]
    for rel in relations[1:]:
        result = result @ rel
    return result
