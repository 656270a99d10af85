"""Memory-model interface.

A model is a list of named axioms over the derived relations of an
execution (paper section 2).  Three axiom forms appear in the paper and
are supported here:

* ``acyclic(r)``   — ``r`` must have no cycles;
* ``irreflexive(r)`` — ``r`` must have no reflexive pairs;
* ``empty(r)``     — ``r`` must contain no pairs.

Every model is an :class:`~repro.ir.model.IRModel`, which declares its
axioms as IR data and implements ``check`` (a :class:`Verdict` with
failure witnesses, see :func:`witness_for`) and ``consistent`` (the
short-circuit hot path of the synthesizer) once for all of them.
:class:`MemoryModel` is the public type every consumer names; it holds
only the model-independent surface.

Models take a ``tm`` flag: with ``tm=False`` the transactional structure of
the execution is ignored entirely (``stxn`` treated as empty), which gives
the *non-transactional baseline* used when synthesizing the Forbid suites
("forbidden by our transactional models but allowed under the
non-transactional baselines", section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.analysis import CandidateAnalysis, analyze
from ..core.execution import Execution
from ..core.relation import Relation

__all__ = [
    "AxiomResult",
    "Verdict",
    "MemoryModel",
    "canonical_cycle",
    "witness_for",
]


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
    """The public type of every model in :mod:`repro.models`.

    :class:`~repro.ir.model.IRModel`, its only direct subclass,
    provides ``check``/``consistent``/``relations``/``axioms`` from the
    model's IR definition; this class holds what does not depend on it.
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

    def _analysis(self, x: "Execution | CandidateAnalysis") -> CandidateAnalysis:
        """The analysis this model evaluates against: the candidate's
        shared analysis, or its transaction-erased baseline view when
        ``tm=False`` (the section 5.3 non-transactional sweep)."""
        a = analyze(x)
        return a if self.tm else a.baseline

    def failed_axioms(self, x: "Execution | CandidateAnalysis") -> list[str]:
        """Names of the axioms the execution violates."""
        return [r.name for r in self.check(x).failures]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} tm={self.tm}>"
