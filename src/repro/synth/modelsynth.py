"""MemSynth-style model synthesis from a litmus corpus.

The paper's related work describes MemSynth [14], which "can synthesise
memory models from a corpus of litmus tests and their expected
outcomes".  This module implements that idea over our framework: given
executions labelled *allowed* / *forbidden*, search a structured space
of candidate models for the assignments that agree with every label,
and return the weakest ones.

The hypothesis space is a *sketch* in MemSynth's sense — a parametric
multicopy-atomic model with four groups of holes:

* ``ppo`` — which plain program-order pairs are preserved, by access
  kinds (``WW``, ``WR``, ``RW``, ``RR``);
* ``deps`` — which dependency kinds order their endpoints (``addr``,
  ``data``, ``ctrl``);
* ``fences`` — which fence flavours act as full barriers;
* ``tm`` — which of the paper's transactional axioms are present
  (``tfence``, ``strong_isol``, ``txn_order``, ``txn_cancels_rmw``).

Every hole is *monotone*: adding it only forbids more executions.  The
search exploits this — forbidden examples give lower bounds, allowed
examples upper bounds — but the space is small enough (2¹⁵ for the full
sketch) that exhaustive scanning with early pruning is also exact.

The flagship demonstrations (see ``tests/test_modelsynth.py`` and
``examples/model_synthesis.py``):

* recovering TSO's preserved program order (everything but W→R) from
  the classic shapes' x86 verdicts; and
* recovering the paper's TM axiom set from the x86 Forbid suite of
  section 5.3.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.analysis import CandidateAnalysis, analyze
from ..core.execution import Execution
from ..core.lifting import stronglift
from ..core.relation import Relation
from ..models.base import Axiom, DerivedRelations, MemoryModel

__all__ = [
    "PPO_HOLES",
    "DEP_HOLES",
    "TM_HOLES",
    "ModelParams",
    "SketchModel",
    "Example",
    "SynthesisOutcome",
    "synthesize_model",
]

PPO_HOLES = ("WW", "WR", "RW", "RR")
DEP_HOLES = ("addr", "data", "ctrl")
TM_HOLES = ("tfence", "strong_isol", "txn_order", "txn_cancels_rmw")


@dataclass(frozen=True)
class ModelParams:
    """One point in the sketch space."""

    ppo: frozenset[str] = frozenset()
    deps: frozenset[str] = frozenset()
    fences: frozenset[str] = frozenset()
    tm: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name, universe in (
            ("ppo", PPO_HOLES),
            ("deps", DEP_HOLES),
            ("tm", TM_HOLES),
        ):
            extra = getattr(self, name) - set(universe)
            if extra:
                raise ValueError(f"unknown {name} holes: {sorted(extra)}")

    def __le__(self, other: "ModelParams") -> bool:
        """Pointwise inclusion: ``self`` is at most as strong as ``other``."""
        return (
            self.ppo <= other.ppo
            and self.deps <= other.deps
            and self.fences <= other.fences
            and self.tm <= other.tm
        )

    @property
    def size(self) -> int:
        return len(self.ppo) + len(self.deps) + len(self.fences) + len(self.tm)

    def describe(self) -> str:
        def fmt(s: frozenset[str]) -> str:
            return "{" + ",".join(sorted(s)) + "}"

        return (
            f"ppo={fmt(self.ppo)} deps={fmt(self.deps)} "
            f"fences={fmt(self.fences)} tm={fmt(self.tm)}"
        )


class SketchModel(MemoryModel):
    """The parametric MCA model induced by a :class:`ModelParams`.

    Fixed skeleton: Coherence and RMWIsol always hold; the Order axiom
    requires ``acyclic(hb)`` with ::

        hb = ppo⟨holes⟩ ∪ deps⟨holes⟩ ∪ fences⟨holes⟩
           ∪ rfe ∪ coe ∪ fre [∪ tfence]

    and the TM holes switch the paper's transactional axioms on.  The
    relations are read off the execution the model checks
    (:attr:`~repro.core.analysis.CandidateAnalysis.execution`: the
    transaction-stripped one when ``tm=False``).
    """

    def __init__(self, params: ModelParams, tm: bool = True) -> None:
        super().__init__(tm=tm)
        self.params = params
        self.arch = f"sketch({params.describe()})"

    def relations(self, x: "Execution | CandidateAnalysis") -> DerivedRelations:
        x = analyze(x).execution
        n = x.n
        p = self.params
        kind_sets = {"W": x.writes, "R": x.reads}

        hb = x.rfe | x.coe | x.fre
        for pair in p.ppo:
            hb = hb | (
                Relation.cross(n, kind_sets[pair[0]], kind_sets[pair[1]])
                & x.po
            )
        if "addr" in p.deps:
            hb = hb | x.addr_rel
        if "data" in p.deps:
            hb = hb | x.data_rel
        if "ctrl" in p.deps:
            hb = hb | x.ctrl_rel
        for kind in p.fences:
            hb = hb | x.fence_rel(kind)
        if "tfence" in p.tm:
            hb = hb | x.tfence

        relations = {
            "coherence": x.po_loc | x.com,
            "rmw_isol": x.rmw_rel & (x.fre @ x.coe),
            "hb": hb,
        }
        if "strong_isol" in p.tm:
            relations["strong_isol"] = stronglift(x.com, x.stxn)
        if "txn_order" in p.tm:
            relations["txn_order"] = stronglift(hb.plus(), x.stxn)
        if "txn_cancels_rmw" in p.tm:
            relations["txn_cancels_rmw"] = x.rmw_rel & x.tfence
        return relations

    def axioms(self) -> tuple[Axiom, ...]:
        out = [
            Axiom("Coherence", "acyclic", "coherence"),
            Axiom("RMWIsol", "empty", "rmw_isol"),
            Axiom("Order", "acyclic", "hb"),
        ]
        if "strong_isol" in self.params.tm:
            out.append(Axiom("StrongIsol", "acyclic", "strong_isol"))
        if "txn_order" in self.params.tm:
            out.append(Axiom("TxnOrder", "acyclic", "txn_order"))
        if "txn_cancels_rmw" in self.params.tm:
            out.append(Axiom("TxnCancelsRMW", "empty", "txn_cancels_rmw"))
        return tuple(out)


@dataclass(frozen=True)
class Example:
    """A labelled corpus entry."""

    execution: Execution
    allowed: bool
    name: str = ""


@dataclass
class SynthesisOutcome:
    """Everything the synthesizer found."""

    consistent: list[ModelParams] = field(default_factory=list)
    weakest: list[ModelParams] = field(default_factory=list)
    candidates_tried: int = 0
    elapsed: float = 0.0
    #: For an unsatisfiable corpus: one allowed example that even the
    #: empty sketch forbids, or one forbidden example that even the full
    #: sketch allows (whichever witnesses the conflict).
    conflict: Example | None = None

    @property
    def satisfiable(self) -> bool:
        return bool(self.consistent)


def _fence_kinds(corpus: Sequence[Example]) -> tuple[str, ...]:
    kinds: dict[str, None] = {}
    for example in corpus:
        x = example.execution
        for eid in x.fences:
            kind = x.events[eid].fence_kind
            if kind is not None and kind not in kinds:
                kinds[kind] = None
    return tuple(kinds)


def _fits(params: ModelParams, corpus: Sequence[Example]) -> Example | None:
    """The first example the parameters misclassify, or None."""
    model = SketchModel(params)
    for example in corpus:
        if model.consistent(example.execution) != example.allowed:
            return example
    return None


def _minimal(frontier: Iterable[ModelParams]) -> list[ModelParams]:
    """The ≤-minimal elements (the weakest consistent sketches)."""
    candidates = sorted(frontier, key=lambda p: p.size)
    out: list[ModelParams] = []
    for params in candidates:
        if not any(lower <= params for lower in out):
            out.append(params)
    return out


def synthesize_model(
    corpus: Sequence[Example],
    include_tm: bool = True,
    extra_fences: Sequence[str] = (),
) -> SynthesisOutcome:
    """Exhaustively search the sketch space for corpus-consistent models.

    ``include_tm=False`` pins the TM holes empty (faster when the corpus
    has no transactions).  Fence holes are derived from the fence kinds
    the corpus actually uses, plus ``extra_fences``.
    """
    start = time.perf_counter()
    fence_kinds = tuple(
        dict.fromkeys(_fence_kinds(corpus) + tuple(extra_fences))
    )
    tm_holes = TM_HOLES if include_tm else ()

    # Quick unsatisfiability witnesses: the sketch lattice is monotone,
    # so the weakest point must admit every allowed example and the
    # strongest point must reject every forbidden one.
    weakest_point = ModelParams()
    strongest_point = ModelParams(
        ppo=frozenset(PPO_HOLES),
        deps=frozenset(DEP_HOLES),
        fences=frozenset(fence_kinds),
        tm=frozenset(tm_holes),
    )
    weakest_model = SketchModel(weakest_point)
    strongest_model = SketchModel(strongest_point)
    for example in corpus:
        if example.allowed and not weakest_model.consistent(example.execution):
            return SynthesisOutcome(
                conflict=example, elapsed=time.perf_counter() - start
            )
        if not example.allowed and strongest_model.consistent(
            example.execution
        ):
            return SynthesisOutcome(
                conflict=example, elapsed=time.perf_counter() - start
            )

    consistent: list[ModelParams] = []
    tried = 0
    for ppo_bits in _powerset(PPO_HOLES):
        for dep_bits in _powerset(DEP_HOLES):
            for fence_bits in _powerset(fence_kinds):
                for tm_bits in _powerset(tm_holes):
                    params = ModelParams(
                        ppo=frozenset(ppo_bits),
                        deps=frozenset(dep_bits),
                        fences=frozenset(fence_bits),
                        tm=frozenset(tm_bits),
                    )
                    tried += 1
                    if _fits(params, corpus) is None:
                        consistent.append(params)
    return SynthesisOutcome(
        consistent=consistent,
        weakest=_minimal(consistent),
        candidates_tried=tried,
        elapsed=time.perf_counter() - start,
    )


def _powerset(items: Sequence[str]) -> Iterable[tuple[str, ...]]:
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )
