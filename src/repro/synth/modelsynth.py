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
* ``fences`` — which fence flavours act as full barriers (any of
  :attr:`~repro.core.events.Label.FENCE_KINDS`);
* ``tm`` — which of the paper's transactional axioms are present
  (``tfence``, ``strong_isol``, ``txn_order``, ``txn_cancels_rmw``).

Every hole is *monotone*: adding it only forbids more executions.  The
search exploits this — forbidden examples give lower bounds, allowed
examples upper bounds — but the space is small enough (2¹⁵ for the full
sketch) that exhaustive scanning with early pruning is also exact.

Each sketch is an :class:`~repro.ir.model.IRModel` whose axioms are IR
nodes, so the relations one example determines (each ppo hole's
``W×R ∩ po``, ``po_loc ∪ com``, a fence's ``po;[F];po``, …) are
interned once and computed once per example by its IR memo, however
many sketches check it.

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

from ..core.events import Label
from ..core.execution import Execution
from ..ir import nodes as N
from ..ir import prelude as P
from ..ir.model import IRAxiom, IRDefinition, IRModel

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
            ("fences", Label.FENCE_KINDS),
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


def _ppo(pair: str) -> N.Node:
    """``po`` restricted to the access kinds a ppo hole names (``WR``)."""
    kinds = {"W": P.W, "R": P.R}
    return N.cross(kinds[pair[0]], kinds[pair[1]]) & P.po


#: The relation each hole that orders ``hb`` adds to it: the ppo pairs,
#: the dependencies, every fence flavour (its event set is the label's
#: upper-cased name, ``MFENCE``) and ``tfence``.
_HB_TERMS = {
    **{pair: _ppo(pair) for pair in PPO_HOLES},
    "addr": P.addr,
    "data": P.data,
    "ctrl": P.ctrl,
    **{kind: P.fencerel(kind.upper()) for kind in Label.FENCE_KINDS},
    "tfence": P.tfence,
}


def _sketch_definition(p: ModelParams) -> IRDefinition:
    """The axioms of the sketch point ``p`` (see :class:`SketchModel`)."""
    holes = p.ppo | p.deps | p.fences | (p.tm & {"tfence"})
    hb = N.union(P.rfe, P.coe, P.fre, *(_HB_TERMS[hole] for hole in holes))
    axioms = [
        IRAxiom("Coherence", "acyclic", "coherence", P.coherence),
        IRAxiom("RMWIsol", "empty", "rmw_isol", P.rmw_isol),
        IRAxiom("Order", "acyclic", "hb", hb),
    ]
    if "strong_isol" in p.tm:
        axioms.append(
            IRAxiom(
                "StrongIsol", "acyclic", "strong_isol", P.stronglift(P.com)
            )
        )
    if "txn_order" in p.tm:
        axioms.append(
            IRAxiom(
                "TxnOrder", "acyclic", "txn_order", P.stronglift(N.plus(hb))
            )
        )
    if "txn_cancels_rmw" in p.tm:
        axioms.append(
            IRAxiom(
                "TxnCancelsRMW", "empty", "txn_cancels_rmw", P.rmw & P.tfence
            )
        )
    return IRDefinition(tuple(axioms))


class SketchModel(IRModel):
    """The parametric MCA model induced by a :class:`ModelParams`.

    Fixed skeleton: Coherence and RMWIsol always hold; the Order axiom
    requires ``acyclic(hb)`` with ::

        hb = ppo⟨holes⟩ ∪ deps⟨holes⟩ ∪ fences⟨holes⟩
           ∪ rfe ∪ coe ∪ fre [∪ tfence]

    and the TM holes switch the paper's transactional axioms on:
    StrongIsol ``acyclic(stronglift(com))``, TxnOrder
    ``acyclic(stronglift(hb⁺))`` and TxnCancelsRMW
    ``empty(rmw ∩ tfence)``.
    """

    def __init__(self, params: ModelParams, tm: bool = True) -> None:
        super().__init__(tm=tm)
        self.params = params
        self.arch = f"sketch({params.describe()})"
        self._definition = _sketch_definition(params)

    def definition(self) -> IRDefinition:
        return self._definition


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
