"""Injected weakenings: mutant models the fuzzer must catch.

A differential fuzzer that never fires is indistinguishable from one
that cannot fire.  This module gives the harness teeth to test itself
on: :func:`drop_axiom` builds, for any registry model, the weakened
variant with one named axiom removed — exactly the shape of the §6.2
RTL bug, where the ARM prototype accidentally failed to enforce
TxnOrder (``BuggyRtlArm`` in :mod:`repro.sim.oracle` is literally
``drop_axiom("armv8", "TxnOrder")`` by another name).

Since every model's semantics is IR data (an
:class:`~repro.ir.model.IRDefinition`), a mutant is a *uniform data
transformation* — :meth:`IRDefinition.drop` filters the axiom tuple —
instead of a dynamically created subclass per family.  The mutant
shares every surviving axiom node with the stock model by interning, so
sweeping stock + mutants over a candidate re-evaluates nothing.

Dropping an axiom only ever *weakens* a model, so a mutant disagreement
always has the shape "mutant observes what stock forbids" — the same
direction as a real conformance escape.  :data:`KNOWN_MUTANTS` lists,
per architecture, the axioms whose loss the small fuzzing budgets are
expected to detect and shrink to a ≤6-event witness
(``tests/test_conformance.py`` asserts exactly that).
"""

from __future__ import annotations

from functools import lru_cache

from ..ir.model import IRDefinition, IRModel
from ..models.base import MemoryModel
from ..models.registry import MODELS, get_model

__all__ = ["KNOWN_MUTANTS", "MutantModel", "drop_axiom", "known_mutant_specs"]


#: Axioms per architecture whose removal the fuzzer must detect even at
#: the smallest budgets.  armv8/TxnOrder is the paper's §6.2 RTL bug.
#:
#: Only *extensionally visible* drops qualify: several axioms overlap
#: (``TxnOrder = acyclic(stronglift(hb))`` subsumes ``Order`` on every
#: transaction-free execution, and on x86/armv8/riscv any
#: ``stronglift(com)`` cycle is also a ``stronglift(hb)`` cycle, masking
#: a lone StrongIsol drop), so removing one of those axioms produces a
#: model with identical verdicts — nothing any fuzzer could detect.
KNOWN_MUTANTS: dict[str, tuple[str, ...]] = {
    "x86": ("Coherence", "RMWIsol", "TxnOrder"),
    "power": ("Coherence", "Propagation", "Observation", "StrongIsol"),
    "armv8": ("Coherence", "RMWIsol", "TxnOrder", "TxnCancelsRMW"),
    "riscv": ("Coherence", "RMWIsol", "TxnOrder", "TxnCancelsRMW"),
    "cpp": ("HbCom", "NoThinAir", "SeqCst"),
}


def known_mutant_specs(arch: str) -> list[str]:
    """Checker specs (``mut:<arch>:<axiom>``) for an arch's known mutants."""
    return [f"mut:{arch}:{axiom}" for axiom in KNOWN_MUTANTS.get(arch, ())]


@lru_cache(maxsize=None)
def _mutant_definition(arch: str, axiom_name: str) -> IRDefinition:
    stock = get_model(arch)  # a ValueError names the known models
    known = [a.name for a in stock.axioms()]
    if axiom_name not in known:
        raise ValueError(
            f"model {arch!r} has no axiom {axiom_name!r}; "
            f"its axioms are {', '.join(known)}"
        )
    return stock.definition().drop(axiom_name)


class MutantModel(IRModel):
    """The registry model for ``arch`` with one axiom removed."""

    def __init__(self, arch: str, axiom_name: str, tm: bool = True) -> None:
        definition = _mutant_definition(arch, axiom_name)
        super().__init__(tm=tm)
        self._definition = definition
        self._arch = arch
        self._dropped = axiom_name
        self.arch = arch
        # Dropping the coherence axiom must also stop the candidate
        # enumerator from pruning incoherent candidates on the mutant's
        # behalf, or the weakening would be invisible to `observable`.
        stock_cls = MODELS[arch]
        self.enforces_coherence = (
            stock_cls.enforces_coherence and axiom_name != "Coherence"
        )

    def definition(self) -> IRDefinition:
        return self._definition

    def definition_token(self) -> str:
        # Name the mutation explicitly so engine cache keys never
        # collide between different mutants (or with the stock model),
        # and derive from the surviving axioms' structural digest so
        # editing the stock model invalidates its mutants too.
        return (
            f"mut:{self._arch}:{self._dropped}:tm={self.tm}:"
            f"{self._definition.digest}"
        )

    def __repr__(self) -> str:
        return (
            f"<MutantModel {self._arch}-{self._dropped} tm={self.tm}>"
        )


def drop_axiom(arch: str, axiom_name: str, tm: bool = True) -> MemoryModel:
    """The registry model for ``arch`` with ``axiom_name`` removed."""
    return MutantModel(arch, axiom_name, tm=tm)
