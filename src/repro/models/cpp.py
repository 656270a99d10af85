"""The C++ memory model with transactions (paper Fig. 9, section 7).

The baseline is RC11 (Lahav et al. [38]), which the paper builds on
because its fixed SC semantics is what makes compilation to Power sound.
The TM additions implement the paper's own *simplification* of the C++ TM
specification (section 7.2): instead of quantifying over a total order on
transactions, conflicting transactions synchronise in *extended
communication* order::

    ecom = com ∪ (co ; rf)
    tsw  = weaklift(ecom, stxn)
    hb   = (po ∪ sw ∪ tsw)⁺

Atomic transactions (``atomic{}``) are tracked via ``stxnat``; they are
strongly isolated *by construction* for race-free programs (Theorem 7.2,
checked in :mod:`repro.metatheory.theorems`).

Race freedom (NoRace) is deliberately *not* part of the consistency
axioms: it is a predicate on whole programs.  Use :meth:`Cpp.race_free`.

Declared as IR expressions; the event-set helpers (``atomic_events``
etc.) evaluate the set nodes the definition is built from, for the
metatheory.
"""

from __future__ import annotations

from ..core.analysis import analyze
from ..core.relation import Relation
from ..ir import nodes as N
from ..ir import prelude as P
from ..ir.eval import evaluate
from ..ir.model import IRAxiom, IRDefinition, IRModel
from ..ir.nodes import Node

__all__ = ["Cpp", "acquire_events", "release_events", "sc_events", "atomic_events"]


def _build() -> tuple[IRDefinition, Node, Node, Node, Node, Node, Node]:
    """The RC11+TM definition, the ``cnf``/``race`` nodes, and the
    ``Ato``/acquire/release/``SC`` event-set nodes."""
    ato = N.sinter(N.bset("ATO"), P.M)
    acq_evts = N.sinter(
        N.sunion(N.bset("ACQ"), N.bset("ACQREL"), N.bset("SC")),
        N.sunion(P.R, P.F),
    )
    rel_evts = N.sinter(
        N.sunion(N.bset("REL"), N.bset("ACQREL"), N.bset("SC")),
        N.sunion(P.W, P.F),
    )
    sc_all = N.bset("SC")
    sc_fence = N.sinter(sc_all, P.F)

    # Release sequences and synchronises-with.
    rs = (
        N.lift(P.W)
        @ P.po_loc.opt()
        @ N.lift(N.sinter(P.W, ato))
        @ (P.rf @ P.rmw).star()
    )
    sw = (
        N.lift(rel_evts)
        @ (N.lift(P.F) @ P.po).opt()
        @ rs
        @ P.rf
        @ N.lift(N.sinter(P.R, ato))
        @ (P.po @ N.lift(P.F)).opt()
        @ N.lift(acq_evts)
    )

    # Extended communication and the transactional synchronises-with.
    ecom = P.com | (P.co @ P.rf)
    tsw = P.weaklift(ecom)
    hb = (P.po | sw | tsw).plus()

    # RC11 psc.
    sb_neq_loc = P.po - P.loc
    eco = P.com.plus()
    scb = (
        P.po
        | (sb_neq_loc @ hb @ sb_neq_loc)
        | (hb & P.loc)
        | P.co
        | P.fr
    )
    psc_base = (
        (N.lift(sc_all) | (N.lift(sc_fence) @ hb.opt()))
        @ scb
        @ (N.lift(sc_all) | (hb.opt() @ N.lift(sc_fence)))
    )
    psc_fence = N.lift(sc_fence) @ (hb | (hb @ eco @ hb)) @ N.lift(sc_fence)

    definition = IRDefinition(
        (
            IRAxiom("HbCom", "irreflexive", "hb_com", hb @ P.com.star()),
            IRAxiom("RMWIsol", "empty", "rmw_isol", P.rmw_isol),
            IRAxiom("NoThinAir", "acyclic", "thin_air", P.po | P.rf),
            IRAxiom("SeqCst", "acyclic", "psc", psc_base | psc_fence),
        ),
        extras=(("hb", hb),),
    )

    # The NoRace predicate at the bottom of Fig. 9: conflicting pairs
    # that are neither both atomic nor hb-ordered.
    cnf = N.diff(
        N.inter(
            N.union(
                N.cross(P.W, P.W), N.cross(P.R, P.W), N.cross(P.W, P.R)
            ),
            P.loc,
        ),
        P.id_,
    )
    race = N.diff(N.diff(cnf, N.cross(ato, ato)), hb | hb.inverse())
    return definition, cnf, race, ato, acq_evts, rel_evts, sc_all


_DEFINITION, _CNF, _RACE, _ATO, _ACQ, _REL, _SC = _build()


def atomic_events(x) -> frozenset[int]:
    """``Ato``: accesses from atomic operations."""
    return evaluate(_ATO, x)


def acquire_events(x) -> frozenset[int]:
    """Events with acquire semantics: acq/acq_rel/sc reads and fences."""
    return evaluate(_ACQ, x)


def release_events(x) -> frozenset[int]:
    """Events with release semantics: rel/acq_rel/sc writes and fences."""
    return evaluate(_REL, x)


def sc_events(x) -> frozenset[int]:
    """``SC``: events with memory order seq_cst."""
    return evaluate(_SC, x)


class Cpp(IRModel):
    """RC11 plus the transactional extensions of section 7."""

    arch = "cpp"
    #: RC11's HbCom axiom (irreflexive(hb ; eco?)) subsumes SC-per-location
    #: [Lahav et al. 2017], so incoherent candidates are never consistent.
    enforces_coherence = True

    @classmethod
    def define(cls) -> IRDefinition:
        return _DEFINITION

    # ------------------------------------------------------------------
    # Race freedom (the NoRace predicate at the bottom of Fig. 9)
    # ------------------------------------------------------------------

    def conflicts(self, x) -> Relation:
        """``cnf``: same-location pairs, at least one a write, not both the
        same event."""
        return evaluate(_CNF, analyze(x))

    def races(self, x) -> Relation:
        """Conflicting pairs that are neither both atomic nor hb-ordered."""
        return evaluate(_RACE, self._analysis(x))

    def race_free(self, x) -> bool:
        """The NoRace predicate: no race in this execution."""
        return self.races(x).is_empty()
