"""The per-candidate analysis: one IR memo per candidate execution.

Checking one candidate execution against many models (the herd-style
campaign workload: tables 1–2, fig 7) evaluates many IR nodes the
models share.  :class:`CandidateAnalysis` is attached **once per
candidate** and holds the memo those evaluations share:

* :attr:`_ir_memo` maps IR node ids (and axiom predicates) to their
  values, so every node the swept models share — and hash-consing
  makes them share aggressively — is computed once per candidate
  (see :mod:`repro.ir.eval`);
* :attr:`baseline` is the ``tm=False`` view: the same candidate with
  the transactional structure (``stxn``, ``stxnat``, ``tfence`` and the
  transactional event sets) erased.  The evaluator stores every
  transaction-independent node of a baseline view on the parent's
  memo, so a campaign mixing ``x86`` and ``x86!notm`` derives
  ``po``/``fr``/``ppo``/… exactly once.

Base relations and event sets are read straight off the
:class:`~repro.core.execution.Execution` (``a.x``), whose own cached
properties hold them.

Analyses attach to the execution (``Execution`` instances are immutable
and shared across checkers via the memoized candidate expansion), so a
campaign's checkers — native models, ``.cat`` models, ``!notm``
baselines — all see one analysis per candidate.
"""

from __future__ import annotations

from .execution import Execution
from .relation import Relation

__all__ = ["CandidateAnalysis", "analyze"]


class CandidateAnalysis:
    """The IR memo of one candidate execution, and its ``tm=False`` view.

    Do not construct directly — use :meth:`of` (or :func:`analyze`),
    which attaches the analysis to the execution so every consumer of
    the same candidate shares one instance.
    """

    __slots__ = ("x", "_parent", "_baseline", "_execution", "_ir_memo")

    def __init__(
        self, x: Execution, _parent: "CandidateAnalysis | None" = None
    ) -> None:
        self.x = x
        self._parent = _parent
        self._baseline: CandidateAnalysis | None = None
        #: The transaction-stripped execution of a baseline view.
        self._execution: Execution | None = None
        #: Values of IR nodes, keyed by node id (int); txn-free nodes of
        #: a baseline view are stored on the parent's dict instead (see
        #: :func:`repro.ir.eval.evaluate`).
        self._ir_memo: dict = {}

    @classmethod
    def of(cls, x: "Execution | CandidateAnalysis") -> "CandidateAnalysis":
        """The (shared) analysis of ``x``; identity on analyses."""
        if isinstance(x, CandidateAnalysis):
            return x
        cached = x.__dict__.get("_candidate_analysis")
        if cached is None:
            cached = cls(x)
            x.__dict__["_candidate_analysis"] = cached
        return cached

    @property
    def n(self) -> int:
        """Number of events."""
        return self.x.n

    # ------------------------------------------------------------------
    # The tm=False view
    # ------------------------------------------------------------------

    @property
    def baseline(self) -> "CandidateAnalysis":
        """The non-transactional view of this candidate (section 5.3).

        For candidates without transactions this is the analysis itself;
        otherwise a view over the same events that erases ``stxn``,
        ``stxnat``, ``tfence``, and the transactional event sets while
        sharing every transaction-independent value with the parent.
        """
        if self._parent is not None or not self.x.txns:
            return self
        if self._baseline is None:
            self._baseline = CandidateAnalysis(self.x, _parent=self)
        return self._baseline

    @property
    def execution(self) -> Execution:
        """The underlying execution (transaction-stripped for baselines)."""
        if self._parent is None:
            return self.x
        if self._execution is None:
            self._execution = self.x.without_transactions()
        return self._execution

    # ------------------------------------------------------------------
    # Transaction structure (empty on the baseline view)
    # ------------------------------------------------------------------

    @property
    def stxn(self) -> Relation:
        if self._parent is not None:
            return Relation.empty(self.x.n)
        return self.x.stxn

    @property
    def stxnat(self) -> Relation:
        if self._parent is not None:
            return Relation.empty(self.x.n)
        return self.x.stxnat

    @property
    def tfence(self) -> Relation:
        if self._parent is not None:
            return Relation.empty(self.x.n)
        return self.x.tfence

    @property
    def txn_events(self) -> frozenset[int]:
        if self._parent is not None:
            return frozenset()
        return self.x.txn_events

    @property
    def atomic_txn_events(self) -> frozenset[int]:
        """Events inside a successful *atomic* transaction (C++)."""
        if self._parent is not None:
            return frozenset()
        return frozenset(
            e for txn in self.x.txns if txn.atomic for e in txn.events
        )

    def __repr__(self) -> str:
        tag = " baseline" if self._parent is not None else ""
        return f"<CandidateAnalysis{tag} of {self.x!r}>"


def analyze(x: "Execution | CandidateAnalysis") -> CandidateAnalysis:
    """Coerce ``x`` to its shared :class:`CandidateAnalysis`.

    Model code calls this first, so every public model entry point
    accepts either a raw execution (tests, the metatheory, the
    synthesizer) or an analysis (the checking pipeline).
    """
    return CandidateAnalysis.of(x)
