"""Memoizing model wrapper: the engine's hook into the synthesis loops.

The synthesizer and the experiment harnesses call ``model.consistent``
on millions of candidate executions, and the same execution recurs many
times (minimality probes re-check every weakening; Allow derivation
re-checks the weakenings again; baseline and transactional sweeps share
executions).  :class:`MemoModel` wraps any
:class:`~repro.models.base.MemoryModel` with an in-memory verdict memo
keyed by the execution's structural identity, optionally backed by the
persistent campaign cache so repeated experiment runs are incremental.
"""

from __future__ import annotations

from ..core.execution import Execution
from ..models.base import Axiom, MemoryModel, Verdict
from ..obs import trace
from .cache import NullCache, ResultCache, cache_key, fingerprint

__all__ = ["MemoModel"]

#: In-memory memo bound; past this the memo resets (enumeration passes
#: see each execution once, so an unbounded memo would just pin them).
_MEMO_LIMIT = 1 << 16


class MemoModel(MemoryModel):
    """A consistency-memoizing proxy for another memory model.

    ``consistent`` is served from (1) the in-memory memo, then (2) the
    persistent cache when one is given, then computed.  ``check`` and
    ``relations`` always delegate (verdict objects carry witnesses that
    the cache does not store).
    """

    def __init__(
        self,
        model: MemoryModel,
        cache: ResultCache | NullCache | None = None,
    ) -> None:
        from .checkers import definition_hash

        super().__init__(tm=model.tm)
        self.model = model
        self.arch = model.arch
        # Candidate streams gate on this flag; the proxy must mirror it.
        self.enforces_coherence = getattr(model, "enforces_coherence", False)
        # The definition hash keeps persistently cached verdicts honest:
        # editing the wrapped model's axioms invalidates them.
        self.spec = f"consistent:{model.name}@{definition_hash(model)}"
        self.cache = cache if cache is not None else NullCache()
        self._memo: dict[Execution, bool] = {}

    # Delegated surface --------------------------------------------------

    def relations(self, x: Execution):
        return self.model.relations(x)

    def axioms(self) -> tuple[Axiom, ...]:
        return self.model.axioms()

    def check(self, x: Execution) -> Verdict:
        return self.model.check(x)

    def definition_token(self) -> str:
        """Delegate cache keying to the wrapped model's definition (the
        proxy adds no semantics of its own)."""
        from .checkers import definition_hash

        return f"memo:{definition_hash(self.model)}"

    # Memoized hot path --------------------------------------------------

    def consistent(self, x: Execution) -> bool:
        hit = self._memo.get(x)
        if hit is not None:
            if trace.ACTIVE is not None:
                trace.ACTIVE.count("memo_model_hits")
            return hit
        key = None
        if not isinstance(self.cache, NullCache):
            key = cache_key(fingerprint(x), self.spec)
            record = self.cache.get(key)
            if record is not None:
                if trace.ACTIVE is not None:
                    trace.ACTIVE.count("memo_persistent_hits")
                verdict = bool(record["verdict"])
                self._memo[x] = verdict
                return verdict
        if trace.ACTIVE is not None:
            trace.ACTIVE.count("memo_model_misses")
        verdict = self.model.consistent(x)
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[x] = verdict
        if key is not None:
            self.cache.put(key, {"verdict": verdict, "model": self.spec})
        return verdict
