"""Forbid/Allow conformance-suite synthesis (paper sections 4.2, 5.3).

``synthesize_forbid`` computes the executions that are *minimally
forbidden* by a transactional model yet allowed by its non-transactional
baseline: exactly the tests Table 1 counts.  ``synthesize_allow`` derives
the *maximally allowed* suite as the consistent one-step weakenings of the
Forbid suite.

Per-test discovery timestamps are recorded so the Figure 7 distribution
("% of tests found vs synthesis time") can be regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.execution import Execution
from ..models.base import MemoryModel
from ..models.registry import get_model
from .canonical import canonical_key
from .generate import EnumerationSpace, enumerate_executions
from .minimality import is_minimal_inconsistent, weakenings
from .vocab import get_vocab

__all__ = ["SynthesisResult", "synthesize_forbid", "synthesize_allow", "synthesize"]


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    arch: str
    n_events: int
    forbid: list[Execution] = field(default_factory=list)
    allow: list[Execution] = field(default_factory=list)
    candidates_examined: int = 0
    inconsistent_seen: int = 0
    elapsed: float = 0.0
    #: seconds-from-start at which each Forbid test was discovered (Fig. 7).
    discovery_times: list[float] = field(default_factory=list)
    exhausted: bool = True

    @property
    def txn_histogram(self) -> dict[int, int]:
        """Forbid tests by transaction count (the 29%/44%/27% split of §5.3)."""
        hist: dict[int, int] = {}
        for x in self.forbid:
            hist[len(x.txns)] = hist.get(len(x.txns), 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> str:
        hist = ", ".join(f"{k} txn: {v}" for k, v in self.txn_histogram.items())
        return (
            f"{self.arch} |E|={self.n_events}: "
            f"{len(self.forbid)} forbid, {len(self.allow)} allow "
            f"({self.candidates_examined} candidates, {self.elapsed:.1f}s"
            f"{'' if self.exhausted else ', TIMED OUT'})"
            + (f" [{hist}]" if hist else "")
        )


def synthesize_forbid(
    arch: str,
    n_events: int,
    space: EnumerationSpace | None = None,
    model: MemoryModel | None = None,
    baseline: MemoryModel | None = None,
    time_budget: float | None = None,
) -> SynthesisResult:
    """Compute the Forbid suite for ``arch`` at the given event bound.

    A Forbid test is an execution that (1) contains at least one
    transaction, (2) is minimally inconsistent under the transactional
    model, and (3) is consistent under the non-transactional baseline
    (so the transaction is what makes it forbidden).
    """
    model = model or get_model(arch)
    baseline = baseline or get_model(arch, tm=False)
    vocab = get_vocab(arch)
    space = space or EnumerationSpace.for_arch(arch, n_events, require_txn=True)

    result = SynthesisResult(arch=arch, n_events=n_events)
    start = time.perf_counter()
    for x in enumerate_executions(space):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            result.exhausted = False
            break
        result.candidates_examined += 1
        if model.consistent(x):
            continue
        result.inconsistent_seen += 1
        if not baseline.consistent(x):
            continue
        if not all(model.consistent(w) for w in weakenings(x, vocab)):
            continue
        result.forbid.append(x)
        result.discovery_times.append(time.perf_counter() - start)
    result.elapsed = time.perf_counter() - start
    return result


def synthesize_allow(
    result: SynthesisResult, model: MemoryModel | None = None
) -> SynthesisResult:
    """Extend ``result`` with the Allow suite: consistent one-step
    weakenings of its Forbid tests (``max-consistent``, section 4.2)."""
    model = model or get_model(result.arch)
    vocab = get_vocab(result.arch)
    seen: set = set()
    allow: list[Execution] = []
    for x in result.forbid:
        for w in weakenings(x, vocab):
            if w.n == 0 or not model.consistent(w):
                continue
            key = canonical_key(w)
            if key in seen:
                continue
            seen.add(key)
            allow.append(w)
    result.allow = allow
    return result


def synthesize(
    arch: str,
    n_events: int,
    time_budget: float | None = None,
    space: EnumerationSpace | None = None,
    model: MemoryModel | None = None,
    baseline: MemoryModel | None = None,
) -> SynthesisResult:
    """Forbid + Allow in one call (the full Table 1 cell).

    ``model``/``baseline`` default to the registry's ``arch`` model and
    its ``tm=False`` baseline; any :class:`MemoryModel` may stand in
    (a ``.cat`` model, a mutant).
    """
    result = synthesize_forbid(
        arch,
        n_events,
        space=space,
        time_budget=time_budget,
        model=model,
        baseline=baseline,
    )
    return synthesize_allow(result, model=model)
