"""Disagreement classification for differential campaigns.

The fuzzer's checkers play different roles, so "the verdicts differ" is
not one condition:

* **model-mismatch** — the native Python model and the ``.cat`` library
  model are two renderings of the *same* definition; any difference, in
  either direction, is a bug in one of them.
* **machine-escape** — an operational machine (or hardware stand-in) is
  an *implementation*: it may show fewer behaviours than its model
  allows (the paper's never-observed Allow tests), but observing what
  the model forbids is a ⊆-violation — the §6.2 RTL-bug shape.
* **enumeration-split** — the constraint-pruned incremental candidate
  search and the brute-force cross-product drive the *same* model; a
  different verdict means an enumeration bug, or a kernel fault: the
  native column is decided by the campaign prefill's batched kernels,
  the ``brute:`` column candidate by candidate on the scalar reference.
* **mutant-disagreement** — an injected weakening fired.  For mutants
  this is the *desired* outcome (detection); the fuzzer tracks them
  separately and fails when a mutant is **not** detected.

Checker roles are inferred from specs: ``cat:``/bare-``.cat`` → cat,
``hw:`` → machine, ``brute:`` → brute, ``mut:`` → mutant; the plain
registry-name spec is the native reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.execution import Execution
from ..litmus.test import LitmusTest
from .generators import FuzzItem

__all__ = [
    "CheckerError",
    "Disagreement",
    "checker_role",
    "classify_matrix",
]


@dataclass
class Disagreement:
    """One classified divergence between two checkers on one test.

    ``shrunk``/``shrunk_test`` are filled in by the shrinker: the
    ⊏-minimal reproducing execution (when one exists) and its litmus
    rendering.
    """

    item: str
    kind: str  # "model-mismatch" | "machine-escape" | "enumeration-split"
    #           | "mutant-disagreement"
    left: str  # checker spec (the native reference)
    right: str  # checker spec (the disagreeing checker)
    left_verdict: bool
    right_verdict: bool
    test: LitmusTest
    source: str = "?"
    origin: Execution | None = None
    shrunk: Execution | None = None
    shrunk_test: LitmusTest | None = None

    @property
    def shrunk_events(self) -> int | None:
        return self.shrunk.n if self.shrunk is not None else None

    def describe(self) -> str:
        tail = ""
        if self.shrunk is not None:
            tail = f" (shrunk to {self.shrunk_events} events)"
        return (
            f"[{self.kind}] {self.item}: {self.left}={self.left_verdict} "
            f"vs {self.right}={self.right_verdict}{tail}"
        )


@dataclass(frozen=True)
class CheckerError:
    """A checker that raised instead of producing a verdict."""

    item: str
    checker: str
    message: str


def checker_role(spec: str) -> str:
    """The differential role a checker spec plays."""
    if spec.startswith("hw:"):
        return "machine"
    if spec.startswith("brute:"):
        return "brute"
    if spec.startswith("mut:"):
        return "mutant"
    from ..models.registry import MODELS

    if spec in MODELS:
        return "native"
    return "cat"


_ROLE_KINDS = {
    "cat": "model-mismatch",
    "machine": "machine-escape",
    "brute": "enumeration-split",
    "mutant": "mutant-disagreement",
}


@dataclass
class _Verdicts:
    """All verdicts collected for one item across campaigns."""

    native: bool | None = None
    by_spec: dict[str, bool] = field(default_factory=dict)


def classify_matrix(
    items: dict[str, FuzzItem],
    cells: dict[tuple[str, str], "object"],
    native_spec: str,
) -> tuple[list[Disagreement], list[CheckerError], int]:
    """Classify every cell of a (merged) campaign verdict matrix.

    Args:
        items: suite items by name.
        cells: ``(item, spec) -> CellResult`` (merged across the
            fuzzer's campaigns).
        native_spec: the reference checker's spec.

    Returns:
        ``(disagreements, errors, unseen_allows)`` where
        ``unseen_allows`` counts machine cells that showed *fewer*
        behaviours than the model allows (informational, not a bug).
    """
    errors: list[CheckerError] = []
    per_item: dict[str, _Verdicts] = {}
    for (name, spec), cell in cells.items():
        if name not in items:
            continue
        if cell.error is not None:
            errors.append(CheckerError(name, spec, cell.error))
            continue
        verdicts = per_item.setdefault(name, _Verdicts())
        if spec == native_spec:
            verdicts.native = cell.verdict
        else:
            verdicts.by_spec[spec] = cell.verdict

    disagreements: list[Disagreement] = []
    unseen_allows = 0
    for name in sorted(per_item):
        verdicts = per_item[name]
        if verdicts.native is None:
            continue  # native errored; already reported
        item = items[name]
        for spec, verdict in sorted(verdicts.by_spec.items()):
            role = checker_role(spec)
            if role == "machine":
                if verdict and not verdicts.native:
                    pass  # ⊆-violation: fall through to record
                else:
                    if verdicts.native and not verdict:
                        unseen_allows += 1
                    continue
            elif verdict == verdicts.native:
                continue
            disagreements.append(
                Disagreement(
                    item=name,
                    kind=_ROLE_KINDS.get(role, "model-mismatch"),
                    left=native_spec,
                    right=spec,
                    left_verdict=verdicts.native,
                    right_verdict=verdict,
                    test=item.test,
                    source=item.source,
                    origin=item.origin,
                )
            )
    return disagreements, errors, unseen_allows
