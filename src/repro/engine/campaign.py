"""The campaign runner: suites × models, cached and parallel.

A *campaign* executes the full cross-product of an iterable of litmus
tests (or bare executions) against a set of checkers — native models,
.cat library models, or simulated hardware — the way herd/diy sweep a
directory of tests against a model file.  Three mechanisms make the
cross-product cheap:

1. work is grouped *by test*, so the *memoized* candidate expansion
   (:func:`repro.litmus.candidates.expand_program`) runs once per test
   however many models are swept;
2. every (test, model) cell is keyed by a content hash and served from
   the persistent :class:`~repro.engine.cache.ResultCache` when it has
   been computed before — re-runs are incremental;
3. cache misses run as batch-aware shards
   (:func:`~repro.engine.batchsweep.plan_shards`) through
   :func:`~repro.engine.pool.resilient_map`: one in-process shard when
   serial, a worker pool otherwise — the verdict matrix is identical
   for any ``jobs``.  A shard whose worker dies or overruns its budget
   yields errored cells, never a lost campaign.

:func:`run_campaign` returns a :class:`CampaignResult` with per-model
verdict matrices, timing, cache accounting, and diff-vs-expected
summaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.execution import Execution
from ..litmus.test import LitmusTest
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from ..obs import trace
from .batchsweep import plan_shards, poisoned_rows, run_shard
from .cache import NullCache, ResultCache, cache_key, cell_record, fingerprint
from .checkers import Checker, resolve_checker
from .pool import PoisonedTask, resilient_map

__all__ = [
    "CampaignItem",
    "CellResult",
    "CampaignResult",
    "run_campaign",
    "catalog_suite",
    "diy_suite",
    "litmus_suite",
    "execution_suite",
    "DIY_VOCAB",
]

#: diy's default vocabulary, for a suite built without one.
DIY_VOCAB = ("PodWR", "PodWW", "PodRR", "PodRW", "Rfe", "Fre", "Wse")


@dataclass
class CampaignItem:
    """One unit of a campaign suite.

    Attributes:
        name: display name (unique within the suite).
        payload: a :class:`LitmusTest` (verdict = "postcondition
            observable?") or an :class:`Execution` (verdict =
            "consistent?").
        expected: optional model-name → expected-verdict map used for
            the diff-vs-expected report.
    """

    name: str
    payload: LitmusTest | Execution
    expected: dict[str, bool] = field(default_factory=dict)


class CellResult:
    """One (test, model) cell of the verdict matrix.

    ``error`` carries the ``"ExcType: message"`` string of a checker
    that raised instead of producing a verdict (the verdict is then
    ``False`` by convention and the cell is never cached).

    A plain slotted class rather than a frozen dataclass: a campaign
    allocates one per cell, and frozen-dataclass ``__init__`` overhead
    is measurable at thousands of cells.  Treat instances as immutable.
    """

    __slots__ = ("verdict", "elapsed", "cached", "error")

    def __init__(
        self,
        verdict: bool,
        elapsed: float,
        cached: bool,
        error: str | None = None,
    ) -> None:
        self.verdict = verdict
        self.elapsed = elapsed
        self.cached = cached
        self.error = error

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellResult):
            return NotImplemented
        return (
            self.verdict == other.verdict
            and self.elapsed == other.elapsed
            and self.cached == other.cached
            and self.error == other.error
        )

    def __hash__(self) -> int:
        # Defining __eq__ alone would set __hash__ = None; cells are
        # value objects and must stay usable in sets and as dict keys.
        return hash((self.verdict, self.elapsed, self.cached, self.error))

    def __repr__(self) -> str:
        return (
            f"CellResult(verdict={self.verdict!r}, elapsed={self.elapsed!r},"
            f" cached={self.cached!r}, error={self.error!r})"
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    ``tokens`` maps each model spec to the definition token its cells
    were keyed by (:attr:`~repro.engine.checkers.Checker.token`).
    """

    item_names: list[str]
    model_specs: list[str]
    cells: dict[tuple[str, str], CellResult]
    elapsed: float
    cache_hits: int
    cache_misses: int
    tokens: dict[str, str] = field(default_factory=dict)

    # -- views ----------------------------------------------------------

    def verdict(self, item: str, model: str) -> bool:
        return self.cells[(item, model)].verdict

    def matrix(self) -> dict[str, dict[str, bool]]:
        """Per-model verdict maps: ``matrix()[model][item] -> bool``."""
        return {
            spec: {
                name: self.cells[(name, spec)].verdict
                for name in self.item_names
            }
            for spec in self.model_specs
        }

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def model_time(self, model: str) -> float:
        """Total compute seconds spent on one model's column."""
        return sum(
            cell.elapsed
            for (_, spec), cell in self.cells.items()
            if spec == model and not cell.cached
        )

    def errors(self) -> list[tuple[str, str, str]]:
        """``(item, model, error)`` rows for every cell whose checker
        raised instead of producing a verdict."""
        return [
            (name, spec, cell.error)
            for (name, spec), cell in sorted(self.cells.items())
            if cell.error is not None
        ]

    def diffs(self, items: Sequence[CampaignItem]) -> list[tuple[str, str, bool, bool]]:
        """(item, model, got, expected) rows where the verdict disagrees
        with the item's expectation (models without expectations skip)."""
        out = []
        by_name = {item.name: item for item in items}
        for (name, spec), cell in sorted(self.cells.items()):
            item = by_name.get(name)
            if item is None:
                continue
            expected = item.expected.get(spec)
            if expected is None and "!" not in spec:
                # hw:/cat: specs fall back to the registry name; !notm
                # baselines don't (expectations are for the TM models).
                expected = item.expected.get(_base_model_name(spec))
            if expected is not None and expected != cell.verdict:
                out.append((name, spec, cell.verdict, expected))
        return out

    # -- rendering -------------------------------------------------------

    def format_matrix(self) -> str:
        """The verdict matrix as text: one row per test, one column per
        model; ``A`` = observable/consistent, ``F`` = forbidden."""
        name_width = max((len(n) for n in self.item_names), default=4)
        name_width = max(name_width, 4)
        widths = [max(len(s), 1) for s in self.model_specs]
        header = "test".ljust(name_width) + "".join(
            f"  {s:>{w}}" for s, w in zip(self.model_specs, widths)
        )
        lines = [header, "-" * len(header)]
        for name in self.item_names:
            row = name.ljust(name_width)
            for spec, w in zip(self.model_specs, widths):
                cell = self.cells[(name, spec)]
                mark = "!" if cell.error else "A" if cell.verdict else "F"
                row += f"  {mark:>{w}}"
            lines.append(row)
        lines.append("(A = observable/consistent, F = forbidden, ! = error)")
        return "\n".join(lines)

    def to_json_dict(
        self, items: "Sequence[CampaignItem] | None" = None
    ) -> dict:
        """The machine-readable run record behind ``campaign --json``:
        verdict matrix, per-cell detail, diffs, errors, cache and timing
        aggregates — so CI consumes structured output instead of
        grepping the human-format matrix."""
        out = {
            "schema": "repro.campaign-result",
            "version": 1,
            "items": list(self.item_names),
            "models": list(self.model_specs),
            "matrix": self.matrix(),
            "cells": [
                {
                    "item": name,
                    "model": spec,
                    "verdict": cell.verdict,
                    "elapsed": round(cell.elapsed, 6),
                    "cached": cell.cached,
                    "error": cell.error,
                }
                for (name, spec), cell in sorted(self.cells.items())
            ],
            "elapsed_seconds": round(self.elapsed, 6),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 6),
            },
            "model_seconds": {
                spec: round(self.model_time(spec), 6)
                for spec in self.model_specs
            },
            "errors": [
                {"item": name, "model": spec, "error": message}
                for name, spec, message in self.errors()
            ],
        }
        if items is not None:
            out["diffs"] = [
                {
                    "item": name,
                    "model": spec,
                    "got": got,
                    "expected": expected,
                }
                for name, spec, got, expected in self.diffs(items)
            ]
        return out

    def summary(self) -> str:
        computed = self.cache_misses
        errors = sum(1 for cell in self.cells.values() if cell.error)
        suffix = f", {errors} checker errors" if errors else ""
        return (
            f"{len(self.item_names)} tests x {len(self.model_specs)} models "
            f"= {len(self.cells)} cells ({self.cache_hits} cached, "
            f"{computed} computed) in {self.elapsed:.2f}s "
            f"[{100 * self.hit_rate:.0f}% cache hits]{suffix}"
        )


def _base_model_name(spec: str) -> str:
    """The registry name behind a spec, for expected-verdict lookups:
    ``hw:x86:<oracle>`` → ``x86``, ``cat:x86`` → ``x86``, the bare .cat
    stem ``x86tm`` → ``x86``, ``brute:x86`` → ``x86``,
    ``mut:armv8:<axiom>`` → ``armv8`` (a mutant *should* diff against
    the stock expectations — that is what detection means)."""
    from ..cat.model import CAT_MODEL_FILES

    if spec.startswith(("hw:", "mut:")):
        return spec.split(":")[1]
    if spec.startswith("brute:"):
        return spec[6:]
    name = spec[4:] if spec.startswith("cat:") else spec
    if name in CAT_MODEL_FILES:
        return name
    for registry_name, filename in CAT_MODEL_FILES.items():
        if filename in (name, f"{name}.cat"):
            return registry_name
    return name


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_campaign(
    items: Iterable[CampaignItem],
    models: Sequence[str | Checker],
    jobs: int = 1,
    cache: ResultCache | NullCache | None = None,
) -> CampaignResult:
    """Execute the items × models cross-product.

    Args:
        items: the suite (see the ``*_suite`` constructors below).
        models: checker specs (:func:`~repro.engine.checkers.resolve_checker`)
            or ready-made :class:`Checker` instances.
        jobs: worker processes; ``1`` = one in-process shard,
            ``0`` = one per CPU.
        cache: persistent store; ``None`` disables caching.

    Pending cells run as shards through
    :func:`~repro.engine.pool.resilient_map`, with its one retry and a
    budget of :data:`~repro.engine.batchsweep.CELL_TIMEOUT` per cell: a
    shard whose worker dies or hangs yields errored cells.
    """
    items = list(items)
    # Resolve once, before forking: bad specs fail fast.
    checkers = tuple(
        entry if isinstance(entry, Checker) else resolve_checker(entry)
        for entry in models
    )
    specs = [checker.spec for checker in checkers]
    if len(set(specs)) != len(specs):
        raise ValueError(f"duplicate model specs in {specs}")
    tokens = {checker.spec: checker.token for checker in checkers}
    cache = cache if cache is not None else NullCache()
    start = time.perf_counter()

    names = []
    seen_names = set()
    for item in items:
        if item.name in seen_names:
            raise ValueError(f"duplicate campaign item name {item.name!r}")
        seen_names.add(item.name)
        names.append(item.name)

    cells: dict[tuple[str, str], CellResult] = {}
    hits = 0
    keys: dict[tuple[str, str], str] = {}
    caching = not isinstance(cache, NullCache)
    telemetry_on = trace.ACTIVE is not None
    units = []
    for item in items:
        pending = checkers
        if caching:
            # Fingerprinting is the expensive per-item step; uncached
            # runs skip it entirely.
            pending = []
            with trace.stage("cache"):
                item_fp = fingerprint(item.payload)
            for checker in checkers:
                spec = checker.spec
                with trace.stage("cache"):
                    key = keys[(item.name, spec)] = cache_key(
                        item_fp, spec, tokens[spec]
                    )
                    record = cache.get(key)
                if record is None:
                    pending.append(checker)
                    continue
                hits += 1
                cells[(item.name, spec)] = CellResult(
                    bool(record["verdict"]),
                    float(record.get("elapsed", 0.0)),
                    cached=True,
                )
        if pending:
            units.append(
                (item.name, item.payload, tuple(pending), telemetry_on)
            )
    misses = sum(len(unit[2]) for unit in units)

    registry = obs_metrics.ACTIVE
    shards, budget = plan_shards(units, jobs)
    outcomes = resilient_map(run_shard, shards, jobs=jobs, timeout=budget)
    for shard, outcome in zip(shards, outcomes):
        if isinstance(outcome, PoisonedTask):
            outcome = (poisoned_rows(shard, outcome.error), None)
        rows, snap = outcome
        # Worker-side telemetry (stage self-times, per-cell spans, IR
        # counters) comes home with the shard's rows; merging it is what
        # makes ``--profile``/manifests see pool time.
        obs_telemetry.merge_snapshot(snap)
        for name, spec, verdict, elapsed, error in rows:
            cells[(name, spec)] = CellResult(
                verdict, elapsed, cached=False, error=error
            )
            if error is not None:
                continue  # never cache a crash as a verdict
            if registry is not None:
                # Parent-side observation keeps latency percentiles
                # exact for serial and parallel runs alike.
                registry.histogram(f"cell_seconds:{spec}").observe(elapsed)
            if caching:
                with trace.stage("cache"):
                    cache.put(
                        keys[(name, spec)],
                        cell_record(verdict, elapsed, name, spec),
                    )

    if telemetry_on:
        trace.count("cells_computed", misses)
        trace.count("cells_cached", hits)
        if registry is not None and caching and hasattr(cache, "stats_dict"):
            stats = cache.stats_dict()
            registry.counter("cache_hits").inc(hits)
            registry.counter("cache_misses").inc(misses)
            registry.gauge("cache_entries").set(stats["entries"])
            registry.gauge("cache_bytes").set(stats["bytes"])

    return CampaignResult(
        item_names=names,
        model_specs=specs,
        cells=cells,
        elapsed=time.perf_counter() - start,
        cache_hits=hits,
        cache_misses=misses,
        tokens=tokens,
    )


# ----------------------------------------------------------------------
# Suite constructors
# ----------------------------------------------------------------------


def catalog_suite(
    names: Iterable[str] | None = None, tags: Iterable[str] | None = None
) -> list[CampaignItem]:
    """Catalog entries as campaign items (payload = the execution)."""
    from ..catalog import CATALOG

    wanted = set(names) if names is not None else None
    tagset = set(tags) if tags is not None else None
    out = []
    for name, entry in sorted(CATALOG.items()):
        if wanted is not None and name not in wanted:
            continue
        if tagset is not None and not (tagset & entry.tags):
            continue
        out.append(CampaignItem(name, entry.execution, dict(entry.expected)))
    return out


def diy_suite(
    arch: str,
    vocabulary: Sequence[str] | None = None,
    max_length: int = 3,
) -> list[CampaignItem]:
    """A synthesized diy suite rendered as litmus tests for ``arch``.

    Each critical cycle over the vocabulary becomes one litmus test via
    :func:`~repro.litmus.from_execution.to_litmus`, so campaign verdicts
    have :func:`~repro.litmus.candidates.observable` semantics.  No
    vocabulary means the seven-edge default (:data:`DIY_VOCAB`); an
    empty one builds an empty suite.
    """
    from ..litmus.from_execution import to_litmus
    from ..synth.diy import cycle_execution, enumerate_cycles

    if vocabulary is None:
        vocabulary = DIY_VOCAB
    out = []
    for cycle in enumerate_cycles(vocabulary, max_length):
        name = "diy-" + "+".join(e.name for e in cycle.edges)
        test = to_litmus(cycle_execution(cycle), name, arch)
        out.append(CampaignItem(name, test))
    return out


def litmus_suite(paths: Iterable[str]) -> list[CampaignItem]:
    """Litmus files as campaign items, auto-detecting the format.

    Both the neutral format and the herd-style dialect frontends
    (:mod:`repro.litmus.frontend`) are accepted; a ``~exists`` condition
    records the expectation that the test is *forbidden* under its
    architecture's model, so the campaign's diff report flags any model
    that observes it.
    """
    from ..litmus.frontend import load_litmus_file
    from ..models.registry import MODELS

    out = []
    names: dict[str, int] = {}
    for path in paths:
        test = load_litmus_file(path)
        name = test.name
        if name in names:
            # Same test name in several files (common across dialect
            # directories): qualify by occurrence to keep items unique.
            names[name] += 1
            name = f"{name}~{names[test.name]}"
        else:
            names[name] = 0
        expected = (
            {test.arch: False}
            if test.quantifier == "~exists" and test.arch in MODELS
            else {}
        )
        out.append(CampaignItem(name, test, expected))
    return out


def execution_suite(
    executions: Iterable[Execution], prefix: str = "exec"
) -> list[CampaignItem]:
    """Bare executions (e.g. a synthesis result's Forbid/Allow lists)."""
    return [
        CampaignItem(f"{prefix}-{i}", x) for i, x in enumerate(executions)
    ]
