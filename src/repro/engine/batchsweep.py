"""Cross-item batched verdict prefill and batch-aware shard assembly.

The campaign engine's unit of work is one (test, checker) cell, but the
corpus-shaped workload is hundreds of *small* tests: each test's
postcondition-filtered candidate stream holds a handful of candidates,
too few to be worth a kernel.  The batch dimension that *is* large lives
across items: the whole suite yields hundreds of candidates sharing a
universe size.  This prefill is therefore the only batched path, and
the only caller of :func:`repro.ir.plan.consistent_on`; the per-cell
path it falls back to, the ``brute:`` oracle and the axiomatic ``hw:``
oracles check candidates one at a time on the scalar reference
(:mod:`repro.ir.eval`).

:func:`prefill_units` exploits that before the per-cell loop runs:

1. **Collect** — for every pending cell whose checker is a plain
   batchable :class:`~repro.engine.checkers.ModelChecker`, pull the
   exact candidate set the scalar verdict quantifies over (the
   postcondition-filtered stream for ``exists``, pruned of incoherent
   candidates when every batchable checker of the item enforces
   coherence; the refuting candidates for ``forall``; the bare execution
   for execution payloads), bounded by :data:`PREFILL_STREAM_CAP`;
2. **Sweep** — bucket every collected execution by universe size, build
   one :class:`~repro.ir.batch.BatchContext` per bucket, and run each
   participating model's batched kernel (:func:`repro.ir.plan.
   consistent_on`) over the *whole bucket* — leaf packing and
   hash-consed node values are paid once per bucket and shared by all
   models;
3. **Assemble** — each cell's verdict is the same quantifier over the
   same candidate set the scalar path uses (``exists``: any consistent
   candidate; ``forall``: no consistent refutation), so the verdicts are
   identical by construction.  Cells whose streams overflowed the cap
   and were not decided by the collected prefix fall back to the
   per-cell path untouched.

A prefill step that raises never costs a verdict: its cells take the
per-cell path instead.  Each such fallback is counted in
:attr:`repro.ir.eval.EvalStats.prefill_fallbacks` and warned about.

This module is also the one way pending cells run, for
:func:`~repro.engine.campaign.run_campaign` and the campaign service
alike.  :func:`plan_shards` cuts the pending units into *batch-aware
shards* — one in-process shard holding the whole suite when serial;
otherwise units ordered by estimated universe size, so same-bucket work
lands in the same shard (:func:`assemble_shards`) — and gives them a
time budget.  :func:`~repro.engine.pool.resilient_map` runs
:func:`run_shard` over them: the prefill over the whole shard, then the
per-cell path for whatever it left undecided.  A shard whose worker
died or hung comes back as a :class:`~repro.engine.pool.PoisonedTask`,
which :func:`poisoned_rows` turns into one errored row per cell it
carried.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Iterable

from ..core.execution import Execution
from ..ir import plan as ir_plan
from ..ir.batch import BatchContext
from ..ir.eval import STATS
from ..litmus import candidates as litmus_candidates
from ..litmus.candidates import candidate_executions, expand_test
from ..litmus.test import LitmusTest
from ..obs import telemetry as obs_telemetry
from ..obs import trace
from .checkers import Checker, ModelChecker
from .pool import default_jobs

__all__ = [
    "CELL_TIMEOUT",
    "PREFILL_STREAM_CAP",
    "KERNEL_CHUNK",
    "prefill_units",
    "assemble_shards",
    "plan_shards",
    "poisoned_rows",
    "run_shard",
]

#: Default per-cell compute budget in seconds, for CLI campaigns and the
#: service alike; a shard's budget scales it by the shard's cell count.
CELL_TIMEOUT = 60.0

#: Per-cell candidate cap for the collect phase: a stream still going
#: after this many (post-filter) candidates is a big test, and big tests
#: are exactly where the per-cell path's early exit (it stops at the
#: first witness) beats speculative full expansion — the cell falls back
#: unless its prefix already decides the verdict.
PREFILL_STREAM_CAP = 256

#: Kernel sweeps over a bucket are chunked at this many executions to
#: bound the live bit-matrix memory (one chunk's arrays are freed before
#: the next is packed).
KERNEL_CHUNK = 1024


_MISSING = object()


def _fall_back(subject: str, reason: str, exc: Exception) -> None:
    """Count one prefill fallback and warn about it.

    The affected cells take the per-cell path, which decides them (or
    reports their error) exactly as an unbatched run would.  The message
    depends only on the subject, the reason and the exception type, so
    Python's warning registry shows each once per process.
    """
    STATS.prefill_fallbacks += 1
    warnings.warn(
        f"batched prefill fell back to the per-cell path for {subject}: "
        f"{reason} raised {type(exc).__name__}",
        RuntimeWarning,
        stacklevel=2,
    )


class _Cell:
    """One prefill candidate: a pending (item, checker) pair plus the
    candidate set its verdict quantifies over."""

    __slots__ = (
        "name", "spec", "model", "definition", "token", "quantifier",
        "executions", "exhausted",
    )

    def __init__(self, name, checker, definition, quantifier):
        self.name = name
        self.spec = checker.spec
        self.model = checker.model
        self.definition = definition
        self.token = checker.token
        self.quantifier = quantifier  # "exec" | "exists" | "forall"
        self.executions: list[Execution] = []
        self.exhausted = False


def _collect_stream(
    candidates: Iterable,
    keep: Callable,
) -> "tuple[list[tuple[Execution, bool]], bool]":
    """The (deduplicated) ``(execution, coherent)`` pairs of the
    candidates passing ``keep``, up to the cap, plus whether the stream
    was exhausted.

    Carrying the structural coherence flag lets one walk serve both the
    gated and ungated checkers of an item: the coherent subset of an
    exhausted stream is itself exhaustive, and an overflowed one is
    (conservatively) undecided for both gates.
    """
    pairs: list[tuple[Execution, bool]] = []
    seen: set[Execution] = set()
    count = 0
    for candidate in candidates:
        if keep is not None and not keep(candidate):
            continue
        count += 1
        if count > PREFILL_STREAM_CAP:
            return pairs, False  # overflow
        x = candidate.execution
        if x not in seen:
            seen.add(x)
            pairs.append((x, candidate.coherent))
    return pairs, True


def _resolve_batchable(checker: Checker, cache):
    """``(definition, gate)`` for a batchable plain :class:`ModelChecker`,
    else ``None`` — computed once per distinct checker, not once per
    (unit, checker)."""
    key = id(checker)
    if key in cache:
        return cache[key]
    out = None
    if type(checker) is ModelChecker:  # oracle/brute-force keep their path
        try:
            definition = checker.model.batch_definition()
        except Exception as exc:
            _fall_back(checker.spec, "batch_definition()", exc)
            definition = None
        if definition is not None:
            gate = getattr(checker.model, "enforces_coherence", False)
            out = (definition, gate)
    cache[key] = out
    return out


def _collect(units) -> list[_Cell]:
    cells: list[_Cell] = []
    resolved: dict = {}
    for name, payload, checkers, _telemetry in units:
        batchable = [
            (checker, resolution)
            for checker in checkers
            if (resolution := _resolve_batchable(checker, resolved))
            is not None
        ]
        # An incoherent candidate is inconsistent under every gated
        # model, so when all of them are gated the ``exists`` stream is
        # pruned of those candidates before any execution is built —
        # the memo entry the per-cell ``observable`` path reads too.
        coherent_only = all(gate for _, (_, gate) in batchable)
        # Checkers of one item share the candidate stream; walking it
        # (and applying the postcondition) once per *quantifier*, not
        # once per checker or per coherence gate, matters on suites of
        # hundreds of small tests.  ``prefixes`` maps a quantifier to
        # ``(pairs, exhausted, per-gate executions)``.
        prefixes: dict[str, tuple | None] = {}
        for checker, (definition, gate) in batchable:
            if isinstance(payload, Execution):
                cell = _Cell(name, checker, definition, "exec")
                cell.executions.append(payload)
                cell.exhausted = True
                cells.append(cell)
                continue
            if not isinstance(payload, LitmusTest):
                continue
            quantifier = (
                "forall" if payload.quantifier == "forall" else "exists"
            )
            prefix = prefixes.get(quantifier, _MISSING)
            if prefix is _MISSING:
                try:
                    if quantifier == "forall":
                        # The scalar path's skip: only candidates
                        # *refuting* the condition can decide the
                        # verdict.
                        prefix = _collect_stream(
                            candidate_executions(payload.program),
                            lambda c: not payload.check(c.outcome),
                        ) + ({},)
                    else:
                        prefix = _collect_stream(
                            iter(expand_test(payload, coherent_only)), None
                        ) + ({},)
                except Exception as exc:
                    # The per-cell path reports the error, if it recurs.
                    _fall_back(checker.spec, "candidate collection", exc)
                    prefix = None
                prefixes[quantifier] = prefix
            if prefix is None:
                continue
            pairs, exhausted, by_gate = prefix
            executions = by_gate.get(gate)
            if executions is None:
                by_gate[gate] = executions = [
                    x for x, coherent in pairs if coherent or not gate
                ]
            cell = _Cell(name, checker, definition, quantifier)
            cell.executions = executions
            cell.exhausted = exhausted
            cells.append(cell)
    return cells


def prefill_units(units):
    """Batched verdicts for the cells of ``units`` decidable up front.

    Returns ``(rows, covered)``: cell rows in the campaign's result-row
    shape ``(name, spec, verdict, elapsed, None)`` and the set of
    ``(name, spec)`` pairs they cover; every uncovered pending cell must
    still go through the per-cell path.  A no-op (empty results) when
    :func:`~repro.litmus.candidates.set_batch_size` turned the prefill
    off.
    """
    if not litmus_candidates._prefill:
        return [], set()
    start = time.perf_counter()
    cells = _collect(units)
    if not cells:
        return [], set()

    # -- bucket every execution by universe size ------------------------
    buckets: dict[int, dict[Execution, int]] = {}
    sweeps: dict[int, list[tuple[str, object, object]]] = {}
    swept: set[tuple[str, int]] = set()
    for cell in cells:
        for x in cell.executions:
            index = buckets.setdefault(x.n, {})
            if x not in index:
                index[x] = len(index)
            key = (cell.spec, x.n)
            if key not in swept:
                swept.add(key)
                sweeps.setdefault(x.n, []).append(
                    (cell.spec, cell.model, cell.definition)
                )

    # -- one context per bucket chunk, every model's kernel over it ------
    flags: dict[str, dict[Execution, bool]] = {}
    broken: set[str] = set()
    for n, index in buckets.items():
        stack = list(index)
        for lo in range(0, len(stack), KERNEL_CHUNK):
            chunk = stack[lo : lo + KERNEL_CHUNK]
            ctx = BatchContext.of(chunk)
            for spec, model, definition in sweeps[n]:
                if spec in broken:
                    continue
                try:
                    out = ir_plan.consistent_on(model, definition, ctx)
                except Exception as exc:
                    # The per-cell fallback will reproduce (and report)
                    # the failure for exactly the affected cells.
                    _fall_back(spec, "the kernel sweep", exc)
                    broken.add(spec)
                    flags.pop(spec, None)
                    continue
                table = flags.setdefault(spec, {})
                for x, flag in zip(chunk, out):
                    table[x] = bool(flag)

    # -- assemble verdicts ----------------------------------------------
    decided: list[tuple[str, str, bool, str]] = []
    for cell in cells:
        table = flags.get(cell.spec)
        if table is None:
            continue
        hit = any(table[x] for x in cell.executions)
        if cell.quantifier == "forall":
            if hit:  # a consistent refutation
                verdict = False
            elif cell.exhausted:
                verdict = True
            else:
                continue  # undecided prefix: fall back
        else:  # "exists" and bare executions alike
            if hit:
                verdict = True
            elif cell.exhausted:
                verdict = False
            else:
                continue
        decided.append((cell.name, cell.spec, verdict, cell.token))

    if not decided:
        return [], set()
    # Apportion the sweep time evenly: per-cell attribution below batch
    # granularity is not meaningful, but model_time() should still add
    # up to wall-clock spent.
    elapsed = (time.perf_counter() - start) / len(decided)
    tracer = trace.ACTIVE
    if tracer is not None:
        # Telemetry composes with batching: one synthetic span per
        # decided cell, carrying the same identity attributes as the
        # scalar path's real spans.  Self time is 0.0 — the sweep's
        # wall clock is already partitioned into the expansion/axioms
        # stage spans recorded while it ran.
        for name, spec, _verdict, token in decided:
            tracer.add_span(
                "cell",
                elapsed,
                {"item": name, "model": spec, "token": token,
                 "batched": True},
                self_seconds=0.0,
            )
    rows = [
        (name, spec, verdict, elapsed, None)
        for name, spec, verdict, _token in decided
    ]
    return rows, {(name, spec) for name, spec, _, _ in decided}


# ----------------------------------------------------------------------
# Shards: the one way pending cells run
# ----------------------------------------------------------------------


def _unit_size(unit) -> int:
    """Cheap, deterministic universe-size proxy for shard grouping.

    The prefill kernels batch executions sharing an exact universe size
    ``n``; that size is only known after candidate expansion, which is
    far too expensive for shard assembly.  Executions carry it directly;
    for litmus tests the program's instruction count tracks it closely
    enough that equal-sized tests (the common corpus case: generated
    families share a shape) sort into the same shard.
    """
    payload = unit[1]
    if isinstance(payload, Execution):
        return payload.n
    if isinstance(payload, LitmusTest):
        return sum(len(t) for t in payload.program.threads)
    return 0


def assemble_shards(units, n_shards: int) -> list[list]:
    """Partition ``units`` into at most ``n_shards`` batch-friendly
    shards.

    Units are ordered by estimated universe size (:func:`_unit_size`,
    name-tiebroken so the partition is deterministic) and cut into
    *contiguous* chunks balanced by pending-cell count: same-bucket
    units land in the same shard, so each worker's
    :func:`prefill_units` sweep sees whole buckets instead of a few
    executions of each.  Every returned shard is non-empty.
    """
    units = list(units)
    if not units:
        return []
    n_shards = max(1, min(n_shards, len(units)))
    if n_shards == 1:
        return [units]
    ordered = sorted(units, key=lambda u: (_unit_size(u), u[0]))
    weights = [len(u[2]) or 1 for u in ordered]
    total = sum(weights)
    shards: list[list] = [[] for _ in range(n_shards)]
    si = 0
    acc = 0
    for i, unit in enumerate(ordered):
        if shards[si] and si + 1 < n_shards:
            remaining = len(ordered) - i
            # Advance when this shard met its proportional share of the
            # cell weight — or must, so no later shard ends up empty.
            forced = remaining == n_shards - si - 1
            due = (
                acc >= total * (si + 1) / n_shards
                and remaining >= n_shards - si
            )
            if forced or due:
                si += 1
        shards[si].append(unit)
        acc += weights[i]
    return shards


def plan_shards(
    units,
    jobs: int,
    shards: "int | None" = None,
    cell_timeout: float = CELL_TIMEOUT,
) -> "tuple[list[list], float]":
    """The pool tasks for ``units`` and each task's time budget.

    A serial run (``jobs == 1``) gets one in-process shard holding every
    unit, so the prefill sweeps the whole suite at once.  Otherwise the
    units are cut into ``shards`` batch-aware shards (default ``4 ×``
    the worker count; :func:`assemble_shards`).  The budget, the
    per-task timeout handed to :func:`~repro.engine.pool.resilient_map`,
    is ``cell_timeout`` × the largest shard's pending-cell count.
    """
    if jobs == 1:
        count = 1
    else:
        count = shards or 4 * (jobs or default_jobs())
    planned = assemble_shards(units, count)
    largest = max(
        (sum(len(u[2]) for u in shard) for shard in planned), default=0
    )
    return planned, cell_timeout * largest


def poisoned_rows(shard, error: str) -> list:
    """One errored row per (item, checker) cell ``shard`` carried."""
    return [
        (name, checker.spec, False, 0.0, error)
        for name, _payload, checkers, _telemetry in shard
        for checker in checkers
    ]


def _run_checkers(
    name: str,
    payload: "LitmusTest | Execution",
    checkers: "tuple[Checker, ...]",
) -> "list[tuple[str, str, bool, float, str | None]]":
    """Evaluate one test against several checkers.

    Grouping by test means the candidate expansion is computed once and
    shared by every checker via the per-process memo.

    A checker that raises yields an errored cell instead of killing the
    whole campaign — one bad (test, model) pair must not lose the other
    verdicts of a long sweep.  The error is reported per cell and the
    campaign's consumer decides (the CLI exits nonzero).
    """
    out = []
    for checker in checkers:
        tracer = trace.ACTIVE
        if tracer is not None:
            tracer.push(
                "cell",
                {"item": name, "model": checker.spec, "token": checker.token},
            )
        start = time.perf_counter()
        try:
            verdict = checker.verdict(payload)
            error = None
        except Exception as exc:
            verdict = False
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.pop()
        out.append(
            (name, checker.spec, verdict, time.perf_counter() - start, error)
        )
    return out


def _shard_rows(shard) -> list:
    """Cell rows for one shard: the batched prefill over the whole
    shard, then the per-cell path for whatever it left undecided."""
    try:
        prefilled, covered = prefill_units(shard)
    except Exception as exc:
        # The prefill is an optimisation; a crash in it must never cost
        # verdicts.  Every cell falls back to the per-cell path.
        _fall_back("a whole shard", "the prefill", exc)
        prefilled, covered = [], set()
    rows = list(prefilled)
    for name, payload, checkers, _telemetry in shard:
        pending = (
            tuple(c for c in checkers if (name, c.spec) not in covered)
            if covered
            else checkers
        )
        if not pending:
            continue
        try:
            rows.extend(_run_checkers(name, payload, pending))
        except Exception as exc:
            # A crash outside the checkers poisons exactly this unit's
            # pending cells.
            error = f"{type(exc).__name__}: {exc}"
            rows.extend((name, c.spec, False, 0.0, error) for c in pending)
    return rows


def run_shard(shard) -> tuple:
    """One pool task: a non-empty shard's units through the batched
    prefill plus the per-cell fallback.

    Module-level so it pickles.  Returns ``(rows, telemetry-snapshot)``;
    rows have the shape ``(item, spec, verdict, elapsed, error)``.  When
    the parent ran with telemetry on, the units are tagged and a pool
    worker (whose telemetry was reset by the pool's initializer)
    collects the shard's spans and metrics into an ephemeral bundle
    whose snapshot comes home with the rows.  In process, the parent's
    own collectors see the work and the snapshot is ``None``.
    """
    if shard[0][3]:  # telemetry_on — uniform across a dispatch
        with obs_telemetry.collect() as holder:
            rows = _shard_rows(shard)
        return rows, holder.snapshot
    return _shard_rows(shard), None
