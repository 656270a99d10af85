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

1. **Collect** — for every item with a pending plain batchable
   :class:`~repro.engine.checkers.ModelChecker`, pull the exact
   candidate set the scalar verdict quantifies over (the
   postcondition-filtered stream for ``exists``, pruned of incoherent
   candidates when every batchable checker of the item enforces
   coherence; the refuting candidates for ``forall``; the bare execution
   for execution payloads), bounded by :data:`PREFILL_STREAM_CAP`.  The
   stream is walked once per item, and the result is one *group* per
   (item, coherence gate) holding that set and the checkers it serves;
   every later step loops over groups, not cells.  The sweep's streams
   share thread shapes (:func:`~repro.litmus.candidates.shared_shapes`);
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
which :func:`~repro.engine.campaign.settle_shards` turns into one
errored row per cell it carried (:func:`poisoned_rows`).
"""

from __future__ import annotations

import threading
import time
import warnings
from itertools import repeat
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

#: Per-cell compute budget in seconds, for CLI campaigns and the service
#: alike; a shard's budget scales it by the shard's cell count.
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


def _members(checkers, resolved) -> "dict[bool, tuple]":
    """The batchable checkers of one unit as ``(spec, model, definition,
    token)`` members, grouped by coherence gate in the order each gate
    first appears."""
    by_gate: dict[bool, list] = {}
    for checker in checkers:
        resolution = _resolve_batchable(checker, resolved)
        if resolution is not None:
            definition, gate = resolution
            by_gate.setdefault(gate, []).append(
                (checker.spec, checker.model, definition, checker.token)
            )
    return {gate: tuple(members) for gate, members in by_gate.items()}


def _collect(units) -> list[tuple]:
    """The prefill groups of ``units``.

    One ``(name, executions, exhausted, quantifier, members)`` group per
    (item, quantifier, coherence gate) with a batchable checker:
    ``executions`` is the candidate set the scalar verdict of every
    member checker quantifies over, and ``exhausted`` whether it is
    complete.  Units carrying the same checkers share one ``members``
    tuple, so later steps can do per-checker work once per tuple.
    """
    groups: list[tuple] = []
    resolved: dict = {}
    partitions: dict[tuple, dict[bool, tuple]] = {}
    for name, payload, checkers, _telemetry in units:
        key = tuple(map(id, checkers))
        by_gate = partitions.get(key)
        if by_gate is None:
            by_gate = partitions[key] = _members(checkers, resolved)
        if not by_gate:
            continue
        if isinstance(payload, Execution):
            for members in by_gate.values():
                groups.append((name, [payload], True, "exec", members))
            continue
        if not isinstance(payload, LitmusTest):
            continue
        quantifier = "forall" if payload.quantifier == "forall" else "exists"
        # The item's checkers share the candidate stream; it is walked
        # (and the postcondition applied) once per item, not once per
        # checker or per coherence gate, which matters on suites of
        # hundreds of small tests.
        try:
            if quantifier == "forall":
                # The scalar path's skip: only candidates *refuting* the
                # condition can decide the verdict.
                pairs, exhausted = _collect_stream(
                    candidate_executions(payload.program),
                    lambda c: not payload.check(c.outcome),
                )
            else:
                # An incoherent candidate is inconsistent under every
                # gated model, so when all of them are gated the stream
                # is pruned of those candidates before any execution is
                # built — the memo entry the per-cell ``observable``
                # path reads too.
                pairs, exhausted = _collect_stream(
                    iter(expand_test(payload, False not in by_gate)), None
                )
        except Exception as exc:
            # The per-cell path reports the error, if it recurs.
            first = next(iter(by_gate.values()))[0][0]
            _fall_back(first, "candidate collection", exc)
            continue
        for gate, members in by_gate.items():
            executions = (
                [x for x, coherent in pairs if coherent or not gate]
                if pairs
                else ()
            )
            groups.append((name, executions, exhausted, quantifier, members))
    return groups


def prefill_units(units):
    """Batched verdicts for the cells of ``units`` decidable up front.

    Returns ``(rows, covered)``: cell rows in the campaign's result-row
    shape ``(name, spec, verdict, elapsed, None)`` and the set of
    ``(name, spec)`` pairs they cover; every uncovered pending cell must
    still go through the per-cell path.  A no-op (empty results) when
    :func:`~repro.litmus.candidates.set_batch_size` turned the prefill
    off.

    The work is per group (:func:`_collect`), not per cell: the streams
    are collected inside one :func:`~repro.litmus.candidates.
    shared_shapes` block, so the sweep expands each distinct thread
    shape once, and bucketing and verdict assembly loop over groups and
    their member checkers.
    """
    if not litmus_candidates._prefill:
        return [], set()
    start = time.perf_counter()
    with litmus_candidates.shared_shapes():
        groups = _collect(units)
    if not groups:
        return [], set()

    # -- bucket every execution by universe size ------------------------
    buckets: dict[int, dict[Execution, int]] = {}
    sweeps: dict[int, list[tuple[str, object, object]]] = {}
    swept: set[tuple[str, int]] = set()
    sized: set[tuple[int, int]] = set()  # (id(members), n) already swept
    for _name, executions, _exhausted, _quantifier, members in groups:
        for x in executions:
            n = x.n
            index = buckets.get(n)
            if index is None:
                index = buckets[n] = {}
            if x not in index:
                index[x] = len(index)
            key = (id(members), n)
            if key in sized:
                continue
            sized.add(key)
            for spec, model, definition, _token in members:
                if (spec, n) not in swept:
                    swept.add((spec, n))
                    sweeps.setdefault(n, []).append((spec, model, definition))

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
    # ``exists`` and bare executions: any consistent candidate decides
    # True; ``forall``: any consistent refutation decides False.  A
    # prefix that decides nothing (not exhausted) falls back.  The
    # decided cells are kept column-wise: a suite of small tests decides
    # tens of thousands of them, and every per-cell object is one more
    # for the garbage collector to track.
    names: list[str] = []
    specs: list[str] = []
    verdicts: list[bool] = []
    tokens: list[str] = []
    for name, executions, exhausted, quantifier, members in groups:
        hit_verdict = quantifier != "forall"
        for spec, _model, _definition, token in members:
            table = flags.get(spec)
            if table is None:
                continue
            for x in executions:
                if table[x]:
                    verdict = hit_verdict
                    break
            else:
                if not exhausted:
                    continue  # undecided prefix: fall back
                verdict = not hit_verdict
            names.append(name)
            specs.append(spec)
            verdicts.append(verdict)
            tokens.append(token)

    if not names:
        return [], set()
    # Apportion the sweep time evenly: per-cell attribution below batch
    # granularity is not meaningful, but model_time() should still add
    # up to wall-clock spent.
    elapsed = (time.perf_counter() - start) / len(names)
    tracer = trace.ACTIVE
    if tracer is not None:
        # Telemetry composes with batching: one synthetic span per
        # decided cell, carrying the same identity attributes as the
        # scalar path's real spans.  Self time is 0.0 — the sweep's
        # wall clock is already partitioned into the expansion/axioms
        # stage spans recorded while it ran.
        for name, spec, token in zip(names, specs, tokens):
            tracer.add_span(
                "cell",
                elapsed,
                {"item": name, "model": spec, "token": token,
                 "batched": True},
                self_seconds=0.0,
            )
    rows = list(zip(names, specs, verdicts, repeat(elapsed), repeat(None)))
    return rows, set(zip(names, specs))


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


def plan_shards(units, jobs: int) -> "tuple[list[list], float]":
    """The pool tasks for ``units`` and each task's time budget.

    One fixed policy serves CLI campaigns and the campaign service
    alike.  A serial run (``jobs == 1``) gets one in-process shard
    holding every unit, so the prefill sweeps the whole suite at once;
    otherwise the units are cut into ``4 ×`` the worker count
    batch-aware shards (:func:`assemble_shards`).  The budget, the
    per-task timeout handed to :func:`~repro.engine.pool.resilient_map`,
    is :data:`CELL_TIMEOUT` (read at call time) × the largest shard's
    pending-cell count, capped at :data:`threading.TIMEOUT_MAX`, the
    longest wait a lock accepts.
    """
    count = 1 if jobs == 1 else 4 * (jobs or default_jobs())
    planned = assemble_shards(units, count)
    largest = max(
        (sum(len(u[2]) for u in shard) for shard in planned), default=0
    )
    return planned, min(CELL_TIMEOUT * largest, threading.TIMEOUT_MAX)


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
