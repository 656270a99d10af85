"""Resilient process-pool execution with an in-process fallback.

Every pool dispatch in the repository — campaign shards from
``repro campaign`` and the campaign service alike, and Table 2's
property checks — funnels through :func:`resilient_map`.  It preserves
input order (so results are identical for any worker count) and
degrades to a plain in-process loop when ``jobs <= 1``, when there is
only one task, or when the platform cannot fork worker processes
(sandboxes, restricted CI runners).

A task that hangs or whose worker process dies must cost its own
result, never the whole run: tasks are submitted individually, each is
bounded by a timeout, retried a bounded number of times, and a
still-failing task degrades to a :class:`PoisonedTask` marker the caller
turns into errored cells (or, for Table 2, an exception).
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from typing import Callable, Iterable, Sequence, TypeVar

from ..obs import telemetry

__all__ = ["resilient_map", "default_jobs", "PoisonedTask"]

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0``: the CPU count."""
    return os.cpu_count() or 1


def _worker_init() -> None:
    """Per-worker-process setup.

    Forked workers inherit the parent's telemetry objects; anything
    recorded into those copies would be silently lost.  Resetting here
    makes workers start observably *off*, so telemetry-tagged campaign
    shards collect into fresh local bundles and ship snapshots back with
    their results (see :func:`repro.engine.batchsweep.run_shard`).
    """
    telemetry.reset_worker_state()


class PoisonedTask:
    """Marker result for a task that kept failing after its retries.

    ``resilient_map`` returns one of these in the failed task's result
    slot instead of raising; ``error`` carries the last failure
    (``"TimeoutError: ..."`` or the worker-death description) and
    ``attempts`` how many times the task ran.
    """

    __slots__ = ("error", "attempts")

    def __init__(self, error: str, attempts: int) -> None:
        self.error = error
        self.attempts = attempts

    def __repr__(self) -> str:
        return f"PoisonedTask(error={self.error!r}, attempts={self.attempts})"


def _serial_resilient(
    fn: Callable[[T], R], items: Sequence[T], retries: int
) -> list:
    """In-process fallback: crashes are caught per task and retried;
    timeouts cannot be enforced without a worker process to abandon."""
    out: list = []
    for item in items:
        attempts = 0
        while True:
            attempts += 1
            try:
                out.append(fn(item))
                break
            except Exception as exc:
                if attempts > retries:
                    out.append(
                        PoisonedTask(f"{type(exc).__name__}: {exc}", attempts)
                    )
                    break
    return out


def resilient_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    jobs: int = 1,
    timeout: "float | None" = None,
    retries: int = 1,
) -> list:
    """``[fn(t) for t in tasks]`` where one bad task cannot sink the rest.

    Tasks are submitted to the pool individually.  A task whose worker
    dies, or that is still running ``timeout`` seconds after the pool
    last made progress, is charged an attempt and re-run — up to
    ``retries`` extra times — before degrading to a
    :class:`PoisonedTask` in its result slot.  Results keep task order;
    every slot holds either ``fn``'s return value or a ``PoisonedTask``.

    After a worker death the survivors are re-run in *isolation* (one
    single-worker pool per round), so the culprit is charged precisely
    and innocent tasks complete unharmed.  A hung worker's process is
    abandoned, not joined — the pool is discarded and rebuilt, which
    leaks the stuck process by design (killing it is the OS's job; the
    caller's job must not block on it).

    The in-process fallback (``jobs <= 1`` or no subprocess support)
    retries crashes per task but cannot preempt a hung call — timeouts
    are only enforceable on the pool path.
    """
    items: Sequence[T] = list(tasks)
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1:
        return _serial_resilient(fn, items, retries)

    results: dict[int, object] = {}
    attempts = [0] * len(items)
    errors = [""] * len(items)
    remaining = sorted(range(len(items)))
    isolate = False
    while remaining:
        workers = 1 if isolate else min(jobs, len(remaining))
        batch = remaining[:1] if isolate else list(remaining)
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            )
        except (OSError, PermissionError):
            tail = _serial_resilient(
                fn, [items[i] for i in remaining], retries
            )
            for i, value in zip(remaining, tail):
                results[i] = value
            break
        futures = {pool.submit(fn, items[i]): i for i in batch}
        submitted = set(batch)
        for i in batch:
            attempts[i] += 1
        pending = set(futures)
        broken = False
        stalled: list = []
        while pending:
            done, pending = futures_wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # No progress within the budget: every *running* future
                # is over its bound; queued ones are innocent.
                stalled = [f for f in pending if f.running()]
                if stalled:
                    break
                continue  # nothing running yet — keep waiting
            for future in done:
                i = futures[future]
                try:
                    results[i] = future.result()
                except BrokenExecutor:
                    # Once the pool is broken every pending future
                    # resolves with this too — the loop drains fast.
                    broken = True
                except Exception as exc:  # fn itself raised in a worker
                    errors[i] = f"{type(exc).__name__}: {exc}"
        # A hung worker must not block the job: abandon it (the pool is
        # discarded; the stuck process is leaked by design).
        pool.shutdown(wait=not (broken or stalled), cancel_futures=True)
        for future in stalled:
            errors[futures[future]] = (
                f"TimeoutError: no result within {timeout}s"
            )
        if broken:
            if isolate and not errors[batch[0]] and batch[0] not in results:
                # Alone in the pool: the worker death is unambiguously
                # this task's doing.
                errors[batch[0]] = "BrokenExecutor: worker process died"
            # A shared pool's death is ambiguous — leave the survivors
            # unimplicated (they rerun uncharged below) and pin blame by
            # running them one at a time from now on.
            isolate = True
        still = []
        for i in remaining:
            if i in results:
                continue
            if i in submitted and not errors[i]:
                # Submitted but neither finished nor implicated (e.g.
                # cancelled behind a stall or pool death): uncharged.
                attempts[i] -= 1
                still.append(i)
            elif not errors[i]:  # never submitted this round (isolation)
                still.append(i)
            elif attempts[i] > retries:
                results[i] = PoisonedTask(errors[i], attempts[i])
            else:
                errors[i] = ""
                still.append(i)
        remaining = still
    return [results[i] for i in range(len(items))]
