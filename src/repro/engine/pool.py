"""Resilient process-pool execution with an in-process fallback.

Every pool dispatch in the repository — campaign shards from
``repro campaign`` and the campaign service alike, and Table 2's
property checks — funnels through :func:`resilient_map`.  It preserves
input order (so results are identical for any worker count) and
degrades to a plain in-process loop when ``jobs <= 1``, when there is
only one task, or when the platform cannot fork worker processes
(sandboxes, restricted CI runners).

One *warm* pool serves every dispatch of a process while its workers
live, so a long-lived caller such as the campaign service forks its
workers, and they compile their kernels, once rather than once per job.
A pooled task still starts from what a fresh fork had: the per-test
expansion memos are cleared around every task, and a pool forked under
another campaign-prefill switch
(:func:`~repro.litmus.candidates.set_batch_size`) is replaced.
:func:`shutdown` joins the warm pool's workers (the campaign service
calls it when it stops); other processes leave that to the exit hook of
:mod:`concurrent.futures`.

A task that hangs or whose worker process dies must cost its own
result, never the whole run: tasks are submitted individually, each is
bounded by a timeout, retried a bounded number of times, and a
still-failing task degrades to a :class:`PoisonedTask` marker the caller
turns into errored cells (or, for Table 2, an exception).  Only a worker
death or a hang discards the warm pool, terminating its workers; the
next dispatch forks a fresh one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from typing import Callable, Iterable, Sequence, TypeVar

from ..litmus import candidates as litmus_candidates
from ..obs import telemetry

__all__ = ["resilient_map", "default_jobs", "PoisonedTask", "shutdown"]

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


def _clear_task_memos() -> None:
    litmus_candidates.expand_program.cache_clear()
    litmus_candidates._expand_test.cache_clear()


def _task(fn, item):
    """One pooled task, run as a freshly forked worker would run it: the
    per-test expansion memos are cleared before and after it, so a task
    neither sees nor leaves another task's, and a warm worker holds one
    task's worth of them at most.  A pool the task dispatched to is
    joined before it returns: children of a worker would hold its pipes
    open after its death, and its parent would never see it die."""
    _clear_task_memos()
    try:
        return fn(item)
    finally:
        _clear_task_memos()
        shutdown()


#: The warm pool as ``(executor, workers, prefill switch at fork)``;
#: None before the first pooled dispatch and after a discard.
_WARM: "tuple[ProcessPoolExecutor, int, bool] | None" = None
_WARM_LOCK = threading.Lock()


def _forget_parent_pool() -> None:
    """A forked child does not own its parent's workers: a dispatch
    from inside a pooled task forks a pool of its own."""
    global _WARM, _WARM_LOCK
    _WARM = None
    _WARM_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_parent_pool)


def _warm_pool(workers: int, jobs: int) -> ProcessPoolExecutor:
    """The warm pool if it suits a round of ``workers`` tasks at most
    ``jobs`` wide, else a fresh pool of ``workers`` that replaces it.

    The prefill switch is part of the fit: forked workers read it from
    their copy of the parent, so a pool forked under the other setting
    would not see a :func:`~repro.litmus.candidates.set_batch_size`
    made since.
    """
    global _WARM
    prefill = litmus_candidates._prefill
    with _WARM_LOCK:
        warm, _WARM = _WARM, None
        if warm is not None:
            executor, size, forked_under = warm
            if workers <= size <= jobs and forked_under == prefill:
                _WARM = warm
                return executor
    if warm is not None:
        _discard(warm[0], wait=True)
    executor = ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init
    )
    with _WARM_LOCK:
        _WARM = (executor, workers, prefill)
    return executor


def _discard(pool: ProcessPoolExecutor, wait: bool) -> None:
    """Shut ``pool`` down; the next dispatch forks a fresh warm pool.

    Without ``wait`` the pool is being abandoned after a worker death or
    a stall, and its workers are terminated: a hung worker would
    otherwise run on, and the exit hook of :mod:`concurrent.futures`
    would join it (Python 3.14's ``terminate_workers()`` does the same).
    """
    global _WARM
    with _WARM_LOCK:
        if _WARM is not None and _WARM[0] is pool:
            _WARM = None
    # shutdown() forgets the process table, so it is read first.
    workers = [] if wait else list((pool._processes or {}).values())
    pool.shutdown(wait=wait, cancel_futures=True)
    for process in workers:
        try:
            process.terminate()
        except (ProcessLookupError, ValueError):  # exited, or closed
            pass


def shutdown() -> None:
    """Shut the warm pool down and join its workers (idempotent).

    The next pooled dispatch forks a fresh pool.  Call it only while no
    dispatch runs: the campaign service does so when its scheduler
    thread has ended, so ``repro serve`` exits with no worker left.
    """
    warm = _WARM
    if warm is not None:
        _discard(warm[0], wait=True)


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

    Tasks run on the process's warm pool (see the module docstring).
    After a worker death the survivors are re-run in *isolation* (one
    single-worker pool per round), so the culprit is charged precisely
    and innocent tasks complete unharmed.  A hung worker is not waited
    for: the pool is discarded and its workers terminated, and the next
    round or dispatch forks a fresh one, so no stuck process outlives
    the dispatch or holds up the exit of its caller.  Campaigns pass
    ``timeout`` and keep the default one retry; Table 2 passes
    ``retries=0``.

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
            pool = (
                ProcessPoolExecutor(max_workers=1, initializer=_worker_init)
                if isolate
                else _warm_pool(workers, jobs)
            )
        except (OSError, PermissionError):
            tail = _serial_resilient(
                fn, [items[i] for i in remaining], retries
            )
            for i, value in zip(remaining, tail):
                results[i] = value
            break
        try:
            futures = {pool.submit(_task, fn, items[i]): i for i in batch}
        except BrokenExecutor:
            # The warm pool lost a worker while idle.  Nothing ran, so
            # nothing is charged; the round reruns on a fresh pool.
            _discard(pool, wait=False)
            continue
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
        if isolate or broken or stalled:
            # A hung worker must not block the job: the pool is
            # discarded and its workers terminated.
            _discard(pool, wait=not (broken or stalled))
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
