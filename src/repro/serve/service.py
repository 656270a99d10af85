"""The campaign service: a job queue over the engine's worker pool.

:class:`CampaignService` owns one shared :class:`~repro.engine.cache.
ResultCache` and executes submitted jobs (suite × model matrices) one
at a time on a scheduler thread — model-checking is CPU-bound, so jobs
multiplex the *worker pool*, not each other, and the process-global
telemetry bundle stays unambiguous.  Within a job:

* ``cache.refresh()`` runs first, so verdicts appended by other
  processes (or previous jobs) since the last read are served as cached
  cells immediately — concurrent clients submitting overlapping suites
  dedupe fleet-wide through the shared store;
* the job runs exactly as :func:`~repro.engine.campaign.run_campaign`
  does, through the same two engine steps around the same dispatch:
  :func:`~repro.engine.campaign.probe_store` serves the stored cells,
  :func:`~repro.engine.batchsweep.plan_shards` cuts the pending units
  into batch-aware shards (one in-process shard at ``jobs=1``),
  :func:`~repro.engine.pool.resilient_map` runs them under the fixed
  policy (a budget of :data:`~repro.engine.batchsweep.CELL_TIMEOUT` per
  cell of the largest shard, one retry), and
  :func:`~repro.engine.campaign.settle_shards` records the results; a
  shard whose worker dies or hangs past its budget degrades to
  *poisoned* cells (``error`` set, verdict ``False``, never cached) —
  one bad checker can poison its shard's cells, never the job;
* cells stream into the job's append-only cell log shard by shard as
  they land (cached cells first), so clients poll with a cursor
  (``since``) and see cells while the job still runs;
* on completion the job writes a run manifest (keyed by the job id)
  with verdict/cache/stage/latency aggregates.

Finished jobs are kept for polling until the cells they hold together
pass :data:`FINISHED_JOB_CELLS`; then the oldest finished jobs are
dropped (queued and running jobs never are), so a long-running service
stays bounded.  A dropped job is unknown to every endpoint.

Work an earlier job already did is not redone.  Pooled jobs share the
process's warm worker pool (:mod:`repro.engine.pool`), which the
scheduler thread shuts down, joining its workers, when it ends.  A
files suite is parsed and fingerprinted once per content: the service
memoizes it by the ordered ``(path, SHA-256 of the bytes)`` of its
files, so an edited file is a new key (:class:`_SuiteMemo`).  diy and
catalog suites are built afresh for every job.

A job *fails* only when its suite or model list cannot be built; every
execution-time failure degrades to cells within a ``done`` job.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from collections import OrderedDict, deque

from ..engine import batchsweep
from ..engine import pool as engine_pool
from ..engine.cache import NullCache, ResultCache, fingerprint
from ..engine.campaign import (
    CampaignResult,
    CellResult,
    probe_store,
    settle_shards,
)
from ..engine.checkers import resolve_checker
from ..engine.pool import resilient_map
from ..obs import manifest as obs_manifest
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from .protocol import JobSpec, SpecError, suite_items

# Not called here: perfbench's layer wrappers look the name up on this
# module (``--trace 1`` fails without it), so it stays importable until
# they retire.
from ..engine.cache import cache_key  # noqa: F401

__all__ = ["Job", "CampaignService", "FINISHED_JOB_CELLS", "SUITE_MEMO_ITEMS"]

#: The most items the files-suite memo of one service holds.  The four
#: corpus directories perfbench's serve workload submits hold 218
#: tests, and a parsed test takes about 3 kB.
SUITE_MEMO_ITEMS = 2048

#: The most cells the finished jobs of one service hold together before
#: the oldest finished jobs are dropped; a retained cell takes about
#: 330 B, so this is about 66 MB.
FINISHED_JOB_CELLS = 200_000


def _run_shard(shard):
    """One pool task: the shard's units through the batched prefill
    (:func:`~repro.engine.batchsweep.run_shard`) plus the per-cell
    fallback.  Module-level so it pickles; returns ``(rows,
    telemetry-snapshot)``.
    """
    return batchsweep.run_shard(shard)


class _SuiteMemo:
    """Parsed files suites, least recently used first, keyed by content.

    A key is the ordered ``(path, SHA-256 of the file's bytes)`` pairs
    of a suite, so an edited file changes the key and a stale test is
    never served.  An entry is ``(items, fingerprints)``, each
    fingerprint None when the service does not cache.  The
    entries hold at most ``limit`` items in all: the least recently used
    suites are evicted first, and a suite larger than ``limit`` is not
    kept.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.items = 0
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def get(self, key: tuple) -> "tuple | None":
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: tuple) -> None:
        size = len(entry[0])
        if size > self.limit:
            return
        self._entries[key] = entry
        self.items += size
        while self.items > self.limit:
            _key, (evicted, _fps) = self._entries.popitem(last=False)
            self.items -= len(evicted)


class Job:
    """One submitted suite × model matrix and its streaming results.

    ``cells`` is append-only: each element is a JSON-ready dict with a
    monotonically increasing ``seq``, so ``cells[since:]`` is a stable
    poll cursor.  All mutation happens under the owning service's lock.
    """

    __slots__ = (
        "id",
        "spec",
        "label",
        "state",
        "created",
        "started",
        "finished",
        "error",
        "cells",
        "total_cells",
        "cached_cells",
        "computed_cells",
        "error_cells",
        "poisoned_cells",
        "diffs",
        "manifest_path",
    )

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.label = spec.label or spec.default_label()
        self.state = "queued"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        self.cells: list[dict] = []
        self.total_cells = 0
        self.cached_cells = 0
        self.computed_cells = 0
        self.error_cells = 0
        self.poisoned_cells = 0
        self.diffs = 0
        self.manifest_path: str | None = None

    @property
    def elapsed(self) -> float:
        if self.started is None:
            return 0.0
        end = self.finished if self.finished is not None else time.time()
        return end - self.started

    def summary(self) -> dict:
        """The JSON job record served by the API."""
        return {
            "id": self.id,
            "state": self.state,
            "label": self.label,
            "suite": self.spec.suite,
            "models": self.spec.models,
            "created": round(self.created, 6),
            "started": self.started,
            "finished": self.finished,
            "elapsed_seconds": round(self.elapsed, 6),
            "error": self.error,
            "cells": {
                "total": self.total_cells,
                "done": len(self.cells),
                "cached": self.cached_cells,
                "computed": self.computed_cells,
                "errors": self.error_cells,
                "poisoned": self.poisoned_cells,
            },
            "diffs": self.diffs,
            "manifest": self.manifest_path,
        }


class CampaignService:
    """The job scheduler behind ``repro serve`` (see the module
    docstring for the execution model).

    Every job runs under the fixed policy of
    :func:`~repro.engine.campaign.run_campaign`: ``4 × jobs`` shards
    (one when ``jobs == 1``), a budget of
    :data:`~repro.engine.batchsweep.CELL_TIMEOUT` per cell of the
    largest shard, and one retry before a shard's cells are poisoned.

    Args:
        jobs: worker processes per campaign (``1`` = one in-process
            shard in the scheduler thread, delivered when it finishes;
            ``0`` = one per CPU).
        cache: a ready :class:`ResultCache`/:class:`NullCache`; built
            from ``cache_dir`` when omitted.
        runs_dir: manifest directory (``.repro-cache/runs`` default).
        telemetry: record a per-job telemetry bundle (spans, metrics)
            when none is already active, feeding the job manifest.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        cache_dir=None,
        runs_dir=None,
        telemetry: bool = True,
    ) -> None:
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.runs_dir = runs_dir
        self.telemetry = telemetry
        #: Service-level instruments (private registry — job telemetry
        #: uses the process-global bundle), rendered by ``/v1/metrics``.
        self.metrics = obs_metrics.MetricsRegistry()
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        #: Every retained job, in submission order.
        self._jobs: dict[str, Job] = {}
        #: Finished job ids, oldest first, and the cells they hold.
        self._finished: deque[str] = deque()
        self._finished_cells = 0
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._suites = _SuiteMemo(SUITE_MEMO_ITEMS)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "CampaignService":
        """Start the scheduler thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop after the current job; queued jobs stay ``queued``.

        The scheduler thread shuts the warm worker pool down as it ends,
        so once ``stop()`` returns no worker is left.  ``stop(wait=False)``
        returns at once; the pool goes when the running job ends.
        """
        with self._lock:
            self._stopping = True
        self._queue.put(None)
        if wait and self._thread is not None:
            self._thread.join()
            self._thread = None
        self.cache.close()

    # -- API surface -----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; raises :class:`SpecError` on a bad model spec
        (suite construction errors surface as a ``failed`` job — they
        may touch the filesystem and must not block the caller)."""
        for model in spec.models:
            try:
                resolve_checker(model)
            except Exception as exc:
                raise SpecError(f"bad model spec {model!r}: {exc}") from exc
        if len(set(spec.models)) != len(spec.models):
            raise SpecError(f"duplicate model specs in {spec.models}")
        with self._lock:
            if self._stopping:
                raise SpecError("service is shutting down")
            self._seq += 1
            job = Job(f"j{self._seq:04d}", spec)
            self._jobs[job.id] = job
        self.metrics.counter("jobs_submitted").inc()
        self._queue.put(job.id)
        return job

    def job(self, job_id: str) -> "Job | None":
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [job.summary() for job in self._jobs.values()]

    def job_counts(self) -> dict:
        """``jobs`` retained, and how many of them are ``queued`` and
        ``running`` (the health check)."""
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        return {
            "jobs": len(states),
            "queued": states.count("queued"),
            "running": states.count("running"),
        }

    def cells_since(self, job_id: str, since: int) -> "dict | None":
        """The poll payload: cells past the cursor plus the job state."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            since = max(0, min(since, len(job.cells)))
            return {
                "job": job.id,
                "state": job.state,
                "total": job.total_cells,
                "next": len(job.cells),
                "cells": list(job.cells[since:]),
            }

    # -- scheduler -------------------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                job_id = self._queue.get()
                if job_id is None or self._stopping:
                    return  # stop(): jobs still queued stay queued
                job = self._jobs[job_id]
                try:
                    self._execute(job)
                    self.metrics.counter("jobs_completed").inc()
                except SpecError as exc:
                    self._fail(job, str(exc))
                except Exception as exc:  # defensive: a job bug, not a cell
                    self._fail(job, f"{type(exc).__name__}: {exc}")
        finally:
            engine_pool.shutdown()

    def _fail(self, job: Job, message: str) -> None:
        with self._lock:
            job.state = "failed"
            job.error = message
            job.finished = time.time()
            self._retire(job)
        self.metrics.counter("jobs_failed").inc()

    def _retire(self, job: Job) -> None:
        """Count ``job`` among the finished jobs, then drop the oldest
        other finished jobs while they all hold more than
        :data:`FINISHED_JOB_CELLS` cells.  The caller holds the lock."""
        self._finished.append(job.id)
        self._finished_cells += len(job.cells)
        while (
            self._finished_cells > FINISHED_JOB_CELLS
            and self._finished[0] != job.id
        ):
            dropped = self._jobs.pop(self._finished.popleft())
            self._finished_cells -= len(dropped.cells)

    def _deliver(
        self,
        job: Job,
        results: dict,
        rows,
        cached: bool,
        poisoned: bool = False,
    ) -> None:
        """Append ``(item, model, verdict, elapsed, error)`` rows to the
        job's cell log, and their :class:`CellResult` to ``results``,
        the job run's campaign-result view (not kept once the job is
        done)."""
        with self._lock:
            for name, model, verdict, elapsed, error in rows:
                results[(name, model)] = CellResult(
                    verdict, elapsed, cached, error
                )
                job.cells.append(
                    {
                        "item": name,
                        "model": model,
                        "verdict": verdict,
                        "elapsed": elapsed,
                        "cached": cached,
                        "error": error,
                        "seq": len(job.cells),
                    }
                )
                if error is not None:
                    job.error_cells += 1
            if cached:
                job.cached_cells += len(rows)
            else:
                job.computed_cells += len(rows)
            if poisoned:
                job.poisoned_cells += len(rows)

    # -- execution -------------------------------------------------------

    def _execute(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.started = time.time()

        bundle = None
        if self.telemetry and obs_telemetry.active() is None:
            bundle = obs_telemetry.enable()
        try:
            self._run_job(job)
        finally:
            if bundle is not None:
                obs_telemetry.disable()

    def _suite(self, suite: dict, caching: bool) -> tuple:
        """``(items, fingerprints)`` of a suite description, each
        fingerprint None unless ``caching``; a files suite comes from
        the memo when its files' bytes are unchanged."""
        if suite.get("kind") != "files":
            items = suite_items(suite)  # SpecError -> failed job
            return items, self._fingerprints(items, caching)
        paths = suite["paths"]
        try:
            contents = []
            for path in paths:
                with open(path, "rb") as handle:
                    contents.append(handle.read())
        except OSError as exc:
            raise SpecError(f"cannot build suite: {exc}") from exc
        key = tuple(
            (path, hashlib.sha256(data).hexdigest())
            for path, data in zip(paths, contents)
        )
        entry = self._suites.get(key)
        if entry is None:
            items = suite_items(suite, contents)
            entry = (items, self._fingerprints(items, caching))
            self._suites.put(key, entry)
        return entry

    @staticmethod
    def _fingerprints(items, caching: bool) -> list:
        if not caching:
            return [None] * len(items)
        return [fingerprint(item.payload) for item in items]

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        caching = not isinstance(self.cache, NullCache)
        items, fingerprints = self._suite(spec.suite, caching)
        checkers = [resolve_checker(model) for model in spec.models]
        names = [item.name for item in items]
        if len(set(names)) != len(names):
            raise SpecError("duplicate item names in suite")
        with self._lock:
            job.total_cells = len(items) * len(spec.models)

        # Fold in whatever other processes (or earlier jobs) appended
        # since we last read the store — this refresh is the fleet-wide
        # dedupe point.
        folded = self.cache.refresh()
        if folded:
            self.metrics.counter("cache_records_refreshed").inc(folded)

        results: dict[tuple[str, str], CellResult] = {}
        served, units, keys = probe_store(
            items, checkers, self.cache, fingerprints
        )
        self._deliver(job, results, served, cached=True)
        shards, budget = batchsweep.plan_shards(units, self.jobs)
        outcomes = resilient_map(
            _run_shard, shards, jobs=self.jobs, timeout=budget
        )
        for rows, poisoned in settle_shards(
            shards, outcomes, keys, self.cache
        ):
            if poisoned:
                self.metrics.counter("shards_poisoned").inc()
            self._deliver(job, results, rows, cached=False, poisoned=poisoned)

        self._finish(job, items, checkers, results)

    def _finish(self, job: Job, items, checkers, results) -> None:
        """Assemble the campaign-result view, write the job manifest,
        and flip the job to ``done``."""
        result = CampaignResult(
            item_names=[item.name for item in items],
            model_specs=[checker.spec for checker in checkers],
            cells=results,
            elapsed=job.elapsed,
            cache_hits=job.cached_cells,
            cache_misses=job.computed_cells,
            tokens={checker.spec: checker.token for checker in checkers},
        )
        diffs = len(result.diffs(items))
        manifest_path = None
        try:
            manifest = obs_manifest.from_campaign(
                result,
                kind="campaign",
                label=f"job:{job.id}:{job.label}",
                items=items,
                cache=self.cache,
                run_id=self._manifest_run_id(job),
                extra={"job": job.id, "poisoned": job.poisoned_cells},
            )
            manifest_path = str(
                obs_manifest.write_manifest(manifest, self.runs_dir)
            )
        except Exception:
            # The verdicts are the product; a manifest write failure
            # (read-only runs dir, full disk) must not fail the job.
            pass
        with self._lock:
            job.state = "done"
            job.finished = time.time()
            job.diffs = diffs
            job.manifest_path = manifest_path
            self._retire(job)
        self.metrics.counter("cells_cached_served").inc(job.cached_cells)
        self.metrics.counter("cells_computed").inc(job.computed_cells)
        self.metrics.counter("cells_poisoned").inc(job.poisoned_cells)
        self.metrics.histogram("job_seconds").observe(job.elapsed)

    def _manifest_run_id(self, job: Job) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(job.started))
        return f"{stamp}-{job.id}"
