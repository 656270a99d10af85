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
* pending cells run exactly as in :func:`~repro.engine.campaign.
  run_campaign`: :func:`~repro.engine.batchsweep.plan_shards` cuts the
  units into batch-aware shards (one in-process shard at ``jobs=1``)
  and :func:`~repro.engine.pool.resilient_map` runs them with a
  per-shard timeout budget of ``cell_timeout ×`` the largest shard's
  cell count and bounded retries; a shard whose worker dies or hangs
  past its budget degrades to *poisoned* cells (``error`` set, verdict
  ``False``, never cached) — one bad checker can poison its shard's
  cells, never the job;
* cells stream into the job's append-only cell log shard by shard as
  they land (cached cells first), so clients poll with a cursor
  (``since``) and see cells while the job still runs;
* on completion the job writes a run manifest (keyed by the job id)
  with verdict/cache/stage/latency aggregates.

A job *fails* only when its suite or model list cannot be built; every
execution-time failure degrades to cells within a ``done`` job.
"""

from __future__ import annotations

import queue
import threading
import time

from ..engine import batchsweep
from ..engine.cache import (
    NullCache,
    ResultCache,
    cache_key,
    cell_record,
    fingerprint,
)
from ..engine.campaign import CampaignResult, CellResult
from ..engine.checkers import resolve_checker
from ..engine.pool import PoisonedTask, resilient_map
from ..obs import manifest as obs_manifest
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from ..obs import trace
from .protocol import JobSpec, SpecError, suite_items

__all__ = ["Job", "CampaignService"]


def _run_shard(shard):
    """One pool task: the shard's units through the batched prefill
    (:func:`~repro.engine.batchsweep.run_shard`) plus the per-cell
    fallback.  Module-level so it pickles; returns ``(rows,
    telemetry-snapshot)``.
    """
    return batchsweep.run_shard(shard)


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

    Args:
        jobs: worker processes per campaign (``1`` = one in-process
            shard in the scheduler thread, delivered when it finishes;
            ``0`` = one per CPU).
        cell_timeout: default per-cell seconds a submit may override;
            a shard's budget is ``cell_timeout ×`` the largest shard's
            cell count.
        retries: default re-runs for a shard whose worker died or hung.
        shards: pool tasks per job when ``jobs != 1`` (default
            ``4 × jobs``, capped by the unit count).
        cache: a ready :class:`ResultCache`/:class:`NullCache`; built
            from ``cache_dir`` when omitted.
        runs_dir: manifest directory (``.repro-cache/runs`` default).
        telemetry: record a per-job telemetry bundle (spans, metrics)
            when none is already active, feeding the job manifest.
    """

    def __init__(
        self,
        jobs: int = 1,
        cell_timeout: float = batchsweep.CELL_TIMEOUT,
        retries: int = 1,
        shards: int | None = None,
        cache=None,
        cache_dir=None,
        runs_dir=None,
        telemetry: bool = True,
    ) -> None:
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.shards = shards
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.runs_dir = runs_dir
        self.telemetry = telemetry
        #: Service-level instruments (private registry — job telemetry
        #: uses the process-global bundle), rendered by ``/v1/metrics``.
        self.metrics = obs_metrics.MetricsRegistry()
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._stopping = False

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
        """Stop after the current job; queued jobs stay ``queued``."""
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
            self._order.append(job.id)
        self.metrics.counter("jobs_submitted").inc()
        self._queue.put(job.id)
        return job

    def job(self, job_id: str) -> "Job | None":
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [self._jobs[jid].summary() for jid in self._order]

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
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            try:
                self._execute(job)
                self.metrics.counter("jobs_completed").inc()
            except SpecError as exc:
                self._fail(job, str(exc))
            except Exception as exc:  # defensive: a job bug, not a cell
                self._fail(job, f"{type(exc).__name__}: {exc}")

    def _fail(self, job: Job, message: str) -> None:
        with self._lock:
            job.state = "failed"
            job.error = message
            job.finished = time.time()
        self.metrics.counter("jobs_failed").inc()

    def _deliver(self, job: Job, cell: dict) -> None:
        with self._lock:
            cell["seq"] = len(job.cells)
            job.cells.append(cell)
            if cell["cached"]:
                job.cached_cells += 1
            else:
                job.computed_cells += 1
            if cell["error"] is not None:
                job.error_cells += 1
                if cell.pop("poisoned", False):
                    job.poisoned_cells += 1
            else:
                cell.pop("poisoned", None)

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

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        items = suite_items(spec.suite)  # SpecError -> failed job
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

        caching = not isinstance(self.cache, NullCache)
        tokens = {checker.spec: checker.token for checker in checkers}
        keys: dict[tuple[str, str], str] = {}
        telemetry_on = trace.ACTIVE is not None
        units = []
        for item in items:
            item_fp = fingerprint(item.payload) if caching else None
            pending = []
            for checker in checkers:
                model = checker.spec
                record = None
                if caching:
                    key = cache_key(item_fp, model, tokens[model])
                    keys[(item.name, model)] = key
                    record = self.cache.get(key)
                if record is not None:
                    self._deliver(
                        job,
                        {
                            "item": item.name,
                            "model": model,
                            "verdict": bool(record["verdict"]),
                            "elapsed": float(record.get("elapsed", 0.0)),
                            "cached": True,
                            "error": None,
                        },
                    )
                else:
                    pending.append(checker)
            if pending:
                units.append(
                    (item.name, item.payload, tuple(pending), telemetry_on)
                )

        shards, budget = batchsweep.plan_shards(
            units,
            self.jobs,
            spec.shards or self.shards,
            spec.cell_timeout,
        )
        outcomes = resilient_map(
            _run_shard,
            shards,
            jobs=self.jobs,
            timeout=budget,
            retries=spec.retries,
        )
        for shard, outcome in zip(shards, outcomes):
            poisoned = isinstance(outcome, PoisonedTask)
            if poisoned:
                self.metrics.counter("shards_poisoned").inc()
                rows = batchsweep.poisoned_rows(shard, outcome.error)
                outcome = (rows, None)
            rows, snap = outcome
            obs_telemetry.merge_snapshot(snap)
            self._deliver_rows(job, rows, keys, caching, poisoned)

        self._finish(job, items, spec.models, tokens)

    def _deliver_rows(self, job: Job, rows, keys, caching, poisoned) -> None:
        for name, model, verdict, elapsed, error in rows:
            self._deliver(
                job,
                {
                    "item": name,
                    "model": model,
                    "verdict": verdict,
                    "elapsed": elapsed,
                    "cached": False,
                    "error": error,
                    "poisoned": poisoned,
                },
            )
            if caching and error is None:  # never cache a crash
                self.cache.put(
                    keys[(name, model)],
                    cell_record(verdict, elapsed, name, model),
                )

    def _finish(self, job: Job, items, models, tokens) -> None:
        """Assemble the campaign-result view, write the job manifest,
        and flip the job to ``done``."""
        cells = {
            (cell["item"], cell["model"]): CellResult(
                cell["verdict"],
                cell["elapsed"],
                cached=cell["cached"],
                error=cell["error"],
            )
            for cell in job.cells
        }
        result = CampaignResult(
            item_names=[item.name for item in items],
            model_specs=list(models),
            cells=cells,
            elapsed=job.elapsed,
            cache_hits=job.cached_cells,
            cache_misses=job.computed_cells,
            tokens=tokens,
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
        self.metrics.counter("cells_cached_served").inc(job.cached_cells)
        self.metrics.counter("cells_computed").inc(job.computed_cells)
        self.metrics.counter("cells_poisoned").inc(job.poisoned_cells)
        self.metrics.histogram("job_seconds").observe(job.elapsed)

    def _manifest_run_id(self, job: Job) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(job.started))
        return f"{stamp}-{job.id}"
