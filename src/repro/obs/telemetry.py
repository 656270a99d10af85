"""The telemetry bundle: one switch for tracer + metrics registry.

:func:`enable` installs a fresh :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` behind their module-global
``ACTIVE`` guards and snapshots the process-wide IR evaluator counters
(:data:`repro.ir.eval.STATS`) as a baseline, so :func:`snapshot`
reports evaluator work *since enable* rather than since import.

Cross-process flow (the campaign engine's worker protocol):

1. the parent enables telemetry and dispatches shards whose units are
   tagged ``telemetry=True``;
2. pool workers start with :func:`reset_worker_state` (installed as the
   ProcessPool initializer), so a forked child never records into an
   inherited copy of the parent's tracer;
3. each tagged shard runs under :func:`collect`, which enables an
   ephemeral local bundle and returns its combined snapshot with the
   shard's results;
4. the parent folds every returned snapshot in with
   :func:`merge_snapshot` — stage self-times, counters, histograms and
   spans recorded inside workers all land in the parent's bundle.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import metrics as _metrics
from . import trace as _trace

__all__ = [
    "Telemetry",
    "enable",
    "disable",
    "active",
    "snapshot",
    "merge_snapshot",
    "collect",
    "reset_worker_state",
]


class Telemetry:
    """The live tracer + metrics pair (and the IR-counter baseline)."""

    def __init__(self, tracer: _trace.Tracer, registry) -> None:
        self.tracer = tracer
        self.metrics = registry
        self._ir_baseline = _ir_totals()

    def snapshot(self, spans: bool = True) -> dict:
        """Everything recorded since enable, as one mergeable dict."""
        snap = {
            "trace": self.tracer.snapshot(spans=spans),
            "metrics": self.metrics.snapshot(),
        }
        base = self._ir_baseline
        now = _ir_totals()
        counters = snap["trace"]["counters"]
        for name, value in now.items():
            delta = value - base.get(name, 0)
            if delta:
                counters[name] = counters.get(name, 0) + delta
        return snap

    def merge(self, snap: dict | None) -> None:
        if not snap:
            return
        self.tracer.merge(snap.get("trace"))
        self.metrics.merge(snap.get("metrics"))


_ACTIVE: Telemetry | None = None


def _ir_totals() -> dict[str, int]:
    """The process-wide IR evaluator counters (always-on, cheap)."""
    try:
        from ..ir.eval import STATS
    except Exception:  # pragma: no cover - partial installs
        return {}
    return {
        "ir_node_computes": STATS.computes,
        "ir_fix_iterations": STATS.fix_iterations,
        "ir_memo_hits": STATS.memo_hits,
        "ir_batch_computes": STATS.batch_computes,
        "ir_batch_candidates": STATS.batch_candidates,
        "ir_kernel_build_failures": STATS.kernel_build_failures,
        "ir_prefill_fallbacks": STATS.prefill_fallbacks,
    }


def enable(
    ring: int = _trace.DEFAULT_RING,
    sink: "str | Path | None" = None,
) -> Telemetry:
    """Install tracer + metrics and return the bundle.

    ``sink`` names a JSONL trace-sidecar path; spans stream to it as
    they complete (see :mod:`repro.obs.trace`).
    """
    global _ACTIVE
    tracer = _trace.enable(ring=ring, sink=sink)
    registry = _metrics.enable()
    _ACTIVE = Telemetry(tracer, registry)
    return _ACTIVE


def disable() -> Telemetry | None:
    """Uninstall both halves; returns the retired bundle for reading."""
    global _ACTIVE
    bundle, _ACTIVE = _ACTIVE, None
    _trace.disable()
    _metrics.disable()
    return bundle


def active() -> Telemetry | None:
    return _ACTIVE


def snapshot(spans: bool = True) -> dict | None:
    """The active bundle's snapshot, or ``None`` when telemetry is off."""
    return _ACTIVE.snapshot(spans=spans) if _ACTIVE is not None else None


def merge_snapshot(snap: dict | None) -> None:
    """Fold a worker snapshot into the active bundle (no-op when off)."""
    if _ACTIVE is not None and snap:
        _ACTIVE.merge(snap)


def reset_worker_state() -> None:
    """Drop telemetry state in a freshly started pool worker.

    Forked children inherit the parent's ``ACTIVE`` objects; recording
    into those copies would be silently lost.  Installed as the worker
    initializer by :func:`repro.engine.pool.resilient_map`, this resets
    the guards so tagged shards create their own collectors and ship
    snapshots home instead.
    """
    global _ACTIVE
    _ACTIVE = None
    _trace.ACTIVE = None
    _metrics.ACTIVE = None


class _Collection:
    """Result holder for :func:`collect` (snapshot filled on exit)."""

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: dict | None = None


@contextmanager
def collect(ring: int = 1024) -> Iterator[_Collection]:
    """Ephemeral telemetry around one pool task (a campaign shard).

    If telemetry is already active in this process (an in-process shard
    — the parent's own collectors see the work directly), this is a
    no-op and the holder's snapshot stays ``None``.
    """
    holder = _Collection()
    if _ACTIVE is not None or _trace.ACTIVE is not None:
        yield holder
        return
    enable(ring=ring)
    try:
        yield holder
    finally:
        bundle = disable()
        if bundle is not None:
            holder.snapshot = bundle.snapshot()
