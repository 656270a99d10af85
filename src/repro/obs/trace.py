"""Structured span tracing for the checking pipeline.

The tracer turns the fixed stage timers of ``repro campaign
--profile`` (``expansion``, ``axioms``, ``cache``) into hierarchical
*spans*:

* every span has a name, optional attributes (``item``, ``model``,
  ``token`` on the engine's per-cell spans), a wall-clock start, a total
  duration, and a *self* duration excluding enclosed spans — so the
  per-name aggregates still sum to the instrumented wall clock with no
  double counting, exactly like the old profiler;
* completed spans are kept in a bounded in-memory ring buffer and,
  when a sink path is given, appended to a schema-versioned JSONL
  *trace sidecar* (`{"schema": "repro.trace", "version": 1}` header
  line, one span object per line);
* the per-name aggregates, counters, and (optionally) the ring are
  serializable via :meth:`Tracer.snapshot` and re-combinable via
  :meth:`Tracer.merge` — this is how ProcessPool workers ship their
  observations back to the campaign parent.

Tracing is off by default and costs one module-attribute read per
instrumented site when off.  Hot paths guard with::

    if trace.ACTIVE is not None:
        with trace.stage("expansion"):
            ...work...
    else:
        ...work...
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "Tracer",
    "ACTIVE",
    "stage",
    "count",
    "enable",
    "disable",
]

#: Schema identifier/version stamped on trace sidecars and snapshots.
TRACE_SCHEMA = "repro.trace"
TRACE_VERSION = 1

#: Default ring-buffer capacity (completed spans kept in memory).
DEFAULT_RING = 4096

#: Cap on spans shipped inside one snapshot (worker → parent payloads
#: stay bounded however long the worker ran).
SNAPSHOT_SPANS = 2048


class Tracer:
    """Accumulates spans, per-name self-time aggregates, and counters.

    The aggregate surface (:attr:`seconds`, :attr:`calls`,
    :attr:`counters`, :meth:`report`) is the old ``Profiler`` API —
    ``repro campaign --profile`` renders from it unchanged.
    """

    def __init__(
        self,
        ring: int = DEFAULT_RING,
        sink: "str | Path | None" = None,
    ) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.spans: deque = deque(maxlen=ring)
        # [name, attrs, span_id, wall_start, perf_start, inner_seconds]
        self._stack: list[list] = []
        self._next_id = 1
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_handle = None

    # -- recording -------------------------------------------------------

    def push(self, name: str, attrs: dict | None = None) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(
            [name, attrs, span_id, time.time(), time.perf_counter(), 0.0]
        )

    def pop(self) -> None:
        name, attrs, span_id, wall, start, inner = self._stack.pop()
        total = time.perf_counter() - start
        self.seconds[name] = self.seconds.get(name, 0.0) + (total - inner)
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1][2] if self._stack else None
        if self._stack:
            self._stack[-1][5] += total
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "t0": round(wall, 6),
            "secs": round(total, 9),
            "self": round(total - inner, 9),
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        if self._sink_path is not None:
            self._write(record)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_span(
        self,
        name: str,
        seconds: float,
        attrs: dict | None = None,
        self_seconds: float | None = None,
    ) -> None:
        """Record an already-measured span without a push/pop pairing.

        Batched sweeps decide many cells inside one kernel call and
        apportion its wall clock across them afterwards; this records
        one such synthetic span into the ring, the sidecar, and the
        aggregates.  ``self_seconds`` defaults to ``seconds``; pass
        ``0.0`` when the span's time is already accounted for by real
        stage spans recorded during the same work (keeping the
        self-time partition of the instrumented wall clock exact).
        """
        span_id = self._next_id
        self._next_id += 1
        own = seconds if self_seconds is None else self_seconds
        self.seconds[name] = self.seconds.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        record = {
            "id": span_id,
            "parent": None,
            "name": name,
            "t0": round(time.time(), 6),
            "secs": round(seconds, 9),
            "self": round(own, 9),
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        if self._sink_path is not None:
            self._write(record)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Record one span around a block (attributes are free-form)."""
        self.push(name, attrs or None)
        try:
            yield
        finally:
            self.pop()

    # -- sidecar ---------------------------------------------------------

    def _write(self, record: dict) -> None:
        if self._sink_handle is None:
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink_handle = self._sink_path.open("a", encoding="utf-8")
            header = {"schema": TRACE_SCHEMA, "version": TRACE_VERSION}
            self._sink_handle.write(json.dumps(header) + "\n")
        self._sink_handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def close(self) -> None:
        """Flush and close the sidecar handle (reopened by the next span)."""
        if self._sink_handle is not None:
            self._sink_handle.close()
            self._sink_handle = None

    # -- serialization ---------------------------------------------------

    def snapshot(self, spans: bool = True) -> dict:
        """A JSON-serializable view of everything recorded so far.

        Snapshots are *merge-additive*: combining the snapshots of N
        worker tracers via :meth:`merge` yields the aggregates one
        tracer would have recorded for all the work.
        """
        snap = {
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
        if spans:
            snap["spans"] = list(self.spans)[-SNAPSHOT_SPANS:]
        return snap

    def merge(self, snap: dict | None) -> None:
        """Fold a worker snapshot into this tracer's aggregates."""
        if not snap:
            return
        if snap.get("schema") not in (None, TRACE_SCHEMA):
            raise ValueError(f"not a trace snapshot: {snap.get('schema')!r}")
        for name, secs in snap.get("seconds", {}).items():
            self.seconds[name] = self.seconds.get(name, 0.0) + secs
        for name, n in snap.get("calls", {}).items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, n in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + n
        for record in snap.get("spans", ()):
            self.spans.append(record)
            if self._sink_path is not None:
                self._write(record)

    # -- reporting -------------------------------------------------------

    def report(self) -> str:
        """A per-stage breakdown table (self time, calls, share) —
        byte-compatible with the old profiler's ``--profile`` output."""
        total = sum(self.seconds.values())
        lines = ["stage        seconds     calls   share", "-" * 39]
        order = ("expansion", "axioms", "cache")
        names = [n for n in order if n in self.seconds] + sorted(
            set(self.seconds) - set(order)
        )
        for name in names:
            secs = self.seconds[name]
            share = 100 * secs / total if total else 0.0
            lines.append(
                f"{name:<10} {secs:>9.4f} {self.calls[name]:>9} {share:>6.1f}%"
            )
        lines.append(f"{'total':<10} {total:>9.4f}")
        for name in sorted(self.counters):
            lines.append(f"{name}: {self.counters[name]}")
        return "\n".join(lines)


#: The active tracer, or ``None`` when tracing is off.  This is the
#: one-attribute-read guard every instrumented hot path checks.
ACTIVE: Tracer | None = None


def enable(
    ring: int = DEFAULT_RING, sink: "str | Path | None" = None
) -> Tracer:
    """Install and return a fresh tracer (prefer ``obs.enable`` which
    also installs the metrics registry)."""
    global ACTIVE
    ACTIVE = Tracer(ring=ring, sink=sink)
    return ACTIVE


def disable() -> "Tracer | None":
    """Uninstall the active tracer (closing its sidecar) and return it."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    if tracer is not None:
        tracer.close()
    return tracer


@contextmanager
def stage(name: str, **attrs) -> Iterator[None]:
    """Time one pipeline span (no-op when tracing is off)."""
    tracer = ACTIVE
    if tracer is None:
        yield
        return
    tracer.push(name, attrs or None)
    try:
        yield
    finally:
        tracer.pop()


def count(name: str, n: int = 1) -> None:
    """Bump a named counter (no-op when tracing is off)."""
    tracer = ACTIVE
    if tracer is not None:
        tracer.count(name, n)
