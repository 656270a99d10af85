"""Span recording around each layer's public functions.

The traced run wraps the entry points of every layer it attributes time
to (:func:`install`).  Each wrapped call records one span: its id, the
id of the span that was open when it started (its parent, in the same
thread), its name, the tag of the pass or job it belongs to, start and
end times, its self time (duration minus the time of its child spans)
and a count (candidates yielded, batch size, cells covered).  Spans stay
in memory and are written out by :meth:`Recorder.dump` when the run
ends.

Candidate streams are lazy: a stream is returned at once and does its
work while the consumer iterates it.  Their wrappers therefore record
one span per ``next()`` on the stream, never around its construction.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

__all__ = ["Recorder", "install", "uninstall"]


class Recorder:
    """Per-thread span stacks and buffers for one process."""

    def __init__(self) -> None:
        self.tag = ""
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked pool worker starts with empty buffers; its spans are
        # written to its own file (see ``flush_to``).
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[list] = []
        self._ids = itertools.count(1)

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._buffers.append(state[1])
        return state

    def open(self, name: str) -> list:
        stack, _ = self._state()
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def close(self, frame: list, count: int = 1) -> None:
        end = time.perf_counter()
        stack, buffer = self._state()
        stack.pop()
        duration = end - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        buffer.append(
            (
                frame[0],
                parent[0] if parent is not None else 0,
                frame[1],
                self.tag,
                frame[2],
                end,
                duration - frame[3],
                count,
            )
        )

    def span(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside one span named ``name``."""
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def spans(self) -> list[tuple]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def clear(self) -> None:
        with self._lock:
            for buffer in self._buffers:
                buffer.clear()

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON list per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")

    def flush_to(self, path: str) -> None:
        """Append the recorded spans to ``path`` and forget them (pool
        workers, which never run interpreter exit hooks)."""
        self.dump(path)
        self.clear()


#: The active recorder; wrappers pass straight through while it is None.
ACTIVE: "Recorder | None" = None

_PATCHES: list[tuple[object, str, object]] = []


def _timed(name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = ACTIVE
        if recorder is None:
            return fn(*args, **kwargs)
        frame = recorder.open(name)
        n = 1
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(args, out)
            return out
        finally:
            recorder.close(frame, n)

    return wrapper


class _TimedStream:
    """A lazy stream whose every ``next()`` is one span (count 1 per
    item yielded, 0 for the final exhausting call)."""

    __slots__ = ("_inner", "_name")

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self._name = name

    def __iter__(self):
        recorder = ACTIVE
        iterator = iter(self._inner)
        if recorder is None:
            yield from iterator
            return
        name = self._name
        while True:
            frame = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                recorder.close(frame, 0)
                return
            except BaseException:
                recorder.close(frame, 0)
                raise
            recorder.close(frame, 1)
            yield item


def _stream(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedStream(fn(*args, **kwargs), name)

    return wrapper


#: Keys already seen by each first-use wrapper, kept across re-installs.
_SEEN: dict[str, set] = {}


def _first_use(name: str, fn, key):
    """Record only the first call per ``key(args)``: the call that
    builds (compiles) the cached object; later calls are lookups."""
    seen = _SEEN.setdefault(fn.__qualname__, set())

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = ACTIVE
        k = key(args)
        if recorder is None or k in seen:
            seen.add(k)
            return fn(*args, **kwargs)
        seen.add(k)
        frame = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(frame)

    return wrapper


def _job_root(fn):
    """The service's per-job entry: one root span, tagged by job id."""

    @functools.wraps(fn)
    def wrapper(self, job):
        recorder = ACTIVE
        if recorder is None:
            return fn(self, job)
        recorder.tag = job.id
        frame = recorder.open("serve.job")
        try:
            return fn(self, job)
        finally:
            recorder.close(frame)

    return wrapper


def _worker_task(fn, directory: str):
    """One pool task; a forked worker writes its spans when it ends."""
    home = os.getpid()

    @functools.wraps(fn)
    def wrapper(shard):
        recorder = ACTIVE
        if recorder is None:
            return fn(shard)
        frame = recorder.open("engine.shard")
        try:
            return fn(shard)
        finally:
            recorder.close(frame)
            pid = os.getpid()
            if pid != home:
                recorder.flush_to(
                    os.path.join(directory, f"worker-{pid}.jsonl")
                )

    return wrapper


def _patch(owner, attr: str, make, *, classmethod_=False) -> None:
    if classmethod_:
        original = owner.__dict__[attr]
        wrapped = classmethod(make(original.__func__))
    else:
        original = getattr(owner, attr)
        wrapped = make(original)
    _PATCHES.append((owner, attr, original))
    setattr(owner, attr, wrapped)


def install(
    recorder: Recorder, *, serve: bool = False, worker_dir: str = ""
) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    ``serve`` adds the service's boundaries: the per-job root, suite
    parsing, the result store, the worker pool (forked workers append
    their spans under ``worker_dir``) and the manifest writer.
    """
    global ACTIVE
    ACTIVE = recorder
    if _PATCHES:
        return
    from repro.engine import batchsweep
    from repro.ir import codegen, plan
    from repro.ir.batch import BatchContext
    from repro.ir.model import IRModel
    from repro.litmus import candidates, from_execution
    from repro.synth import diy, synthesis

    # litmus: candidate streams, timed while iterated.
    _patch(candidates, "expand_test", lambda f: _stream("litmus.enumerate", f))
    _patch(
        candidates, "expand_program", lambda f: _stream("litmus.enumerate", f)
    )
    _patch(batchsweep, "expand_test", lambda f: _stream("litmus.enumerate", f))
    # synth: cycle generation, realisation, execution enumeration.
    _patch(diy, "enumerate_cycles", lambda f: _stream("synth.cycles", f))
    _patch(diy, "cycle_execution", lambda f: _timed("synth.realise", f))
    _patch(from_execution, "to_litmus", lambda f: _timed("synth.realise", f))
    _patch(
        synthesis,
        "enumerate_executions",
        lambda f: _stream("synth.generate", f),
    )
    # ir: scalar reference, batched kernels, contexts, first-use compiles.
    _patch(IRModel, "consistent", lambda f: _timed("ir.scalar", f))
    _patch(
        plan,
        "consistent_on",
        lambda f: _timed("ir.kernel", f, count=lambda a, out: a[2].batch),
    )
    _patch(
        BatchContext,
        "of",
        lambda f: _timed("ir.context", f),
        classmethod_=True,
    )
    _patch(
        plan,
        "plan_for",
        lambda f: _first_use("ir.compile", f, key=lambda a: (a[0], a[2])),
    )
    _patch(
        codegen,
        "compiled_for",
        lambda f: _first_use("ir.compile", f, key=lambda a: (a[0], a[2])),
    )
    # engine: the cross-item prefill, counting the cells it decides.
    _patch(
        batchsweep,
        "prefill_units",
        lambda f: _timed(
            "engine.prefill", f, count=lambda a, out: len(out[0])
        ),
    )
    if not serve:
        return
    from repro.engine.cache import ResultCache
    from repro.obs import manifest
    from repro.serve import service

    _patch(service.CampaignService, "_execute", _job_root)
    _patch(service, "suite_items", lambda f: _timed("litmus.parse", f))
    _patch(service, "fingerprint", lambda f: _timed("engine.cache_lookup", f))
    _patch(service, "cache_key", lambda f: _timed("engine.cache_lookup", f))
    _patch(ResultCache, "get", lambda f: _timed("engine.cache_lookup", f))
    _patch(
        ResultCache, "refresh", lambda f: _timed("engine.cache_refresh", f)
    )
    _patch(ResultCache, "put", lambda f: _timed("engine.cache_append", f))
    _patch(service, "resilient_map", lambda f: _timed("engine.pool", f))
    _patch(service, "_run_shard", lambda f: _worker_task(f, worker_dir))
    _patch(manifest, "from_campaign", lambda f: _timed("obs.manifest", f))
    _patch(manifest, "write_manifest", lambda f: _timed("obs.manifest", f))


def uninstall() -> None:
    """Restore every wrapped function: untraced passes of a traced run
    execute the program exactly as an untraced run does."""
    global ACTIVE
    ACTIVE = None
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)
