"""Persistent, content-addressed result cache for campaign runs.

Every (test, model) cell of a campaign is keyed by a SHA-256 fingerprint
of the *content* of the test (its program and postcondition, or the
execution graph itself) combined with the model specification.  Renaming
a test does not invalidate its entry; changing a single instruction
does.

The store is an append-only JSONL file under ``.repro-cache/`` (override
with the ``REPRO_CACHE_DIR`` environment variable), one record per line::

    {"key": "<sha256>", "verdict": true, "elapsed": 0.0021,
     "item": "diy-PodWR Fre PodWR Fre", "model": "x86"}

Append-only keeps writes crash-safe and makes the cache trivially
mergeable across machines (``cat`` two caches together); on load the
last record for a key wins.

The file is also a *shared* store: every record is appended through an
``O_APPEND`` descriptor as one ``write()`` of one complete line, so any
number of processes can append to the same file without interleaving
each other's records, and :meth:`ResultCache.refresh` incrementally
re-reads the tail other writers appended since the last load — the
campaign service's concurrent clients and warm workers dedupe work
fleet-wide through one file.  A torn final line (a crashed or mid-write
appender) is tolerated and re-read once complete; any *interior*
undecodable line is real corruption, counted in
:attr:`ResultCache.corrupt_lines` and warned about, never silently
dropped.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

from ..core.execution import Execution
from ..core.relation import Relation
from ..litmus.test import LitmusTest

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "NullCache",
    "default_cache_dir",
    "fingerprint",
    "cache_key",
    "cell_record",
]

#: Bumped whenever the fingerprint scheme or record layout changes.
CACHE_VERSION = 2

#: Default directory for the on-disk store, relative to the CWD.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# ----------------------------------------------------------------------
# Canonical fingerprinting
# ----------------------------------------------------------------------


def _canon(obj: Any) -> Any:
    """A JSON-serialisable canonical form with deterministic ordering.

    ``repr`` of a frozenset is hash-order dependent (and string hashing
    is randomised per process), so sets and dicts are sorted by their
    canonical JSON encoding — the fingerprint of an object is identical
    across processes and runs.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, Execution):
        return ["Execution", _canon(obj.signature())]
    if isinstance(obj, LitmusTest):
        # The name is presentation, not content: renaming a test must
        # not invalidate its cache entries.
        return [
            "LitmusTest",
            obj.arch,
            obj.quantifier,
            _canon(obj.program),
            _canon(obj.postcondition),
            _canon(obj.init),
        ]
    if isinstance(obj, Relation):
        return ["Relation", obj.n, sorted(obj.pairs())]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [[f.name, _canon(getattr(obj, f.name))] for f in fields(obj)],
        ]
    if isinstance(obj, (frozenset, set)):
        return ["set", sorted((_canon(v) for v in obj), key=_dumps)]
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([_canon(k), _canon(v)] for k, v in obj.items()), key=_dumps
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _dumps(canon: Any) -> str:
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """Content hash of a test payload (LitmusTest, Execution, ...)."""
    return hashlib.sha256(_dumps(_canon(obj)).encode()).hexdigest()


def cache_key(
    item_fingerprint: str, model_spec: str, definition: str = ""
) -> str:
    """The cache key of one (test, model) cell.

    ``definition`` is a hash of the model's definition (see
    :func:`repro.engine.checkers.definition_hash`): editing a model's
    axioms or its ``.cat`` source invalidates its cached verdicts.
    """
    text = f"v{CACHE_VERSION}:{item_fingerprint}:{model_spec}:{definition}"
    return hashlib.sha256(text.encode()).hexdigest()


def cell_record(verdict: bool, elapsed: float, item: str, model: str) -> dict:
    """The stored record of one computed cell (the key is added by
    :meth:`ResultCache.put`)."""
    return {
        "verdict": verdict,
        "elapsed": round(elapsed, 6),
        "item": item,
        "model": model,
    }


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------


class ResultCache:
    """The on-disk JSONL store, with hit/miss accounting.

    Safe to share between processes: appends go through an ``O_APPEND``
    descriptor as single complete-line ``write()`` calls (the kernel
    serializes the offset, so concurrent appenders never interleave
    inside a record), and :meth:`refresh` folds in records other
    processes appended since this instance last read the file.

    Args:
        path: the JSONL file (or a directory, in which case
            ``results.jsonl`` inside it).  Defaults to
            ``default_cache_dir()/results.jsonl``.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        path = Path(path) if path is not None else default_cache_dir()
        if path.suffix != ".jsonl":
            path = path / "results.jsonl"
        self.path = path
        self._records: dict[str, dict] = {}
        self._append_fd: int | None = None
        #: Byte offset of consumed *complete* lines; a torn final line
        #: stays past it and is re-read once its writer finishes it.
        self._offset = 0
        self.hits = 0
        self.misses = 0
        #: Interior undecodable lines seen so far (real corruption, as
        #: opposed to a tolerated torn tail).
        self.corrupt_lines = 0
        self.refresh()

    def refresh(self) -> int:
        """Fold in records appended to the file since the last read.

        Incremental: only the tail past the last consumed byte offset
        is read, so concurrent clients can refresh cheaply before each
        lookup burst.  Last record wins, exactly as a full reload would
        resolve duplicates.  A final line without a trailing newline is
        a torn in-flight append: it is left unconsumed (and re-read by
        the next refresh once complete).  Interior lines that fail to
        decode are counted in :attr:`corrupt_lines` and reported with a
        warning — mid-file corruption must surface, not vanish.

        Returns the number of records folded in.
        """
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        if size < self._offset:
            # Truncated or replaced underneath us: start over.
            self._records.clear()
            self._offset = 0
            self.corrupt_lines = 0
        if size == self._offset:
            return 0
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        lines = chunk.split(b"\n")
        torn = lines.pop()  # b"" after a complete final line
        self._offset += len(chunk) - len(torn)
        folded = 0
        corrupt = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record.get("key")
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                corrupt += 1
                continue
            if key:
                self._records[key] = record
                folded += 1
            else:
                corrupt += 1
        if corrupt:
            self.corrupt_lines += corrupt
            warnings.warn(
                f"{self.path}: {corrupt} corrupt cache line(s) skipped "
                f"({self.corrupt_lines} total); the affected verdicts "
                "will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
        return folded

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> dict | None:
        """The cached record for ``key`` (counts a hit or a miss)."""
        record = self._records.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` and append it to the file.

        The record reaches the file as **one** ``write()`` of one
        complete line on an ``O_APPEND`` descriptor: the kernel
        serializes the append offset, so records from concurrent
        writers never tear each other — at worst a reader sees a
        not-yet-complete final line, which :meth:`refresh` tolerates.
        The descriptor stays open across puts (the hot paths write one
        record per computed cell).
        """
        record = {"key": key, **record}
        self._records[key] = record
        if self._append_fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append_fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        os.write(self._append_fd, line)

    def close(self) -> None:
        """Close the append descriptor (reopened lazily by the next
        put).

        Owners use the cache as a context manager (``with
        ResultCache(...) as cache:``) rather than relying on GC timing
        — the class deliberately has no ``__del__``.
        """
        if self._append_fd is not None:
            os.close(self._append_fd)
            self._append_fd = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict:
        """Structured accounting for metrics snapshots and manifests."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "bytes": size,
            "corrupt_lines": self.corrupt_lines,
        }

    def stats(self) -> str:
        text = (
            f"{len(self)} entries, {self.hits} hits / {self.misses} misses "
            f"({100 * self.hit_rate:.0f}% hit rate)"
        )
        if self.corrupt_lines:
            text += f", {self.corrupt_lines} corrupt lines skipped"
        return text


class NullCache:
    """A cache that remembers nothing (the ``--no-cache`` path)."""

    path = None
    hits = 0
    misses = 0
    hit_rate = 0.0
    corrupt_lines = 0

    def __len__(self) -> int:
        return 0

    def refresh(self) -> int:
        return 0

    def __enter__(self) -> "NullCache":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def close(self) -> None:
        pass

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, record: dict) -> None:
        pass

    def stats_dict(self) -> dict:
        return {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "bytes": 0,
            "corrupt_lines": 0,
        }

    def stats(self) -> str:
        return "caching disabled"
