"""Schema-versioned run manifests under ``.repro-cache/runs/``.

A *run manifest* is the persistent record of one checking invocation —
a campaign, a fuzz run, or a benchmark — written as a single JSON file
so historical runs can be listed, inspected, and *diffed* without
rerunning anything (``repro stats``).  The paper's own Tables 1–3 are
aggregate verdict/timing matrices; manifests are the raw material for
regenerating that kind of artefact from recorded telemetry.

Layout (``MANIFEST_VERSION`` 1)::

    {
      "schema": "repro.run-manifest", "version": 1,
      "run_id": "20260808T120301-1a2b3c4d",
      "kind": "campaign" | "fuzz" | "bench",
      "label": "corpus", "created": 1765193000.1, "argv": [...],
      "git": "539eb6f", "seed": null,
      "suite": {"items": 218, "digest": "sha256..."},
      "models": {"x86": "<definition token>", ...},
      "verdicts": {"cells": 1744, "digest": "sha256...",
                   "errors": 0, "diffs": 0},
      "cache": {"hits": 0, "misses": 1744, "hit_rate": 0.0,
                "entries": 1744, "bytes": 123456},
      "elapsed_seconds": 12.3,
      "rates": {"cells_per_second": 141.8, ...},
      "stages": {"expansion": {"seconds": 4.2, "calls": 9001}, ...},
      "counters": {"candidates": 12345, ...},
      "model_latency": {"x86": {"count": 218, "mean": ...,
                                "p50": ..., "p95": ..., "p99": ...}}
    }

Loading rejects manifests whose ``schema``/``version`` do not match —
the reader's diff semantics are only defined within one schema
generation.  Files are named ``<run_id>.json`` inside the runs
directory (``$REPRO_CACHE_DIR/runs`` or ``.repro-cache/runs``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "RunManifest",
    "default_runs_dir",
    "write_manifest",
    "load_manifest",
    "list_manifests",
    "resolve_run",
    "from_campaign",
    "from_fuzz",
    "from_rates",
]

MANIFEST_SCHEMA = "repro.run-manifest"
MANIFEST_VERSION = 1


class ManifestError(Exception):
    """Unreadable, unresolvable, or wrong-generation manifest."""


def default_runs_dir() -> Path:
    """``$REPRO_CACHE_DIR/runs`` or ``./.repro-cache/runs`` (mirrors
    :func:`repro.engine.cache.default_cache_dir` without importing the
    engine — obs sits below it)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache")) / "runs"


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the CWD, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


@dataclass
class RunManifest:
    """One run's persistent record (see the module docstring)."""

    kind: str
    label: str
    created: float
    run_id: str = ""
    argv: list[str] = field(default_factory=list)
    git: str | None = None
    seed: int | None = None
    suite: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    rates: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    model_latency: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run_id:
            stamp = time.strftime(
                "%Y%m%dT%H%M%S", time.gmtime(self.created)
            )
            seed = hashlib.sha256(
                json.dumps(
                    [self.kind, self.label, self.created, self.argv],
                    sort_keys=True,
                ).encode()
            ).hexdigest()[:8]
            self.run_id = f"{stamp}-{seed}"

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "created": self.created,
            "argv": self.argv,
            "git": self.git,
            "seed": self.seed,
            "suite": self.suite,
            "models": self.models,
            "verdicts": self.verdicts,
            "cache": self.cache,
            "elapsed_seconds": self.elapsed_seconds,
            "rates": self.rates,
            "stages": self.stages,
            "counters": self.counters,
            "model_latency": self.model_latency,
        }

    @classmethod
    def from_dict(cls, data: dict, source: str = "<dict>") -> "RunManifest":
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                f"{source}: not a run manifest "
                f"(schema={data.get('schema')!r})"
            )
        if data.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"{source}: manifest version {data.get('version')!r} "
                f"!= supported {MANIFEST_VERSION}"
            )
        fields = {
            key: data[key]
            for key in (
                "run_id",
                "kind",
                "label",
                "created",
                "argv",
                "git",
                "seed",
                "suite",
                "models",
                "verdicts",
                "cache",
                "elapsed_seconds",
                "rates",
                "stages",
                "counters",
                "model_latency",
            )
            if key in data
        }
        return cls(**fields)

    # -- rendering -------------------------------------------------------

    def describe(self) -> str:
        """One listing row: id, kind/label, age-free timestamp, scale."""
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.gmtime(self.created)
        )
        cells = self.verdicts.get("cells", "-")
        hit = self.cache.get("hit_rate")
        hit_text = f"{100 * hit:3.0f}%" if hit is not None else "   -"
        return (
            f"{self.run_id:<26} {self.kind:<9} {self.label:<14} {when}  "
            f"cells={cells!s:<7} hits={hit_text} "
            f"elapsed={self.elapsed_seconds:.2f}s"
        )

    def format(self) -> str:
        """The full single-run breakdown ``repro stats show`` prints."""
        lines = [
            f"run {self.run_id} ({self.kind}:{self.label})",
            f"  created: "
            + time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(self.created)),
        ]
        if self.git:
            lines.append(f"  git: {self.git}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        if self.argv:
            lines.append(f"  argv: {' '.join(self.argv)}")
        if self.suite:
            if "items" in self.suite:
                lines.append(
                    f"  suite: {self.suite['items']} items "
                    f"(digest {str(self.suite.get('digest', ''))[:12]})"
                )
            else:  # bench manifests carry free-form scale context
                parts = ", ".join(
                    f"{k}={v}" for k, v in sorted(self.suite.items())
                )
                lines.append(f"  suite: {parts}")
        if self.models:
            lines.append(f"  models: {', '.join(sorted(self.models))}")
        if self.verdicts:
            lines.append(
                f"  verdicts: {self.verdicts.get('cells', '?')} cells, "
                f"{self.verdicts.get('errors', 0)} errors, "
                f"{self.verdicts.get('diffs', 0)} diffs "
                f"(digest {str(self.verdicts.get('digest', ''))[:12]})"
            )
        if self.cache:
            hit = self.cache.get("hit_rate", 0.0)
            lines.append(
                f"  cache: {self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses "
                f"({100 * hit:.0f}%), {self.cache.get('entries', 0)} "
                f"entries, {self.cache.get('bytes', 0)} bytes"
            )
        lines.append(f"  elapsed: {self.elapsed_seconds:.4f}s")
        for name, value in sorted(self.rates.items()):
            lines.append(f"  rate {name}: {value:,.1f}")
        if self.stages:
            lines.append("  stages (self time):")
            for name, stats in sorted(
                self.stages.items(),
                key=lambda kv: -kv[1].get("seconds", 0.0),
            ):
                lines.append(
                    f"    {name:<12} {stats.get('seconds', 0.0):>9.4f}s"
                    f" {stats.get('calls', 0):>9} calls"
                )
        if self.model_latency:
            lines.append("  per-model cell latency:")
            for spec, digest in sorted(self.model_latency.items()):
                lines.append(
                    f"    {spec:<16} n={digest.get('count', 0):<6} "
                    f"p50={digest.get('p50', 0.0):.6f}s "
                    f"p95={digest.get('p95', 0.0):.6f}s "
                    f"p99={digest.get('p99', 0.0):.6f}s"
                )
        if self.counters:
            lines.append("  counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name}: {value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def write_manifest(
    manifest: RunManifest, runs_dir: "str | Path | None" = None
) -> Path:
    """Persist one manifest; returns the file written."""
    directory = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest.run_id}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: "str | Path") -> RunManifest:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: not a JSON object")
    return RunManifest.from_dict(data, source=str(path))


def list_manifests(
    runs_dir: "str | Path | None" = None,
) -> list[RunManifest]:
    """Every readable manifest in the runs directory, newest first.

    Wrong-generation or corrupt files are skipped, not fatal — a
    directory accumulated across tool versions must stay listable.
    """
    directory = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        try:
            out.append(load_manifest(path))
        except ManifestError:
            continue
    out.sort(key=lambda m: (m.created, m.run_id), reverse=True)
    return out


def resolve_run(
    token: str, runs_dir: "str | Path | None" = None
) -> RunManifest:
    """A manifest named by path, by ``last``/``last~N``, or by a unique
    run-id prefix."""
    path = Path(token)
    if path.is_file():
        return load_manifest(path)
    manifests = list_manifests(runs_dir)
    if token == "last":
        token = "last~0"
    if token.startswith("last~"):
        try:
            back = int(token[5:])
        except ValueError:
            raise ManifestError(f"bad run reference {token!r}") from None
        if back < 0 or back >= len(manifests):
            raise ManifestError(
                f"{token!r} out of range: {len(manifests)} runs recorded"
            )
        return manifests[back]
    matches = [m for m in manifests if m.run_id.startswith(token)]
    if not matches:
        raise ManifestError(f"no run matching {token!r}")
    if len(matches) > 1:
        ids = ", ".join(m.run_id for m in matches[:4])
        raise ManifestError(f"ambiguous run {token!r}: {ids}, ...")
    return matches[0]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _verdict_digest(cells: dict) -> str:
    """Content hash of a verdict matrix: sorted (item, model, verdict)."""
    rows = sorted(
        (name, spec, bool(cell.verdict))
        for (name, spec), cell in cells.items()
    )
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def _suite_digest(names: list[str]) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


def _stages_from(trace_snap: dict) -> dict:
    """Per-stage {seconds, calls} from a trace snapshot's aggregates."""
    seconds = trace_snap.get("seconds", {})
    calls = trace_snap.get("calls", {})
    return {
        name: {"seconds": round(secs, 6), "calls": calls.get(name, 0)}
        for name, secs in seconds.items()
    }


def _latency_from(metrics_snap: dict) -> dict:
    """Per-model latency summaries from ``cell_seconds:*`` histograms."""
    from .metrics import Histogram

    latency = {}
    for name, data in metrics_snap.get("histograms", {}).items():
        if name.startswith("cell_seconds:"):
            latency[name.split(":", 1)[1]] = Histogram.from_dict(
                data
            ).summary()
    return latency


def _definition_token(spec: str) -> str:
    """The definition token of the checker ``spec`` names, or ``""``
    when it does not resolve."""
    try:
        from ..engine.checkers import resolve_checker

        return resolve_checker(spec).token
    except Exception:
        return ""


def from_campaign(
    result,
    kind: str = "campaign",
    label: str = "campaign",
    items=None,
    cache=None,
    seed: int | None = None,
    argv: list[str] | None = None,
    snapshot: dict | None = None,
    extra: dict | None = None,
    run_id: str = "",
) -> RunManifest:
    """Build a manifest from a :class:`CampaignResult` plus telemetry.

    ``snapshot`` is a telemetry snapshot (``obs.snapshot()``); when
    omitted the active bundle is snapshotted.  ``extra`` merges into the
    ``suite`` block (the service records the job id and poisoned-cell
    count there).
    ``run_id`` overrides the derived id — the campaign service keys job
    manifests by job id.  Everything is read duck-typed so obs never
    imports the engine.
    """
    from . import telemetry

    if snapshot is None:
        snapshot = telemetry.snapshot()
    trace_snap = (snapshot or {}).get("trace", {})
    metrics_snap = (snapshot or {}).get("metrics", {})
    stages = _stages_from(trace_snap)
    latency = _latency_from(metrics_snap)

    diffs = len(result.diffs(items)) if items is not None else 0
    elapsed = result.elapsed
    cells = len(result.cells)
    cache_stats = {}
    if cache is not None and hasattr(cache, "stats_dict"):
        cache_stats = cache.stats_dict()
    cache_block = {
        "hits": result.cache_hits,
        "misses": result.cache_misses,
        "hit_rate": round(result.hit_rate, 6),
        **cache_stats,
    }

    return RunManifest(
        kind=kind,
        label=label,
        created=time.time(),
        run_id=run_id,
        argv=list(argv or []),
        git=git_describe(),
        seed=seed,
        suite={
            "items": len(result.item_names),
            "digest": _suite_digest(result.item_names),
            **(extra or {}),
        },
        models=dict(result.tokens),
        verdicts={
            "cells": cells,
            "digest": _verdict_digest(result.cells),
            "errors": len(result.errors()),
            "diffs": diffs,
        },
        cache=cache_block,
        elapsed_seconds=round(elapsed, 6),
        rates={
            "cells_per_second": round(cells / elapsed, 3) if elapsed else 0.0,
            "computed_cells_per_second": round(
                result.cache_misses / elapsed, 3
            )
            if elapsed
            else 0.0,
        },
        stages=stages,
        counters=dict(trace_snap.get("counters", {})),
        model_latency=latency,
    )


def from_fuzz(
    report,
    cache=None,
    argv: list[str] | None = None,
    snapshot: dict | None = None,
) -> RunManifest:
    """Build a manifest from a :class:`FuzzReport`, merging the cells of
    every campaign the fuzz run dispatched (main, machine, brute)."""
    from . import telemetry

    if snapshot is None:
        snapshot = telemetry.snapshot()
    trace_snap = (snapshot or {}).get("trace", {})
    metrics_snap = (snapshot or {}).get("metrics", {})

    cells: dict = {}
    names: set = set()
    misses = 0
    for campaign in report.campaigns:
        cells.update(campaign.cells)
        names.update(campaign.item_names)
        misses += campaign.cache_misses
    hits = report.cache_hits
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    cache_stats = {}
    if cache is not None and hasattr(cache, "stats_dict"):
        cache_stats = cache.stats_dict()
    elapsed = report.elapsed

    return RunManifest(
        kind="fuzz",
        label=f"{report.arch}:{report.budget}",
        created=time.time(),
        argv=list(argv or []),
        git=git_describe(),
        seed=report.seed,
        suite={
            "items": report.n_items,
            "digest": _suite_digest(sorted(names)),
        },
        models={spec: _definition_token(spec) for spec in report.checkers},
        verdicts={
            "cells": len(cells),
            "digest": _verdict_digest(cells),
            "errors": len(report.errors),
            "diffs": len(report.disagreements),
        },
        cache={
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hit_rate, 6),
            **cache_stats,
        },
        elapsed_seconds=round(elapsed, 6),
        rates={
            "cells_per_second": round(len(cells) / elapsed, 3)
            if elapsed
            else 0.0,
        },
        stages=_stages_from(trace_snap),
        counters=dict(trace_snap.get("counters", {})),
        model_latency=_latency_from(metrics_snap),
    )


def from_rates(
    kind: str,
    label: str,
    rates: dict,
    elapsed: float = 0.0,
    stages: dict | None = None,
    counters: dict | None = None,
    argv: list[str] | None = None,
    extra: dict | None = None,
) -> RunManifest:
    """A lightweight manifest for benchmark artifacts: named throughput
    rates plus optional stage/counter breakdowns (``extra`` lands in
    ``suite`` for scale context)."""
    return RunManifest(
        kind=kind,
        label=label,
        created=time.time(),
        argv=list(argv or []),
        git=git_describe(),
        suite=dict(extra or {}),
        elapsed_seconds=round(elapsed, 6),
        rates={k: round(float(v), 6) for k, v in rates.items()},
        stages=dict(stages or {}),
        counters=dict(counters or {}),
    )
