"""Telemetry for the checking pipeline: tracing, metrics, manifests.

The subsystem has four layers, all off by default behind one switch:

* :mod:`~repro.obs.trace` — hierarchical spans with self-time
  attribution over the pipeline stages (expansion / axioms / cache)
  plus per-cell spans, an in-memory ring buffer, and optional
  schema-versioned JSONL trace sidecars;
* :mod:`~repro.obs.metrics` — mergeable counters, gauges, and
  geometric-bucket histograms (per-model cell-latency percentiles);
* :mod:`~repro.obs.telemetry` — the bundle: one ``enable``/``disable``
  pair installing both, worker snapshot/merge for ProcessPool
  aggregation, and IR-evaluator counter deltas;
* :mod:`~repro.obs.manifest` / :mod:`~repro.obs.stats` — persistent
  schema-versioned run manifests under ``.repro-cache/runs/`` and the
  ``repro stats`` list/show/diff reader over them.

Typical use::

    from repro import obs

    obs.enable()                       # or enable(sink="trace.jsonl")
    result = run_campaign(suite, models, jobs=4)   # workers report back
    manifest = obs.manifest.from_campaign(result, label="corpus")
    obs.manifest.write_manifest(manifest)
    obs.disable()

See ``README.md`` in this directory for the full tour.
"""

from . import manifest, metrics, trace
from .telemetry import (
    Telemetry,
    active,
    collect,
    disable,
    enable,
    merge_snapshot,
    reset_worker_state,
    snapshot,
)

__all__ = [
    "Telemetry",
    "active",
    "collect",
    "disable",
    "enable",
    "manifest",
    "merge_snapshot",
    "metrics",
    "reset_worker_state",
    "snapshot",
    "trace",
]
