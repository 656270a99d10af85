"""Wire types for the campaign service.

One job = one suite × model matrix.  Suites cross the wire as
*descriptions*, not payloads — the server owns the test sources (litmus
files on its filesystem, the built-in catalog, synthesized diy cycles),
exactly like herd sweeping a directory it can read.  The JSON shapes
here are the single source of truth for the HTTP API in
:mod:`repro.serve.server`; see ``src/repro/serve/README.md`` for the
endpoint map.

A ``JobSpec``::

    {"suite": {"kind": "files", "paths": ["tests/corpus/..."]}
             | {"kind": "diy", "arch": "x86", "vocab": null, "length": 3}
             | {"kind": "catalog", "names": null, "tags": null},
     "models": ["x86", "x86tm"],
     "options": {"cell_timeout": 60.0, "retries": 1, "shards": null}}

``cell_timeout`` (default :data:`~repro.engine.batchsweep.CELL_TIMEOUT`)
scales each shard's time budget, ``retries`` bounds the re-runs of a
shard whose worker died or hung, and ``shards`` overrides the number of
pool tasks.  Unknown options — such as the retired ``batch`` and
``codegen`` knobs older clients still send — are ignored.

Job lifecycle: ``queued`` → ``running`` → ``done`` | ``failed``.  A job
*fails* only when its suite cannot be built (bad paths, bad model
specs); checker crashes, timeouts, and dead workers degrade to poisoned
cells inside a ``done`` job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.batchsweep import CELL_TIMEOUT

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_STATES",
    "JobSpec",
    "SpecError",
    "DEFAULT_PORT",
]

#: Bumped when request/response shapes change incompatibly; the server
#: stamps it on every response envelope.
PROTOCOL_VERSION = 1

#: Default TCP port for ``repro serve`` (chosen from the unassigned
#: range; override with ``--port`` / ``$REPRO_SERVE_URL``).
DEFAULT_PORT = 7907

JOB_STATES = ("queued", "running", "done", "failed")

SUITE_KINDS = ("files", "diy", "catalog")


class SpecError(ValueError):
    """A malformed job spec (HTTP 400 at the server boundary)."""


@dataclass
class JobSpec:
    """A validated submit request (see the module docstring)."""

    suite: dict
    models: list[str]
    cell_timeout: float = CELL_TIMEOUT
    retries: int = 1
    shards: int | None = None
    label: str = ""

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        if not isinstance(data, dict):
            raise SpecError("job spec must be a JSON object")
        suite = data.get("suite")
        if not isinstance(suite, dict):
            raise SpecError("job spec needs a 'suite' object")
        kind = suite.get("kind")
        if kind not in SUITE_KINDS:
            raise SpecError(
                f"suite.kind must be one of {SUITE_KINDS}, got {kind!r}"
            )
        if kind == "files":
            paths = suite.get("paths")
            if not isinstance(paths, list) or not all(
                isinstance(p, str) for p in paths
            ):
                raise SpecError("files suite needs 'paths': [str, ...]")
            if not paths:
                raise SpecError("files suite has no paths")
        models = data.get("models")
        if (
            not isinstance(models, list)
            or not models
            or not all(isinstance(m, str) for m in models)
        ):
            raise SpecError("job spec needs 'models': [spec, ...]")
        options = data.get("options") or {}
        if not isinstance(options, dict):
            raise SpecError("'options' must be an object")
        try:
            cell_timeout = float(options.get("cell_timeout", CELL_TIMEOUT))
            retries = int(options.get("retries", 1))
            shards = options.get("shards")
            shards = None if shards is None else int(shards)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad option value: {exc}") from None
        if cell_timeout <= 0:
            raise SpecError("cell_timeout must be positive")
        if retries < 0:
            raise SpecError("retries must be >= 0")
        if shards is not None and shards < 1:
            raise SpecError("shards must be >= 1")
        label = str(data.get("label", "") or "")
        return cls(
            suite=dict(suite),
            models=list(models),
            cell_timeout=cell_timeout,
            retries=retries,
            shards=shards,
            label=label,
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "models": self.models,
            "options": {
                "cell_timeout": self.cell_timeout,
                "retries": self.retries,
                "shards": self.shards,
            },
            "label": self.label,
        }

    def default_label(self) -> str:
        kind = self.suite.get("kind")
        if kind == "files":
            return f"files:{len(self.suite['paths'])}"
        if kind == "diy":
            return f"diy:{self.suite.get('arch', 'x86')}"
        return "catalog"


def suite_items(suite: dict) -> list:
    """Build the campaign items a suite description names.

    Raises ``SpecError`` for unreadable files / unknown entries — the
    submit-time failure mode that marks a job ``failed``.
    """
    from ..engine import catalog_suite, diy_suite, litmus_suite

    kind = suite.get("kind")
    try:
        if kind == "files":
            return litmus_suite(suite["paths"])
        if kind == "diy":
            return diy_suite(
                suite.get("arch", "x86"),
                suite.get("vocab"),
                suite.get("length", 3),
            )
        return catalog_suite(suite.get("names"), suite.get("tags"))
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"cannot build suite: {exc}") from exc
