"""The campaign service: submit suite × model jobs, stream verdicts.

A long-running front end over the campaign engine, in four layers:

* :mod:`~repro.serve.protocol` — the JSON job-spec / job-record wire
  shapes and their validation;
* :mod:`~repro.serve.service` — the scheduler: a job queue executed one
  campaign at a time over the engine's worker pool, with the CLI
  campaign's resilient per-shard dispatch (timeout, one retry,
  poisoned cells) and a shared on-disk result store refreshed per job
  for fleet-wide dedupe;
* :mod:`~repro.serve.server` — the stdlib HTTP face (``/v1/jobs``,
  cursor-polled ``/cells``, ``/metrics``, ``/healthz``);
* :mod:`~repro.serve.client` — the matching urllib client with
  streaming/waiting poll loops.

Quickstart (in process)::

    from repro.serve import CampaignService, JobSpec

    service = CampaignService(jobs=4).start()
    job = service.submit(JobSpec.from_dict({
        "suite": {"kind": "diy", "arch": "x86", "length": 3},
        "models": ["x86", "x86tm"],
    }))

Over HTTP: ``repro serve`` on the server side, ``repro submit`` /
``repro jobs`` (or :class:`ServiceClient`) on the client side.  See
``src/repro/serve/README.md`` for the protocol reference.
"""

from .client import ServiceClient, ServiceError
from .protocol import (
    DEFAULT_PORT,
    JOB_STATES,
    PROTOCOL_VERSION,
    JobSpec,
    SpecError,
)
from .server import ServiceServer, serve_forever
from .service import CampaignService, Job

__all__ = [
    "CampaignService",
    "DEFAULT_PORT",
    "JOB_STATES",
    "Job",
    "JobSpec",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SpecError",
    "serve_forever",
]
