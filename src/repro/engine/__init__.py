"""The campaign engine: parallel, cached batch execution of litmus
suites across memory models.

This package is the herd/diy-style batch runner of the reproduction:
it takes any iterable of tests — catalog entries, parsed litmus files,
``synth.diy`` output, synthesis results — and a set of models (native,
``.cat``, or simulated hardware), and executes the full cross-product
with a worker pool, memoized candidate enumeration, and a persistent
on-disk result cache under ``.repro-cache/``.

Quickstart::

    from repro.engine import ResultCache, diy_suite, run_campaign

    suite = diy_suite("x86", max_length=3)
    result = run_campaign(suite, ["x86", "x86tm"], jobs=4,
                          cache=ResultCache())
    print(result.format_matrix())
    print(result.summary())

See ``examples/campaign.py`` and ``src/repro/engine/README.md`` for the
full tour, or run ``repro campaign --help``.
"""

from .cache import (
    CACHE_VERSION,
    NullCache,
    ResultCache,
    cache_key,
    default_cache_dir,
    fingerprint,
)
from .campaign import (
    CampaignItem,
    CampaignResult,
    CellResult,
    catalog_suite,
    diy_suite,
    execution_suite,
    litmus_suite,
    run_campaign,
)
from .checkers import (
    BruteForceChecker,
    Checker,
    ModelChecker,
    OracleChecker,
    resolve_checker,
)
from .memo import MemoModel
from .pool import default_jobs

__all__ = [
    "BruteForceChecker",
    "CACHE_VERSION",
    "CampaignItem",
    "CampaignResult",
    "CellResult",
    "Checker",
    "MemoModel",
    "ModelChecker",
    "NullCache",
    "OracleChecker",
    "ResultCache",
    "cache_key",
    "catalog_suite",
    "default_cache_dir",
    "default_jobs",
    "diy_suite",
    "execution_suite",
    "fingerprint",
    "litmus_suite",
    "resolve_checker",
    "run_campaign",
]
