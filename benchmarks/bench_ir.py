"""Benchmark: unified-IR evaluation throughput and cross-model sharing.

Measures what the IR layer buys a campaign:

* axiom-evals/sec — how fast the one evaluation engine drives all eight
  native models (fresh executions each round, so the per-candidate memo
  works but nothing is pre-warmed), measured scalar
  (``model.consistent`` per execution) and batched
  (``repro.ir.plan.consistent_batch`` over same-universe stacks), with
  the ratio reported as ``batch_vs_scalar_speedup``;
* cross-model sharing — the static DAG statistic: how many interned
  nodes the full model roster (native + ``.cat``) needs, versus the sum
  of each model compiled alone.  The acceptance bar for the IR refactor
  is a ratio > 1.5×;
* memo leverage — evaluations of *shared* nodes actually performed per
  candidate when sweeping all models, versus the as-if-unshared count.

Run directly (``python benchmarks/bench_ir.py --json OUT.json``) for the
CI artifact (BENCH_ir.json).
"""

import pytest

from repro.catalog import CATALOG
from repro.cat.model import CAT_MODEL_FILES, load_cat_model
from repro.ir import ir_definition
from repro.ir.eval import STATS
from repro.ir.nodes import cross_model_stats
from repro.models.registry import get_model, model_names

#: Catalog entries used as the candidate workload (diverse shapes:
#: plain SB/MP/IRIW, transactional figures, dependencies).
_ENTRIES = ("sb", "mp", "lb", "iriw", "fig2", "2+2w")


def _fresh_executions():
    """Structurally fresh executions (fresh analyses, cold memos)."""
    out = []
    for name in _ENTRIES:
        x = CATALOG[name].execution
        out.append(x.with_txns(x.txns))
    return out


def _sweep_all_models(executions) -> int:
    """Run every native model's full check over every execution."""
    evals = 0
    for x in executions:
        for name in model_names():
            model = get_model(name)
            model.consistent(x)
            evals += len(model.axioms())
    return evals


def _sweep_all_models_batched(executions) -> int:
    """The same workload through the compiled per-model plans: bucket
    the executions by universe size and run every model's plan over
    each whole bucket."""
    from repro.ir.plan import consistent_batch

    buckets: dict[int, list] = {}
    for x in executions:
        buckets.setdefault(x.n, []).append(x)
    evals = 0
    for name in model_names():
        model = get_model(name)
        definition = model.batch_definition()
        assert definition is not None
        for stack in buckets.values():
            consistent_batch(model, definition, stack)
            evals += len(model.axioms()) * len(stack)
    return evals


def _bucketed(executions) -> dict:
    buckets: dict[int, list] = {}
    for x in executions:
        buckets.setdefault(x.n, []).append(x)
    return buckets


def _sweep_prefill(executions) -> int:
    """The ``engine.batchsweep`` prefill shape: one shared
    :class:`BatchContext` per universe bucket, every model's generated
    kernel swept over it — leaves are packed once per context and
    interior values are shared across models."""
    from repro.ir import codegen
    from repro.ir.batch import BatchContext

    evals = 0
    for stack in _bucketed(executions).values():
        ctx = BatchContext.of(stack)
        for name in model_names():
            model = get_model(name)
            definition = model.batch_definition()
            assert definition is not None
            token = model.definition_token()
            kernel = codegen.compiled_for(token, definition, ctx.n)
            assert kernel is not None, "batched kernels need numpy"
            kernel(ctx if model.tm else ctx.baseline)
            evals += len(model.axioms()) * len(stack)
    return evals


def test_ir_all_models_sweep(benchmark, once):
    executions = _fresh_executions()
    _sweep_all_models(executions)  # warm class-level definitions
    evals = once(benchmark, _sweep_all_models, _fresh_executions())
    assert evals > 0


def test_ir_all_models_sweep_batched(benchmark, once):
    stack = [x for _ in range(8) for x in _fresh_executions()]
    _sweep_all_models_batched(stack)  # warm compiled plans
    evals = once(
        benchmark,
        _sweep_all_models_batched,
        [x for _ in range(8) for x in _fresh_executions()],
    )
    assert evals > 0


def test_ir_all_models_sweep_codegen(benchmark, once):
    _sweep_prefill(_fresh_executions())  # warm kernels
    evals = once(benchmark, _sweep_prefill, _fresh_executions())
    assert evals > 0


def test_cross_model_sharing_ratio():
    """The acceptance criterion: > 1.5× sharing across the full roster."""
    ratio, _, _ = _sharing()
    assert ratio > 1.5, f"cross-model sharing ratio {ratio:.2f}x"


def _all_definitions():
    out = []
    for name in model_names():
        definition = ir_definition(get_model(name))
        assert definition is not None
        out.append((name, definition))
    for name in sorted(CAT_MODEL_FILES):
        cat = load_cat_model(name)
        assert cat.compiled is not None
        out.append((f"cat:{name}", cat.definition()))
    return out


def _sharing():
    """(cross-model ratio, union DAG nodes, sum of per-model DAGs)."""
    definitions = _all_definitions()
    stats = cross_model_stats([d.roots() for _, d in definitions])
    return stats["sharing"], stats["union_nodes"], stats["sum_of_models"]


# ----------------------------------------------------------------------
# Standalone mode: the CI perf artifact (no pytest-benchmark needed)
# ----------------------------------------------------------------------


def _campaign_resweep() -> dict:
    """The campaign shape the memo layer targets: all models over one
    expanded suite, re-swept (fig7/minimality-style repeated checking).

    The first sweep pays candidate expansion + first evaluation; the
    re-sweep isolates what repeated checking costs once the shared DAG
    values are attached to the candidates."""
    import time

    from repro.engine import diy_suite, run_campaign

    models = [
        "x86", "tsc", "sc", "x86tm", "power", "armv8", "riscv", "cpp",
        "x86!notm",
    ]
    suite = diy_suite("x86", max_length=4)
    run_campaign(suite, models)
    start = time.perf_counter()
    result = run_campaign(suite, models)
    elapsed = time.perf_counter() - start
    return {
        "campaign_resweep_cells": len(result.cells),
        "campaign_resweep_seconds": round(elapsed, 4),
        "campaign_resweep_cells_per_second": round(
            len(result.cells) / elapsed, 1
        )
        if elapsed
        else 0.0,
    }


def _artifact(json_path: str, manifest_path: "str | None" = None) -> dict:
    import json
    import time

    # Warm the class-level definitions and import side effects.
    warm = _fresh_executions()
    _sweep_all_models(warm)

    rounds = 40
    executions = [_fresh_executions() for _ in range(rounds)]
    STATS.reset()
    start = time.perf_counter()
    evals = 0
    for batch in executions:
        evals += _sweep_all_models(batch)
    elapsed = time.perf_counter() - start
    computes = STATS.computes

    batched_stack = [x for batch in executions for x in batch]
    _sweep_all_models_batched(batched_stack)  # warm compiled plans
    batched_stack = [
        x for _ in range(rounds) for x in _fresh_executions()
    ]
    start = time.perf_counter()
    batched_evals = _sweep_all_models_batched(batched_stack)
    batched_elapsed = time.perf_counter() - start

    # The prefill-shaped sweep through the generated kernels, fresh
    # contexts each round, best-of-repeats (wall noise on shared CI
    # runners dwarfs the per-round spread otherwise).
    _sweep_prefill(_fresh_executions())  # warm kernels
    cg_rounds = 12

    def _prefill_seconds() -> float:
        batches = [_fresh_executions() for _ in range(cg_rounds)]
        start = time.perf_counter()
        for batch in batches:
            _sweep_prefill(batch)
        return time.perf_counter() - start

    codegen_seconds = min(_prefill_seconds() for _ in range(3))
    cg_evals = cg_rounds * _sweep_prefill(_fresh_executions())

    ratio, union_nodes, individual_nodes = _sharing()

    payload = {
        "benchmark": "ir-all-models-sweep",
        "models": len(model_names()),
        "executions": rounds * len(_ENTRIES),
        "axiom_evals": evals,
        "elapsed_seconds": round(elapsed, 4),
        "axiom_evals_per_second": round(evals / elapsed, 1)
        if elapsed
        else 0.0,
        "batched_axiom_evals": batched_evals,
        "batched_axiom_evals_per_second": round(
            batched_evals / batched_elapsed, 1
        )
        if batched_elapsed
        else 0.0,
        "batch_vs_scalar_speedup": round(
            (batched_evals / batched_elapsed) / (evals / elapsed), 2
        )
        if elapsed and batched_elapsed
        else 0.0,
        "codegen_axiom_evals_per_second": round(
            cg_evals / codegen_seconds, 1
        )
        if codegen_seconds
        else 0.0,
        "node_computes": computes,
        "node_computes_per_candidate": round(
            computes / (rounds * len(_ENTRIES)), 1
        ),
        "cross_model_dag_nodes": union_nodes,
        "sum_of_per_model_dag_nodes": individual_nodes,
        "cross_model_sharing_ratio": round(ratio, 3),
    }
    payload.update(_campaign_resweep())
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if manifest_path is not None:
        import sys

        from repro.obs import manifest as obs_manifest

        manifest = obs_manifest.from_rates(
            kind="bench",
            label="ir-all-models-sweep",
            rates={
                "axiom_evals_per_second": payload[
                    "axiom_evals_per_second"
                ],
                "batched_axiom_evals_per_second": payload[
                    "batched_axiom_evals_per_second"
                ],
                "batch_vs_scalar_speedup": payload[
                    "batch_vs_scalar_speedup"
                ],
                "cross_model_sharing_ratio": payload[
                    "cross_model_sharing_ratio"
                ],
                "campaign_resweep_cells_per_second": payload[
                    "campaign_resweep_cells_per_second"
                ],
            },
            elapsed=elapsed,
            counters={
                "node_computes": payload["node_computes"],
                "axiom_evals": payload["axiom_evals"],
            },
            argv=sys.argv[1:],
            extra={
                "models": payload["models"],
                "executions": payload["executions"],
            },
        )
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        default="BENCH_ir.json",
        help="where to write the perf artifact",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="also write a repro.run-manifest for `repro stats diff`",
    )
    args = parser.parse_args()
    print(
        json.dumps(
            _artifact(args.json, args.manifest), indent=2, sort_keys=True
        )
    )
