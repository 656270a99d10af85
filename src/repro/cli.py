"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands:

* ``check <entry> [--model M]`` — check a catalogued execution;
* ``litmus <entry> --arch A`` — render a catalogued execution as a
  litmus test in the architecture's surface syntax;
* ``run <file> [--model M | --hw]`` — run a litmus test against a
  model or the simulated hardware.  The format is auto-detected by
  header: the neutral format or any herd-style dialect (``X86``,
  ``AArch64``, ``PPC``, ``RISCV``; see ``repro.litmus.frontend``).
  ``exists``/``~exists``/``forall`` conditions are honoured; malformed
  input exits 2 with a ``file:line:`` diagnostic;
* ``synth --arch A --events N`` — synthesize Forbid/Allow suites;
* ``campaign --arch A --models M1,M2 [--jobs N]`` — batch-run a litmus
  suite (synthesized diy cycles, the catalog, or litmus files) across
  many models through the campaign engine, with a persistent result
  cache under ``.repro-cache/``.  ``--profile`` prints the per-stage
  timing breakdown (merged across workers), ``--telemetry`` records a
  run manifest under ``.repro-cache/runs/``, ``--trace`` streams a
  JSONL span sidecar, ``--json`` writes the machine-readable result;
* ``serve`` / ``submit`` / ``jobs`` — the campaign *service*: ``serve``
  runs a long-lived job queue over the engine (shared result store,
  the campaign's per-shard timeout and retry, poisoned-cell
  degradation, per-job run manifests) behind a stdlib HTTP JSON API;
  ``submit`` sends a suite × models job and streams its cells; ``jobs`` lists/inspects jobs.  See
  ``src/repro/serve/README.md`` for the protocol;
* ``stats list|show|diff`` — query recorded run manifests; ``diff``
  compares two runs metric-by-metric (``--fail-over PCT`` gates);
* ``fuzz --arch A --seed S --budget B`` — differential conformance
  fuzzing: generate litmus streams (diy cycles, directed witnesses,
  catalog ⊏-mutations, seeded random programs), cross-check the native
  model, the .cat model, the operational machine, and the brute-force
  enumerator, classify every disagreement and shrink it to a minimal
  reproducer; ``--mutants`` additionally injects weakened models and
  asserts each is detected.  Exit codes: 1 = disagreement (or
  undetected mutant), 2 = checker error;
* ``table1`` / ``table2`` / ``table3`` / ``fig7`` / ``rtl`` /
  ``ablation`` — regenerate the paper's tables and figures.  table1
  and table2 run through the campaign engine and accept ``--jobs``;
  fig7 routes its consistency checks through the engine's in-memory
  memoized models (never the persistent cache — the figure measures
  synthesis time); table3 is definitional — it has no test×model loop;
* ``catalog`` — list the catalogue.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import CATALOG, get_entry
from .litmus.candidates import observable
from .litmus.from_execution import to_litmus
from .litmus.parse import loads
from .litmus.render import render
from .models.registry import get_model, model_names
from .sim.oracle import get_oracle

__all__ = ["main"]


def _cmd_catalog(args) -> int:
    for name, entry in sorted(CATALOG.items()):
        tags = ",".join(sorted(entry.tags))
        print(f"{name:<28} {entry.description}  [{tags}]")
    return 0


def _cmd_check(args) -> int:
    entry = get_entry(args.entry)
    models = [args.model] if args.model else sorted(entry.expected)
    print(entry.execution.describe())
    print()
    for name in models:
        verdict = get_model(name).check(entry.execution)
        print(verdict)
    return 0


def _cmd_litmus(args) -> int:
    entry = get_entry(args.entry)
    test = to_litmus(entry.execution, args.entry, args.arch)
    print(render(test))
    return 0


def _cmd_run(args) -> int:
    from .litmus.candidates import forall_holds
    from .litmus.frontend import load_litmus_file
    from .litmus.parse import ParseError

    try:
        test = load_litmus_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        # Frontend errors already carry "file:line: message"; neutral
        # parse errors carry "line N:" — prefix those with the path.
        message = str(exc)
        if args.file not in message:
            message = f"{args.file}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.hw:
        oracle = get_oracle(test.arch)
        if test.quantifier == "forall":
            holds = oracle.forall(test)
            print(
                f"{test.name} on {oracle.name}: "
                f"forall {'holds' if holds else 'VIOLATED'}"
            )
        else:
            seen = oracle.observable(test)
            print(
                f"{test.name} on {oracle.name}: "
                f"{'SEEN' if seen else 'not seen'}"
            )
            if test.quantifier == "~exists" and seen:
                return 1  # the file's expectation is violated
    else:
        model = get_model(args.model or test.arch)
        if test.quantifier == "forall":
            holds = forall_holds(test, model)
            print(
                f"{test.name} under {model.name}: "
                f"forall {'holds' if holds else 'VIOLATED'}"
            )
        else:
            seen = observable(test, model)
            verdict = "observable" if seen else "forbidden"
            if test.quantifier == "~exists":
                verdict += (
                    " (VIOLATES ~exists)" if seen else " (as expected)"
                )
            print(f"{test.name} under {model.name}: {verdict}")
            if test.quantifier == "~exists" and seen:
                # Mirror `repro campaign`: a violated expected-forbidden
                # row is exit 1 (a conformance failure, not an error).
                return 1
    return 0


def _cmd_synth(args) -> int:
    from .synth.synthesis import synthesize

    result = synthesize(args.arch, args.events, time_budget=args.budget)
    print(result.summary())
    if args.show:
        from .litmus.render import render

        for i, x in enumerate(result.forbid[: args.show]):
            print(f"\n--- forbid {i} ---")
            print(render(to_litmus(x, f"forbid-{i}", args.arch)))
    return 0


def _make_cache(args):
    """The persistent campaign cache selected by --no-cache/--cache-dir."""
    from .engine.cache import NullCache, ResultCache

    if getattr(args, "no_cache", False):
        return NullCache()
    return ResultCache(getattr(args, "cache_dir", None))


def _cmd_table1(args) -> int:
    from .experiments.table1 import format_table1, run_table1

    bounds = {"x86": [2, 3], "power": [2, 3]}
    if args.full:
        bounds = {"x86": [2, 3, 4], "power": [2, 3, 4]}
    with _make_cache(args) as cache:
        table = run_table1(
            bounds=bounds,
            time_budget=args.budget,
            jobs=args.jobs,
            cache=cache,
        )
    print(format_table1(table))
    return 0


def _cmd_table2(args) -> int:
    from .experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2(time_budget=args.budget, jobs=args.jobs)))
    return 0


def _cmd_table3(args) -> int:
    from .experiments.table3 import format_table3

    print(format_table3())
    return 0


def _cmd_fig7(args) -> int:
    from .experiments.fig7 import format_fig7, run_fig7

    series = run_fig7(n_events=args.events, time_budget=args.budget)
    print(format_fig7(series))
    return 0


def _telemetry_requested(args) -> bool:
    """--telemetry / --profile / --trace, or ``$REPRO_TELEMETRY``."""
    import os

    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "profile", False)
        or getattr(args, "trace", None)
        or os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")
    )


def _runs_dir_for(args):
    """Manifests live beside the result cache when --cache-dir is set."""
    from pathlib import Path

    cache_dir = getattr(args, "cache_dir", None)
    return Path(cache_dir) / "runs" if cache_dir else None


def _cmd_campaign(args) -> int:
    import json

    from .engine import (
        catalog_suite,
        diy_suite,
        litmus_suite,
        run_campaign,
    )
    from .obs import manifest as obs_manifest
    from .obs import telemetry as obs_telemetry

    if args.files:
        from .litmus.parse import ParseError

        try:
            items = litmus_suite(args.files)
        except (OSError, ParseError) as exc:
            # Frontend errors already carry "file:line: message".
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.suite == "catalog":
        items = catalog_suite()
    else:
        if args.length < 2:  # a cycle needs two edges: a usage error
            print(
                f"error: diy length must be >= 2, got {args.length}",
                file=sys.stderr,
            )
            return 2
        vocab = None if args.vocab is None else args.vocab.split(",")
        try:
            items = diy_suite(args.arch, vocab, args.length)
        except ValueError as exc:  # an unknown edge name
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not items:
        print("empty suite")
        return 1

    models = (args.models or args.arch).split(",")
    # Telemetry no longer forces --jobs 1: pool workers collect their own
    # snapshots and the parent merges them (see repro.obs.telemetry).
    bundle = (
        obs_telemetry.enable(sink=args.trace)
        if _telemetry_requested(args)
        else None
    )
    report = manifest = None
    try:
        with _make_cache(args) as cache:
            try:
                result = run_campaign(
                    items, models, jobs=args.jobs, cache=cache
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            cache_line = (
                f"cache: {cache.path} ({cache.stats()})"
                if cache.path is not None
                else None
            )
            if bundle is not None:
                report = bundle.tracer.report()
                label = (
                    "files" if args.files else f"{args.suite}:{args.arch}"
                )
                manifest = obs_manifest.from_campaign(
                    result,
                    kind="campaign",
                    label=label,
                    items=items,
                    cache=cache,
                    argv=sys.argv[1:],
                    snapshot=bundle.snapshot(),
                )
    finally:
        if bundle is not None:
            obs_telemetry.disable()
    print(result.format_matrix())
    print()
    print(result.summary())
    if args.profile and report is not None:
        print()
        print("per-stage timing (self time):")
        print(report)
    if cache_line is not None:
        print(cache_line)
    if manifest is not None:
        path = obs_manifest.write_manifest(manifest, _runs_dir_for(args))
        print(f"run manifest: {path}")
    if args.trace:
        print(f"trace sidecar: {args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                result.to_json_dict(items), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"json result: {args.json}")
    diffs = result.diffs(items)
    if diffs:
        print()
        print("disagreements with expected verdicts:")
        for name, model, got, expected in diffs:
            print(f"  {name} under {model}: got {got}, expected {expected}")
    errors = result.errors()
    if errors:
        print()
        print("checker errors:")
        for name, model, message in errors:
            print(f"  {name} under {model}: {message}")
        return 2
    return 1 if diffs else 0


def _default_server() -> str:
    import os

    from .serve.protocol import DEFAULT_PORT

    return os.environ.get(
        "REPRO_SERVE_URL", f"http://127.0.0.1:{DEFAULT_PORT}"
    )


def _cmd_serve(args) -> int:
    from .serve import CampaignService, serve_forever

    service = CampaignService(
        jobs=args.jobs,
        cache=_make_cache(args),
        runs_dir=_runs_dir_for(args),
        telemetry=not args.no_telemetry,
    )
    try:
        serve_forever(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down")
    except OSError as exc:
        print(
            f"error: cannot serve on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def _submit_suite(args) -> dict:
    """The wire suite description for a submit invocation (files are
    sent as absolute paths — the server resolves them in *its* cwd)."""
    import os

    if args.files:
        return {
            "kind": "files",
            "paths": [os.path.abspath(path) for path in args.files],
        }
    if args.suite == "catalog":
        return {"kind": "catalog"}
    vocab = None if args.vocab is None else args.vocab.split(",")
    return {
        "kind": "diy",
        "arch": args.arch,
        "vocab": vocab,
        "length": args.length,
    }


def _cmd_submit(args) -> int:
    import json

    from .serve import ServiceClient, ServiceError

    url = args.server or _default_server()
    client = ServiceClient(url)
    body = {
        "suite": _submit_suite(args),
        "models": (args.models or args.arch).split(","),
        "label": args.label or "",
    }
    try:
        job = client.submit(body)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"job {job['id']} submitted to {url}")
    if args.no_wait:
        return 0

    cells = []
    try:
        for cell in client.iter_cells(job["id"], timeout=args.timeout):
            cells.append(cell)
            if args.watch:
                mark = (
                    "!" if cell["error"] else "A" if cell["verdict"] else "F"
                )
                source = "cache" if cell["cached"] else "fresh"
                print(
                    f"  {mark} {cell['item']} x {cell['model']} [{source}]"
                )
        record = client.job(job["id"])
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts = record["cells"]
    print(
        f"job {record['id']} {record['state']}: "
        f"{counts['total']} cells ({counts['cached']} cached, "
        f"{counts['computed']} computed, {counts['errors']} errors, "
        f"{counts['poisoned']} poisoned) in "
        f"{record['elapsed_seconds']:.2f}s"
    )
    if record.get("manifest"):
        print(f"run manifest: {record['manifest']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"job": record, "cells": cells},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"json result: {args.json}")
    errored = [c for c in cells if c["error"] is not None]
    if errored:
        print()
        print("cell errors:")
        for cell in errored:
            print(f"  {cell['item']} under {cell['model']}: {cell['error']}")
        return 2
    return 1 if record["diffs"] else 0


def _cmd_jobs(args) -> int:
    from .serve import ServiceClient, ServiceError

    client = ServiceClient(args.server or _default_server())
    try:
        if not args.job_id:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return 0
            for record in jobs:
                counts = record["cells"]
                print(
                    f"{record['id']:<8} {record['state']:<8} "
                    f"{record['label']:<20} "
                    f"{counts['done']}/{counts['total']} cells "
                    f"({counts['errors']} errors) "
                    f"{record['elapsed_seconds']:.2f}s"
                )
            return 0
        record = client.job(args.job_id)
        counts = record["cells"]
        print(f"job {record['id']} ({record['label']}): {record['state']}")
        print(f"  models: {', '.join(record['models'])}")
        print(
            f"  cells: {counts['done']}/{counts['total']} "
            f"({counts['cached']} cached, {counts['computed']} computed, "
            f"{counts['errors']} errors, {counts['poisoned']} poisoned)"
        )
        print(f"  elapsed: {record['elapsed_seconds']:.2f}s")
        if record.get("error"):
            print(f"  error: {record['error']}")
        if record.get("manifest"):
            print(f"  manifest: {record['manifest']}")
        if args.cells:
            payload = client.cells(args.job_id)
            for cell in payload["cells"]:
                mark = (
                    "!" if cell["error"] else "A" if cell["verdict"] else "F"
                )
                print(f"  {mark} {cell['item']} x {cell['model']}")
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_fuzz(args) -> int:
    from .conformance import reproducible_seed, run_fuzz
    from .conformance.report import to_json_lines, to_markdown
    from .obs import manifest as obs_manifest
    from .obs import telemetry as obs_telemetry

    if args.mutants is None:
        mutants: tuple[str, ...] | bool = ()
    elif args.mutants == "known":
        mutants = True
    else:
        mutants = tuple(args.mutants.split(","))
    bundle = (
        obs_telemetry.enable() if _telemetry_requested(args) else None
    )
    manifest = None
    try:
        # Inside the try: a malformed $REPRO_TEST_SEED is a
        # configuration error (exit 2), not a disagreement (exit 1).
        seed = reproducible_seed() if args.seed is None else args.seed
        with _make_cache(args) as cache:
            report = run_fuzz(
                args.arch,
                seed=seed,
                budget=args.budget,
                shrink=args.shrink,
                mutants=mutants,
                jobs=args.jobs,
                cache=cache,
                machine=not args.no_machine,
                brute=not args.no_brute,
            )
            if bundle is not None:
                manifest = obs_manifest.from_fuzz(
                    report,
                    cache=cache,
                    argv=sys.argv[1:],
                    snapshot=bundle.snapshot(),
                )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if bundle is not None:
            obs_telemetry.disable()
    print(report.summary())
    if manifest is not None:
        path = obs_manifest.write_manifest(manifest, _runs_dir_for(args))
        print(f"run manifest: {path}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(to_json_lines(report))
        print(f"jsonl report: {args.jsonl}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(to_markdown(report))
        print(f"markdown report: {args.report}")
    if report.errors:
        return 2
    if report.disagreements or not all(m.detected for m in report.mutants):
        return 1
    return 0


def _explain_definition(model):
    """The model's IR axioms, or None (oracles, ``.cat`` models with a
    negated check)."""
    from .ir import ir_definition

    try:
        return ir_definition(model)
    except Exception:
        return None


def _cmd_explain(args) -> int:
    import os

    from .engine.checkers import resolve_checker
    from .ir.nodes import cross_model_stats
    from .litmus.candidates import candidate_executions, expand_test

    specs = args.model.split(",")
    models = []
    for spec in specs:
        try:
            checker = resolve_checker(spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        model = getattr(checker, "model", None)
        if model is None:
            print(f"error: {spec!r} is not an axiomatic model", file=sys.stderr)
            return 2
        models.append((spec, model))

    # -- compiled IR DAG statistics -------------------------------------
    definitions = []
    print("compiled IR DAG:")
    for spec, model in models:
        definition = _explain_definition(model)
        if definition is None:
            print(f"  {spec:<16} (not IR-defined; no stats)")
            continue
        definitions.append((spec, definition))
        stats = definition.stats()
        print(
            f"  {spec:<16} axioms={len(definition.axioms):<2} "
            f"dag_nodes={stats['dag_nodes']:<4} "
            f"tree_size={stats['tree_size']:<5} "
            f"sharing={stats['sharing']:.2f}x"
        )
    if len(definitions) > 1:
        cross = cross_model_stats([d.roots() for _, d in definitions])
        print(
            f"  cross-model: union_dag_nodes={cross['union_nodes']} "
            f"sum_of_models={cross['sum_of_models']} "
            f"sharing={cross['sharing']:.2f}x"
        )

    # -- per-axiom relation values --------------------------------------
    if os.path.isfile(args.test):
        from .litmus.frontend import load_litmus_file
        from .litmus.parse import ParseError

        try:
            test = load_litmus_file(args.test)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        candidates = [
            c.execution for c in candidate_executions(test.program)
        ]
        witnessing = sum(1 for _ in expand_test(test))
        print(
            f"\n{test.name}: {len(candidates)} candidate executions "
            f"({witnessing} satisfy the postcondition)"
        )
        if args.candidate is not None:
            if not 0 <= args.candidate < len(candidates):
                print(
                    f"error: --candidate out of range 0..{len(candidates)-1}",
                    file=sys.stderr,
                )
                return 2
            _explain_execution(
                candidates[args.candidate], models, verbose=args.relations
            )
            return 0
        for spec, model in models:
            fails: dict[str, int] = {}
            consistent = 0
            for x in candidates:
                verdict = model.check(x)
                if verdict.consistent:
                    consistent += 1
                for r in verdict.failures:
                    fails[r.name] = fails.get(r.name, 0) + 1
            parts = ", ".join(
                f"{name}:{count}" for name, count in sorted(fails.items())
            )
            print(
                f"  {spec:<16} consistent={consistent}/{len(candidates)}"
                + (f"  axiom failures: {parts}" if parts else "")
            )
        return 0

    entry = get_entry(args.test)
    x = entry.execution
    print(f"\n{args.test}:")
    print(x.describe())
    _explain_execution(x, models, verbose=args.relations)
    return 0


def _explain_execution(x, models, verbose: bool = False) -> None:
    """Print each model's per-axiom relation values on one execution."""
    from .ir.eval import evaluate as ir_evaluate
    from .models.base import witness_for

    for spec, model in models:
        print(f"\n  {spec}:")
        definition = _explain_definition(model)
        if definition is not None:
            a = analyze_for(model, x)
            for ax in definition.axioms:
                rel = ir_evaluate(ax.node, a)
                witness = witness_for(ax.kind, rel)
                status = "ok      " if witness is None else "VIOLATED"
                line = (
                    f"    {ax.name:<14} {ax.kind:<11} {status} "
                    f"|r|={len(rel)} cost={ax.node.cost}"
                )
                if witness is not None:
                    line += f" witness={witness}"
                print(line)
                if verbose:
                    print(f"      node: {ir_describe(ax.node)}")
                    print(f"      pairs: {sorted(rel.pairs())}")
        else:
            verdict = model.check(x)
            for r in verdict.results:
                status = "ok      " if r.holds else "VIOLATED"
                print(f"    {r.name:<14} {status}")


def analyze_for(model, x):
    """The analysis a model would check ``x`` against (tm-aware)."""
    return model._analysis(x)


def ir_describe(node) -> str:
    from .ir.nodes import describe

    return describe(node, maxdepth=3)


def _cmd_stats(args) -> int:
    from .obs.stats import cmd_stats

    return cmd_stats(args)


def _cmd_rtl(args) -> int:
    from .experiments.rtl import format_rtl, run_rtl_check

    print(format_rtl(run_rtl_check(n_events=args.events, time_budget=args.budget)))
    return 0


def _cmd_ablation(args) -> int:
    from .experiments.ablation import format_ablation, run_ablation

    print(format_ablation(run_ablation(n_events=args.events)))
    return 0


def _cmd_cat(args) -> int:
    from .cat import load_cat_model
    from .cat.library import library_files, library_source

    if args.list:
        for name in library_files():
            print(name)
        return 0
    if args.source:
        print(library_source(args.source), end="")
        return 0
    try:
        model = load_cat_model(args.model)
        x = get_entry(args.entry).execution
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = model.check(x)
    print(x.describe())
    print()
    for check, result in zip(model.compiled.axiom_checks, verdict.results):
        print(f"  {check.describe(result.holds)}")
    for flag in model.flags_raised(x):
        print(f"  flag raised: {flag}")
    print(f"=> {'consistent' if verdict.consistent else 'INCONSISTENT'}")
    return 0 if verdict.consistent else 1


def _cmd_diy(args) -> int:
    from .synth.diy import cycle_execution, enumerate_cycles

    model = get_model(args.model)
    try:
        cycles = enumerate_cycles(args.vocab.split(","), args.length)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shown = 0
    total = 0
    for cycle in cycles:
        total += 1
        execution = cycle_execution(cycle)
        forbidden = not model.consistent(execution)
        if args.forbidden_only and not forbidden:
            continue
        verdict = "FORBID" if forbidden else "allow "
        print(f"{verdict}  {cycle}")
        shown += 1
    print(f"({shown} shown of {total} cycles up to length {args.length})")
    return 0


def _cmd_lemmas(args) -> int:
    from .metatheory.lemmas import check_all_lemmas

    ok = True
    for report in check_all_lemmas(args.events, args.limit):
        print(report.summary())
        ok = ok and report.holds
    return 0 if ok else 1


def _cmd_elision(args) -> int:
    from .metatheory.lockelision import check_lock_elision

    result = check_lock_elision(
        args.arch,
        fixed=args.fixed,
        txn_writes_lock=args.write_lock,
        time_budget=args.budget,
    )
    print(result.summary())
    if result.counterexample and args.show:
        abstract, concrete = result.counterexample
        print("\nabstract (CROrder-violating) execution:")
        print(abstract.describe())
        print("\nconcrete image (consistent under the TM model):")
        print(concrete.describe())
    return 0 if result.sound else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transactions and weak memory in x86, Power, ARMv8, C++",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalogued executions")

    p = sub.add_parser("check", help="check a catalogued execution")
    p.add_argument("entry")
    p.add_argument("--model", choices=model_names())

    p = sub.add_parser("litmus", help="render a catalogue entry as litmus")
    p.add_argument("entry")
    p.add_argument("--arch", default="armv8",
                   choices=["x86", "power", "armv8", "cpp"])

    p = sub.add_parser("run", help="run a litmus file against a model/hw")
    p.add_argument("file")
    p.add_argument("--model", choices=model_names())
    p.add_argument("--hw", action="store_true")

    p = sub.add_parser("synth", help="synthesize Forbid/Allow suites")
    p.add_argument("--arch", default="x86",
                   choices=["x86", "power", "armv8", "cpp", "riscv"])
    p.add_argument("--events", type=int, default=3)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--show", type=int, default=0)

    def add_engine_options(p) -> None:
        """Campaign-engine knobs shared by the batch commands."""
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (0 = one per CPU)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the persistent result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default .repro-cache)")

    p = sub.add_parser("campaign",
                       help="batch-run a litmus suite across models")
    p.add_argument("files", nargs="*",
                   help="litmus files, neutral or herd dialect "
                        "(overrides --suite)")
    p.add_argument("--arch", default="x86",
                   choices=["x86", "power", "armv8", "cpp", "riscv"])
    p.add_argument("--models", default=None,
                   help="comma-separated checker specs: registry names "
                        "(x86), .cat library names (x86tm), '!notm' "
                        "baselines, hw:<arch> oracles (default: --arch)")
    p.add_argument("--suite", default="diy", choices=["diy", "catalog"])
    p.add_argument("--vocab", default=None,
                   help="diy relaxation vocabulary (comma-separated)")
    p.add_argument("--length", type=int, default=3,
                   help="max diy cycle length")
    p.add_argument("--profile", action="store_true",
                   help="print a per-stage timing breakdown "
                        "(expansion / analysis / axioms / cache); "
                        "works with --jobs: workers ship their timers "
                        "back and the parent merges them")
    p.add_argument("--telemetry", action="store_true",
                   help="record structured telemetry and write a run "
                        "manifest under the cache's runs/ directory "
                        "(also enabled by $REPRO_TELEMETRY=1)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="stream completed spans to a JSONL trace "
                        "sidecar (implies --telemetry)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the machine-readable campaign result "
                        "(matrix, per-cell timings, cache stats)")
    add_engine_options(p)

    from .serve.protocol import DEFAULT_PORT

    p = sub.add_parser("serve",
                       help="run the campaign service: a job queue with "
                            "a shared result store and an HTTP JSON API")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--no-telemetry", action="store_true",
                   help="skip the per-job telemetry bundle and manifest")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    add_engine_options(p)

    p = sub.add_parser("submit",
                       help="submit a suite x models job to a running "
                            "campaign service and stream its cells")
    p.add_argument("files", nargs="*",
                   help="litmus files (sent as absolute paths; the "
                        "server must see the same filesystem)")
    p.add_argument("--arch", default="x86",
                   choices=["x86", "power", "armv8", "cpp", "riscv"])
    p.add_argument("--models", default=None,
                   help="comma-separated checker specs (default: --arch)")
    p.add_argument("--suite", default="diy", choices=["diy", "catalog"])
    p.add_argument("--vocab", default=None,
                   help="diy relaxation vocabulary (comma-separated)")
    p.add_argument("--length", type=int, default=3,
                   help="max diy cycle length")
    p.add_argument("--server", default=None, metavar="URL",
                   help="service endpoint (default $REPRO_SERVE_URL or "
                        f"http://127.0.0.1:{DEFAULT_PORT})")
    p.add_argument("--label", default=None,
                   help="job label for listings and the run manifest")
    p.add_argument("--watch", action="store_true",
                   help="print each cell as it lands")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and exit without polling")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="give up polling after this long (error exit)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the job record and every cell as JSON")

    p = sub.add_parser("jobs",
                       help="list a campaign service's jobs, or show one")
    p.add_argument("job_id", nargs="?", default=None)
    p.add_argument("--server", default=None, metavar="URL",
                   help="service endpoint (default $REPRO_SERVE_URL or "
                        f"http://127.0.0.1:{DEFAULT_PORT})")
    p.add_argument("--cells", action="store_true",
                   help="with a job id: dump its verdict cells")

    p = sub.add_parser("fuzz",
                       help="differential conformance fuzzing across "
                            "native/.cat/machine/brute-force checkers")
    p.add_argument("--arch", default="armv8",
                   choices=["x86", "power", "armv8", "riscv", "cpp"])
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (default: $REPRO_TEST_SEED)")
    p.add_argument("--budget", default="small",
                   choices=["smoke", "small", "medium", "large"],
                   help="suite size / oracle-eligibility tier")
    p.add_argument("--shrink", dest="shrink", action="store_true",
                   default=True,
                   help="shrink disagreements to minimal reproducers "
                        "(default)")
    p.add_argument("--no-shrink", dest="shrink", action="store_false")
    p.add_argument("--mutants", nargs="?", const="known", default=None,
                   metavar="AXIOMS",
                   help="inject weakened models and assert detection: "
                        "bare flag = the arch's known mutants, or a "
                        "comma-separated axiom list")
    p.add_argument("--no-machine", action="store_true",
                   help="skip the operational/hardware checkers")
    p.add_argument("--no-brute", action="store_true",
                   help="skip the brute-force ground-truth checker")
    p.add_argument("--jsonl", metavar="PATH",
                   help="write the machine-readable JSONL report")
    p.add_argument("--report", metavar="PATH",
                   help="write the markdown report")
    p.add_argument("--telemetry", action="store_true",
                   help="record structured telemetry and write a run "
                        "manifest under the cache's runs/ directory "
                        "(also enabled by $REPRO_TELEMETRY=1)")
    add_engine_options(p)

    p = sub.add_parser("explain",
                       help="print a model's compiled IR DAG stats and "
                            "per-axiom relation values for a test")
    p.add_argument("--test", required=True, metavar="NAME|FILE",
                   help="catalog entry name or litmus file path")
    p.add_argument("--model", required=True, metavar="SPECS",
                   help="comma-separated checker specs (registry names, "
                        ".cat library names, mut:<arch>:<axiom>, ...)")
    p.add_argument("--candidate", type=int, default=None, metavar="N",
                   help="for a litmus file: dump the N-th candidate's "
                        "per-axiom relations instead of the summary")
    p.add_argument("--relations", action="store_true",
                   help="also dump each axiom's IR node and pairs")

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--budget", type=float, default=120.0)
    p.add_argument("--full", action="store_true")
    add_engine_options(p)

    p = sub.add_parser("table2", help="regenerate Table 2")
    p.add_argument("--budget", type=float, default=120.0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (0 = one per CPU)")

    sub.add_parser("table3", help="print the lock-elision pi mapping")

    p = sub.add_parser("fig7", help="regenerate the Fig 7 curve")
    p.add_argument("--events", type=int, default=4)
    p.add_argument("--budget", type=float, default=120.0)

    p = sub.add_parser("stats",
                       help="list, inspect, and diff recorded run "
                            "manifests (campaigns, fuzz runs, benches)")
    p.add_argument("action", choices=["list", "show", "diff"])
    p.add_argument("runs", nargs="*",
                   help="run references: a manifest path, 'last', "
                        "'last~N', or a unique run-id prefix "
                        "(show takes one, diff takes baseline + fresh)")
    p.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="manifest directory (default "
                        "$REPRO_CACHE_DIR/runs or .repro-cache/runs)")
    p.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                   help="diff: exit 1 if any metric regresses by more "
                        "than PCT percent (default: warn only)")

    p = sub.add_parser("rtl", help="run the §6.2 RTL conformance check")
    p.add_argument("--events", type=int, default=4)
    p.add_argument("--budget", type=float, default=300.0)

    p = sub.add_parser("ablation", help="Power vs atomicity-only ablation")
    p.add_argument("--events", type=int, default=3)

    p = sub.add_parser("cat", help="evaluate a .cat library model")
    p.add_argument("model", nargs="?", default="x86")
    p.add_argument("entry", nargs="?", default="fig2")
    p.add_argument("--list", action="store_true",
                   help="list the .cat library files")
    p.add_argument("--source", metavar="FILE",
                   help="print a library file's source")

    p = sub.add_parser("diy", help="enumerate diy-style critical cycles")
    p.add_argument("--model", default="x86", choices=model_names())
    p.add_argument("--vocab",
                   default="PodWR,PodWW,PodRR,PodRW,Rfe,Fre,Wse")
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--forbidden-only", action="store_true")

    p = sub.add_parser("lemmas", help="check the Appendix C lemmas")
    p.add_argument("--events", type=int, default=2)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("elision", help="lock-elision soundness search")
    p.add_argument("--arch", default="armv8",
                   choices=["x86", "power", "armv8", "riscv"])
    p.add_argument("--fixed", action="store_true",
                   help="append the fence fix to lock()")
    p.add_argument("--write-lock", action="store_true",
                   help="the section 1.1 write-to-lock serialising fix")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--show", action="store_true",
                   help="print the counterexample pair")

    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "check": _cmd_check,
    "litmus": _cmd_litmus,
    "run": _cmd_run,
    "synth": _cmd_synth,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "explain": _cmd_explain,
    "fuzz": _cmd_fuzz,
    "stats": _cmd_stats,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig7": _cmd_fig7,
    "rtl": _cmd_rtl,
    "ablation": _cmd_ablation,
    "cat": _cmd_cat,
    "diy": _cmd_diy,
    "lemmas": _cmd_lemmas,
    "elision": _cmd_elision,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
