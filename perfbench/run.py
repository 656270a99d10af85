"""Host-normalised, layer-attributed benchmark of the checker.

    python3 perfbench/run.py --workload diy-l7 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root.  Workloads (see ``BENCHMARK.json``):

* ``diy-l7``     power diy suite, length 7, 1526 tests x 8 native models;
* ``executions`` 1061 realised diy cycles (length <= 5, with TxndXY
  edges) as bare executions x 8 native models;
* ``synth``      Table-1 Forbid/Allow synthesis plus two lock-elision checks;
* ``serve``      ``repro serve --jobs 2`` under a closed loop of 2 clients.

Every workload runs in fresh processes with their own temporary codegen,
cache and runs directories under ``.perfbench-tmp/`` (removed at the
end).  Set-up is repeated in three or four processes (four service
boots for serve) and reported as a median.  A reference loop
(:mod:`hostref`) runs between passes; every end-to-end time is
multiplied by ``R0 / R``, with ``R`` the median of the reference
samples nearest it (:func:`pass_factors`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records
spans around every layer's public functions (:mod:`spans`) and prints
the per-layer metrics and a self-time table.  Every pass or job is
checked against committed references (``perfbench/refs``); the last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402
from workloads import REFS_PATH, WORKLOADS, load_refs  # noqa: E402

#: A run that has not finished after this many seconds failed.
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "cells_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and units; the ``*_s`` campaign-layer times are per
#: pass (per job for serve, where they are measured in pool workers).
PER_LAYER = {
    "litmus.enumerate_s": "s",
    "litmus.candidates": "count",
    "litmus.parse_ms": "ms",
    "synth.cycles_s": "s",
    "synth.realise_s": "s",
    "synth.generate_s": "s",
    "ir.scalar_s": "s",
    "ir.scalar_calls": "count",
    "ir.kernel_s": "s",
    "ir.kernel_calls": "count",
    "ir.batch_mean": "count",
    "ir.context_s": "s",
    "ir.compile_s": "s",
    "engine.prefill_self_s": "s",
    "engine.campaign_self_s": "s",
    "engine.batched_share": "ratio",
    "engine.first_pass_s": "s",
    "engine.cache_lookup_ms": "ms",
    "engine.cache_refresh_ms": "ms",
    "engine.cache_append_ms": "ms",
    "engine.pool_ms": "ms",
    "engine.pool_spawn_ms": "ms",
    "engine.pool_compute_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.notice_ms": "ms",
    "serve.polls_per_job": "count",
    "serve.fresh_job_ms": "ms",
    "serve.cached_job_ms": "ms",
    "serve.job_p90_ms": "ms",
    "serve.jobs": "count",
    "obs.manifest_ms": "ms",
    "metatheory.lockelision_s": "s",
    "host.ref_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_s": "s",
}

#: Span names whose self time is reported under each per-layer metric.
SPAN_METRICS = {
    "litmus.enumerate_s": "litmus.enumerate",
    "synth.generate_s": "synth.generate",
    "ir.scalar_s": "ir.scalar",
    "ir.kernel_s": "ir.kernel",
    "ir.context_s": "ir.context",
    "engine.prefill_self_s": "engine.prefill",
    "engine.campaign_self_s": "engine.campaign",
    "metatheory.lockelision_s": "metatheory.lockelision",
    "bench.unattributed_s": "bench.pass",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or references)."""


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def child_env(tmp: Path, hash_seed: int) -> dict:
    """The environment of every process the benchmark starts: no
    inherited ``REPRO_*`` knobs, temporary files inside ``tmp``, and a
    hash seed derived from the workload seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED=str(hash_seed % 4294967296),
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(tmp),
        REPRO_CODEGEN_DIR=str(tmp / "codegen"),
        REPRO_CACHE_DIR=str(tmp / "cache"),
    )
    return env


def load_spans(paths) -> list[tuple]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            out.extend(tuple(json.loads(line)) for line in handle)
    return out


def by_tag(spans) -> dict[str, list[tuple]]:
    """Spans grouped by their pass or job tag (field 3)."""
    groups: dict[str, list[tuple]] = {}
    for span in spans:
        groups.setdefault(span[3], []).append(span)
    return groups


def self_sum(spans, name: str) -> float:
    return sum(s[6] for s in spans if s[2] == name)


def self_table(groups: list[list[tuple]], factors: list[float]) -> dict:
    """Mean normalised self seconds and mean calls per group (pass or
    job), by span name.  Summed over names, the self times give the
    mean group time."""
    totals: dict[str, list[float]] = {}
    for spans, factor in zip(groups, factors):
        for s in spans:
            row = totals.setdefault(s[2], [0.0, 0.0])
            row[0] += s[6] * factor
            row[1] += 1
    n = max(1, len(groups))
    return {name: (t / n, c / n) for name, (t, c) in totals.items()}


def print_table(table: dict, unit_ms: bool) -> None:
    scale, unit = (1000.0, "ms") if unit_ms else (1.0, "s")
    total = sum(t for t, _ in table.values())
    print(f"    {'span':<26}{'self ' + unit:>12}{'share':>8}{'calls':>10}")
    for name, (t, c) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        share = 100.0 * t / total if total else 0.0
        print(f"    {name:<26}{t * scale:>12.4f}{share:>7.1f}%{c:>10.1f}")
    print(f"    {'total':<26}{total * scale:>12.4f}{100.0:>7.1f}%")


# ----------------------------------------------------------------------
# In-process workloads (diy-l7, executions, synth)
# ----------------------------------------------------------------------


def run_processes(name: str, seed: int, seconds: float, trace: int,
                  tmp: Path) -> list[dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = WORKLOADS[name].processes
    results = []
    for k in range(processes):
        work = tmp / f"proc{k}"
        work.mkdir(parents=True)
        out = work / "result.json"
        spans_path = work / "spans.jsonl"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds / processes),
            "--trace", str(trace),
            "--out", str(out),
            "--spans", str(spans_path),
        ]
        start = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=work, env=child_env(work, seed * 7919 + k)
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"{name} worker {k} exited with {code}")
        with out.open(encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["setup_end"] - start - result["setup_ref_s"]
        result["spans"] = load_spans([spans_path]) if trace else []
        results.append(result)
    return results


def pass_factors(ref_ms: list[float]) -> list[float]:
    """``R0 / R`` for each pass: ``R`` is the median of the four
    reference samples nearest it, two taken before and two after.  The
    median keeps one disturbed sample from moving a pass; four samples
    stay within about a second of the pass, the scale on which the
    host's speed changes."""
    return [
        hostref.R0_MS / statistics.median(ref_ms[max(0, i - 1) : i + 3])
        for i in range(len(ref_ms) - 1)
    ]


def setup_factor(proc: dict) -> float:
    """``R0 / R`` for set-up: the median of the sample taken before it
    and the two taken after it."""
    samples = [proc["setup_ref_ms"]] + proc["ref_ms"][:2]
    return hostref.R0_MS / statistics.median(samples)


def end_to_end(cells: float, times: list[float], work_s: float,
               setup: list[float], rss_kb: list[float]) -> dict:
    """The end-to-end metrics from per-operation times, the total time
    the measured work took, and the set-up times of the processes."""
    return {
        "cells_per_s": cells / work_s,
        "latency_p50_ms": 1000.0 * median(times),
        "setup_s": median(setup),
        "peak_rss_mb": median(rss_kb) / 1024.0,
    }


def campaign_report(procs: list[dict], trace: int) -> dict:
    cells = procs[0]["cells"]
    raw, norm = [], []
    for proc in procs:
        factors = pass_factors(proc["ref_ms"])
        for i, p in enumerate(proc["passes"]):
            if not p["traced"]:
                raw.append(p["seconds"])
                norm.append(p["seconds"] * factors[i])
    setup_raw = [p["setup_s"] for p in procs]
    setup = [p["setup_s"] * setup_factor(p) for p in procs]
    rss = [p["peak_rss_kb"] for p in procs]
    report = {
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "ref_ms": median(r for p in procs for r in p["ref_ms"]),
        "samples": len(norm),
        "p90_ms": 1000.0 * p90(norm),
        "raw": end_to_end(cells, raw, median(raw), setup_raw, rss),
        "metrics": end_to_end(cells, norm, median(norm), setup, rss),
    }
    if trace:
        report["layers"], table, n = campaign_layers(procs, cells)
        print(f"self time per traced pass (normalised, mean of {n} passes):")
        print_table(table, unit_ms=False)
    return report


def campaign_layers(procs, cells: int):
    """Per-layer metrics: medians over traced passes of per-pass self
    times (normalised per pass), counts and ratios; set-up layers from
    each process's set-up, as a median over processes."""
    passes: list[tuple[float, list[tuple]]] = []
    setup_values: dict[str, list[float]] = {
        "synth.cycles_s": [], "synth.realise_s": [], "ir.compile_s": [],
        "engine.first_pass_s": [],
    }
    traced_s, untraced_s = [], []
    for proc in procs:
        groups = by_tag(proc["spans"])
        factors = pass_factors(proc["ref_ms"])
        setup_norm = setup_factor(proc)
        for i, p in enumerate(proc["passes"]):
            (traced_s if p["traced"] else untraced_s).append(
                p["seconds"] * factors[i]
            )
            if p["traced"]:
                passes.append((factors[i], groups.get(f"p{i}", [])))
        setup = groups.get("setup", [])
        for metric, span in (("synth.cycles_s", "synth.cycles"),
                             ("synth.realise_s", "synth.realise")):
            setup_values[metric].append(self_sum(setup, span) * setup_norm)
        setup_values["ir.compile_s"].append(
            self_sum(proc["spans"], "ir.compile") * setup_norm
        )
        setup_values["engine.first_pass_s"].append(
            proc["cold_seconds"] * setup_norm
        )

    def per_pass(fn) -> float:
        return median(fn(g) for _, g in passes)

    def count(g, name: str) -> int:
        return sum(1 for s in g if s[2] == name)

    def total(g, name: str) -> int:
        return sum(s[7] for s in g if s[2] == name)

    layers = {name: 0.0 for name in PER_LAYER}
    for metric, span in SPAN_METRICS.items():
        layers[metric] = median(f * self_sum(g, span) for f, g in passes)
    layers["litmus.candidates"] = per_pass(
        lambda g: total(g, "litmus.enumerate")
    )
    layers["ir.scalar_calls"] = per_pass(lambda g: count(g, "ir.scalar"))
    layers["ir.kernel_calls"] = per_pass(lambda g: count(g, "ir.kernel"))
    layers["ir.batch_mean"] = per_pass(
        lambda g: total(g, "ir.kernel") / max(1, count(g, "ir.kernel"))
    )
    layers["engine.batched_share"] = per_pass(
        lambda g: total(g, "engine.prefill") / cells
    )
    for metric, values in setup_values.items():
        layers[metric] = median(values)
    layers["host.ref_ms"] = median(r for p in procs for r in p["ref_ms"])
    layers["bench.trace_overhead"] = median(traced_s) / median(untraced_s)
    table = self_table([g for _, g in passes], [f for f, _ in passes])
    return layers, table, len(passes)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def run_serve_workload(seed, seconds, trace, tmp) -> dict:
    import serveload

    corpus = serveload.Corpus(ROOT / "tests" / "corpus", load_refs())
    rounds = []
    # Rounds come in groups that compute every block once.  A traced run
    # runs each schedule of one group twice, traced then untraced, which
    # also measures the tracing overhead.
    group = serveload.ROUNDS_PER_GROUP * (2 if trace else 1)
    measured = 0.0
    while not rounds or measured * (len(rounds) + group) / len(rounds) <= seconds:
        for _ in range(group):
            r = len(rounds)
            work = tmp / f"round{r}"
            number = r // 2 if trace else r
            rounds.append(
                serveload.run_round(
                    corpus, work, child_env(work, seed * 7919 + r), seed,
                    number, traced=bool(trace) and r % 2 == 0,
                )
            )
            measured += sum(rounds[-1]["segment_s"])
    for r in rounds:
        factors = pass_factors(r["ref_ms"])
        r["work_norm_s"] = sum(t * f for t, f in zip(r["segment_s"], factors))
        for job in r["jobs"]:
            job["factor"] = factors[job["segment"]]
    plain = [r for r in rounds if not r["traced"]]
    jobs = [j for r in plain for j in r["jobs"]]
    cells = sum(j["cells"] for j in jobs)
    rss = [r["peak_rss_kb"] for r in rounds]
    report = {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "ref_ms": median(x for r in rounds for x in r["ref_ms"]),
        "samples": len(jobs),
        "p90_ms": 1000.0 * p90(j["latency_s"] * j["factor"] for j in jobs),
        "raw": end_to_end(
            cells,
            [j["latency_s"] for j in jobs],
            sum(sum(r["segment_s"]) for r in plain),
            [r["boot_s"] for r in rounds],
            rss,
        ),
        "metrics": end_to_end(
            cells,
            [j["latency_s"] * j["factor"] for j in jobs],
            sum(r["work_norm_s"] for r in plain),
            [r["boot_s"] * setup_factor(r) for r in rounds],
            rss,
        ),
    }
    if trace:
        report["layers"] = serve_layers(rounds)
    return report


def serve_layers(rounds) -> dict:
    """Per-layer metrics of the traced rounds, per job: the service's
    own spans, the spans of its pool workers, and the client's view."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    jobs = [j for r in traced for j in r["jobs"]]
    service_jobs, worker_jobs, factors = [], [], []
    spawn_ms, compute_ms = [], []
    for r in traced:
        spans_dir = Path(r["spans_dir"])
        service = by_tag(load_spans([spans_dir / "service.jsonl"]))
        workers = by_tag(load_spans(sorted(spans_dir.glob("worker-*.jsonl"))))
        for job in r["jobs"]:
            tag = job["record"]["id"]
            f = job["factor"]
            group = service.get(tag, [])
            shards = [s for s in workers.get(tag, []) if s[2] == "engine.shard"]
            pools = [s for s in group if s[2] == "engine.pool"]
            service_jobs.append(group)
            worker_jobs.append(workers.get(tag, []))
            factors.append(f)
            if shards and pools:
                spawn_ms.append(f * (min(s[4] for s in shards) - pools[0][4]))
            compute_ms.append(f * sum(s[5] - s[4] for s in shards))
    n = max(1, len(service_jobs))

    def per_job(groups, span: str) -> float:
        return sum(
            f * self_sum(g, span) for f, g in zip(factors, groups)
        ) / n

    def count(name: str) -> float:
        return sum(1 for g in worker_jobs for s in g if s[2] == name)

    def total(name: str) -> float:
        return sum(s[7] for g in worker_jobs for s in g if s[2] == name)

    def ms_median(values) -> float:
        return 1000.0 * median(values)

    layers = {name: 0.0 for name in PER_LAYER}
    for metric, span in (
        ("litmus.parse_ms", "litmus.parse"),
        ("engine.cache_lookup_ms", "engine.cache_lookup"),
        ("engine.cache_refresh_ms", "engine.cache_refresh"),
        ("engine.cache_append_ms", "engine.cache_append"),
        ("engine.pool_ms", "engine.pool"),
        ("obs.manifest_ms", "obs.manifest"),
    ):
        layers[metric] = 1000.0 * per_job(service_jobs, span)
    # The campaign layers run inside the pool workers.
    for metric, span in SPAN_METRICS.items():
        if metric != "bench.unattributed_s":
            layers[metric] = per_job(worker_jobs, span)
    layers["ir.compile_s"] = per_job(worker_jobs, "ir.compile")
    layers["litmus.candidates"] = total("litmus.enumerate") / n
    layers["ir.scalar_calls"] = count("ir.scalar") / n
    layers["ir.kernel_calls"] = count("ir.kernel") / n
    layers["ir.batch_mean"] = total("ir.kernel") / max(1, count("ir.kernel"))
    computed = sum(j["record"]["cells"]["computed"] for j in jobs)
    layers["engine.batched_share"] = (
        total("engine.prefill") / computed if computed else 0.0
    )
    layers["engine.pool_spawn_ms"] = 1000.0 * sum(spawn_ms) / n
    layers["engine.pool_compute_ms"] = 1000.0 * sum(compute_ms) / n
    layers["engine.first_pass_s"] = median(
        r["jobs"][0]["factor"]
        * (r["jobs"][0]["record"]["finished"] - r["jobs"][0]["record"]["started"])
        for r in traced
    )
    rec = [(j["factor"], j["record"]) for j in jobs]
    untraced_latency = [
        j["factor"] * j["latency_s"] for r in plain for j in r["jobs"]
    ]
    layers.update({
        "serve.submit_ms": ms_median(j["factor"] * j["submit_s"] for j in jobs),
        "serve.queue_ms": ms_median(
            f * (r["started"] - r["created"]) for f, r in rec
        ),
        "serve.run_ms": ms_median(
            f * (r["finished"] - r["started"]) for f, r in rec
        ),
        "serve.notice_ms": ms_median(j["factor"] * j["notice_s"] for j in jobs),
        "serve.polls_per_job": sum(j["polls"] for j in jobs) / max(1, len(jobs)),
        "serve.fresh_job_ms": ms_median(
            j["factor"] * j["latency_s"]
            for j in jobs if j["record"]["cells"]["computed"]
        ),
        "serve.cached_job_ms": ms_median(
            j["factor"] * j["latency_s"]
            for j in jobs if not j["record"]["cells"]["computed"]
        ),
        "serve.job_p90_ms": 1000.0 * p90(untraced_latency),
        "serve.jobs": len(untraced_latency),
        "host.ref_ms": median(x for r in rounds for x in r["ref_ms"]),
        "bench.trace_overhead": median(r["work_norm_s"] for r in traced)
        / median(r["work_norm_s"] for r in plain),
    })
    print(f"self time per job (normalised, mean of {n} traced jobs):")
    print("  service scheduler thread")
    print_table(self_table(service_jobs, factors), unit_ms=True)
    print("  pool workers (summed over workers)")
    print_table(self_table(worker_jobs, factors), unit_ms=True)
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def preflight(workload: str) -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    if not REFS_PATH.is_file():
        raise BenchError(f"missing references {REFS_PATH}")
    if workload in ("serve", "all") and not (ROOT / "tests" / "corpus").is_dir():
        raise BenchError("tests/corpus is missing")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    tmp = ROOT / ".perfbench-tmp" / f"{workload}-{os.getpid()}-{trace}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if workload == "serve":
            report = run_serve_workload(seed, seconds, trace, tmp)
        else:
            procs = run_processes(workload, seed, seconds, trace, tmp)
            report = campaign_report(procs, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(
        f"[{workload}] seed {seed}: {report['attempted']} operations checked, "
        f"{report['failed']} failed; {report['samples']} timed samples "
        f"(p90 {report['p90_ms']:.1f} ms); "
        f"median R = {report['ref_ms']:.3f} ms against R0 = {hostref.R0_MS} ms"
    )
    if trace:
        report["out"] = {
            k: {"value": report["layers"][k], "unit": u} for k, u in PER_LAYER.items()
        }
    else:
        report["out"] = {
            k: {"value": report["metrics"][k], "unit": u}
            for k, u in END_TO_END.items()
        }
    for key, entry in report["out"].items():
        raw = report["raw"].get(key) if not trace else None
        extra = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {key:<26}{entry['value']:>16.6g} {entry['unit']}{extra}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-normalised, layer-attributed benchmark."
    )
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(WORKLOADS) + ["serve", "all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight(args.workload)
        if args.workload == "all":
            names = sorted(WORKLOADS) + ["serve"]
            reports = {
                (name, trace): run_one(name, args.seed, args.seconds, trace)
                for name in names
                for trace in (0, 1)
            }
            attempted = sum(r["attempted"] for r in reports.values())
            failed = sum(r["failed"] for r in reports.values())
            metrics = {
                f"{name}/{key}": entry
                for (name, _), r in reports.items()
                for key, entry in r["out"].items()
            }
        else:
            report = run_one(args.workload, args.seed, args.seconds, args.trace)
            attempted, failed = report["attempted"], report["failed"]
            metrics = report["out"]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
