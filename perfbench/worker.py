"""One fresh process of an in-process workload (diy-l7, executions, synth).

    python3 perfbench/worker.py --workload diy-l7 --seed 1 --seconds 4 \\
        --trace 0 --out result.json [--spans spans.jsonl]

Set-up comes first: imports, input generation and the cold first pass
(empty expansion memos, plan and codegen caches), bracketed by two
samples of the host reference loop.  Then steady passes run until
``--seconds`` have passed, each preceded by ``prepare`` and a garbage
collection and followed by one sample of the host reference loop, so
the loop never runs during a pass.  With ``--trace 1`` the
layer wrappers record the set-up and every second steady pass; the
passes in between run with the wrappers removed, which gives the
tracing overhead.  The result (pass times, reference samples, operation
counts, peak RSS) is written to ``--out`` as JSON; spans go to
``--spans`` when the process ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostref  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, load_refs, plain_call  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    # A reference sample before set-up; with the one after the cold
    # pass it brackets set-up (its own cost is taken out of set-up time).
    start = time.monotonic()
    setup_ref_ms = hostref.sample_ms()
    setup_ref_s = time.monotonic() - start

    workload = WORKLOADS[args.workload](args.seed)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.tag = "setup"

    def timed_pass(tag: str, traced: bool):
        """Prepare outside the clock, then time one pass."""
        if recorder is not None:
            if traced:
                spans.install(recorder)
                recorder.tag = "setup" if tag == "cold" else "prep"
            else:
                spans.uninstall()
        workload.prepare()
        gc.collect()
        start = time.perf_counter()
        if traced:
            recorder.tag = tag
            result = recorder.span(
                "bench.pass", workload.run_pass, recorder.span
            )
        else:
            result = workload.run_pass(plain_call)
        return result, time.perf_counter() - start

    workload.setup()
    result, cold_seconds = timed_pass("cold", bool(args.trace))
    setup_end = time.monotonic()

    refs = load_refs()
    attempted, failed = workload.check(result, refs)
    cells = workload.judged(result)
    del result
    ref_ms = [hostref.sample_ms()]
    ref_at = [time.monotonic()]
    passes = []
    deadline = time.monotonic() + args.seconds
    while len(passes) < workload.min_passes or time.monotonic() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        at = time.monotonic()
        result, elapsed = timed_pass(f"p{len(passes)}", traced)
        passes.append({"seconds": elapsed, "traced": traced, "at": at})
        ops, bad = workload.check(result, refs)
        attempted += ops
        failed += bad
        del result
        ref_ms.append(hostref.sample_ms())
        ref_at.append(time.monotonic())

    if recorder is not None:
        spans.uninstall()
        recorder.dump(args.spans)
    out = {
        "workload": args.workload,
        "setup_end": setup_end,
        "setup_ref_ms": setup_ref_ms,
        "setup_ref_s": setup_ref_s,
        "cold_seconds": cold_seconds,
        "passes": passes,
        "ref_ms": ref_ms,
        "ref_at": ref_at,
        "cells": cells,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": hostref.peak_rss_kb(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
