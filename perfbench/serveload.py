"""The serve workload: a closed loop of two clients against ``repro serve``.

A round boots a fresh service (``--jobs 2``, empty store and codegen
cache) through :mod:`serve_launcher`, runs one job schedule and shuts
the service down.  Each job is one corpus dialect directory x one model
spec (the 8 native models and their ``!notm`` baselines): 64 blocks.
Half of a round's jobs are fresh blocks, which compute and append to
the store; the other half resubmit a block of the round once more,
which the store then serves.  Four rounds compute every block once.
Jobs are submitted in schedule order (a lock covers each submit), so a
resubmit always queues behind its fresh job.

Two client threads each submit a job, poll its record every
:data:`POLL_S` seconds until it is ``done`` or ``failed``, and only then
take the next job.  The schedule runs in :data:`SEGMENTS` segments; the
host reference loop runs between segments, while the service is idle.
After the schedule every job's cells are fetched and checked: native
models against ``tests/corpus_verdicts.json``, ``!notm`` baselines
against the committed scalar-path digests.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostref
from workloads import MODELS, digest

HERE = Path(__file__).resolve().parent

DIRS = ("armv8", "power", "riscv", "x86")
SPECS = MODELS + tuple(f"{m}!notm" for m in MODELS)
BLOCKS = tuple((d, spec) for d in DIRS for spec in SPECS)
#: A group of rounds computes every block fresh exactly once.
ROUNDS_PER_GROUP = 4
SEGMENTS = 8
CLIENTS = 2
#: Poll period: well below the ~50-150 ms a job takes.
POLL_S = 0.005
BOOT_TIMEOUT_S = 60.0


def schedule(seed: int, number: int) -> list[tuple[str, str, str]]:
    """``(kind, dir, spec)`` jobs of schedule ``number``.

    The seed shuffles the 64 blocks once per group of
    :data:`ROUNDS_PER_GROUP` schedules; each schedule of the group takes
    the next quarter as its fresh blocks and resubmits each of them once,
    at a random later point.  So every group does the same work, and
    the seed sets only the order.
    """
    group, part = divmod(number, ROUNDS_PER_GROUP)
    blocks = list(BLOCKS)
    random.Random(f"serve/{seed}/{group}").shuffle(blocks)
    size = len(blocks) // ROUNDS_PER_GROUP
    fresh = blocks[part * size : (part + 1) * size]
    rng = random.Random(f"serve/{seed}/{group}/{part}")
    jobs: list[tuple[str, str, str]] = []
    submitted: list[tuple[str, str]] = []
    while fresh or submitted:
        if fresh and (not submitted or rng.random() < 0.5):
            block = fresh.pop()
            submitted.append(block)
            jobs.append(("fresh",) + block)
        else:
            block = submitted.pop(rng.randrange(len(submitted)))
            jobs.append(("cached",) + block)
    return jobs


class Corpus:
    """The corpus file lists and the committed references."""

    def __init__(self, root: Path, refs: dict) -> None:
        self.paths = {
            d: sorted(str(p) for p in (root / d).glob("*.litmus")) for d in DIRS
        }
        with (root.parent / "corpus_verdicts.json").open(encoding="utf-8") as f:
            self.golden = json.load(f)
        self.refs = refs["serve"]

    def check(self, d: str, spec: str, cells: list[dict]) -> tuple[int, int]:
        """Cells attempted and failed for one job's delivered cells."""
        names = self.refs["names"][d]
        attempted = len(names)
        errors = sum(1 for c in cells if c["error"] is not None)
        seen = {c["item"]: c["verdict"] for c in cells if c["error"] is None}
        if spec.endswith("!notm"):
            got = digest(f"{item}\t{int(v)}" for item, v in seen.items())
            if got != self.refs["notm"][d][spec]:
                return attempted, attempted
            wrong = 0
        else:
            wrong = sum(
                1
                for item, v in seen.items()
                if item not in names or self.golden[names[item]][spec] != v
            )
        missing = attempted - len(seen) - errors
        return attempted, min(attempted, errors + wrong + max(0, missing))


class Service:
    """One booted service process (see :mod:`serve_launcher`)."""

    def __init__(self, workdir: Path, env: dict, traced: bool) -> None:
        from repro.serve.client import ServiceClient

        workdir.mkdir(parents=True)
        self.spans_dir = workdir / "spans"
        self.spans_dir.mkdir()
        self.stats_path = workdir / "stats.json"
        command = [
            sys.executable,
            str(HERE / "serve_launcher.py"),
            "--trace", str(int(traced)),
            "--spans-dir", str(self.spans_dir),
            "--stats", str(self.stats_path),
            "--",
            "--jobs", "2",
            "--host", "127.0.0.1",
            "--port", "0",
            "--cache-dir", str(workdir / "store"),
        ]
        start = time.monotonic()
        self.process = subprocess.Popen(
            command,
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            self.client = ServiceClient(line.split("listening on ")[1].strip())
            while True:
                try:
                    if self.client.healthz().get("ok"):
                        break
                except Exception:
                    if time.monotonic() - start > BOOT_TIMEOUT_S:
                        raise
                    time.sleep(0.002)
            self.boot_s = time.monotonic() - start
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def close(self) -> dict:
        """Shut down, wait for the process; its stats."""
        try:
            self.client.shutdown()
            self.process.wait(timeout=60)
        finally:
            self.kill()
        with self.stats_path.open(encoding="utf-8") as handle:
            return json.load(handle)


def _client_loop(client, jobs, lock, out) -> None:
    while True:
        with lock:
            if not jobs:
                return
            index, (kind, d, spec), paths = jobs.pop(0)
            wall = time.time()
            start = time.perf_counter()
            record = client.submit(
                {"suite": {"kind": "files", "paths": paths}, "models": [spec]}
            )
            submitted = time.perf_counter()
        polls = 0
        while True:
            record = client.job(record["id"])
            polls += 1
            if record["state"] in ("done", "failed"):
                break
            time.sleep(POLL_S)
        seen = time.perf_counter()
        out[index] = {
            "kind": kind,
            "dir": d,
            "spec": spec,
            "record": record,
            "submit_s": submitted - start,
            "latency_s": seen - start,
            "notice_s": (wall + (seen - start)) - record["finished"]
            if record["finished"]
            else 0.0,
            "polls": polls,
        }


def run_round(corpus: Corpus, workdir: Path, env: dict, seed: int,
              number: int, traced: bool) -> dict:
    """Boot, run schedule ``number``, verify every job, shut down."""
    jobs = schedule(seed, number)
    setup_ref_ms = hostref.sample_ms()
    service = Service(workdir, env, traced)
    try:
        results: list = [None] * len(jobs)
        ref_ms = [hostref.sample_ms()]
        segment_s = []
        per_segment = -(-len(jobs) // SEGMENTS)
        lock = threading.Lock()
        for lo in range(0, len(jobs), per_segment):
            queue = [
                (i, jobs[i], corpus.paths[jobs[i][1]])
                for i in range(lo, min(lo + per_segment, len(jobs)))
            ]
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(service.client, queue, lock, results),
                )
                for _ in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            segment_s.append(time.perf_counter() - start)
            ref_ms.append(hostref.sample_ms())
        attempted = failed = 0
        for index, job in enumerate(results):
            if job is None:
                raise RuntimeError("a client thread died before its job ended")
            payload = service.client.cells(job["record"]["id"], 0)
            ops, bad = corpus.check(job["dir"], job["spec"], payload["cells"])
            if job["record"]["state"] != "done":
                bad = ops
            attempted += ops
            failed += bad
            job["cells"] = len(payload["cells"])
            job["segment"] = index // per_segment
        boot_s = service.boot_s
    finally:
        stats = service.close()
    return {
        "traced": traced,
        "boot_s": boot_s,
        "setup_ref_ms": setup_ref_ms,
        "segment_s": segment_s,
        "jobs": results,
        "ref_ms": ref_ms,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": stats["self_kb"] + stats["worker_kb"],
        "spans_dir": str(service.spans_dir),
    }
