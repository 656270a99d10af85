"""Campaign service tests: the shared result store, resilient pool
dispatch, the batching×telemetry composition, and the job service with
its HTTP face."""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import diy_suite, run_campaign
from repro.engine import pool as engine_pool
from repro.engine.cache import NullCache, ResultCache
from repro.engine.pool import PoisonedTask, resilient_map
from repro.litmus.candidates import set_batch_size
from repro.obs import telemetry
from repro.serve import (
    CampaignService,
    JobSpec,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SpecError,
)
from repro.serve import server as server_module
from repro.serve import service as service_module
from repro.serve.protocol import suite_items


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


# ----------------------------------------------------------------------
# Shared result store
# ----------------------------------------------------------------------


def _append_records(path, prefix, count):
    """Child-process body: append ``count`` records via a own cache."""
    with ResultCache(path) as cache:
        for i in range(count):
            cache.put(f"{prefix}-{i}", {"verdict": i % 2 == 0, "n": i})


class TestSharedStore:
    def test_two_instances_see_each_others_puts(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultCache(path) as a, ResultCache(path) as b:
            a.put("ka", {"verdict": True})
            b.put("kb", {"verdict": False})
            # Neither has read the other's append yet.
            assert b._records.get("ka") is None
            assert a._records.get("kb") is None
            assert a.refresh() >= 1
            assert b.refresh() >= 1
            assert a._records["kb"]["verdict"] is False
            assert b._records["ka"]["verdict"] is True

    def test_last_record_wins_across_writers(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultCache(path) as a, ResultCache(path) as b:
            a.put("k", {"verdict": True, "writer": "a"})
            b.put("k", {"verdict": False, "writer": "b"})
            a.refresh()
            assert a._records["k"]["writer"] == "b"
        # A cold load resolves the duplicate the same way.
        with ResultCache(path) as fresh:
            assert fresh._records["k"]["writer"] == "b"

    def test_concurrent_processes_produce_no_torn_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        workers = [
            multiprocessing.Process(
                target=_append_records, args=(path, f"w{i}", 200)
            )
            for i in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
            assert w.exitcode == 0
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""  # file ends on a record boundary
        for line in lines[:-1]:
            json.loads(line)  # every line is one complete record
        with ResultCache(path) as cache:
            assert len(cache) == 4 * 200
            assert cache.corrupt_lines == 0

    def test_torn_tail_tolerated_then_folded_when_complete(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultCache(path) as cache:
            cache.put("k1", {"verdict": True})
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"key": "k2", "verd')  # in-flight append
            reader = ResultCache(path)
            assert "k1" in reader._records
            assert "k2" not in reader._records
            assert reader.corrupt_lines == 0  # torn tail is not corruption
            with path.open("a", encoding="utf-8") as handle:
                handle.write('ict": false}\n')
            assert reader.refresh() == 1
            assert reader._records["k2"]["verdict"] is False
            reader.close()

    def test_interior_corruption_counted_and_warned(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            '{"key": "good1", "verdict": true}\n'
            "THIS IS NOT JSON\n"
            '{"verdict": true}\n'
            '{"key": "good2", "verdict": false}\n',
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="corrupt cache line"):
            cache = ResultCache(path)
        assert cache.corrupt_lines == 2  # garbage + keyless record
        assert set(cache._records) == {"good1", "good2"}
        assert cache.stats_dict()["corrupt_lines"] == 2
        assert "2 corrupt lines skipped" in cache.stats()
        cache.close()

    def test_truncation_triggers_full_reload(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultCache(path) as writer:
            writer.put("k1", {"verdict": True})
            writer.put("k2", {"verdict": True})
            reader = ResultCache(path)
            assert len(reader) == 2
            path.write_text(
                '{"key": "k3", "verdict": false}\n', encoding="utf-8"
            )
            reader.refresh()
            assert set(reader._records) == {"k3"}
            reader.close()


# ----------------------------------------------------------------------
# Resilient pool dispatch
# ----------------------------------------------------------------------


def _double(x):
    return x * 2


def _crash_on_7(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


def _die_on_3(x):
    if x == 3:
        os._exit(13)  # kill the worker process, not just the task
    return x


def _hang_on_2(x):
    if x == 2:
        time.sleep(60)
    return x


SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A program that stalls a two-worker dispatch on a ``sleep(60)`` task
#: and exits; each task leaves a file named by its worker's pid.
HANG_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.engine.pool import PoisonedTask, resilient_map

def task(x):
    open(os.path.join({pids!r}, str(os.getpid())), "w").close()
    if x == 2:
        time.sleep(60)
    return x

if __name__ == "__main__":
    out = resilient_map(task, [1, 2, 4], jobs=2, timeout=1.0, retries=0)
    if isinstance(out[1], PoisonedTask):
        print("poisoned")
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _kill_all(directory) -> None:
    for path in Path(directory).iterdir():
        try:
            os.kill(int(path.name), signal.SIGKILL)
        except ProcessLookupError:
            pass


class TestResilientMap:
    def test_happy_path_keeps_order(self):
        assert resilient_map(_double, range(8), jobs=2) == [
            x * 2 for x in range(8)
        ]

    def test_crash_is_retried_then_poisoned(self):
        out = resilient_map(_crash_on_7, [1, 7, 9], jobs=2, retries=1)
        assert out[0] == 1 and out[2] == 9
        assert isinstance(out[1], PoisonedTask)
        assert "ValueError" in out[1].error
        assert out[1].attempts == 2  # initial run + one retry

    def test_serial_fallback_poisons_crashes(self):
        out = resilient_map(_crash_on_7, [7, 8], jobs=1, retries=0)
        assert isinstance(out[0], PoisonedTask)
        assert out[1] == 8

    def test_worker_death_poisons_only_the_culprit(self):
        out = resilient_map(_die_on_3, [1, 2, 3, 4, 5], jobs=2, retries=0)
        assert isinstance(out[2], PoisonedTask)
        assert "worker process died" in out[2].error
        assert [out[i] for i in (0, 1, 3, 4)] == [1, 2, 4, 5]

    def test_hang_is_abandoned_within_budget(self):
        start = time.monotonic()
        out = resilient_map(
            _hang_on_2, [1, 2, 4], jobs=3, timeout=1.0, retries=0
        )
        assert time.monotonic() - start < 30  # nobody waited for sleep(60)
        assert out[0] == 1 and out[2] == 4
        assert isinstance(out[1], PoisonedTask)
        assert "TimeoutError" in out[1].error


def _slow_pid(_x):
    # Slow enough that both workers of a two-worker pool take a task.
    time.sleep(0.2)
    return os.getpid()


def _pids():
    return set(resilient_map(_slow_pid, range(4), jobs=2, timeout=30))


def _nested_sum(_x):
    return sum(resilient_map(_double, range(3), jobs=2))


def _memo_seen(test):
    """How many expansions the memo held when the task started; the
    task then leaves one behind."""
    from repro.litmus.candidates import _expand_test, expand_test

    seen = _expand_test.cache_info().currsize
    list(expand_test(test))
    return seen


class TestWarmPool:
    """One pool serves consecutive dispatches until a worker dies or
    hangs, and a pooled task sees the switches of the dispatching
    process."""

    def test_consecutive_dispatches_share_the_workers(self):
        first, second = _pids(), _pids()
        assert os.getpid() not in first
        assert first & second  # a fresh pool per dispatch shares none
        assert len(first | second) <= 2

    def test_pooled_tasks_share_no_expansion_memo(self):
        tests = [item.payload for item in diy_suite("x86", max_length=2)]
        for _ in range(2):
            seen = resilient_map(_memo_seen, tests, jobs=2, timeout=30)
            assert seen == [0] * len(tests)

    def test_pooled_task_can_dispatch(self):
        # Workers forked from a process holding a warm pool must fork
        # their own, not submit to a copy of their parent's.
        _pids()
        out = resilient_map(_nested_sum, range(2), jobs=2, timeout=30)
        assert out == [6, 6]

    def test_worker_death_discards_the_pool(self):
        before = _pids()
        # The timeout turns a death the pool failed to notice into a
        # failure, not a hang.
        out = resilient_map(
            _die_on_3, [1, 2, 3, 4, 5], jobs=2, timeout=30, retries=0
        )
        assert isinstance(out[2], PoisonedTask)
        assert "worker process died" in out[2].error
        after = _pids()
        assert len(after) >= 1 and not after & before

    def test_worker_killed_while_idle(self):
        victim = _pids().pop()
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.5)  # the pool notices the death while idle
        after = resilient_map(_slow_pid, range(4), jobs=2, timeout=30)
        assert all(isinstance(pid, int) for pid in after)
        assert victim not in after

    def test_hang_discards_the_pool(self):
        before = _pids()
        out = resilient_map(
            _hang_on_2, [1, 2, 4], jobs=2, timeout=1.0, retries=0
        )
        assert isinstance(out[1], PoisonedTask)
        after = _pids()
        assert len(after) >= 1 and not after & before

    def test_abandoned_hang_does_not_hold_up_exit(self, tmp_path):
        # The hung worker is terminated with its pool, so neither the
        # interpreter's exit hook nor anything else waits out the
        # sleep(60), and no worker outlives the process.
        pids = tmp_path / "pids"
        pids.mkdir()
        script = tmp_path / "hang.py"
        script.write_text(HANG_SCRIPT.format(src=SRC, pids=str(pids)))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                timeout=15,
            )
        except subprocess.TimeoutExpired:
            _kill_all(pids)
            pytest.fail("process still running 15 s after a 1 s stall")
        assert proc.returncode == 0, proc.stderr
        assert "poisoned" in proc.stdout
        assert time.monotonic() - start < 15
        workers = [int(path.name) for path in pids.iterdir()]
        assert len(workers) >= 2  # the hung worker and a healthy one
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]

    def test_set_batch_size_reaches_pooled_workers(self):
        suite = diy_suite("x86", max_length=3)

        def batched_spans():
            bundle = telemetry.enable()
            try:
                run_campaign(suite, ["x86"], jobs=2, cache=NullCache())
                spans = [
                    s for s in bundle.tracer.spans if s["name"] == "cell"
                ]
            finally:
                telemetry.disable()
            assert len(spans) == len(suite)
            return [s for s in spans if (s.get("attrs") or {}).get("batched")]

        assert batched_spans()  # the pool forked with the prefill on
        try:
            set_batch_size(0)
            assert not batched_spans()
        finally:
            set_batch_size(None)
        assert batched_spans()


# ----------------------------------------------------------------------
# Batching × telemetry
# ----------------------------------------------------------------------


class TestBatchedTelemetry:
    def test_telemetry_run_takes_batched_path_with_identical_verdicts(
        self,
    ):
        """The old fallback is gone: with telemetry on, a serial
        campaign still runs the batched prefill, records one span per
        decided cell (tagged ``batched``), feeds the per-model latency
        histograms, and produces verdicts bit-identical to the scalar
        path."""
        suite = diy_suite("x86", max_length=3)
        models = ["x86", "x86tm"]
        try:
            set_batch_size(0)  # scalar reference
            scalar = run_campaign(suite, models, cache=NullCache())
            set_batch_size(64)
            bundle = telemetry.enable()
            batched = run_campaign(suite, models, cache=NullCache())
            spans = [
                s for s in bundle.tracer.spans if s["name"] == "cell"
            ]
            hist = bundle.metrics.histograms
        finally:
            set_batch_size(None)
            telemetry.disable()
        assert batched.matrix() == scalar.matrix()
        assert len(spans) == len(suite) * len(models)
        prefilled = [
            s for s in spans if (s.get("attrs") or {}).get("batched")
        ]
        assert prefilled, "no cell went through the batched prefill"
        for span in prefilled:
            assert span["attrs"]["token"]
            assert span["self"] == 0.0  # sweep time lives in stage spans
        for spec in models:
            assert hist[f"cell_seconds:{spec}"].count == len(suite)


# ----------------------------------------------------------------------
# Job spec validation
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_minimal_diy_spec(self):
        spec = JobSpec.from_dict(
            {"suite": {"kind": "diy", "arch": "x86"}, "models": ["x86"]}
        )
        assert spec.models == ["x86"]
        assert "options" not in spec.to_dict()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_options_are_ignored(self):
        # Older clients still send the retired ``batch``, ``codegen``,
        # ``cell_timeout``, ``retries`` and ``shards`` knobs.
        retired = {
            "batch": 0,
            "codegen": False,
            "cell_timeout": -1,
            "retries": -1,
            "shards": 0,
        }
        plain = {"suite": {"kind": "diy", "arch": "x86"}, "models": ["x86"]}
        spec = JobSpec.from_dict({**plain, "options": retired})
        assert spec == JobSpec.from_dict(plain)
        for name in retired:
            assert not hasattr(spec, name)
        assert "options" not in spec.to_dict()

    @pytest.mark.parametrize(
        "bad",
        [
            "not an object",
            {},
            {"suite": {"kind": "nope"}, "models": ["x86"]},
            {"suite": {"kind": "files", "paths": []}, "models": ["x86"]},
            {"suite": {"kind": "files", "paths": [1]}, "models": ["x86"]},
            {"suite": {"kind": "diy"}, "models": []},
            {"suite": {"kind": "diy"}, "models": "x86"},
            {"suite": {"kind": "diy"}, "models": [1]},
            {"suite": {"kind": "diy", "vocab": []}, "models": ["x86"]},
            {"suite": {"kind": "diy", "length": 1}, "models": ["x86"]},
            {"suite": {"kind": "diy", "vocab": "Rfe"}, "models": ["x86"]},
            {"suite": {"kind": "diy", "vocab": [1]}, "models": ["x86"]},
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            JobSpec.from_dict(bad)

    def test_unknown_diy_edge_rejected_at_submit(self):
        # An edge-name lookup touches no filesystem, so a typo is a 400
        # at submit rather than a job that is queued and then fails.
        with pytest.raises(SpecError, match="unknown edge 'PodXY'; known: "):
            JobSpec.from_dict(
                {
                    "suite": {"kind": "diy", "vocab": ["PodXY", "Rfe"]},
                    "models": ["x86"],
                }
            )
        spec = JobSpec.from_dict(
            {"suite": {"kind": "diy", "vocab": ["Rfe", "Fre"]},
             "models": ["x86"]}
        )
        assert spec.suite["vocab"] == ["Rfe", "Fre"]

    def test_empty_diy_vocab_rejected_at_submit(self):
        # It names no edge, so it could only build an empty suite.
        with pytest.raises(SpecError, match="empty vocab"):
            JobSpec.from_dict(
                {"suite": {"kind": "diy", "vocab": []}, "models": ["x86"]}
            )

    @pytest.mark.parametrize(
        "length",
        ["3", 2.5, True, -1, 1, None],
        ids=["str", "float", "bool", "negative", "one", "null"],
    )
    def test_bad_diy_length_rejected_at_submit(self, length):
        # Checked at submit, without building the suite: a non-integer
        # would fail the job later, and a length below 2 builds no test.
        with pytest.raises(SpecError, match="'length': int >= 2"):
            JobSpec.from_dict(
                {"suite": {"kind": "diy", "length": length},
                 "models": ["x86"]}
            )

    def test_diy_length_two_accepted(self):
        spec = JobSpec.from_dict(
            {"suite": {"kind": "diy", "length": 2}, "models": ["x86"]}
        )
        assert spec.suite["length"] == 2
        assert suite_items(spec.suite)

    def test_oversized_diy_suite_rejected_at_submit(self):
        # The default vocabulary closes millions of cycles at length 14;
        # the count stops at the cap instead of building any of them.
        with pytest.raises(SpecError, match="more than 30000 tests"):
            JobSpec.from_dict(
                {"suite": {"kind": "diy", "length": 14}, "models": ["x86"]}
            )

    def test_diy_length_seven_accepted(self):
        # 1526 tests: the length the benchmark's diy workload sweeps.
        spec = JobSpec.from_dict(
            {"suite": {"kind": "diy", "length": 7}, "models": ["x86"]}
        )
        assert spec.suite["length"] == 7


# ----------------------------------------------------------------------
# The service (in process)
# ----------------------------------------------------------------------


DIY2 = {"suite": {"kind": "diy", "arch": "x86", "length": 2}}


def _wait_done(service, job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while service.job(job.id).state not in ("done", "failed"):
        assert time.monotonic() < deadline, "job did not finish"
        time.sleep(0.02)
    return service.job(job.id)


class TestCampaignService:
    def _service(self, tmp_path, **kwargs):
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("runs_dir", tmp_path / "runs")
        return CampaignService(**kwargs).start()

    def test_job_runs_and_matches_direct_campaign(self, tmp_path):
        service = self._service(tmp_path)
        try:
            job = service.submit(
                JobSpec.from_dict({**DIY2, "models": ["x86", "x86tm"]})
            )
            job = _wait_done(service, job)
            assert job.state == "done"
            assert job.total_cells == len(job.cells) == 10
            assert job.error_cells == 0
            direct = run_campaign(
                diy_suite("x86", max_length=2),
                ["x86", "x86tm"],
                cache=NullCache(),
            )
            got = {
                (c["item"], c["model"]): c["verdict"] for c in job.cells
            }
            want = {
                key: cell.verdict for key, cell in direct.cells.items()
            }
            assert got == want
            assert job.manifest_path is not None
            manifest = json.loads(
                (tmp_path / "runs").joinpath(
                    os.path.basename(job.manifest_path)
                ).read_text()
            )
            assert manifest["run_id"].endswith(job.id)
            assert manifest["suite"]["job"] == job.id
        finally:
            service.stop()

    def test_second_job_dedupes_through_shared_store(self, tmp_path):
        service = self._service(tmp_path)
        try:
            spec = JobSpec.from_dict({**DIY2, "models": ["x86", "x86tm"]})
            # Submit both before either runs — the "two concurrent
            # clients" shape: the scheduler serializes them, the store
            # dedupes them.
            first, second = service.submit(spec), service.submit(spec)
            first = _wait_done(service, first)
            second = _wait_done(service, second)
            assert first.computed_cells == 10
            assert second.cached_cells / second.total_cells > 0.9
            matrix = lambda j: {  # noqa: E731
                (c["item"], c["model"]): c["verdict"] for c in j.cells
            }
            assert matrix(first) == matrix(second)
        finally:
            service.stop()

    def test_sharded_job_matches_serial(self, tmp_path):
        sharded = self._service(tmp_path, jobs=2, cache=NullCache())
        serial = CampaignService(
            jobs=1, cache=NullCache(), runs_dir=tmp_path / "runs2"
        ).start()
        try:
            spec = JobSpec.from_dict({**DIY2, "models": ["x86", "x86tm"]})
            a = _wait_done(sharded, sharded.submit(spec))
            b = _wait_done(serial, serial.submit(spec))
            assert a.state == b.state == "done"
            assert {
                (c["item"], c["model"]): c["verdict"] for c in a.cells
            } == {(c["item"], c["model"]): c["verdict"] for c in b.cells}
        finally:
            sharded.stop()
            serial.stop()

    def test_bad_model_rejected_at_submit(self, tmp_path):
        service = self._service(tmp_path)
        try:
            with pytest.raises(SpecError, match="no-such-model"):
                service.submit(
                    JobSpec.from_dict(
                        {**DIY2, "models": ["no-such-model"]}
                    )
                )
        finally:
            service.stop()

    def test_ill_typed_cat_model_rejected_at_submit(self, tmp_path):
        """A ``.cat`` type error is a bad model spec, not errored cells."""
        bad = tmp_path / "bad.cat"
        bad.write_text("acyclic po | W as Order\n")
        service = self._service(tmp_path)
        try:
            with pytest.raises(SpecError, match="bad.cat: .* line 1:12"):
                service.submit(
                    JobSpec.from_dict({**DIY2, "models": [f"cat:{bad}"]})
                )
        finally:
            service.stop()

    def test_edited_cat_file_is_checked_afresh(self, tmp_path):
        """Editing a ``cat:`` file between two submits changes the
        definition the service checks: the second job computes every
        cell again, under a new token, with the new verdicts."""
        model = tmp_path / "edited.cat"
        model.write_text("acyclic po | rf | co | fr as SC\n")
        spec = JobSpec.from_dict({**DIY2, "models": [f"cat:{model}"]})
        service = self._service(tmp_path)
        try:
            first = _wait_done(service, service.submit(spec))
            model.write_text("acyclic rf as R\n")
            second = _wait_done(service, service.submit(spec))
        finally:
            service.stop()
        assert first.state == second.state == "done"
        assert second.cached_cells == 0
        assert second.computed_cells == second.total_cells == 5
        assert not all(c["verdict"] for c in first.cells)
        assert all(c["verdict"] for c in second.cells)
        tokens = [
            json.loads(
                (tmp_path / "runs")
                .joinpath(os.path.basename(job.manifest_path))
                .read_text()
            )["models"][f"cat:{model}"]
            for job in (first, second)
        ]
        assert tokens[0] != tokens[1]

    def test_unbuildable_suite_fails_the_job_not_the_service(
        self, tmp_path
    ):
        service = self._service(tmp_path)
        try:
            bad = service.submit(
                JobSpec.from_dict(
                    {
                        "suite": {
                            "kind": "files",
                            "paths": [str(tmp_path / "missing.litmus")],
                        },
                        "models": ["x86"],
                    }
                )
            )
            bad = _wait_done(service, bad)
            assert bad.state == "failed"
            assert bad.error
            # The scheduler survives: the next job runs normally.
            ok = _wait_done(
                service,
                service.submit(
                    JobSpec.from_dict({**DIY2, "models": ["x86"]})
                ),
            )
            assert ok.state == "done"
        finally:
            service.stop()

    def test_crashing_unit_poisons_its_cells_not_the_job(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import batchsweep

        real = batchsweep._run_checkers

        def sabotaged(name, payload, checkers):
            if "Fre+Rfe" in name:
                raise RuntimeError("synthetic checker crash")
            return real(name, payload, checkers)

        monkeypatch.setattr(batchsweep, "_run_checkers", sabotaged)
        set_batch_size(0)  # no prefill: every cell must reach _run_checkers
        service = self._service(tmp_path, cache=NullCache())
        try:
            job = _wait_done(
                service,
                service.submit(
                    JobSpec.from_dict({**DIY2, "models": ["x86", "x86tm"]})
                ),
            )
            assert job.state == "done"  # never "failed"
            bad = [c for c in job.cells if c["error"] is not None]
            assert len(bad) == 2  # both models of the sabotaged item
            assert all("synthetic checker crash" in c["error"] for c in bad)
            assert all(c["item"] == "diy-Fre+Rfe" for c in bad)
            good = [c for c in job.cells if c["error"] is None]
            assert len(good) == 8
        finally:
            set_batch_size(None)
            service.stop()

    def test_cells_cursor_is_stable(self, tmp_path):
        service = self._service(tmp_path, cache=NullCache())
        try:
            job = _wait_done(
                service,
                service.submit(JobSpec.from_dict({**DIY2, "models": ["x86"]})),
            )
            page = service.cells_since(job.id, 0)
            assert page["next"] == len(page["cells"]) == 5
            assert [c["seq"] for c in page["cells"]] == list(range(5))
            tail = service.cells_since(job.id, 3)
            assert [c["seq"] for c in tail["cells"]] == [3, 4]
            assert service.cells_since(job.id, 99)["cells"] == []
            assert service.cells_since("nope", 0) is None
        finally:
            service.stop()

    def test_service_metrics_render(self, tmp_path):
        service = self._service(tmp_path, cache=NullCache())
        try:
            _wait_done(
                service,
                service.submit(JobSpec.from_dict({**DIY2, "models": ["x86"]})),
            )
            text = service.metrics.render_text()
            assert "jobs_submitted 1" in text
            assert "jobs_completed 1" in text
            assert "job_seconds_count 1" in text
        finally:
            service.stop()

    def test_stop_leaves_no_worker(self, tmp_path):
        engine_pool.shutdown()  # the service forks its own warm pool
        before = {p.pid for p in multiprocessing.active_children()}
        service = self._service(tmp_path, jobs=2, cache=NullCache())
        try:
            for models in (["x86", "sc"], ["x86tm", "sc"]):
                job = _wait_done(
                    service,
                    service.submit(JobSpec.from_dict({**DIY2, "models": models})),
                )
                assert job.state == "done"
            workers = {
                p.pid for p in multiprocessing.active_children()
            } - before
            assert workers  # the jobs ran on pooled workers
        finally:
            service.stop()
        left = {p.pid for p in multiprocessing.active_children()}
        assert not left & workers
        assert left <= before

    def test_stop_leaves_queued_jobs_queued(self, tmp_path):
        service = self._service(tmp_path, cache=NullCache())
        spec = JobSpec.from_dict(
            {"suite": {"kind": "diy", "arch": "x86", "length": 3},
             "models": ["x86", "x86tm", "sc"]}
        )
        jobs = [service.submit(spec) for _ in range(4)]
        service.stop()
        states = [service.job(job.id).state for job in jobs]
        # Only a job already running when stop() came may finish.
        assert states.count("queued") >= 3, states
        assert set(states) <= {"done", "queued"}, states

    def test_retired_options_run_under_the_fixed_policy(self, tmp_path):
        # A budget of 1e-9 s per cell with no retry would poison the
        # pooled shards; the service ignores the options.
        service = self._service(tmp_path, jobs=2, cache=NullCache())
        try:
            job = _wait_done(
                service,
                service.submit(
                    JobSpec.from_dict(
                        {
                            **DIY2,
                            "models": ["x86", "sc"],
                            "options": {
                                "cell_timeout": 1e-9,
                                "retries": 0,
                                "shards": 4,
                            },
                        }
                    )
                ),
            )
        finally:
            service.stop()
        assert job.state == "done", job.error
        assert job.poisoned_cells == job.error_cells == 0
        assert len(job.cells) == job.total_cells == 10

    def test_job_manifest_matches_the_cli_manifest(self, tmp_path):
        """A service job and ``run_campaign`` of the same matrix record
        the same verdicts, latency columns and cell counters, computed
        and then cached."""
        from repro.obs import manifest as obs_manifest

        models = ["x86", "sc"]
        spec = JobSpec.from_dict({**DIY2, "models": models})
        service = self._service(tmp_path, cache_dir=tmp_path / "svc")
        try:
            jobs = [_wait_done(service, service.submit(spec))
                    for _ in range(2)]
        finally:
            service.stop()
        served = [
            json.loads(Path(job.manifest_path).read_text()) for job in jobs
        ]

        items = suite_items(DIY2["suite"])
        cli = []
        with ResultCache(tmp_path / "cli") as cache:
            for _ in range(2):
                bundle = telemetry.enable()
                try:
                    result = run_campaign(items, models, cache=cache)
                    cli.append(
                        obs_manifest.from_campaign(
                            result,
                            items=items,
                            cache=cache,
                            snapshot=bundle.snapshot(),
                        ).to_dict()
                    )
                finally:
                    telemetry.disable()

        for job, want in zip(served, cli):
            assert job["verdicts"]["digest"] == want["verdicts"]["digest"]
            assert set(job["model_latency"]) == set(want["model_latency"])
            for counter in ("cells_computed", "cells_cached"):
                assert job["counters"][counter] == want["counters"][counter]
        assert set(served[0]["model_latency"]) == set(models)
        assert served[0]["counters"]["cells_computed"] == 10
        assert served[1]["counters"]["cells_cached"] == 10


# ----------------------------------------------------------------------
# The files-suite memo
# ----------------------------------------------------------------------

CORPUS_X86 = Path(__file__).resolve().parent / "corpus" / "x86"

#: ``sb`` with a fence on both sides: the outcome x86 allows for the
#: corpus ``sb`` becomes forbidden.
FENCED_SB = """X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MFENCE      | MFENCE      ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\\ 1:EAX=0)
"""


def _files_spec(paths, models=("x86",)):
    return JobSpec.from_dict(
        {
            "suite": {"kind": "files", "paths": [str(p) for p in paths]},
            "models": list(models),
        }
    )


def _verdicts(job):
    return {(c["item"], c["model"]): c["verdict"] for c in job.cells}


class TestSuiteMemo:
    """A files suite is parsed and fingerprinted once per content."""

    def _copy(self, tmp_path, names):
        paths = []
        for name in names:
            path = tmp_path / name
            path.write_bytes((CORPUS_X86 / name).read_bytes())
            paths.append(path)
        return paths

    def _spies(self, monkeypatch):
        """Count parses and record each fingerprint by test name."""
        from repro.litmus import frontend

        parses = []
        fingerprints = []
        load, fingerprint = frontend.load_litmus_file, service_module.fingerprint

        def counted_load(path, data=None):
            parses.append(path)
            return load(path, data)

        def recorded_fingerprint(payload):
            fingerprints.append((payload.name, fingerprint(payload)))
            return fingerprints[-1][1]

        monkeypatch.setattr(frontend, "load_litmus_file", counted_load)
        monkeypatch.setattr(service_module, "fingerprint", recorded_fingerprint)
        return parses, fingerprints

    def _run(self, service, spec):
        job = _wait_done(service, service.submit(spec))
        assert job.state == "done", job.error
        return job

    def test_unchanged_files_are_parsed_and_fingerprinted_once(
        self, tmp_path, monkeypatch
    ):
        paths = self._copy(tmp_path, ["sb.litmus", "mp.litmus"])
        parses, fingerprints = self._spies(monkeypatch)
        service = CampaignService(
            cache_dir=tmp_path / "cache", runs_dir=tmp_path / "runs"
        ).start()
        try:
            spec = _files_spec(paths, ["x86", "sc"])
            first = self._run(service, spec)
            second = self._run(service, spec)
        finally:
            service.stop()
        assert len(parses) == 2
        assert len(fingerprints) == 2
        assert first.computed_cells == 4
        assert second.cached_cells == second.total_cells == 4
        assert _verdicts(first) == _verdicts(second)

    def test_edited_file_is_parsed_again(self, tmp_path, monkeypatch):
        sb, mp = self._copy(tmp_path, ["sb.litmus", "mp.litmus"])
        parses, fingerprints = self._spies(monkeypatch)
        service = CampaignService(
            cache_dir=tmp_path / "cache", runs_dir=tmp_path / "runs"
        ).start()
        try:
            spec = _files_spec([sb, mp])
            first = self._run(service, spec)
            sb.write_text(FENCED_SB)
            second = self._run(service, spec)
        finally:
            service.stop()
        assert len(parses) == 4  # the edited suite is a new key
        old, new = [fp for name, fp in fingerprints if name == "sb"]
        assert old != new
        assert _verdicts(first)[("sb", "x86")] is True
        assert _verdicts(second)[("sb", "x86")] is False
        cells = {c["item"]: c for c in second.cells}
        assert not cells["sb"]["cached"]
        assert cells["mp"]["cached"]

    def test_memo_never_exceeds_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "SUITE_MEMO_ITEMS", 3)
        files = self._copy(
            tmp_path,
            ["sb.litmus", "mp.litmus", "lb.litmus", "r.litmus", "s.litmus"],
        )
        parses, _ = self._spies(monkeypatch)
        service = CampaignService(
            cache=NullCache(), runs_dir=tmp_path / "runs"
        ).start()
        memo = service._suites
        try:
            for subset in ((0, 1), (2,), (0, 1), (3,), (2,), (0, 1, 2, 3)):
                self._run(service, _files_spec([files[i] for i in subset]))
                held = sum(len(items) for items, _ in memo._entries.values())
                assert memo.items == held <= 3
        finally:
            service.stop()
        # (0, 1) stayed warm when (3,) evicted (2,), which was parsed
        # again; the four-file suite is past the bound and not kept.
        assert len(parses) == 2 + 1 + 1 + 1 + 4
        assert len(memo._entries) == 2


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------


class TestServiceHTTP:
    def test_full_loop_over_http(self, tmp_path):
        service = CampaignService(
            cache_dir=tmp_path / "cache", runs_dir=tmp_path / "runs"
        )
        with ServiceServer(service, port=0).start_background() as server:
            client = ServiceClient(server.url)
            health = client.healthz()
            assert health["ok"] is True and health["protocol"] == 1

            job = client.submit({**DIY2, "models": ["x86", "x86tm"]})
            assert job["id"] == "j0001"
            cells = list(client.iter_cells(job["id"], timeout=60))
            assert len(cells) == 10
            record = client.wait(job["id"], timeout=10)
            assert record["state"] == "done"
            assert record["cells"]["done"] == 10

            # Listing, single-record fetch, metrics text.
            assert [j["id"] for j in client.jobs()] == ["j0001"]
            assert client.job("j0001")["state"] == "done"
            assert "jobs_completed 1" in client.metrics_text()

            # Error envelopes: bad spec is a 400, unknown job a 404.
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"suite": {"kind": "nope"}, "models": ["x86"]})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.job("j9999")
            assert excinfo.value.status == 404

    def test_short_body_is_a_408_and_frees_its_thread(
        self, tmp_path, monkeypatch
    ):
        """A body that stops arriving before its ``Content-Length`` gets
        a 408 (or the connection closes) within the read timeout, its
        handler thread ends, and the service keeps answering."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT", 0.5)
        service = CampaignService(
            cache=NullCache(), runs_dir=tmp_path / "runs"
        )
        with ServiceServer(service, port=0).start_background() as server:
            before = set(threading.enumerate())
            with socket.create_connection(server.address, timeout=5) as conn:
                conn.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"suite":'
                )
                start = time.monotonic()
                reply = b""
                while True:
                    chunk = conn.recv(4096)  # socket.timeout fails the test
                    if not chunk:
                        break
                    reply += chunk
                elapsed = time.monotonic() - start
            assert elapsed < 5
            assert reply == b"" or reply.startswith(b"HTTP/1.1 408"), reply
            deadline = time.monotonic() + 5
            while any(
                t.is_alive() for t in set(threading.enumerate()) - before
            ):
                assert time.monotonic() < deadline, "handler still alive"
                time.sleep(0.05)
            assert ServiceClient(server.url).healthz()["ok"] is True

    def test_oldest_finished_jobs_are_dropped(self, tmp_path, monkeypatch):
        """Past the bound on finished jobs' cells the oldest finished job
        goes (404 on its record and cells, gone from the listing) and
        the newer ones stay."""
        monkeypatch.setattr(service_module, "FINISHED_JOB_CELLS", 12)
        service = CampaignService(
            cache=NullCache(), runs_dir=tmp_path / "runs"
        )
        with ServiceServer(service, port=0).start_background() as server:
            client = ServiceClient(server.url)
            ids = []
            for _ in range(3):  # 5 cells each
                job = client.submit({**DIY2, "models": ["x86"]})
                assert client.wait(job["id"], timeout=60)["state"] == "done"
                ids.append(job["id"])
            assert [j["id"] for j in client.jobs()] == ids[1:]
            for fetch in (client.job, client.cells):
                with pytest.raises(ServiceError) as excinfo:
                    fetch(ids[0])
                assert excinfo.value.status == 404
            assert client.cells(ids[2])["next"] == 5
            health = client.healthz()
            assert (health["jobs"], health["queued"], health["running"]) == (
                2, 0, 0
            )

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_400(self, tmp_path, length):
        import http.client

        service = CampaignService(
            cache=NullCache(), runs_dir=tmp_path / "runs"
        )
        with ServiceServer(service, port=0).start_background() as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.putrequest("POST", "/v1/jobs")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", length)
                conn.endheaders()
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]
