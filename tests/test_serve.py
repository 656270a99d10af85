"""Campaign service tests: the shared result store, resilient pool
dispatch, the batching×telemetry composition, and the job service with
its HTTP face."""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine import diy_suite, run_campaign
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
        assert spec.cell_timeout == 60.0
        assert spec.retries == 1
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_options_are_ignored(self):
        # Older clients still send the retired ``batch`` and
        # ``codegen`` knobs.
        spec = JobSpec.from_dict(
            {
                "suite": {"kind": "diy", "arch": "x86"},
                "models": ["x86"],
                "options": {"batch": 0, "codegen": False},
            }
        )
        assert not hasattr(spec, "batch")
        assert "batch" not in spec.to_dict()["options"]
        assert "codegen" not in spec.to_dict()["options"]

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
            {
                "suite": {"kind": "diy"},
                "models": ["x86"],
                "options": {"cell_timeout": -1},
            },
            {
                "suite": {"kind": "diy"},
                "models": ["x86"],
                "options": {"retries": -1},
            },
            {
                "suite": {"kind": "diy"},
                "models": ["x86"],
                "options": {"shards": 0},
            },
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
