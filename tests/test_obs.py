"""Tests for the telemetry subsystem: tracer, metrics, manifests,
``repro stats``, and the engine/CLI integration points."""

import json
import time

import pytest

from repro.obs import manifest as man
from repro.obs import metrics, telemetry, trace


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry uninstalled."""
    telemetry.disable()
    yield
    telemetry.disable()


def run_cli(capsys, *argv):
    from repro.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_self_time_sums_to_wall_clock(self):
        tracer = trace.Tracer()
        start = time.perf_counter()
        tracer.push("outer", None)
        time.sleep(0.02)
        tracer.push("inner", None)
        time.sleep(0.02)
        tracer.pop()
        time.sleep(0.02)
        tracer.pop()
        wall = time.perf_counter() - start
        # Self times partition the instrumented wall clock: no double
        # counting, nothing lost.
        total = sum(tracer.seconds.values())
        assert total == pytest.approx(wall, rel=0.25)
        assert tracer.seconds["outer"] < wall
        assert tracer.seconds["inner"] < tracer.seconds["outer"] + 0.03

    def test_span_records_parentage_and_attrs(self):
        tracer = trace.Tracer()
        with tracer.span("outer"):
            with tracer.span("cell", item="sb", model="x86"):
                pass
        inner, outer = tracer.spans
        assert inner["name"] == "cell"
        assert inner["parent"] == outer["id"]
        assert inner["attrs"] == {"item": "sb", "model": "x86"}
        assert outer["parent"] is None
        assert inner["self"] <= inner["secs"]

    def test_ring_buffer_bounds_memory(self):
        tracer = trace.Tracer(ring=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 4
        assert tracer.spans[-1]["name"] == "s9"

    def test_snapshot_merge_is_additive(self):
        worker1, worker2, parent = (
            trace.Tracer(),
            trace.Tracer(),
            trace.Tracer(),
        )
        with worker1.span("axioms"):
            pass
        worker1.count("candidates", 3)
        with worker2.span("axioms"):
            pass
        with worker2.span("expansion"):
            pass
        worker2.count("candidates", 4)
        parent.merge(worker1.snapshot())
        parent.merge(worker2.snapshot())
        assert parent.calls == {"axioms": 2, "expansion": 1}
        assert parent.counters == {"candidates": 7}
        assert parent.seconds["axioms"] == pytest.approx(
            worker1.seconds["axioms"] + worker2.seconds["axioms"]
        )
        assert len(parent.spans) == 3

    def test_merge_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            trace.Tracer().merge({"schema": "not-a-trace"})

    def test_sidecar_is_schema_versioned_jsonl(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = trace.Tracer(sink=sink)
        with tracer.span("expansion"):
            with tracer.span("axioms"):
                pass
        tracer.close()
        lines = [
            json.loads(line) for line in sink.read_text().splitlines()
        ]
        assert lines[0] == {
            "schema": trace.TRACE_SCHEMA,
            "version": trace.TRACE_VERSION,
        }
        assert [rec["name"] for rec in lines[1:]] == [
            "axioms",
            "expansion",
        ]

    def test_report_matches_legacy_profiler_shape(self):
        tracer = trace.Tracer()
        with tracer.span("axioms"):
            pass
        tracer.count("candidates", 2)
        report = tracer.report()
        assert "stage" in report and "share" in report
        assert "axioms" in report
        assert "candidates: 2" in report

    def test_off_path_is_near_free(self):
        # The hot-site discipline is one module-attribute read; keep a
        # very generous bound so slow CI never flakes, while still
        # catching an accidentally-always-on implementation.
        assert trace.ACTIVE is None
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            if trace.ACTIVE is not None:  # pragma: no cover
                raise AssertionError
        elapsed = time.perf_counter() - start
        assert elapsed / n < 5e-6  # 5 microseconds per guarded site


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = metrics.MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.counter("hits").inc(3)
        registry.gauge("entries").set(17)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["gauges"]["entries"] == 17

    def test_histogram_percentiles_bracket_observations(self):
        h = metrics.Histogram()
        for ms in range(1, 101):
            h.observe(ms / 1000.0)
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["max"] == pytest.approx(0.1)
        # Geometric buckets: percentiles are upper bounds, within one
        # bucket width (2**(1/8) ~ 9%) of the true value.
        assert 0.045 <= summary["p50"] <= 0.06
        assert 0.09 <= summary["p95"] <= 0.105
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_histogram_merge_equals_union(self):
        a, b, u = (
            metrics.Histogram(),
            metrics.Histogram(),
            metrics.Histogram(),
        )
        for v in (0.001, 0.004, 0.2):
            a.observe(v)
            u.observe(v)
        for v in (0.002, 0.5):
            b.observe(v)
            u.observe(v)
        a.merge(b.to_dict())
        assert a.summary() == u.summary()

    def test_registry_snapshot_roundtrip_and_merge(self):
        w1, w2 = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        w1.counter("cells").inc(4)
        w1.histogram("lat").observe(0.01)
        w2.counter("cells").inc(6)
        w2.histogram("lat").observe(0.02)
        w2.gauge("entries").set(9)
        parent = metrics.MetricsRegistry.from_snapshot(w1.snapshot())
        parent.merge(w2.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["cells"] == 10
        assert snap["gauges"]["entries"] == 9
        assert (
            metrics.Histogram.from_dict(snap["histograms"]["lat"]).count
            == 2
        )


# ----------------------------------------------------------------------
# Telemetry bundle (cross-process protocol)
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_enable_installs_both_guards(self):
        bundle = telemetry.enable()
        try:
            assert trace.ACTIVE is bundle.tracer
            assert metrics.ACTIVE is bundle.metrics
            assert telemetry.active() is bundle
        finally:
            telemetry.disable()
        assert trace.ACTIVE is None
        assert metrics.ACTIVE is None
        assert telemetry.active() is None

    def test_snapshot_reports_ir_work_since_enable(self):
        from repro.catalog import CATALOG
        from repro.models.registry import get_model

        model = get_model("x86")
        x = CATALOG["sb"].execution
        model.check(x)  # warm anything cached outside the window
        telemetry.enable()
        try:
            model.check(x)
            snap = telemetry.snapshot()
        finally:
            telemetry.disable()
        counters = snap["trace"]["counters"]
        # Deltas, not process totals: a fresh enable starts near zero.
        # (The repeat check is served from the IR memo, so the delta
        # shows up as memo hits; a cold check would show computes.)
        ir_work = sum(
            v for k, v in counters.items() if k.startswith("ir_")
        )
        assert 0 < ir_work < 10_000

    def test_collect_ships_worker_snapshot(self):
        # Simulates a pool worker: no telemetry active in-process.
        with telemetry.collect() as holder:
            with trace.stage("axioms"):
                pass
            trace.count("candidates", 5)
        assert holder.snapshot is not None
        assert holder.snapshot["trace"]["counters"]["candidates"] == 5
        assert trace.ACTIVE is None  # ephemeral bundle uninstalled

    def test_collect_is_noop_when_parent_active(self):
        bundle = telemetry.enable()
        try:
            with telemetry.collect() as holder:
                trace.count("candidates", 5)
            assert holder.snapshot is None  # serial path: no double count
            assert bundle.tracer.counters["candidates"] == 5
        finally:
            telemetry.disable()

    def test_merge_snapshot_folds_worker_results(self):
        with telemetry.collect() as holder:
            trace.count("cells", 3)
        bundle = telemetry.enable()
        try:
            telemetry.merge_snapshot(holder.snapshot)
            assert bundle.tracer.counters["cells"] == 3
        finally:
            telemetry.disable()


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------


def _manifest(label="unit", **kwargs):
    defaults = dict(
        kind="campaign",
        label=label,
        created=1765193000.0,
        elapsed_seconds=2.0,
        rates={"cells_per_second": 100.0},
        cache={"hits": 5, "misses": 5, "hit_rate": 0.5},
        stages={"axioms": {"seconds": 1.0, "calls": 10}},
        model_latency={"x86": {"count": 10, "p50": 0.001, "p95": 0.002,
                               "p99": 0.003}},
    )
    defaults.update(kwargs)
    return man.RunManifest(**defaults)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = _manifest(seed=7, argv=["campaign", "--arch", "x86"])
        path = man.write_manifest(manifest, tmp_path)
        assert path.name == f"{manifest.run_id}.json"
        loaded = man.load_manifest(path)
        assert loaded == manifest

    def test_git_stamp_runs_git_once_per_process(self, tmp_path, monkeypatch):
        from repro.engine import catalog_suite, run_campaign

        runs = []
        real = man.subprocess.run

        def counted(*args, **kwargs):
            runs.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(man, "_GIT_STAMPS", {})
        monkeypatch.setattr(man.subprocess, "run", counted)
        result = run_campaign(catalog_suite()[:2], ["sc"])
        stamps = [
            man.load_manifest(
                man.write_manifest(man.from_campaign(result), tmp_path)
            ).git
            for _ in range(2)
        ]
        assert [argv[0] for argv in runs] == ["git"]
        assert stamps[0] == stamps[1]

    def test_rejects_wrong_version(self, tmp_path):
        data = _manifest().to_dict()
        data["version"] = man.MANIFEST_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(man.ManifestError, match="version"):
            man.load_manifest(path)

    def test_rejects_wrong_schema(self, tmp_path):
        data = _manifest().to_dict()
        data["schema"] = "something.else"
        path = tmp_path / "other.json"
        path.write_text(json.dumps(data))
        with pytest.raises(man.ManifestError, match="schema"):
            man.load_manifest(path)

    def test_list_skips_corrupt_files(self, tmp_path):
        man.write_manifest(_manifest(), tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "wrong.json").write_text('{"schema": "x"}')
        manifests = man.list_manifests(tmp_path)
        assert len(manifests) == 1

    def test_resolve_last_and_prefix(self, tmp_path):
        old = _manifest("old", created=1765193000.0)
        new = _manifest("new", created=1765193100.0)
        man.write_manifest(old, tmp_path)
        man.write_manifest(new, tmp_path)
        assert man.resolve_run("last", tmp_path).label == "new"
        assert man.resolve_run("last~1", tmp_path).label == "old"
        assert man.resolve_run(old.run_id[:16], tmp_path).label == "old"
        with pytest.raises(man.ManifestError, match="ambiguous"):
            # Both run ids share the date prefix.
            man.resolve_run(old.run_id[:8], tmp_path)
        with pytest.raises(man.ManifestError):
            man.resolve_run("last~5", tmp_path)
        with pytest.raises(man.ManifestError):
            man.resolve_run("zzz-no-such-run", tmp_path)

    def test_from_campaign_builds_full_record(self, tmp_path):
        from repro.engine import ResultCache, diy_suite, run_campaign
        from repro.litmus.candidates import _expand_test, expand_program

        expand_program.cache_clear()
        _expand_test.cache_clear()
        suite = diy_suite("x86", max_length=2)
        telemetry.enable()
        try:
            with ResultCache(tmp_path) as cache:
                result = run_campaign(suite, ["x86", "sc"], cache=cache)
                manifest = man.from_campaign(
                    result, items=suite, cache=cache, argv=["campaign"]
                )
        finally:
            telemetry.disable()
        assert manifest.suite["items"] == len(suite)
        assert set(manifest.models) == {"x86", "sc"}
        assert all(manifest.models.values())  # definition tokens resolved
        assert manifest.verdicts["cells"] == len(suite) * 2
        assert len(manifest.verdicts["digest"]) == 64
        assert manifest.rates["cells_per_second"] > 0
        assert "expansion" in manifest.stages
        assert manifest.model_latency["x86"]["count"] == len(suite)
        assert manifest.cache["entries"] == len(suite) * 2
        # Identical reruns produce identical verdict digests.
        with ResultCache(tmp_path) as cache:
            rerun = run_campaign(suite, ["x86", "sc"], cache=cache)
        assert (
            man.from_campaign(rerun).verdicts["digest"]
            == manifest.verdicts["digest"]
        )


    def test_from_fuzz_resolves_each_spec_on_its_own(self):
        from types import SimpleNamespace

        from repro.engine.checkers import resolve_checker

        report = SimpleNamespace(
            arch="x86",
            budget="smoke",
            seed=0,
            n_items=0,
            elapsed=1.0,
            cache_hits=0,
            campaigns=[],
            checkers=["x86", "no-such-checker"],
            errors=[],
            disagreements=[],
        )
        manifest = man.from_fuzz(report, snapshot={})
        assert manifest.models == {
            "x86": resolve_checker("x86").token,
            "no-such-checker": "",
        }


# ----------------------------------------------------------------------
# repro stats CLI
# ----------------------------------------------------------------------


class TestStatsCli:
    def test_list_empty_is_ok(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "stats", "list", "--runs-dir", str(tmp_path)
        )
        assert code == 0
        assert "no recorded runs" in out

    def test_list_and_show(self, capsys, tmp_path):
        manifest = _manifest(seed=3)
        man.write_manifest(manifest, tmp_path)
        code, out, _ = run_cli(
            capsys, "stats", "list", "--runs-dir", str(tmp_path)
        )
        assert code == 0 and manifest.run_id in out
        code, out, _ = run_cli(
            capsys, "stats", "show", "last", "--runs-dir", str(tmp_path)
        )
        assert code == 0
        assert "seed: 3" in out and "per-model cell latency" in out

    def test_show_unresolvable_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "stats", "show", "nope", "--runs-dir", str(tmp_path)
        )
        assert code == 2 and "no run matching" in err

    def test_show_wrong_arity_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "stats", "show", "--runs-dir", str(tmp_path)
        )
        assert code == 2 and "exactly one" in err

    def test_diff_warn_only_exits_zero(self, capsys, tmp_path):
        base = _manifest("base", created=1765193000.0)
        slow = _manifest(
            "slow",
            created=1765193100.0,
            elapsed_seconds=4.0,
            rates={"cells_per_second": 50.0},
        )
        man.write_manifest(base, tmp_path)
        man.write_manifest(slow, tmp_path)
        code, out, _ = run_cli(
            capsys, "stats", "diff", "last~1", "last",
            "--runs-dir", str(tmp_path),
        )
        assert code == 0
        assert "rate:cells_per_second" in out and "-50.0%" in out

    def test_diff_fail_over_exits_one(self, capsys, tmp_path):
        base = _manifest("base", created=1765193000.0)
        slow = _manifest(
            "slow", created=1765193100.0, elapsed_seconds=4.0
        )
        man.write_manifest(base, tmp_path)
        man.write_manifest(slow, tmp_path)
        code, _, err = run_cli(
            capsys, "stats", "diff", "last~1", "last",
            "--runs-dir", str(tmp_path), "--fail-over", "10",
        )
        assert code == 1 and "regressed" in err
        # An improvement never trips the gate, whatever the threshold.
        code, _, _ = run_cli(
            capsys, "stats", "diff", "last", "last~1",
            "--runs-dir", str(tmp_path), "--fail-over", "10",
        )
        assert code == 0

    def test_diff_wrong_arity_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "stats", "diff", "last", "--runs-dir", str(tmp_path)
        )
        assert code == 2 and "two runs" in err


# ----------------------------------------------------------------------
# Cache durability (satellite: context-managed flush, structured stats)
# ----------------------------------------------------------------------


class TestCacheDurability:
    def test_context_manager_flushes(self, tmp_path):
        from repro.engine.cache import ResultCache

        with ResultCache(tmp_path) as cache:
            cache.put("k1", {"verdict": True})
        reopened = ResultCache(tmp_path)
        assert reopened.get("k1")["verdict"] is True

    def test_stats_dict_shape(self, tmp_path):
        from repro.engine.cache import ResultCache

        with ResultCache(tmp_path) as cache:
            cache.put("k1", {"verdict": True})
            cache.get("k1")
            cache.get("missing")
            stats = cache.stats_dict()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["bytes"] > 0

    def test_null_cache_supports_protocol(self):
        from repro.engine.cache import NullCache

        with NullCache() as cache:
            assert cache.get("k") is None
            assert cache.stats_dict()["entries"] == 0


# ----------------------------------------------------------------------
# Engine + CLI integration
# ----------------------------------------------------------------------


class TestCampaignTelemetry:
    def _fresh_expansion(self):
        from repro.litmus.candidates import _expand_test, expand_program

        expand_program.cache_clear()
        _expand_test.cache_clear()

    def test_parallel_counters_match_serial(self):
        from repro.engine import diy_suite, run_campaign

        suite = diy_suite("x86", max_length=2)
        results = {}
        for jobs in (1, 2):
            self._fresh_expansion()
            bundle = telemetry.enable()
            try:
                run_campaign(suite, ["x86", "sc"], jobs=jobs)
                results[jobs] = bundle.snapshot()
            finally:
                telemetry.disable()
        for jobs, snap in results.items():
            counters = snap["trace"]["counters"]
            # The worker-blindness fix: parallel runs must not lose
            # worker-side observations.
            assert counters["cells_computed"] == len(suite) * 2, jobs
            assert counters.get("candidates", 0) > 0, jobs
            assert snap["trace"]["seconds"].get("axioms", 0) > 0, jobs
            hist = snap["metrics"]["histograms"]["cell_seconds:x86"]
            assert metrics.Histogram.from_dict(hist).count == len(suite)

    def test_cell_spans_carry_identity(self):
        from repro.engine import diy_suite, run_campaign

        suite = diy_suite("x86", max_length=2)
        bundle = telemetry.enable()
        try:
            run_campaign(suite, ["x86"])
            spans = [
                s for s in bundle.tracer.spans if s["name"] == "cell"
            ]
        finally:
            telemetry.disable()
        assert len(spans) == len(suite)
        attrs = spans[0]["attrs"]
        assert attrs["model"] == "x86"
        assert attrs["item"] in {item.name for item in suite}
        assert attrs["token"]  # definition token, not empty

    def test_campaign_off_by_default(self):
        from repro.engine import diy_suite, run_campaign

        assert trace.ACTIVE is None
        run_campaign(diy_suite("x86", max_length=2), ["x86"])
        assert trace.ACTIVE is None


class TestCampaignCliTelemetry:
    def test_profile_no_longer_forces_serial(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "campaign", "--arch", "x86", "--length", "2",
            "--models", "x86,sc", "--jobs", "2", "--profile",
        )
        assert code == 0
        assert "forces --jobs 1" not in out
        assert "per-stage timing" in out
        assert "axioms" in out

    def test_telemetry_writes_manifest(self, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "campaign", "--arch", "x86", "--length", "2",
            "--models", "x86", "--telemetry",
        )
        assert code == 0
        assert "run manifest:" in out
        path = out.split("run manifest:", 1)[1].split()[0]
        manifest = man.load_manifest(path)
        assert manifest.kind == "campaign"
        assert manifest.verdicts["cells"] > 0

    def test_json_result_is_schema_versioned(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            capsys, "campaign", "--arch", "x86", "--length", "2",
            "--models", "x86,sc", "--no-cache", "--json", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.campaign-result"
        assert data["version"] == 1
        assert set(data["models"]) == {"x86", "sc"}
        assert data["cells"]
        row = data["cells"][0]
        assert {"item", "model", "verdict", "elapsed", "cached"} <= set(row)
        assert data["matrix"]["x86"]

    def test_trace_sidecar_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sidecar = tmp_path / "spans.jsonl"
        code, _, _ = run_cli(
            capsys, "campaign", "--arch", "x86", "--length", "2",
            "--models", "x86", "--trace", str(sidecar),
        )
        assert code == 0
        lines = sidecar.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == trace.TRACE_SCHEMA
        names = {json.loads(line)["name"] for line in lines[1:]}
        assert "cell" in names

    def test_env_var_enables_telemetry(self, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        code, out, _ = run_cli(
            capsys, "campaign", "--arch", "x86", "--length", "2",
            "--models", "x86",
        )
        assert code == 0
        assert "run manifest:" in out
