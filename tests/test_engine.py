"""Tests for the campaign engine: caching, parallelism, determinism."""

import json
import os

import pytest

from repro.catalog import CATALOG
from repro.engine import (
    CampaignItem,
    NullCache,
    ResultCache,
    cache_key,
    catalog_suite,
    diy_suite,
    execution_suite,
    fingerprint,
    resolve_checker,
    run_campaign,
)
from repro.engine.checkers import ModelChecker, OracleChecker
from repro.engine.pool import resilient_map
from repro.litmus.candidates import expand_program, observable
from repro.litmus.from_execution import to_litmus
from repro.models.registry import get_model
from repro.synth.diy import classic


@pytest.fixture
def suite():
    return diy_suite("x86", max_length=3)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


class TestFingerprint:
    def test_stable_across_calls(self):
        x = classic("sb")
        assert fingerprint(x) == fingerprint(x)

    def test_content_not_name(self):
        x = classic("sb")
        a = to_litmus(x, "name-one", "x86")
        b = to_litmus(x, "name-two", "x86")
        # Renaming a test must not invalidate its cache entries.
        assert fingerprint(a) == fingerprint(b)
        c = to_litmus(classic("mp"), "name-one", "x86")
        assert fingerprint(a) != fingerprint(c)

    def test_distinguishes_executions(self):
        assert fingerprint(classic("sb")) != fingerprint(classic("mp"))

    def test_key_includes_model(self):
        fp = fingerprint(classic("sb"))
        assert cache_key(fp, "x86") != cache_key(fp, "power")

    def test_key_includes_model_definition(self):
        fp = fingerprint(classic("sb"))
        assert cache_key(fp, "x86", "def-a") != cache_key(fp, "x86", "def-b")

    def test_definition_hash_tracks_cat_source(self, tmp_path):
        from repro.cat.model import CatModel
        from repro.engine.checkers import definition_hash

        a = CatModel('"t"\nacyclic po as Order')
        b = CatModel('"t"\nacyclic po | rf as Order')
        assert definition_hash(a) != definition_hash(b)
        assert definition_hash(a) == definition_hash(
            CatModel('"t"\nacyclic po as Order')
        )

    def test_axiomatic_oracle_hash_tracks_its_model(self, monkeypatch):
        """``hw:power`` judges by the Power model: editing that model's
        axioms must invalidate the oracle's cached cells, as it does the
        model's own."""
        from repro.engine.checkers import definition_hash
        from repro.models.power import Power
        from repro.sim.oracle import PowerHardware, _NoLbPower

        oracle_before = definition_hash(PowerHardware())
        model_before = definition_hash(Power())
        stock = Power.define()
        monkeypatch.setattr(
            Power, "define", classmethod(lambda cls: stock.drop("Propagation"))
        )
        for cls in (Power, _NoLbPower):  # drop the per-class definitions
            monkeypatch.setattr(cls, "_ir_definition", None, raising=False)
        assert definition_hash(Power()) != model_before
        assert definition_hash(PowerHardware()) != oracle_before


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"verdict": True, "item": "t", "model": "m"})
        reloaded = ResultCache(tmp_path)
        assert reloaded.get("k1")["verdict"] is True
        assert reloaded.hits == 1

    def test_miss_counting(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.misses == 1 and cache.hit_rate == 0.0

    def test_last_record_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"verdict": True})
        cache.put("k", {"verdict": False})
        assert ResultCache(tmp_path).get("k")["verdict"] is False

    def test_torn_tail_line_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"verdict": True})
        with cache.path.open("a") as handle:
            handle.write('{"key": "torn", "verd')
        assert ResultCache(tmp_path).get("k") is not None

    def test_null_cache(self):
        cache = NullCache()
        cache.put("k", {"verdict": True})
        assert cache.get("k") is None and len(cache) == 0


class TestCheckers:
    def test_native_vs_cat_agree(self, suite):
        native = resolve_checker("x86")
        cat = resolve_checker("x86tm")
        for item in suite:
            assert native.verdict(item.payload) == cat.verdict(item.payload)

    def test_notm_suffix(self):
        checker = resolve_checker("x86!notm")
        assert isinstance(checker, ModelChecker)
        assert checker.model.tm is False

    def test_hw_spec(self):
        assert isinstance(resolve_checker("hw:x86"), OracleChecker)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown checker"):
            resolve_checker("not-a-model")

    def test_execution_payload_uses_consistent(self):
        checker = resolve_checker("sc")
        x = classic("sb")
        assert checker.verdict(x) == get_model("sc").consistent(x)


class TestRunCampaign:
    def test_matches_direct_observable(self, suite):
        result = run_campaign(suite, ["x86"])
        model = get_model("x86")
        for item in suite:
            assert result.verdict(item.name, "x86") == observable(
                item.payload, model
            )

    def test_parallel_equals_serial(self, suite):
        serial = run_campaign(suite, ["x86", "tsc"], jobs=1)
        parallel = run_campaign(suite, ["x86", "tsc"], jobs=2)
        assert serial.matrix() == parallel.matrix()

    def test_determinism_across_worker_counts(self, suite):
        matrices = [
            run_campaign(suite, ["x86", "sc"], jobs=jobs).matrix()
            for jobs in (1, 2, 3)
        ]
        assert matrices[0] == matrices[1] == matrices[2]

    def test_cache_miss_then_hit(self, suite, tmp_path):
        first = run_campaign(suite, ["x86"], cache=ResultCache(tmp_path))
        assert first.cache_hits == 0
        assert first.cache_misses == len(suite)
        second = run_campaign(suite, ["x86"], cache=ResultCache(tmp_path))
        assert second.cache_hits == len(suite)
        assert second.cache_misses == 0
        assert second.hit_rate == 1.0
        assert second.matrix() == first.matrix()

    def test_cache_is_incremental_per_model(self, suite, tmp_path):
        run_campaign(suite, ["x86"], cache=ResultCache(tmp_path))
        both = run_campaign(suite, ["x86", "tsc"], cache=ResultCache(tmp_path))
        assert both.cache_hits == len(suite)  # the x86 column
        assert both.cache_misses == len(suite)  # the new tsc column

    def test_parallel_run_populates_cache(self, suite, tmp_path):
        run_campaign(suite, ["x86"], jobs=2, cache=ResultCache(tmp_path))
        rerun = run_campaign(suite, ["x86"], cache=ResultCache(tmp_path))
        assert rerun.hit_rate == 1.0

    def test_duplicate_names_rejected(self, suite):
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([suite[0], suite[0]], ["x86"])

    def test_bad_model_fails_fast(self, suite):
        with pytest.raises(ValueError, match="unknown checker"):
            run_campaign(suite, ["nonsense"])

    def test_format_matrix_and_summary(self, suite):
        result = run_campaign(suite[:4], ["x86"])
        text = result.format_matrix()
        assert "x86" in text and suite[0].name in text
        assert "cells" in result.summary()

    def test_checker_instances_accepted(self, suite):
        checker = ModelChecker("custom-x86", get_model("x86"))
        result = run_campaign(suite[:3], [checker])
        assert result.model_specs == ["custom-x86"]


class TestDefinitionTokens:
    """Cells are keyed by each checker object's own definition: a
    checker reusing another definition's spec string is never served
    that definition's cached verdicts."""

    def test_same_spec_other_definition_misses_the_cache(self, tmp_path):
        items = catalog_suite()
        cache = ResultCache(tmp_path)
        stock = run_campaign(items, ["x86"], cache=cache)
        impostor = ModelChecker("x86", get_model("sc"))
        served = run_campaign(items, [impostor], cache=cache)
        fresh = run_campaign(items, [ModelChecker("x86", get_model("sc"))])
        assert served.cache_hits == 0
        assert served.matrix() == fresh.matrix()
        assert served.matrix() != stock.matrix()  # the scenario has teeth
        assert served.tokens == {"x86": impostor.token}
        assert impostor.token != resolve_checker("x86").token

    def test_manifest_records_the_tokens_cells_were_keyed_by(self):
        from repro.obs.manifest import from_campaign

        impostor = ModelChecker("x86", get_model("sc"))
        result = run_campaign(catalog_suite()[:3], [impostor])
        assert from_campaign(result).models == {"x86": impostor.token}


class _ExitOn(ModelChecker):
    """Kills the process running it on one test (module level, so the
    pool can pickle it)."""

    def __init__(self, victim: str) -> None:
        super().__init__("exit", get_model("sc"))
        self.victim = victim

    def verdict(self, payload):
        if payload.name == self.victim:
            os._exit(13)
        return super().verdict(payload)


class TestWorkerDeath:
    def test_dead_worker_poisons_its_cells_not_the_campaign(self, tmp_path):
        # At most 8 items: at jobs=2 every item gets a shard of its own.
        suite = diy_suite("x86", max_length=2)
        victim = suite[1].name
        cache = ResultCache(tmp_path)
        result = run_campaign(
            suite, [_ExitOn(victim), "x86"], jobs=2, cache=cache
        )
        serial = run_campaign(
            suite, [ModelChecker("exit", get_model("sc")), "x86"], jobs=1
        )
        bad = {key for key, cell in result.cells.items() if cell.error}
        assert bad == {(victim, "exit"), (victim, "x86")}
        assert all("died" in result.cells[key].error for key in bad)
        assert len(cache) == len(result.cells) - len(bad)
        assert {
            key: cell.verdict
            for key, cell in result.cells.items()
            if key not in bad
        } == {
            key: cell.verdict
            for key, cell in serial.cells.items()
            if key not in bad
        }


class TestSuites:
    def test_catalog_suite_expected_diffs(self):
        items = catalog_suite(names=["fig2"])
        assert len(items) == 1
        expected = items[0].expected
        models = [m for m in expected if m in ("x86", "cpp")]
        result = run_campaign(items, models)
        assert result.diffs(items) == []

    def test_diffs_resolve_cat_and_hw_specs(self):
        from repro.engine.campaign import _base_model_name

        assert _base_model_name("x86tm") == "x86"
        assert _base_model_name("cat:x86") == "x86"
        assert _base_model_name("hw:x86:x86-tso-htm-sim") == "x86"
        assert _base_model_name("x86") == "x86"

    def test_cat_spec_checked_against_expected(self):
        # A bare .cat spec must be compared with the registry-name
        # expectations — an inverted expectation must surface as a diff.
        items = catalog_suite(names=["fig2"])
        items[0].expected = {"x86": not items[0].expected["x86"]}
        result = run_campaign(items, ["x86tm"])
        assert len(result.diffs(items)) == 1

    def test_execution_suite(self):
        items = execution_suite([classic("sb"), classic("mp")], prefix="c")
        assert [i.name for i in items] == ["c-0", "c-1"]
        result = run_campaign(items, ["sc"])
        assert result.verdict("c-0", "sc") is False  # SC forbids SB

    def test_diy_suite_names_unique(self, suite):
        names = [item.name for item in suite]
        assert len(names) == len(set(names))

    def test_diy_suite_empty_vocabulary_is_empty(self):
        # Only ``None`` means the default vocabulary; an empty one yields
        # no cycle, as ``enumerate_cycles([], L)`` does.
        assert diy_suite("x86", [], 3) == []
        assert len(diy_suite("x86", None, 2)) == 5


class TestMemoization:
    def test_expand_program_memoized(self, suite):
        expand_program.cache_clear()
        program = suite[0].payload.program
        first = expand_program(program)
        assert expand_program(program) is first
        info = expand_program.cache_info()
        assert info.hits >= 1 and info.misses == 1

    def test_expansion_streams_lazily(self, suite):
        from repro.litmus.candidates import candidate_executions

        expand_program.cache_clear()
        program = suite[0].payload.program
        stream = candidate_executions(program)
        head = next(stream)  # early exit must not force the full tuple
        expansion = expand_program(program)
        assert len(expansion._seen) == 1
        # A second consumer replays the prefix, then both can finish.
        assert next(iter(candidate_executions(program))).outcome == head.outcome
        total = sum(1 for _ in candidate_executions(program))
        assert total == len(expansion._seen) and expansion._done


class TestParallelMap:
    def test_serial_path(self):
        assert resilient_map(abs, [-1, 2, -3], jobs=1) == [1, 2, 3]

    def test_parallel_preserves_order(self):
        assert resilient_map(abs, list(range(-20, 0)), jobs=2) == list(
            range(20, 0, -1)
        )


class TestCampaignCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_campaign_diy(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out = self._run(
            capsys, "campaign", "--arch", "x86",
            "--models", "x86,x86tm", "--length", "2",
        )
        assert code == 0
        assert "x86tm" in out and "cache" in out
        # Second invocation is served from the cache.
        code, out = self._run(
            capsys, "campaign", "--arch", "x86",
            "--models", "x86,x86tm", "--length", "2",
        )
        assert code == 0
        assert "100% cache hits" in out

    def test_campaign_catalog_no_cache(self, capsys):
        code, out = self._run(
            capsys, "campaign", "--suite", "catalog", "--models", "sc",
            "--no-cache",
        )
        assert code == 0
        assert "tests x 1 models" in out

    def test_campaign_files(self, capsys, tmp_path):
        from repro.litmus.parse import dumps

        test = to_litmus(classic("sb"), "sb-file", "x86")
        path = tmp_path / "sb.litmus"
        path.write_text(dumps(test))
        code, out = self._run(
            capsys, "campaign", str(path), "--models", "x86", "--no-cache"
        )
        assert code == 0
        assert "sb-file" in out


class TestNewCheckerSpecs:
    """The conformance layer's checker families: brute:, mut:, hw variants."""

    def test_brute_spec_matches_native(self):
        test = to_litmus(classic("sb"), "sb", "x86")
        from repro.engine.checkers import resolve_checker

        assert resolve_checker("brute:x86").verdict(test) == resolve_checker(
            "x86"
        ).verdict(test)

    def test_brute_spec_rejects_unknown_model(self):
        from repro.engine.checkers import resolve_checker

        with pytest.raises(ValueError):
            resolve_checker("brute:nosuchmodel")

    def test_mut_spec_is_weaker_than_stock(self):
        """Dropping an axiom is monotone: whatever the stock model
        observes, the mutant observes too."""
        from repro.engine.checkers import resolve_checker

        stock = resolve_checker("armv8")
        mutant = resolve_checker("mut:armv8:Coherence")
        for name in ("sb", "mp", "lb", "2+2w"):
            test = to_litmus(classic(name), name, "armv8")
            if stock.verdict(test):
                assert mutant.verdict(test), name

    def test_hw_variant_specs_resolve(self):
        from repro.engine.checkers import resolve_checker
        from repro.sim.oracle import BuggyRtlArm, MachineHardware

        assert isinstance(
            resolve_checker("hw:armv8:machine").oracle, MachineHardware
        )
        assert isinstance(
            resolve_checker("hw:armv8:buggy").oracle, BuggyRtlArm
        )
        with pytest.raises(ValueError):
            resolve_checker("hw:armv8:nosuchvariant")
        with pytest.raises(ValueError):
            resolve_checker("hw:cpp:buggy")

    def test_definition_hashes_are_distinct_per_mutant(self):
        from repro.engine.checkers import resolve_checker

        hashes = {
            resolve_checker(spec).definition_hash()
            for spec in (
                "armv8",
                "brute:armv8",
                "mut:armv8:TxnOrder",
                "mut:armv8:Coherence",
            )
        }
        assert len(hashes) == 4


class TestErrorCells:
    """Checker crashes become reportable cells, not lost campaigns."""

    class _Boom(ModelChecker):
        def __init__(self):
            super().__init__("boom", get_model("sc"))

        def verdict(self, payload):
            raise RuntimeError("kaboom")

    def test_errors_are_captured_and_reported(self):
        items = [CampaignItem("fig2", CATALOG["fig2"].execution)]
        result = run_campaign(items, [self._Boom(), "sc"])
        cell = result.cells[("fig2", "boom")]
        assert cell.error == "RuntimeError: kaboom"
        assert cell.verdict is False
        assert result.errors() == [("fig2", "boom", "RuntimeError: kaboom")]
        # the healthy checker's cell is unaffected
        assert result.cells[("fig2", "sc")].error is None
        assert "1 checker errors" in result.summary()
        assert "!" in result.format_matrix()

    def test_errored_cells_are_never_cached(self, tmp_path):
        items = [CampaignItem("fig2", CATALOG["fig2"].execution)]
        cache = ResultCache(tmp_path)
        run_campaign(items, [self._Boom()], cache=cache)
        assert len(cache) == 0
        # a healthy run does populate the cache
        run_campaign(items, ["sc"], cache=cache)
        assert len(cache) == 1
