"""Two-way differential suite: batched kernels vs the scalar reference.

The batched evaluator (:mod:`repro.ir.codegen`'s generated ``float32``
kernels) must be *bit-identical* to the scalar reference
(:mod:`repro.ir.eval`): any mismatch here is a kernel bug, never an
acceptable approximation.  The layers:

* **Packers** — :func:`repro.ir.batch.pack_relations` /
  :func:`~repro.ir.batch.pack_sets` against scalar ``Relation`` rows
  and event sets, including a universe past 64 events (the per-bit
  unpack);
* **Node kinds** — one single-axiom definition per node kind the
  emitter lowers, under every predicate, generated vs scalar over the
  catalog executions (transactional and baseline views);
* **Golden catalog** — every native model plus ``cat:power`` /
  ``cat:armv8`` (``let rec`` fixpoints) over the whole catalog;
* **Corpus matrix** and **fuzz stream** — batched vs scalar campaigns
  over the full committed corpus and a seeded generator suite
  (reproducible via ``REPRO_TEST_SEED``);
* the one batched path (only the campaign prefill reaches a kernel),
  the kernel floor, the build-failure fallback, batch-aware shard
  assembly, and a ``jobs=2`` campaign.

Tests that build kernels skip without numpy (or under
``REPRO_NO_NUMPY=1``), where every check runs on the scalar path.
"""

import pathlib
import random
import threading
import warnings

import pytest

from repro.catalog import CATALOG
from repro.cat.model import load_cat_model
from repro.conformance.generators import generate_suite
from repro.conformance.golden import load_snapshot
from repro.conformance.seeds import derive_seed, reproducible_seed
from repro.core.analysis import analyze
from repro.core.execution import Execution
from repro.core.relation import Relation
from repro.engine.batchsweep import assemble_shards, plan_shards, run_shard
from repro.engine import batchsweep
from repro.engine.campaign import diy_suite, litmus_suite, run_campaign
from repro.engine.checkers import resolve_checker
from repro.ir import nodes as N
from repro.ir.batch import HAVE_NUMPY, BatchContext, pack_relations, pack_sets
from repro.ir.eval import _BASE_RELATION, STATS, axiom_holds, evaluate
from repro.ir.model import IRAxiom, IRDefinition
from repro.litmus.candidates import (
    _expand_test,
    all_outcomes,
    brute_force_forall,
    brute_force_observable,
    brute_force_outcomes,
    expand_program,
    forall_holds,
    observable,
    set_batch_size,
)
from repro.models.registry import MODELS, get_model
from repro.obs import telemetry
import repro.ir.codegen as codegen
import repro.ir.plan as plan

_SEED = reproducible_seed()
CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_verdicts.json"

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batched kernels need numpy"
)


def _fresh(x: Execution) -> Execution:
    """A copy with no cached analysis: batched evaluation on it cannot
    read memos a scalar pass already filled (or vice versa), so the two
    paths stay genuinely independent."""
    return Execution(
        x.events, x.threads, x.rf, x.co, x.addr, x.data, x.ctrl, x.rmw, x.txns
    )


def _catalog_stacks():
    """Catalog executions bucketed by universe size, as fresh copies."""
    buckets: dict[int, list[tuple[str, Execution]]] = {}
    for name, entry in sorted(CATALOG.items()):
        buckets.setdefault(entry.execution.n, []).append(
            (name, _fresh(entry.execution))
        )
    return buckets


@pytest.fixture
def forced_kernels(monkeypatch):
    """Force every stack through the kernels, however small — without
    this the differential would silently compare scalar against scalar
    below ``MIN_KERNEL_BATCH``."""
    monkeypatch.setattr(plan, "MIN_KERNEL_BATCH", 1)


@pytest.fixture
def cold_kernels():
    """No kernels built before the test, none left behind after it."""
    codegen.reset()
    try:
        yield
    finally:
        codegen.reset()


# ----------------------------------------------------------------------
# Packers
# ----------------------------------------------------------------------


def _random_relation(rng: random.Random, n: int) -> Relation:
    density = rng.uniform(0.05, 0.5)
    return Relation.from_pairs(
        n,
        [(i, j) for i in range(n) for j in range(n) if rng.random() < density],
    )


@needs_numpy
class TestPackers:
    #: Tiny, catalog-typical, and one past the 64-bit packed row.
    SIZES = (1, 7, 66)

    @pytest.mark.parametrize("n", SIZES)
    def test_relations_match_rows(self, n):
        rng = random.Random(derive_seed(_SEED, f"pack-relations-{n}"))
        rels = [_random_relation(rng, n) for _ in range(5)]
        rels += [Relation.empty(n), Relation.full(n), Relation.identity(n)]
        data = pack_relations(rels, n)
        assert data.shape == (len(rels), n, n)
        assert str(data.dtype) == "float32"
        for b, rel in enumerate(rels):
            for i in range(n):
                row = sum(int(data[b, i, j]) << j for j in range(n))
                assert row == rel.row(i)
        assert set(data.ravel().tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", SIZES)
    def test_sets_match_members(self, n):
        rng = random.Random(derive_seed(_SEED, f"pack-sets-{n}"))
        sets = [
            frozenset(i for i in range(n) if rng.random() < 0.4)
            for _ in range(5)
        ] + [frozenset(), frozenset(range(n))]
        data = pack_sets(sets, n)
        assert data.shape == (len(sets), n)
        assert str(data.dtype) == "float32"
        for b, events in enumerate(sets):
            assert frozenset(data[b].nonzero()[0].tolist()) == events


def _diy_stacks():
    """The prefill's buckets for the power diy suite up to length 5 (the
    coherence-pruned ``exists`` candidates by universe size), as fresh
    copies.  Unlike the catalog, they hold locations with three writes."""
    buckets: dict[int, list[tuple[str, Execution]]] = {}
    for item in diy_suite("power", max_length=5):
        for candidate in _expand_test(
            item.payload.program, item.payload.postcondition, True
        ):
            x = candidate.execution
            buckets.setdefault(x.n, []).append((item.name, _fresh(x)))
    return buckets


#: The leaves read off execution fields or, for a transactional stack,
#: packed from the scalar relations.
_PACKED_LEAVES = (
    "rf", "co", "addr", "data", "ctrl", "rmw", "stxn", "stxnat", "tfence",
)


@needs_numpy
def test_leaves_match_scalar_relations():
    """Each leaf equals ``pack_relations`` over the scalar relations of
    independent copies, on the transactional and the baseline view —
    over the diy buckets, where ``co`` orders three writes (so a packer
    emitting only adjacent pairs fails), and over the catalog, which has
    dependencies, ``rmw`` and transactions."""
    stacks = list(_diy_stacks().values()) + list(_catalog_stacks().values())
    three_writes = sum(
        any(len(order) >= 3 for order in x.co.values())
        for stack in stacks
        for _, x in stack
    )
    assert three_writes >= 9, "no co with three writes: the test is hollow"
    for stack in stacks:
        executions = [x for _, x in stack]
        ctx = BatchContext.of(executions)
        for target in (ctx, ctx.baseline):
            analyses = [analyze(_fresh(x)) for x in executions]
            if target is not ctx:
                analyses = [a.baseline for a in analyses]
            for token in _PACKED_LEAVES:
                got = plan.base_value(target, token)
                want = pack_relations(
                    [_BASE_RELATION[token](a) for a in analyses], ctx.n
                )
                assert got.shape == want.shape, token
                assert str(got.dtype) == "float32", token
                assert (got == want).all(), (token, ctx.n)


# ----------------------------------------------------------------------
# One generated-vs-scalar case per node kind
# ----------------------------------------------------------------------


def _node_cases():
    po, rf, co = N.base("po"), N.base("rf"), N.base("co")
    reads, writes, accesses = N.bset("R"), N.bset("W"), N.bset("M")
    x0, x1 = N.var(0), N.var(1)
    cases = [(f"base-{t}", N.base(t)) for t in sorted(N.BASE_RELATIONS)]
    cases += [(f"set-{t}", N.lift(N.bset(t))) for t in sorted(N.BASE_SETS)]
    cases += [
        ("empty", N.empty()),
        ("sempty", N.lift(N.scompl(N.sempty()))),
        ("union", N.union(po, rf)),
        ("sunion", N.lift(N.sunion(reads, N.bset("F")))),
        ("inter", N.inter(N.base("loc"), po)),
        ("sinter", N.lift(N.sinter(accesses, writes))),
        ("diff", N.diff(N.base("loc"), po)),
        ("sdiff", N.lift(N.sdiff(accesses, reads))),
        ("compl", N.compl(po)),
        ("scompl", N.lift(N.scompl(reads))),
        ("comp", N.comp(po, rf)),
        # [S] factors: leading, interior and trailing masks.
        ("comp-masks", N.comp(N.lift(reads), po, N.lift(writes), rf,
                              N.lift(reads))),
        ("comp-all-lifts", N.comp(N.lift(accesses), N.lift(writes))),
        ("inverse", N.inverse(rf)),
        ("opt", N.opt(po)),
        ("plus", N.plus(N.union(rf, po))),
        ("star", N.star(N.comp(rf, po))),
        ("lift", N.lift(N.domain(co))),
        ("cross", N.cross(writes, reads)),
        ("domain", N.lift(N.domain(rf))),
        ("range", N.lift(N.range_(rf))),
        ("stronglift", N.stronglift(N.union(po, rf))),
        ("weaklift", N.weaklift(N.union(po, rf, co))),
        # po+ as a fixpoint.
        ("fix", N.fix((N.union(po, N.comp(x0, x0)),), 0)),
        # Two mutually recursive components, a hoisted closed
        # subexpression, and a comp mask inside the Kleene loop.
        ("fix-mutual", N.fix(
            (
                N.union(N.comp(rf, po), N.comp(x1, po)),
                N.union(co, N.comp(N.lift(writes), x0, rf)),
            ),
            1,
        )),
    ]
    return cases


_CASES = _node_cases()

#: Every kind the emitter lowers (``var`` only appears inside ``fix``).
_EMITTED_KINDS = {
    "base", "set", "empty", "sempty", "union", "sunion", "inter", "sinter",
    "diff", "sdiff", "compl", "scompl", "comp", "inverse", "opt", "plus",
    "star", "lift", "cross", "domain", "range", "stronglift", "weaklift",
    "fix",
}


def test_node_cases_cover_every_emitted_kind():
    covered = {
        node.kind for _, root in _CASES for node in N.reachable([root]).values()
    }
    assert _EMITTED_KINDS <= covered, _EMITTED_KINDS - covered


def _kernel(token, kind, node, n):
    definition = IRDefinition((IRAxiom("A", kind, "a", node),))
    kernel = codegen.compiled_for(token, definition, n)
    assert kernel is not None, f"no kernel for {token}"
    return kernel


@needs_numpy
@pytest.mark.parametrize("name,node", _CASES, ids=[c[0] for c in _CASES])
def test_kernel_matches_scalar_per_node_kind(name, node, cold_kernels):
    """Each predicate over the case's node, generated vs scalar, on the
    transactional and the baseline view; then the node's value itself,
    read back from the context memo through a ``[_] ; node ; [_]`` probe
    (a predicate alone cannot tell, say, ``domain`` from ``range``)."""
    universe = N.lift(N.bset("_"))
    probe = N.comp(universe, node, universe)
    for stack in _catalog_stacks().values():
        executions = [x for _, x in stack]
        ctx = BatchContext.of(executions)
        for target in (ctx, ctx.baseline):
            analyses = [analyze(_fresh(x)) for x in executions]
            if target is not ctx:
                analyses = [a.baseline for a in analyses]
            for kind in ("acyclic", "irreflexive", "empty"):
                kernel = _kernel(f"node-case:{name}:{kind}", kind, node, ctx.n)
                want = [axiom_holds(kind, node, a) for a in analyses]
                assert kernel(target) == want, (name, kind, ctx.n)
            if probe.kind != "comp":  # ``empty`` absorbs the probe
                continue
            _kernel(f"node-case:{name}:value", "empty", probe, ctx.n)(target)
            memo = (target._parent or target)._memo if probe.txn_free else (
                target._memo
            )
            want = pack_relations([evaluate(node, a) for a in analyses], ctx.n)
            assert (memo[probe.id] == want).all(), (name, ctx.n)


# ----------------------------------------------------------------------
# Golden catalog
# ----------------------------------------------------------------------


class TestGoldenCatalogBatched:
    def test_native_models_match_pinned_scalar_matrix(self, forced_kernels):
        """Batched verdicts over the full catalog reproduce the pinned
        scalar golden matrix for every native model."""
        golden = load_snapshot(GOLDEN)
        buckets = _catalog_stacks()
        mismatches = []
        for model_name in sorted(MODELS):
            model = get_model(model_name)
            definition = model.batch_definition()
            assert definition is not None, f"{model_name} lost its IR"
            for stack in buckets.values():
                flags = plan.consistent_on(
                    model, definition, BatchContext.of([x for _, x in stack])
                )
                for (entry_name, _), flag in zip(stack, flags):
                    want = golden[entry_name][model_name]
                    if bool(flag) != want:
                        mismatches.append((entry_name, model_name, want))
        assert not mismatches, f"batched verdicts flipped: {mismatches[:10]}"

    @pytest.mark.parametrize("cat_name", ["power", "armv8"])
    def test_cat_models_match_scalar(self, forced_kernels, cat_name):
        """`.cat` models (``let rec`` fixpoints included) batched vs a
        scalar sweep over independent execution copies."""
        model = load_cat_model(cat_name)
        definition = model.batch_definition()
        if definition is None:
            pytest.skip(f"cat:{cat_name} has no batchable IR")
        for stack in _catalog_stacks().values():
            scalar = [bool(model.consistent(_fresh(x))) for _, x in stack]
            flags = plan.consistent_on(
                model, definition, BatchContext.of([x for _, x in stack])
            )
            assert list(map(bool, flags)) == scalar


# ----------------------------------------------------------------------
# Campaign-level differentials (corpus matrix + seeded fuzz stream)
# ----------------------------------------------------------------------


def _campaign_verdicts(items, specs, batch):
    """One campaign pass at the given batch setting, from cold expansion
    caches, returning ``{(name, spec): (verdict, error)}``."""
    expand_program.cache_clear()
    _expand_test.cache_clear()
    set_batch_size(batch)
    try:
        result = run_campaign(items, specs)
    finally:
        set_batch_size(None)
        expand_program.cache_clear()
        _expand_test.cache_clear()
    return {
        key: (cell.verdict, cell.error) for key, cell in result.cells.items()
    }


def _assert_identical(items, specs):
    scalar = _campaign_verdicts(items, specs, 0)
    before = STATS.batch_candidates
    batched = _campaign_verdicts(items, specs, 64)
    if HAVE_NUMPY:
        assert STATS.batch_candidates > before, "no stack reached a kernel"
    assert batched == scalar


class TestCampaignDifferential:
    def test_full_corpus_matrix(self, forced_kernels):
        """The complete committed corpus (every dialect; ``exists``,
        ``~exists`` and ``forall`` tests alike) × every native model:
        batched and scalar campaigns agree on all cells."""
        paths = sorted(str(p) for p in CORPUS.glob("*/*.litmus"))
        assert len(paths) >= 150, "corpus shrank; differential is hollow"
        _assert_identical(litmus_suite(paths), sorted(MODELS))

    def test_seeded_fuzz_stream(self, forced_kernels):
        """A reproducible generator suite (prints its seed via the
        pytest header) swept batched vs scalar, including a ``.cat``
        checker so ``let rec`` kernels run inside the campaign."""
        for arch, specs in (
            ("x86", ["x86", "sc"]),
            ("power", ["power", "cat:power"]),
        ):
            seed = derive_seed(_SEED, f"batch-differential-{arch}")
            items = [
                item.campaign_item()
                for item in generate_suite(arch, seed, "smoke")
            ]
            assert items, "empty fuzz suite; differential is hollow"
            _assert_identical(items, specs)

    @needs_numpy
    def test_build_failure_falls_back_to_scalar(
        self, forced_kernels, cold_kernels, monkeypatch
    ):
        """A kernel that cannot be built sends its stacks to the scalar
        path: verdicts unchanged, one count (also in the telemetry
        snapshot a run manifest is built from) and one warning per
        ``(token, n)`` tried, no candidate through a kernel."""
        items = litmus_suite(
            sorted(str(p) for p in CORPUS.glob("x86/*.litmus"))
        )
        specs = ["x86", "sc"]
        scalar = _campaign_verdicts(items, specs, 0)

        def broken(*args, **kwargs):
            raise RuntimeError("emitter broke")

        monkeypatch.setattr(codegen, "generate_source", broken)
        failures = STATS.kernel_build_failures
        candidates = STATS.batch_candidates
        bundle = telemetry.enable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                batched = _campaign_verdicts(items, specs, 64)
        finally:
            telemetry.disable()
        assert batched == scalar
        tried = list(codegen._COMPILED)
        assert tried and all(codegen._COMPILED[k] is None for k in tried)
        assert STATS.kernel_build_failures - failures == len(tried)
        counters = bundle.snapshot(spans=False)["trace"]["counters"]
        assert counters["ir_kernel_build_failures"] == len(tried)
        assert STATS.batch_candidates == candidates
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "batched kernel" in str(w.message)
        ]
        assert len(messages) == len(tried)
        for token, n in tried:
            assert sum(f"{token} at n={n} " in m for m in messages) == 1


class TestCatCheckShapes:
    """``.cat`` check shapes outside the native models' reach a campaign
    without a counted prefill fallback: a negated check on the scalar
    path, two checks sharing a name in the prefill's kernels."""

    @staticmethod
    def _batched_candidates(tmp_path, source):
        """Candidates the batched pass sent through a kernel, after
        checking its verdicts against the scalar pass's and that no
        fallback was counted."""
        path = tmp_path / "shape.cat"
        path.write_text(source)
        items = litmus_suite(
            sorted(str(p) for p in CORPUS.glob("x86/*.litmus"))
        )
        specs = [str(path)]
        scalar = _campaign_verdicts(items, specs, 0)
        fallbacks = STATS.prefill_fallbacks
        candidates = STATS.batch_candidates
        batched = _campaign_verdicts(items, specs, 64)
        assert batched == scalar
        assert STATS.prefill_fallbacks == fallbacks
        return STATS.batch_candidates - candidates

    def test_negated_check_runs_scalar(self, tmp_path):
        source = "acyclic po | rf | co | fr as Order\n~empty rf as HasRf\n"
        assert self._batched_candidates(tmp_path, source) == 0

    def test_checks_sharing_a_name_run_in_the_prefill(self, tmp_path):
        source = (
            "acyclic po | rf | co | fr as A\n"
            "acyclic (po & loc) | rf | co | fr as A\n"
        )
        batched = self._batched_candidates(tmp_path, source)
        if HAVE_NUMPY:
            assert batched > 0, "no stack reached a kernel"


class TestPrefillFallbacks:
    """A prefill step that raises sends its cells to the per-cell path:
    verdicts unchanged, the fallback counted (``ir_prefill_fallbacks``
    in the telemetry a manifest is built from) and warned about."""

    SPECS = ["x86", "sc"]

    @staticmethod
    def _x86_corpus():
        return litmus_suite(
            sorted(str(p) for p in CORPUS.glob("x86/*.litmus"))
        )

    @staticmethod
    def _fallback_warnings(caught):
        return [
            w
            for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "batched prefill fell back" in str(w.message)
        ]

    def test_kernel_exception_is_counted_and_warned(self, monkeypatch):
        items = self._x86_corpus()
        scalar = _campaign_verdicts(items, self.SPECS, 0)
        target = resolve_checker("x86").model
        real = plan.consistent_on
        raised = []

        def flaky(model, definition, ctx):
            # One transient kernel fault: the prefill must stop sweeping
            # this model, and its per-cell path must still decide it.
            if model is target and not raised:
                raised.append(ctx)
                raise RuntimeError("kernel fault")
            return real(model, definition, ctx)

        monkeypatch.setattr(plan, "consistent_on", flaky)
        before = STATS.prefill_fallbacks
        bundle = telemetry.enable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                batched = _campaign_verdicts(items, self.SPECS, 64)
        finally:
            telemetry.disable()
        assert raised, "the prefill never swept the target model"
        assert batched == scalar
        assert STATS.prefill_fallbacks - before == 1
        counters = bundle.snapshot(spans=False)["trace"]["counters"]
        assert counters["ir_prefill_fallbacks"] == 1
        (warning,) = self._fallback_warnings(caught)
        assert "x86" in str(warning.message)

    def test_prefill_crash_in_a_serial_campaign_falls_back(
        self, monkeypatch
    ):
        items = self._x86_corpus()
        scalar = _campaign_verdicts(items, self.SPECS, 0)

        def crash(units):
            raise RuntimeError("collect fault")

        monkeypatch.setattr(batchsweep, "_collect", crash)
        before = STATS.prefill_fallbacks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batched = _campaign_verdicts(items, self.SPECS, 64)
        assert batched == scalar
        assert STATS.prefill_fallbacks - before == 1
        assert len(self._fallback_warnings(caught)) == 1


class TestCoherencePrunedPrefill:
    """When every batchable checker of an item enforces coherence, the
    prefill collects the coherence-pruned ``exists`` stream; a single
    ungated checker (a mutant without its Coherence axiom) brings back
    the full walk.  Verdicts equal the scalar path's either way."""

    @pytest.mark.parametrize(
        "extra, gated",
        [([], True), (["mut:x86:Coherence"], False)],
        ids=["native", "with-ungated-mutant"],
    )
    def test_collection_follows_the_gates(self, monkeypatch, extra, gated):
        items = diy_suite("power", max_length=5)
        specs = sorted(MODELS) + extra
        flags = []
        real = batchsweep.expand_test

        def spy(test, coherent_only=False):
            flags.append(coherent_only)
            return real(test, coherent_only)

        monkeypatch.setattr(batchsweep, "expand_test", spy)
        scalar = _campaign_verdicts(items, specs, 0)
        assert not flags, "the scalar path collected a prefill stream"
        batched = _campaign_verdicts(items, specs, 64)
        assert len(flags) == len(items)
        assert set(flags) == {gated}
        assert batched == scalar


# ----------------------------------------------------------------------
# One batched path
# ----------------------------------------------------------------------


@needs_numpy
def test_only_the_prefill_reaches_a_kernel(forced_kernels):
    """The campaign prefill is the only batched path: the per-cell
    consumers, the brute-force oracle and the ``brute:`` checker send
    no candidate to a kernel, even with the kernel floor at 1, so the
    ``brute:`` column shares no evaluator with the kernels it checks."""
    items = litmus_suite(
        sorted(str(p) for p in CORPUS.glob("x86/*.litmus"))[:30]
    )
    assert len(items) == 30
    model = get_model("x86")
    brute = resolve_checker("brute:x86")
    before = STATS.batch_candidates
    for item in items:
        test = item.payload
        observable(test, model)
        forall_holds(test, model)
        all_outcomes(test, model)
        brute_force_observable(test, model)
        brute_force_forall(test, model)
        brute_force_outcomes(test, model)
        brute.verdict(test)
    assert STATS.batch_candidates == before
    run_campaign(items, ["x86"])
    assert STATS.batch_candidates > before


def test_set_batch_size_switches_the_prefill():
    """``0`` and ``1`` turn the prefill off, so every cell is left to
    the per-cell path; ``None`` and larger sizes turn it back on; a
    negative size is an error."""
    units = _units(4)
    try:
        for size, on in ((0, False), (1, False), (2, True), (None, True)):
            set_batch_size(size)
            _rows, covered = batchsweep.prefill_units(units)
            assert bool(covered) == on, size
        with pytest.raises(ValueError, match="batch size must be >= 0"):
            set_batch_size(-1)
    finally:
        set_batch_size(None)


# ----------------------------------------------------------------------
# Batch floor
# ----------------------------------------------------------------------


def _small_plan():
    """A (model, definition, stack) triple on the smallest bucket."""
    model = get_model("sc")
    definition = model.batch_definition()
    stack = min(_catalog_stacks().values(), key=lambda s: s[0][1].n)
    return model, definition, stack


class TestKernelFloor:
    def test_default_floor(self):
        assert plan.MIN_KERNEL_BATCH == 8
        assert plan.CODEGEN_KERNEL_BATCH == 2
        assert plan.kernel_floor() == plan.MIN_KERNEL_BATCH

    @needs_numpy
    def test_warm_generated_kernel_lowers_floor(
        self, cold_kernels, monkeypatch
    ):
        model, definition, stack = _small_plan()
        token = model.definition_token()
        n = stack[0][1].n
        assert plan.kernel_floor(token, n) == plan.MIN_KERNEL_BATCH
        assert codegen.compiled_for(token, definition, n) is not None
        assert plan.kernel_floor(token, n) == plan.CODEGEN_KERNEL_BATCH
        # ... but never below an explicit test pin.
        monkeypatch.setattr(plan, "MIN_KERNEL_BATCH", 1)
        assert plan.kernel_floor(token, n) == 1


# ----------------------------------------------------------------------
# Batch-aware sharding (the parallel campaign / serve dispatch unit)
# ----------------------------------------------------------------------


def _units(k):
    """k campaign units over catalog executions (varied universes)."""
    entries = sorted(CATALOG.items())
    checkers = (resolve_checker("x86"), resolve_checker("sc"))
    return [
        (
            f"u{i:03d}-{entries[i % len(entries)][0]}",
            entries[i % len(entries)][1].execution,
            checkers,
            False,
        )
        for i in range(k)
    ]


class TestShardAssembly:
    def test_partition_is_exact_and_nonempty(self):
        units = _units(17)
        for n_shards in (1, 2, 5, 16, 17, 50):
            shards = assemble_shards(units, n_shards)
            assert all(shards)
            assert len(shards) == min(n_shards, len(units))
            flat = sorted(u[0] for shard in shards for u in shard)
            assert flat == sorted(u[0] for u in units)

    def test_same_universe_units_stay_contiguous(self):
        units = _units(20)
        shards = assemble_shards(units, 4)
        # Sorted-by-size assembly: sizes never decrease across the
        # shard sequence, so equal-size runs span adjacent shards only.
        sizes = [u[1].n for shard in shards for u in shard]
        assert sizes == sorted(sizes)

    def test_deterministic(self):
        units = _units(13)
        a = assemble_shards(list(reversed(units)), 3)
        b = assemble_shards(units, 3)
        assert [[u[0] for u in s] for s in a] == [
            [u[0] for u in s] for s in b
        ]

    def test_empty(self):
        assert assemble_shards([], 4) == []

    def test_plan_serial_is_one_shard_of_every_unit(self):
        units = _units(17)
        shards, _budget = plan_shards(units, jobs=1)
        assert shards == [units]

    def test_plan_parallel_is_four_shards_per_worker(self):
        units = _units(40)
        shards, _budget = plan_shards(units, jobs=2)
        assert 1 < len(shards) <= 8
        assert all(shards)
        assert sorted(u[0] for s in shards for u in s) == sorted(
            u[0] for u in units
        )

    def test_plan_budget_scales_the_largest_shard(self):
        # Units carrying one or two pending cells, so shards differ.
        units = [
            (name, payload, checkers[: 1 + i % 2], tel)
            for i, (name, payload, checkers, tel) in enumerate(_units(11))
        ]
        timeout = batchsweep.CELL_TIMEOUT
        shards, budget = plan_shards(units, jobs=2)
        largest = max(sum(len(u[2]) for u in s) for s in shards)
        assert budget == timeout * largest
        _shards, serial_budget = plan_shards(units, jobs=1)
        assert serial_budget == timeout * sum(len(u[2]) for u in units)
        assert plan_shards([], jobs=2) == ([], 0.0)

    def test_plan_budget_is_clamped_to_the_longest_lock_wait(
        self, monkeypatch
    ):
        # 5e9 s x the largest shard's cells is past the longest wait a
        # lock accepts; the budget is clamped instead of overflowing.
        monkeypatch.setattr(batchsweep, "CELL_TIMEOUT", 5e9)
        _shards, budget = plan_shards(_units(40), jobs=2)
        assert budget == threading.TIMEOUT_MAX

    def test_run_shard_matches_serial_verdicts(self):
        units = _units(9)
        serial = {
            (name, spec): verdict
            for unit in units
            for name, spec, verdict, _t, _e in run_shard([unit])[0]
        }
        batched = {
            (name, spec): verdict
            for name, spec, verdict, _t, _e in run_shard(units)[0]
        }
        assert batched == serial


class TestParallelCampaignDifferential:
    def test_jobs2_matches_serial(self):
        """The sharded parallel path returns the serial path's exact
        verdict matrix (the catalog crossed with four models exercises
        the shard prefill and the per-cell fallback split)."""
        from repro.engine.campaign import catalog_suite

        suite = catalog_suite()
        models = ["x86", "power", "armv8", "x86tm"]
        serial = run_campaign(suite, models, jobs=1)
        parallel = run_campaign(suite, models, jobs=2)
        assert {
            k: (c.verdict, c.error) for k, c in serial.cells.items()
        } == {
            k: (c.verdict, c.error) for k, c in parallel.cells.items()
        }
