"""Direct checks of the generated kernels (:mod:`repro.ir.codegen`).

The two-way differential in ``tests/test_batch.py`` goes through
:func:`repro.ir.plan.consistent_on` and the campaign engine, where a
kernel that cannot be built falls back to the scalar reference: its
verdicts still match, so a broken emitter would hide there.  The checks
here hold the kernels themselves to account:

* **Golden catalog** — :func:`~repro.ir.codegen.compiled_for` must
  return a kernel for every native model at every catalog universe
  size, and that kernel must reproduce the pinned scalar matrix, as
  must the ``cat:power`` / ``cat:armv8`` kernels (``let rec``
  fixpoints; the matrix was pinned before the IR existed);
* **Corpus matrix** — a batched campaign over the full committed corpus
  builds every kernel it asks for and reproduces the pinned
  ``tests/corpus_verdicts.json``;
* **Fuzz stream** — a seeded generator suite (reproducible via
  ``REPRO_TEST_SEED``, on its own seed stream) builds every kernel and
  matches a scalar campaign.

Every test here needs numpy and skips without it.
"""

import pathlib

import pytest

from repro.catalog import CATALOG
from repro.cat.model import load_cat_model
from repro.conformance.generators import generate_suite
from repro.conformance.golden import load_snapshot
from repro.conformance.seeds import derive_seed, reproducible_seed
from repro.core.execution import Execution
from repro.engine.campaign import litmus_suite, run_campaign
from repro.ir.batch import HAVE_NUMPY, BatchContext
from repro.ir.eval import STATS
from repro.litmus.candidates import _expand_test, expand_program, set_batch_size
from repro.models.registry import MODELS, get_model
import repro.ir.codegen as codegen
import repro.ir.plan as plan

_SEED = reproducible_seed()
_HERE = pathlib.Path(__file__).resolve().parent
CORPUS = _HERE / "corpus"
GOLDEN = _HERE / "golden_verdicts.json"
CORPUS_VERDICTS = _HERE / "corpus_verdicts.json"


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="generated kernels need numpy"
)


@pytest.fixture(params=["numpy"])
def backend(request):
    """The array library the kernels are generated for (numpy is the
    only one); skips without it."""
    if not HAVE_NUMPY:
        pytest.skip("generated kernels need numpy")
    return request.param


@pytest.fixture
def cold_kernels():
    """No kernels built before the test, none left behind after it, so
    ``codegen._COMPILED`` holds exactly the kernels the test asked for."""
    codegen.reset()
    try:
        yield
    finally:
        codegen.reset()


@pytest.fixture
def forced_kernels(monkeypatch):
    """Send every campaign stack to a kernel, however small."""
    monkeypatch.setattr(plan, "MIN_KERNEL_BATCH", 1)


def _fresh(x: Execution) -> Execution:
    """A copy with no cached analysis (see ``test_batch._fresh``)."""
    return Execution(
        x.events, x.threads, x.rf, x.co, x.addr, x.data, x.ctrl, x.rmw, x.txns
    )


def _catalog_buckets():
    buckets: dict[int, list] = {}
    for name, entry in sorted(CATALOG.items()):
        buckets.setdefault(entry.execution.n, []).append(
            (name, _fresh(entry.execution))
        )
    return buckets


def _compiled_verdicts(model, definition, stack):
    """Verdicts through the generated kernel, which must exist."""
    token = model.definition_token()
    ctx = BatchContext.of([x for _, x in stack])
    compiled = codegen.compiled_for(token, definition, ctx.n)
    assert compiled is not None, f"no kernel for {model.name} at n={ctx.n}"
    target = ctx if model.tm else ctx.baseline
    return list(map(bool, compiled(target)))


def _assert_every_kernel_built(failures_before: int) -> None:
    tried = list(codegen._COMPILED)
    assert tried, "no kernel was asked for; the check is hollow"
    broken = [key for key in tried if codegen._COMPILED[key] is None]
    assert not broken, f"kernels failed to build: {broken[:10]}"
    assert STATS.kernel_build_failures == failures_before


# ----------------------------------------------------------------------
# Golden catalog through the generated kernels
# ----------------------------------------------------------------------


class TestGoldenCatalogCodegen:
    def test_native_models_match_pinned_scalar_matrix(
        self, backend, cold_kernels
    ):
        golden = load_snapshot(GOLDEN)
        mismatches = []
        for model_name in sorted(MODELS):
            model = get_model(model_name)
            definition = model.batch_definition()
            assert definition is not None, f"{model_name} lost its IR"
            for stack in _catalog_buckets().values():
                flags = _compiled_verdicts(model, definition, stack)
                for (entry_name, _), flag in zip(stack, flags):
                    if flag != golden[entry_name][model_name]:
                        mismatches.append((entry_name, model_name, flag))
        assert not mismatches, f"kernel verdicts flipped: {mismatches[:10]}"

    @pytest.mark.parametrize("cat_name", ["power", "armv8"])
    def test_cat_models_match_interpreted(
        self, backend, cold_kernels, cat_name
    ):
        """`.cat` models (``let rec`` fixpoints included): the generated
        kernel against the golden column of the native twin, a matrix
        pinned before the IR existed (the ``.cat`` axioms are the native
        axiom nodes, see ``tests/test_ir.py``)."""
        golden = load_snapshot(GOLDEN)
        model = load_cat_model(cat_name)
        definition = model.batch_definition()
        assert definition is not None, f"cat:{cat_name} lost its IR"
        for stack in _catalog_buckets().values():
            pinned = [golden[entry_name][cat_name] for entry_name, _ in stack]
            assert _compiled_verdicts(model, definition, stack) == pinned


# ----------------------------------------------------------------------
# Campaigns that must build every kernel they ask for
# ----------------------------------------------------------------------


def _campaign_cells(items, specs, batch):
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


class TestCampaignDifferential:
    @needs_numpy
    def test_full_corpus_matrix(self, forced_kernels, cold_kernels):
        """The complete committed corpus × every native model, batched
        from cold kernels: every kernel builds, stacks reach them, and
        every cell equals the pinned corpus matrix."""
        golden = load_snapshot(CORPUS_VERDICTS)
        paths = sorted(CORPUS.glob("*/*.litmus"))
        assert len(paths) >= 150, "corpus shrank; differential is hollow"
        items = litmus_suite([str(p) for p in paths])
        models = sorted(MODELS)
        failures = STATS.kernel_build_failures
        candidates = STATS.batch_candidates
        got = _campaign_cells(items, models, 64)
        _assert_every_kernel_built(failures)
        assert STATS.batch_candidates > candidates, "no kernel ran"
        want = {
            (item.name, m): (golden[f"{p.parent.name}/{p.name}"][m], None)
            for item, p in zip(items, paths)
            for m in models
        }
        assert got == want

    def test_seeded_fuzz_stream(self, backend, forced_kernels, cold_kernels):
        """A reproducible generator suite, on a seed stream of its own,
        batched from cold kernels vs scalar — including a ``.cat``
        checker so ``let rec`` kernels run inside the campaign."""
        for arch, specs in (
            ("x86", ["x86", "sc"]),
            ("power", ["power", "cat:power"]),
        ):
            seed = derive_seed(_SEED, f"codegen-differential-{arch}")
            items = [
                item.campaign_item()
                for item in generate_suite(arch, seed, "smoke")
            ]
            assert items, "empty fuzz suite; differential is hollow"
            scalar = _campaign_cells(items, specs, 0)
            failures = STATS.kernel_build_failures
            candidates = STATS.batch_candidates
            batched = _campaign_cells(items, specs, 64)
            _assert_every_kernel_built(failures)
            assert STATS.batch_candidates > candidates
            assert batched == scalar
