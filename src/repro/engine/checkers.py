"""Checker resolution: one string names one way to judge a test.

The campaign engine executes a cross-product of *items* × *checkers*.
A checker maps a campaign payload — a :class:`~repro.litmus.test.LitmusTest`
or a bare :class:`~repro.core.execution.Execution` — to a boolean
verdict:

* for a litmus test, "is the postcondition observable?"
  (:func:`repro.litmus.candidates.observable` semantics) — except
  ``forall`` tests, whose verdict is "does every reachable final state
  satisfy the condition?" (:func:`~repro.litmus.candidates.
  forall_holds`, with brute-force and machine counterparts);
* for an execution, "is it consistent under the model?".

Specs are plain strings, so the CLI, the service protocol and run
manifests can name checkers.  A campaign resolves each spec once at
entry (memoized per process) and carries the :class:`Checker` objects
to its pool workers:

=====================  =================================================
``x86``                native Python model from ``repro.models.registry``
``x86!notm``           the same with ``tm=False`` (baseline view)
``x86tm``              .cat library model (any ``CAT_MODEL_FILES`` stem,
                       registry key prefixed ``cat:``, or a ``*.cat``
                       path)
``hw:x86``             hardware stand-in from ``repro.sim.oracle``
``hw:armv8:machine``   oracle variant (``machine`` = the operational
                       machine, ``buggy`` = the §6.2 RTL prototype)
``brute:x86``          the native model driven by the *brute-force*
                       candidate enumerator — ground truth for the
                       differential fuzzer's enumeration splits
``mut:armv8:TxnOrder``  the native model with one axiom dropped — the
                       fuzzer's injected-weakening mutants
=====================  =================================================
"""

from __future__ import annotations

import hashlib
import inspect
from functools import cached_property, lru_cache
from pathlib import Path

from ..core.execution import Execution
from ..litmus.candidates import forall_holds, observable
from ..litmus.test import LitmusTest
from ..models.base import MemoryModel
from ..models.registry import MODELS, get_model

__all__ = [
    "BruteForceChecker",
    "Checker",
    "ModelChecker",
    "OracleChecker",
    "definition_hash",
    "resolve_checker",
]


def definition_hash(obj) -> str:
    """A short hash of a model/oracle *definition*, for cache keying.

    Editing a model must invalidate its cached verdicts, so the cache
    key includes this alongside the spec string.  Objects may provide a
    ``definition_token()`` naming their definition explicitly — every
    IR-defined model (all native models, ``.cat`` models, mutants)
    derives its token from the interned structural digest of
    its axiom DAG, so cached verdicts are invalidated *precisely* when
    the semantics change: reformatting a model file or renaming a local
    binding keeps the cache warm, editing an axiom's relation always
    invalidates.  Otherwise (remaining Python models and oracles) the
    class source is hashed.  Edits to shared helpers in other modules
    are not caught — bump :data:`repro.engine.cache.CACHE_VERSION` for
    those.
    """
    token = getattr(obj, "definition_token", None)
    if callable(token):
        text = token()
    else:
        try:
            text = inspect.getsource(type(obj))
        except (OSError, TypeError):  # pragma: no cover - builtins only
            text = repr(type(obj))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """A named verdict function over campaign payloads."""

    def __init__(self, spec: str) -> None:
        self.spec = spec

    def verdict(self, payload: LitmusTest | Execution) -> bool:
        raise NotImplementedError

    def definition_hash(self) -> str:
        """Hash of the underlying definition (see :func:`definition_hash`)."""
        return ""

    @cached_property
    def token(self) -> str:
        """:meth:`definition_hash`, computed once per checker object.

        Cache keys and cell spans carry it.  It is memoized on the
        object, never by spec string: two checkers sharing a spec may
        wrap different definitions, and must never share cells.
        """
        return self.definition_hash()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec}>"


class ModelChecker(Checker):
    """An axiomatic model (native or .cat) used as a checker.

    Checkers of one campaign share one
    :class:`~repro.core.analysis.CandidateAnalysis` per candidate: work
    is grouped by test, the memoized candidate streams hand every
    checker the *same* ``Execution`` objects, and each model evaluates
    its IR nodes through the memo of the analysis attached to them.
    Models declaring
    :attr:`~repro.models.base.MemoryModel.enforces_coherence` further
    skip (or never expand) candidates violating per-location coherence.
    """

    def __init__(self, spec: str, model: MemoryModel) -> None:
        super().__init__(spec)
        self.model = model

    def verdict(self, payload: LitmusTest | Execution) -> bool:
        if isinstance(payload, LitmusTest):
            if payload.quantifier == "forall":
                return forall_holds(payload, self.model)
            return observable(payload, self.model)
        return self.model.consistent(payload)

    def definition_hash(self) -> str:
        return definition_hash(self.model)


class OracleChecker(Checker):
    """A simulated-hardware oracle used as a checker (litmus tests only)."""

    def __init__(self, spec: str, oracle) -> None:
        super().__init__(spec)
        self.oracle = oracle

    def definition_hash(self) -> str:
        return definition_hash(self.oracle)

    def verdict(self, payload: LitmusTest | Execution) -> bool:
        if not isinstance(payload, LitmusTest):
            raise TypeError(
                f"oracle checker {self.spec!r} needs a litmus test, "
                f"got {type(payload).__name__}"
            )
        if payload.quantifier == "forall":
            return self.oracle.forall(payload)
        return self.oracle.observable(payload)


class BruteForceChecker(Checker):
    """A native model driven by the brute-force candidate enumerator.

    Semantically identical to the :class:`ModelChecker` for the same
    model — any verdict difference is an *enumeration split*: a bug in
    the constraint-pruned incremental search or in the batched kernels
    that decide the :class:`ModelChecker`'s cells (or in the brute-force
    reference).  The differential fuzzer runs this on small tests as its
    ground-truth oracle; it shares nothing with the pruned path (no
    memoized expansion, no coherence gating, no postcondition pushing)
    and no evaluator with the kernels: every candidate is checked on the
    scalar reference.
    """

    def __init__(self, spec: str, model: MemoryModel) -> None:
        super().__init__(spec)
        self.model = model

    def verdict(self, payload: LitmusTest | Execution) -> bool:
        from ..litmus.candidates import brute_force_forall, brute_force_observable

        if isinstance(payload, LitmusTest):
            if payload.quantifier == "forall":
                return brute_force_forall(payload, self.model)
            return brute_force_observable(payload, self.model)
        return self.model.consistent(payload)

    def definition_hash(self) -> str:
        return "brute-" + definition_hash(self.model)


def _cat_file_for(name: str) -> str | None:
    """Resolve ``name`` to a .cat library file, or None."""
    from ..cat.model import CAT_MODEL_FILES

    if name.endswith(".cat"):
        return name
    if f"{name}.cat" in CAT_MODEL_FILES.values():
        return f"{name}.cat"
    return None


#: File-backed checkers kept per process, least recently used evicted
#: first: a long-running service that sees many edits stays bounded.
_CAT_FILE_CACHE_SIZE = 32


def resolve_checker(spec: str) -> Checker:
    """Instantiate the checker named by ``spec`` (memoized per process).

    A spec naming a ``.cat`` file on disk is memoized by the file's
    contents (includes come only from the library, so the file is the
    whole definition): after an edit, a long-running process resolves
    the new definition under a new token.  Every other spec is memoized
    by the spec string.
    """
    path = _cat_file_path(spec)
    if path is None:
        return _resolve_spec(spec)
    return _resolve_cat_file(spec, path, Path(path).read_text())


def _cat_file_path(spec: str) -> str | None:
    """The path of the ``.cat`` file on disk that ``spec`` names, or
    ``None`` when it names anything else (mirrors :func:`_resolve_spec`
    and :func:`~repro.cat.model.load_cat_model`)."""
    from ..cat.model import CAT_MODEL_FILES

    if spec.startswith(("hw:", "brute:", "mut:")):
        return None
    name, _, suffix = spec.partition("!")
    if suffix not in ("", "notm"):
        return None
    if name.startswith("cat:"):
        name = name[4:]
    elif name in MODELS or not name.endswith(".cat"):
        return None
    if name in CAT_MODEL_FILES or not Path(name).is_file():
        return None
    return name


@lru_cache(maxsize=_CAT_FILE_CACHE_SIZE)
def _resolve_cat_file(spec: str, path: str, source: str) -> Checker:
    """The checker for ``spec`` while its file at ``path`` holds ``source``."""
    from ..cat.model import cat_file_model

    tm = not spec.endswith("!notm")
    return ModelChecker(spec, cat_file_model(path, source, tm=tm))


@lru_cache(maxsize=None)
def _resolve_spec(spec: str) -> Checker:
    """Instantiate a checker that is not file-backed (memoized by spec)."""
    if spec.startswith("hw:"):
        from ..sim.oracle import oracle_for_spec

        return OracleChecker(spec, oracle_for_spec(spec[3:]))
    if spec.startswith("brute:"):
        name = spec[6:]
        if name not in MODELS:
            raise ValueError(
                f"unknown model {name!r} in {spec!r}; brute: takes a "
                f"registry model ({', '.join(sorted(MODELS))})"
            )
        return BruteForceChecker(spec, get_model(name))
    if spec.startswith("mut:"):
        from ..conformance.mutants import drop_axiom

        try:
            _, arch, axiom = spec.split(":", 2)
        except ValueError:
            raise ValueError(
                f"malformed mutant spec {spec!r}; use 'mut:<arch>:<axiom>'"
            ) from None
        return ModelChecker(spec, drop_axiom(arch, axiom))

    name, _, suffix = spec.partition("!")
    if suffix not in ("", "notm"):
        raise ValueError(f"unknown checker suffix {suffix!r} in {spec!r}")
    tm = suffix != "notm"

    if name.startswith("cat:"):
        from ..cat.model import load_cat_model

        return ModelChecker(spec, load_cat_model(name[4:], tm=tm))
    if name in MODELS:
        return ModelChecker(spec, get_model(name, tm=tm))
    cat_file = _cat_file_for(name)
    if cat_file is not None:
        from ..cat.model import load_cat_model

        return ModelChecker(spec, load_cat_model(cat_file, tm=tm))
    raise ValueError(
        f"unknown checker {spec!r}; use a registry model "
        f"({', '.join(sorted(MODELS))}), a .cat library name, "
        f"'cat:<name>', 'hw:<arch>[:<variant>]', 'brute:<model>', "
        f"or 'mut:<arch>:<axiom>'"
    )
