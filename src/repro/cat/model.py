"""A parsed ``.cat`` file as an :class:`~repro.ir.model.IRModel`.

:class:`CatModel` makes the .cat library interchangeable with the native
Python models — it *is* one: the same ``IRModel`` implementation of
``check``/``consistent``, the same ``tm=False`` baseline behaviour — so
the whole toolflow (synthesis, metatheory, conformance) can run off a
``.cat`` file.  The cross-validation tests exploit this to assert that
every library model agrees with its native counterpart on every
execution they are given.

A source has one meaning, its lowering onto the unified relational IR:
it is compiled once (:mod:`repro.cat.compile`) onto the same hash-consed
DAG the native models declare their axioms in, and its consistency
checks become the model's :class:`~repro.ir.model.IRDefinition` (a
``~kind`` check as a negated axiom), so ``check``, ``consistent`` and
``flags_raised`` are per-node memo lookups shared with every other
model in a campaign, and an ill-formed source is rejected when the
model is built.  Binding values are inspected by IR-evaluating
``compiled.bindings``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

from ..core.analysis import CandidateAnalysis
from ..core.execution import Execution
from ..ir.eval import axiom_holds
from ..ir.model import IRAxiom, IRDefinition, IRModel
from .ast import Model
from .compile import CompiledCheck, compile_model
from .errors import CatError
from .library import library_files, library_source
from .parser import parse

__all__ = ["CatModel", "cat_file_model", "load_cat_model", "CAT_MODEL_FILES"]

#: Library file for each model name, mirroring ``repro.models.registry``.
CAT_MODEL_FILES: dict[str, str] = {
    "sc": "sc.cat",
    "tsc": "tsc.cat",
    "x86": "x86tm.cat",
    "power": "powertm.cat",
    "armv8": "armv8tm.cat",
    "cpp": "cpptm.cat",
    "power-dongol": "dongol.cat",
    "riscv": "riscvtm.cat",
}


@lru_cache(maxsize=None)
def _parse_library(name: str) -> Model:
    """The include loader: a library file, parsed once per process."""
    return parse(library_source(name))


def _definition(checks: tuple[CompiledCheck, ...]) -> IRDefinition:
    """The consistency checks as IR axioms, in declaration order.

    A name may repeat (``acyclic … as A`` twice): every check keeps its
    name, and a repeat gets its own relation key (``A#2``, ``A#3``, …).
    """
    axioms = []
    keys: set[str] = set()
    for check in checks:
        key, copy = check.name, 1
        while key in keys:
            copy += 1
            key = f"{check.name}#{copy}"
        keys.add(key)
        axioms.append(
            IRAxiom(check.name, check.kind, key, check.node, check.negated)
        )
    return IRDefinition(tuple(axioms))


class CatModel(IRModel):
    """A memory model defined by .cat source text.

    Args:
        source: the .cat program.
        name: model name for reports (defaults to the file's title).
        tm: as for native models — ``False`` evaluates against the
            transaction-stripped baseline execution.

    Raises:
        CatError: the source does not parse or compile (see
            :mod:`repro.cat.compile`).
    """

    def __init__(self, source: str, name: str = "", tm: bool = True) -> None:
        super().__init__(tm=tm)
        self.ast = parse(source)
        self.arch = name or self.ast.title or "cat"
        self.compiled = compile_model(self.ast, _parse_library)
        self._definition = _definition(self.compiled.axiom_checks)

    def definition(self) -> IRDefinition:
        """The consistency (non-flag) checks; flags are diagnostics."""
        return self._definition

    def flags_raised(self, x: "Execution | CandidateAnalysis") -> list[str]:
        """Names of raised ``flag`` diagnostics (e.g. ``DataRace``).

        Herd semantics: ``flag ~empty race`` raises when the test holds,
        i.e. when races exist.
        """
        a = self._analysis(x)
        return [
            c.name
            for c in self.compiled.flag_checks
            if axiom_holds(c.kind, c.node, a) != c.negated
        ]

    def race_free(self, x: "Execution | CandidateAnalysis") -> bool:
        """Convenience mirroring :meth:`repro.models.cpp.Cpp.race_free`."""
        return "DataRace" not in self.flags_raised(x)

    def definition_token(self) -> str:
        """Engine cache keying: the structural digest of the compiled
        checks (comment/whitespace edits no longer invalidate cached
        verdicts; semantic edits always do)."""
        text = ";".join(
            f"{c.name}:{c.kind}:{int(c.negated)}:{int(c.flag)}:"
            f"{c.node.digest}"
            for c in self.compiled.checks
        )
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return f"cat:{self.arch}:tm={self.tm}:{digest}"


def load_cat_model(name: str, tm: bool = True) -> CatModel:
    """Load a model from the library by registry name or by file path.

    ``name`` may be a key of :data:`CAT_MODEL_FILES` (``"x86"``), a
    library file name (``"x86tm.cat"``), or a path to a ``.cat`` file on
    disk.  Library models mirror the native models, all of which imply
    per-location coherence, so they are tagged ``enforces_coherence``
    (ad-hoc ``.cat`` files stay conservative).

    Raises :class:`ValueError` for an unknown name or a missing ``.cat``
    file, and a :class:`CatError` prefixed with the path for a file that
    does not parse or compile.
    """
    if name in CAT_MODEL_FILES:
        filename = CAT_MODEL_FILES[name]
        model = CatModel(library_source(filename), name=name, tm=tm)
        model.enforces_coherence = True
        return model
    path = Path(name)
    if path.suffix == ".cat" and not path.is_file():
        if name not in library_files():
            raise ValueError(f"{name}: no such .cat file or library model")
        # A bare library file name like "x86tm.cat".
        model = CatModel(library_source(name), name=path.stem, tm=tm)
        # Only the *model* files mirror coherence-enforcing native
        # models; library preludes (stdlib.cat, powerppo.cat) carry no
        # checks at all and must stay conservative.
        model.enforces_coherence = name in CAT_MODEL_FILES.values()
        return model
    if path.is_file():
        return cat_file_model(name, path.read_text(), tm=tm)
    raise ValueError(
        f"unknown cat model {name!r}; registry names: "
        f"{', '.join(sorted(CAT_MODEL_FILES))}"
    )


def cat_file_model(name: str, source: str, tm: bool = True) -> CatModel:
    """The model defined by ``source``, the contents of the ``.cat`` file
    at path ``name``.

    Raises a :class:`CatError` prefixed with ``name`` for a source that
    does not parse or compile.
    """
    try:
        return CatModel(source, name=Path(name).stem, tm=tm)
    except CatError as exc:
        raise type(exc)(f"{name}: {exc.message}", exc.line, exc.col) from None
