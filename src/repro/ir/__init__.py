"""Unified relational IR: one hash-consed expression DAG for all models.

This package is the single semantic substrate behind both checker
families: the native Python models (:mod:`repro.models`) declare their
axioms as IR expressions, and the ``.cat`` compiler lowers parsed
models onto the same DAG (:mod:`repro.cat.compile`); one class,
:class:`IRModel`, checks them all.  Structural interning makes
identical subexpressions — across models, across families — the *same
node*, and the evaluation engine memoizes per
``(CandidateAnalysis, node)``, so a campaign sweeping many models over
one candidate computes every shared relation exactly once.

See ``src/repro/ir/README.md`` for the design document.
"""

from . import prelude
from .eval import STATS, evaluate, register_shortcut
from .model import IRAxiom, IRDefinition, IRModel
from .nodes import (
    Node,
    base,
    bset,
    comp,
    cross,
    dag_stats,
    diff,
    domain,
    empty,
    fix,
    inter,
    lift,
    opt,
    plus,
    range_,
    reachable,
    sdiff,
    sempty,
    sinter,
    star,
    sunion,
    union,
    var,
)

__all__ = [
    "Node",
    "IRAxiom",
    "IRDefinition",
    "IRModel",
    "STATS",
    "base",
    "bset",
    "comp",
    "cross",
    "dag_stats",
    "diff",
    "domain",
    "empty",
    "evaluate",
    "fix",
    "inter",
    "ir_definition",
    "lift",
    "opt",
    "plus",
    "prelude",
    "range_",
    "reachable",
    "register_shortcut",
    "sdiff",
    "sempty",
    "sinter",
    "star",
    "sunion",
    "union",
    "var",
]


def ir_definition(model) -> "IRDefinition | None":
    """The :class:`IRDefinition` behind ``model``, or ``None`` when it
    is not a model (a hardware oracle): every model — native, ``.cat``,
    mutant or sketch — is an :class:`IRModel`."""
    return model.definition() if isinstance(model, IRModel) else None
