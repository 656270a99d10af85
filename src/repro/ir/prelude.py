"""Shared derived-relation IR nodes, mirroring ``library/stdlib.cat``.

The native models build their axioms from these constants/helpers and the
``.cat`` compiler produces the *same interned nodes* by inlining the
stdlib definitions — that identity is what makes cross-family sharing
(native x86 and ``x86tm.cat`` in one campaign) free.

Most constants are also registered as evaluator *shortcuts* onto the
corresponding cached property of the execution, so evaluating e.g.
``rfe`` reads ``Execution.rfe`` instead of recomputing ``rf & ext``
(the two are extensionally equal; ``tests/test_ir.py`` asserts it).
"""

from __future__ import annotations

from . import nodes as N
from .eval import register_shortcut
from .nodes import Node

__all__ = [
    "po",
    "rf",
    "co",
    "fr",
    "loc",
    "int_",
    "ext",
    "addr",
    "data",
    "ctrl",
    "rmw",
    "stxn",
    "stxnat",
    "tfence",
    "id_",
    "R",
    "W",
    "F",
    "M",
    "rfe",
    "rfi",
    "coe",
    "coi",
    "fre",
    "fri",
    "com",
    "come",
    "comi",
    "po_loc",
    "coherence",
    "rmw_isol",
    "fencerel",
    "weaklift",
    "stronglift",
]

# -- primitives ---------------------------------------------------------

po = N.base("po")
rf = N.base("rf")
co = N.base("co")
fr = N.base("fr")
loc = N.base("loc")
int_ = N.base("int")
ext = N.base("ext")
addr = N.base("addr")
data = N.base("data")
ctrl = N.base("ctrl")
rmw = N.base("rmw")
stxn = N.base("stxn")
stxnat = N.base("stxnat")
tfence = N.base("tfence")
id_ = N.base("id")

R = N.bset("R")
W = N.bset("W")
F = N.bset("F")
M = N.bset("M")

# -- external/internal restrictions (r^e and r^i in the paper) ----------

rfe = register_shortcut(rf & ext, lambda a: a.x.rfe)
rfi = register_shortcut(rf & int_, lambda a: a.x.rfi)
coe = register_shortcut(co & ext, lambda a: a.x.coe)
coi = register_shortcut(co & int_, lambda a: a.x.coi)
fre = register_shortcut(fr & ext, lambda a: a.x.fre)
fri = register_shortcut(fr & int_, lambda a: a.x.fri)

# -- communication (section 2.1) ----------------------------------------

com = register_shortcut(rf | co | fr, lambda a: a.x.com)
come = register_shortcut(com & ext, lambda a: a.x.come)
comi = com & int_

# -- same-location program order and the shared axiom operands ----------

po_loc = register_shortcut(po & loc, lambda a: a.x.po_loc)
coherence = po_loc | com
rmw_isol = rmw & (fre @ coe)


def fencerel(set_name: str) -> Node:
    """``po ; [f ∩ F] ; po`` (footnote 1), shortcut onto
    :meth:`~repro.core.execution.Execution.fence_rel`."""
    from .eval import _LABEL_FOR_SET

    node = N.comp(po, N.lift(N.sinter(N.bset(set_name), F)), po)
    label = _LABEL_FOR_SET[set_name]
    return register_shortcut(node, lambda a: a.x.fence_rel(label))


def weaklift(rel: Node) -> Node:
    """``weaklift(rel, stxn)`` — the dedicated transaction-lifting node."""
    return N.weaklift(rel)


def stronglift(rel: Node) -> Node:
    """``stronglift(rel, stxn)`` — the dedicated transaction-lifting node."""
    return N.stronglift(rel)
