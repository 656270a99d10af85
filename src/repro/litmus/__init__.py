"""Litmus tests: programs, postconditions, conversion, expansion, text."""

from .candidates import (
    Candidate,
    all_outcomes,
    brute_force_candidates,
    brute_force_forall,
    candidate_executions,
    expand_test,
    forall_holds,
    observable,
)
from .from_execution import to_litmus
from .frontend import (
    detect_dialect,
    dump_dialect,
    load_any,
    load_dialect,
    load_litmus_file,
)
from .parse import ParseError, dumps, loads
from .program import CtrlBranch, Fence, Instruction, Load, Program, Store, TxBegin, TxEnd
from .render import render, render_armv8, render_cpp, render_power, render_x86
from .test import QUANTIFIERS, Atom, LitmusTest, MemEq, Outcome, RegEq, TxnOk

__all__ = [
    "Atom",
    "Candidate",
    "CtrlBranch",
    "Fence",
    "Instruction",
    "LitmusTest",
    "Load",
    "MemEq",
    "Outcome",
    "ParseError",
    "Program",
    "QUANTIFIERS",
    "RegEq",
    "Store",
    "TxBegin",
    "TxEnd",
    "TxnOk",
    "all_outcomes",
    "brute_force_candidates",
    "brute_force_forall",
    "candidate_executions",
    "detect_dialect",
    "dump_dialect",
    "dumps",
    "expand_test",
    "forall_holds",
    "load_any",
    "load_dialect",
    "load_litmus_file",
    "loads",
    "observable",
    "render",
    "render_armv8",
    "render_cpp",
    "render_power",
    "render_x86",
    "to_litmus",
]
