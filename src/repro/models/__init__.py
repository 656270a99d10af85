"""Axiomatic memory models: SC, TSC, x86, Power, ARMv8, RISC-V, C++
(plus the Dongol-et-al ablation and abort-race semantics)."""

from .aborts import abort_variants, program_racy, truncate_aborts
from .armv8 import ARMv8
from .base import AxiomResult, MemoryModel, Verdict
from .cpp import Cpp
from .dongol import DongolPower
from .isolation import (
    strong_isolation_rel,
    strongly_isolated,
    weak_isolation_rel,
    weakly_isolated,
)
from .power import Power, power_ppo
from .registry import MODELS, get_model, model_names
from .riscv import RiscV, riscv_ppo
from .sc import SC, TSC
from .x86 import X86

__all__ = [
    "ARMv8",
    "RiscV",
    "abort_variants",
    "program_racy",
    "riscv_ppo",
    "truncate_aborts",
    "AxiomResult",
    "Cpp",
    "DongolPower",
    "MODELS",
    "MemoryModel",
    "Power",
    "SC",
    "TSC",
    "Verdict",
    "X86",
    "get_model",
    "model_names",
    "power_ppo",
    "strong_isolation_rel",
    "strongly_isolated",
    "weak_isolation_rel",
    "weakly_isolated",
]
