"""Hardware oracles: the machines our conformance tests "run on".

The paper ran its suites on Intel TSX silicon, an 80-core POWER8, and an
ARM RTL prototype.  None of those are available offline, so each is
simulated by the closest faithful stand-in (see DESIGN.md §1):

* :class:`X86Hardware` — the operational TSO+HTM machine of
  :mod:`repro.sim.tso` (exact reachability, not sampling);
* :class:`PowerHardware` — the axiomatic Power TM model strengthened with
  ``acyclic(po ∪ rf)``: real POWER8 parts have never exhibited load
  buffering ("the LB shape ... has never actually been observed on a
  Power machine", section 5.3), so the no-LB oracle reproduces exactly
  the paper's observation pattern: Forbid never seen, Allow mostly seen,
  the unseen Allow tests dominated by LB shapes;
* :class:`BuggyRtlArm` — the ARMv8 TM model *without* the TxnOrder axiom,
  reproducing the RTL prototype bug the paper's suite uncovered
  (section 6.2).

All oracles answer :meth:`HardwareOracle.observable` for a litmus test,
which is the role the Litmus tool plays in the paper's flow.
"""

from __future__ import annotations

from ..litmus.candidates import forall_holds, observable
from ..litmus.test import LitmusTest
from ..models.armv8 import ARMv8
from ..models.base import MemoryModel
from ..models.power import Power
from ..models.registry import get_model
from .tso import TsoMachine, runnable_on_tso
from .weakmachine import WeakMachine, runnable_on

__all__ = [
    "HardwareOracle",
    "X86Hardware",
    "PowerHardware",
    "MachineHardware",
    "ArmRtl",
    "BuggyRtlArm",
    "get_oracle",
    "oracle_for_spec",
]


class HardwareOracle:
    """Base interface: can a litmus test's postcondition be observed?

    :meth:`forall` answers herd7's ``forall`` condition — does *every*
    reachable final state satisfy the postcondition?
    """

    name = "oracle"

    def observable(self, test: LitmusTest) -> bool:
        raise NotImplementedError

    def forall(self, test: LitmusTest) -> bool:
        raise NotImplementedError


class _AxiomaticOracle(HardwareOracle):
    """Observable iff some consistent candidate satisfies the test.

    Delegates to :func:`repro.litmus.candidates.observable`, sharing the
    postcondition-filtered candidate streams (and per-candidate
    analyses) with the axiomatic checkers.
    """

    def __init__(self, model: MemoryModel) -> None:
        self.model = model

    def definition_token(self) -> str:
        """Engine cache keying: the oracle's name plus the IR token of
        the model that decides its verdicts, so editing that model
        invalidates the oracle's cached cells too."""
        return f"{self.name}:{self.model.definition_token()}"

    def observable(self, test: LitmusTest) -> bool:
        return observable(test, self.model)

    def forall(self, test: LitmusTest) -> bool:
        return forall_holds(test, self.model)


class X86Hardware(HardwareOracle):
    """Intel-TSX stand-in: exhaustive execution on the TSO+HTM machine."""

    name = "x86-tso-htm-sim"

    def observable(self, test: LitmusTest) -> bool:
        if not runnable_on_tso(test.program):
            raise ValueError("test is not an x86 program")
        for outcome in TsoMachine(test.program).explore():
            if test.check(outcome):
                return True
        return False

    def forall(self, test: LitmusTest) -> bool:
        if not runnable_on_tso(test.program):
            raise ValueError("test is not an x86 program")
        return all(
            test.check(outcome)
            for outcome in TsoMachine(test.program).explore()
        )


class _NoLbPower(Power):
    """Power TM strengthened with no-load-buffering (conservative silicon)."""

    arch = "power-hw"

    @classmethod
    def define(cls):
        from ..ir import prelude as P
        from ..ir.model import IRAxiom, IRDefinition

        base = Power.define()
        # ``po ∪ rf`` is the same interned node as cpp's NoThinAir
        # operand — sharing across families comes for free.
        no_lb = IRAxiom("NoLB", "acyclic", "no_lb", P.po | P.rf)
        return IRDefinition(base.axioms + (no_lb,), base.extras)


class PowerHardware(_AxiomaticOracle):
    """POWER8 stand-in: the TM model plus the never-observed-LB fact."""

    name = "power8-sim"

    def __init__(self) -> None:
        super().__init__(_NoLbPower())


class MachineHardware(HardwareOracle):
    """Operational stand-in: exhaustive execution on the policy-driven
    weak machine of :mod:`repro.sim.weakmachine` (Power's non-MCA
    propagation machine, or the MCA machine for ARMv8/RISC-V)."""

    def __init__(self, arch: str, max_states: int = 400_000) -> None:
        self.arch = arch
        self.name = f"{arch}-machine-sim"
        self.max_states = max_states

    def observable(self, test: LitmusTest) -> bool:
        if not runnable_on(test.program, self.arch):
            raise ValueError(f"test is not a {self.arch} program")
        machine = WeakMachine(test.program, self.arch, self.max_states)
        return any(test.check(outcome) for outcome in machine.explore())

    def forall(self, test: LitmusTest) -> bool:
        if not runnable_on(test.program, self.arch):
            raise ValueError(f"test is not a {self.arch} program")
        machine = WeakMachine(test.program, self.arch, self.max_states)
        return all(test.check(outcome) for outcome in machine.explore())


class _NoTxnOrderArm(ARMv8):
    """The buggy RTL prototype: TxnOrder accidentally unenforced —
    the same uniform IR axiom-drop the fuzzer's mutants use."""

    arch = "armv8-rtl"

    @classmethod
    def define(cls):
        return ARMv8.define().drop("TxnOrder")


class BuggyRtlArm(_AxiomaticOracle):
    """ARM RTL prototype with the section 6.2 TxnOrder bug."""

    name = "armv8-rtl-buggy"

    def __init__(self) -> None:
        super().__init__(_NoTxnOrderArm())


class ArmRtl(_AxiomaticOracle):
    """A corrected ARM RTL: exactly the proposed model."""

    name = "armv8-rtl-fixed"

    def __init__(self) -> None:
        super().__init__(get_model("armv8"))


def get_oracle(
    arch: str, buggy_rtl: bool = False, operational: bool = False
) -> HardwareOracle:
    """The default hardware stand-in for an architecture.

    ``operational=True`` selects the policy-driven operational machine
    where one exists (power/armv8/riscv) instead of the axiomatic
    oracle.
    """
    if arch == "x86":
        return X86Hardware()
    if operational and arch in ("power", "armv8", "riscv"):
        return MachineHardware(arch)
    if arch == "power":
        return PowerHardware()
    if arch == "armv8":
        return BuggyRtlArm() if buggy_rtl else ArmRtl()
    if arch == "riscv":
        return MachineHardware(arch)
    raise ValueError(f"no hardware oracle for {arch!r}")


def oracle_for_spec(text: str) -> HardwareOracle:
    """Resolve an oracle spec: ``<arch>`` or ``<arch>:<variant>``.

    Variants select between the stand-ins for one architecture:

    * ``machine`` — the policy-driven operational machine
      (:class:`MachineHardware`, power/armv8/riscv);
    * ``buggy`` — the §6.2 RTL prototype with the TxnOrder bug
      (armv8 only);
    * no variant — the default :func:`get_oracle` stand-in.

    This is the parsing behind the campaign engine's ``hw:<arch>`` and
    ``hw:<arch>:<variant>`` checker specs.
    """
    arch, _, variant = text.partition(":")
    if not variant:
        return get_oracle(arch)
    if variant == "machine":
        return get_oracle(arch, operational=True)
    if variant == "buggy":
        if arch != "armv8":
            raise ValueError(f"no buggy RTL stand-in for {arch!r}")
        return get_oracle(arch, buggy_rtl=True)
    raise ValueError(
        f"unknown oracle variant {variant!r} in {text!r}; "
        f"use 'machine' or 'buggy'"
    )
