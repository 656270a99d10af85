"""The in-process workloads: diy-l7, executions and synth.

Each workload builds its inputs once (``setup``), then runs passes.
``prepare`` restores the cold per-pass state outside the timed region;
``run_pass`` is exactly the timed work; ``check`` compares one pass's
outputs against the committed references and returns
``(attempted, failed)`` operation counts.  The seed fixes the order in
which the inputs are presented, never what they are.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs" / "verdicts.json"

#: diy's default vocabulary (``repro diy``/``campaign`` use the same).
BASE_VOCAB = ("PodWR", "PodWW", "PodRR", "PodRW", "Rfe", "Fre", "Wse")
TXN_VOCAB = BASE_VOCAB + ("TxndWR", "TxndWW", "TxndRR", "TxndRW")

#: The eight native models.
MODELS = (
    "armv8", "cpp", "power", "power-dongol", "riscv", "sc", "tsc", "x86",
)

#: Table-1 synthesis cells and the lock-elision checks of one synth pass.
SYNTH_CELLS = (("x86", 3), ("power", 2), ("armv8", 2), ("riscv", 2), ("cpp", 2))
LOCK_ELISION = ("x86", "armv8")


def load_refs() -> dict:
    with REFS_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def digest(lines) -> str:
    """SHA-256 over sorted text lines (order-independent)."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def column_digests(result, models) -> dict[str, str]:
    """Per-model verdict digests of a campaign result."""
    return {
        model: digest(
            f"{name}\t{int(result.cells[(name, model)].verdict)}"
            for name in result.item_names
        )
        for model in models
    }


def check_campaign(result, refs: dict) -> tuple[int, int]:
    """Cells attempted and failed: an errored cell, or every cell of a
    model column whose verdict digest differs from the reference."""
    attempted = len(result.item_names) * len(MODELS)
    failed = sum(1 for cell in result.cells.values() if cell.error)
    got = column_digests(result, MODELS)
    for model in MODELS:
        if got[model] != refs["columns"][model]:
            failed += len(result.item_names)
    missing = attempted - len(result.cells)
    return attempted, min(attempted, failed + max(0, missing))


def plain_call(_name: str, fn, *args):
    """The untraced form of ``Recorder.span``."""
    return fn(*args)


class _Campaign:
    """A serial ``run_campaign`` over ``self.items`` x the 8 models."""

    #: Fresh processes per run, and the steady passes each runs however
    #: short its share of ``--seconds`` is.
    processes = 3
    min_passes = 4

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def run_pass(self, call=plain_call):
        from repro.engine.campaign import run_campaign

        return call("engine.campaign", run_campaign, self.items, list(MODELS))

    def judged(self, result) -> int:
        return len(result.cells)

    def check(self, result, refs: dict) -> tuple[int, int]:
        return check_campaign(result, refs[self.name])


class DiyL7(_Campaign):
    """The power diy suite at length 7 (1526 tests) with the default
    vocabulary; the expansion memos are cleared before every pass."""

    name = "diy-l7"

    def setup(self) -> None:
        from repro.engine.campaign import diy_suite

        items = diy_suite("power", max_length=7)
        self.rng.shuffle(items)
        self.items = items

    def prepare(self) -> None:
        from repro.litmus import candidates

        # The per-program and per-test expansion memos.
        candidates._expand_program_cached.cache_clear()
        candidates._expand_test.cache_clear()


class Executions(_Campaign):
    """The 1061 realised diy cycles up to length 5 over the base plus
    transactional-dependency vocabulary, as bare executions.  Every pass
    gets freshly realised ``Execution`` objects: analyses attach to the
    object, so reusing one would measure memo hits."""

    name = "executions"

    def setup(self) -> None:
        from repro.synth import diy

        cycles = list(diy.enumerate_cycles(TXN_VOCAB, 5))
        self.rng.shuffle(cycles)
        self.cycles = cycles

    def prepare(self) -> None:
        from repro.engine.campaign import CampaignItem
        from repro.synth import diy

        self.items = [
            CampaignItem(
                "diy-" + "+".join(e.name for e in cycle.edges),
                diy.cycle_execution(cycle),
            )
            for cycle in self.cycles
        ]


def synth_keys(result) -> dict:
    from repro.synth.canonical import canonical_key

    return {
        "forbid": digest(repr(canonical_key(x)) for x in result.forbid),
        "allow": digest(repr(canonical_key(x)) for x in result.allow),
        "counts": [len(result.forbid), len(result.allow)],
    }


class Synth:
    """Table-1 Forbid/Allow synthesis (x86 at |E|=3; power, armv8,
    riscv and cpp at |E|=2) plus lock elision on x86 and armv8."""

    name = "synth"
    # A pass takes seconds and varies with the process, so a run spreads
    # more passes over more processes than the campaign workloads do.
    processes = 4
    min_passes = 3

    def __init__(self, seed: int) -> None:
        steps = [("synth", cell) for cell in SYNTH_CELLS]
        steps += [("lock", arch) for arch in LOCK_ELISION]
        random.Random(seed).shuffle(steps)
        self.steps = steps

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self, call=plain_call):
        from repro.metatheory.lockelision import check_lock_elision
        from repro.synth.synthesis import synthesize

        out = {}
        for kind, arg in self.steps:
            if kind == "synth":
                out[arg] = call("synth.search", synthesize, *arg)
            else:
                out[arg] = call(
                    "metatheory.lockelision", check_lock_elision, arg
                )
        return out

    def judged(self, out) -> int:
        """Candidate executions judged in one pass: the synth 'cells'."""
        return sum(
            out[arg].candidates_examined
            if kind == "synth"
            else out[arg].concrete_checked
            for kind, arg in self.steps
        )

    def check(self, out, refs: dict) -> tuple[int, int]:
        """One operation per Forbid suite, Allow suite and lock-elision
        check; it fails when its keys or outcome differ from the refs."""
        ref = refs[self.name]
        attempted = failed = 0
        for kind, arg in self.steps:
            r = out[arg]
            if kind == "synth":
                want = ref["synthesis"]["%s/%d" % arg]
                got = synth_keys(r)
                for part in ("forbid", "allow"):
                    attempted += 1
                    failed += got[part] != want[part] or not r.exhausted
            else:
                attempted += 1
                failed += r.sound != ref["lock_elision"][arg]["sound"]
        return attempted, failed


WORKLOADS = {cls.name: cls for cls in (DiyL7, Executions, Synth)}
