"""Fuzzing budgets: how much of the test-space one run explores.

A budget bounds every generator and gates the expensive oracles: the
operational machines explore an exponential interleaving space and the
brute-force enumerator a materialised cross-product, so both run only on
tests below their per-budget size caps (larger tests are still
cross-checked native-vs-``.cat``, which scale much further).

``smoke`` is the test-suite tier — seconds per architecture; ``small``
is the default interactive tier and CI's fuzz job; ``medium``/``large``
are overnight sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FuzzBudget", "BUDGETS", "get_budget"]


@dataclass(frozen=True)
class FuzzBudget:
    """Bounds for one fuzzing run.

    Attributes:
        name: budget tier name.
        random_tests: number of seeded random programs.
        herd_tests: number of seeded random programs pushed through the
            herd dialect frontend round-trip (render → reparse) before
            checking, so the frontend sits inside the differential
            loop; zero for architectures without a dialect.
        mutation_tests: number of ⊏-mutated catalog tests (the
            unmutated arch-compatible catalog entries are always
            included on top, so mutant detection never depends on the
            seed).
        diy_length: max diy critical-cycle length.
        diy_tests: cap on the (deterministic) diy cycle prefix.
        max_events: instruction budget per random program (all threads).
        max_threads: thread budget per random program.
        max_txns: transaction budget per random program.
        machine_events: operational-machine eligibility — tests with
            more events than this skip the ``hw:`` checkers.
        brute_candidates: brute-force eligibility — tests whose
            *estimated* candidate count exceeds this skip the
            ``brute:`` checker.
    """

    name: str
    diy_tests: int
    random_tests: int
    herd_tests: int
    mutation_tests: int
    diy_length: int
    max_events: int
    max_threads: int
    max_txns: int
    machine_events: int
    brute_candidates: int


BUDGETS: dict[str, FuzzBudget] = {
    budget.name: budget
    for budget in (
        FuzzBudget(
            name="smoke",
            herd_tests=8,
            diy_tests=25,
            random_tests=12,
            mutation_tests=8,
            diy_length=2,
            max_events=5,
            max_threads=2,
            max_txns=1,
            machine_events=5,
            brute_candidates=4_000,
        ),
        FuzzBudget(
            name="small",
            herd_tests=25,
            diy_tests=80,
            random_tests=40,
            mutation_tests=25,
            diy_length=3,
            max_events=6,
            max_threads=3,
            max_txns=2,
            machine_events=6,
            brute_candidates=10_000,
        ),
        FuzzBudget(
            name="medium",
            herd_tests=100,
            diy_tests=300,
            random_tests=200,
            mutation_tests=120,
            diy_length=4,
            max_events=7,
            max_threads=3,
            max_txns=2,
            machine_events=7,
            brute_candidates=40_000,
        ),
        FuzzBudget(
            name="large",
            herd_tests=400,
            diy_tests=1200,
            random_tests=1_000,
            mutation_tests=500,
            diy_length=4,
            max_events=8,
            max_threads=4,
            max_txns=3,
            machine_events=8,
            brute_candidates=100_000,
        ),
    )
}


def get_budget(name: "str | FuzzBudget") -> FuzzBudget:
    """Look a budget tier up by name (instances pass through)."""
    if isinstance(name, FuzzBudget):
        return name
    try:
        return BUDGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown budget {name!r}; known: {', '.join(BUDGETS)}"
        ) from None
