"""Figure 7: the distribution of synthesis times (paper §5.3).

The paper plots the cumulative percentage of 7-event x86 Forbid tests
found against synthesis time, observing that 98% arrive within 6% of the
total run.  We reproduce the same curve from the per-test discovery
timestamps the synthesizer records, at a laptop-sized bound, and render
it as an ASCII plot plus the underlying series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.registry import get_model
from ..synth.generate import EnumerationSpace
from ..synth.synthesis import SynthesisResult, synthesize_forbid

__all__ = ["Fig7Series", "run_fig7", "format_fig7"]


@dataclass
class Fig7Series:
    """Cumulative discovery curve for one synthesis run."""

    arch: str
    n_events: int
    total_time: float
    discovery_times: list[float] = field(default_factory=list)

    def cumulative(self, points: int = 20) -> list[tuple[float, float]]:
        """(time fraction, % tests found) samples of the curve."""
        if not self.discovery_times:
            return [(0.0, 0.0), (1.0, 0.0)]
        out = []
        total = len(self.discovery_times)
        for i in range(points + 1):
            t = self.total_time * i / points
            found = sum(1 for d in self.discovery_times if d <= t)
            out.append((t / self.total_time if self.total_time else 0.0,
                        100.0 * found / total))
        return out

    def half_found_fraction(self) -> float:
        """Fraction of total time at which 50% of tests were found."""
        if not self.discovery_times:
            return 0.0
        mid = sorted(self.discovery_times)[len(self.discovery_times) // 2]
        return mid / self.total_time if self.total_time else 0.0


def run_fig7(
    arch: str = "x86",
    n_events: int = 4,
    time_budget: float | None = 300.0,
    space: EnumerationSpace | None = None,
) -> Fig7Series:
    """Regenerate the Figure 7 curve at a laptop-sized bound.

    Every consistency check runs on the models themselves, never
    through a verdict cache: the figure *is* a synthesis-time
    distribution, and serving verdicts from a cache would make the
    measured curve meaningless.
    """
    result: SynthesisResult = synthesize_forbid(
        arch,
        n_events,
        time_budget=time_budget,
        space=space,
        model=get_model(arch),
        baseline=get_model(arch, tm=False),
    )
    return Fig7Series(
        arch=arch,
        n_events=n_events,
        total_time=result.elapsed,
        discovery_times=result.discovery_times,
    )


def format_fig7(series: Fig7Series, width: int = 60, height: int = 12) -> str:
    """ASCII rendering of the cumulative discovery curve."""
    samples = series.cumulative(points=width)
    lines = [
        f"Fig 7 analogue: {series.arch} |E|={series.n_events} Forbid "
        f"tests found vs time ({len(series.discovery_times)} tests, "
        f"{series.total_time:.1f}s total)"
    ]
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    for x, (frac, pct) in enumerate(samples):
        y = round(pct / 100.0 * height)
        grid[height - y][x] = "*"
    for i, row in enumerate(grid):
        label = f"{100 - i * 100 // height:>4}% |"
        lines.append(label + "".join(row))
    lines.append("      +" + "-" * width + "> time")
    lines.append(
        f"      50% of tests found within "
        f"{100 * series.half_found_fraction():.0f}% of total synthesis time"
    )
    return "\n".join(lines)
