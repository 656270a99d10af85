"""Host-speed reference loop.

The machines this benchmark runs on drift in speed over minutes: the
same pass can take 0.45 s in one process and 0.80 s in another a few
minutes later.  A fixed piece of pure-Python work, timed between passes
in the same process, drifts with it.  Every end-to-end time is therefore
reported multiplied by ``R0 / R``, where ``R`` is the median reference
time of the run and ``R0`` the nominal time committed below.

The loop imports nothing from the repository (so no change under test
can move it) and runs with the garbage collector paused.  Its mix --
tuple and list allocation, dict grouping, frozenset intersection,
sorting and string joins -- resembles the interpreter-bound work of the
checker itself.
"""

from __future__ import annotations

import gc
import resource
import time

#: Nominal reference time in milliseconds.  Normalised figures read as
#: if the host ran the reference loop in exactly this time.
R0_MS = 25.0


def _work(n: int = 24000) -> int:
    pairs = [((i * 7919) % n, i) for i in range(n)]
    index: dict[int, list[int]] = {}
    for a, b in pairs:
        index.setdefault(a & 1023, []).append(b)
    sets = [frozenset(v[:12]) for v in index.values()]
    acc = 0
    for s in sets[:256]:
        for t in sets[:24]:
            acc += len(s & t)
    pairs.sort()
    text = ",".join(str(b) for _, b in pairs[::3])
    acc += len(text.split(","))
    return acc + sum(b for _, b in pairs[::97])


def sample_ms() -> float:
    """One timed run of the reference loop, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    ``VmHWM`` is reset when a process execs; ``ru_maxrss``, the fallback
    where ``/proc`` is missing, also counts the parent's pages at fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
