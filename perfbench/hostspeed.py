"""Host-speed probe for scaling host times to a nominal host speed.

On a shared host the same Python code runs up to about 1.6 times slower at
some moments than at others, and the slow spells last seconds. Process CPU
time tracks wall time, so the process is not descheduled: the core itself
runs slower. Medians over a 20-second run still differ by about 25% between
runs. The benchmark therefore times this fixed pure-Python loop, which does
not touch dramwc, next to every stretch of measured work, and reports each
measured host time scaled by ``NOMINAL_S / probe time``: the time the work
would have taken at the moment the probe ran in ``NOMINAL_S`` seconds. The
loop mixes the operations the simulator spends its time on (small object
allocation, attribute access, method calls, dict and list updates), so its
speed follows the simulator's. A change to dramwc cannot move the probe.
"""

from __future__ import annotations

import time

#: Probe time that defines the nominal host speed, close to the probe's
#: time on an idle 2-core host running Python 3.11.
NOMINAL_S = 0.010
ITERATIONS = 25_000


class _Cell:
    __slots__ = ("key", "ready_at")

    def __init__(self, key: int, ready_at: int):
        self.key = key
        self.ready_at = ready_at

    def ready(self, now: int) -> bool:
        return now >= self.ready_at


def probe() -> float:
    """Seconds the fixed loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    queue: list[tuple[int, int]] = []
    for i in range(ITERATIONS):
        cell = _Cell(i & 15, i % 7)
        if cell.ready(i & 7):
            queue.append((cell.key, i))
        table[cell.key] = table.get(cell.key, 0) + cell.ready_at
        if len(queue) > 8:
            queue.pop(0)
    return time.perf_counter() - start


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` measured between two probes, at the nominal host speed."""
    return seconds * NOMINAL_S * 2 / (probe_before + probe_after)
