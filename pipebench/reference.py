"""A fixed reference workload that samples the host's speed during the timed calls.

On a shared 2-vCPU VM the speed of a fixed loop drifted by a quarter within
minutes and jumped by up to half within seconds.  While a ``SpeedSampler`` is
active, a timer signal interrupts the process every ``INTERVAL_S`` and the
handler times one unit of fixed work: a few products of small integer
matrices modulo a prime.  The unit is compute-bound and fits in the core's
private caches, so its time follows the core's clock and how much of the
core this process gets, and not what the interrupted call left in the caches
(a breadth-first search probe tracked the calls' times less well).  A call's
time over the mean unit time during that call no longer moves with the
host's speed.  Nothing here imports ``pbna``, so no change to the program can
change the reference.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

# mean unit time on a 2-vCPU Xeon VM at 2.1 GHz; it makes scaled call times read in seconds of
# that machine, and stays fixed so that commits compare
REFERENCE_UNIT_S = 0.001

_MAT = np.random.default_rng(20140203).integers(0, 251, (48, 48))


def _unit() -> int:
    acc = _MAT
    for _ in range(8):
        acc = (acc @ _MAT) % 251
    return int(acc[0, 0])


class SpeedSampler:
    """Times one reference unit per timer tick while entered.

    ``units`` holds every unit's time; ``spent`` is the wall time the handler
    took in all, which the timed calls subtract from their own.
    """

    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.units), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """The units timed and the handler time spent since ``mark``."""
        return self.units[mark[0]:], self.spent - mark[1]

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _unit()
        t1 = time.perf_counter()
        self.units.append(t1 - t0)
        self.spent += time.perf_counter() - t0
