"""Timing in seconds at the reference machine's usual speed.

The reference machine is a virtual machine shared with other work. Its
speed drifts by a factor of up to two, in spells of a fraction of a
second to minutes, so the wall time of one `oistlab` command spreads by
20-40% between runs of the same code. A `Pacer` measures the drift where
it happens: every PERIOD_S of wall time a SIGALRM handler times a fixed
unit of interpreted Python in the measured process itself. The work
between the ticks of each block of BLOCK ticks is then scaled by
REFERENCE_UNIT_S over the block's median unit time, so a speed change
within a long command is followed; the handler's own time is left out.

The unit is a pure-Python integer loop: it needs no import, so it also
runs while `oistlab` and numpy are being imported, and nothing the
program defines can change its cost. Interleaved with the benchmark's
commands, it tracks their speed on this machine as closely as a mix of
Python, small numpy arrays and normal draws does.
"""
from __future__ import annotations

import signal
import statistics
import time

# Median seconds of one unit on the reference machine (2-vCPU Intel Xeon
# virtual machine, Python 3.11.7).
REFERENCE_UNIT_S = 5.5e-4
PERIOD_S = 0.05
BLOCK = 8


def unit() -> int:
    s = 0
    for i in range(6_000):
        s += i * i % 7
    return s


class Pacer:
    """Times `unit` every PERIOD_S while started; `scaled` converts an interval."""

    def __init__(self):
        self.units: list[float] = []
        self.ticks: list[tuple[float, float]] = []  # (entry, exit) of each handler call
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        self.units.append(t1 - t0)
        t2 = time.perf_counter()
        self.ticks.append((t0, t2))
        self.spent += t2 - t0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """The start of an interval: the ticks so far and the clock."""
        return len(self.ticks), time.perf_counter()

    def scaled(self, since: tuple[int, float]) -> tuple[float, float]:
        """Wall seconds and reference-speed seconds from mark `since` to now,
        both without the handler's time."""
        now = time.perf_counter()
        n, t0 = since
        ticks, units = self.ticks[n:], self.units[n:]
        # the work before each tick, and after the last one
        ends = [t0] + [t_exit for _, t_exit in ticks]
        work = [entry - end for (entry, _), end in zip(ticks, ends)]
        if not ticks:
            return now - t0, (now - t0) * REFERENCE_UNIT_S / self.units[-1]
        work[-1] += now - ends[-1]
        scaled = 0.0
        for i in range(0, len(ticks), BLOCK):
            speed = REFERENCE_UNIT_S / statistics.median(units[i:i + BLOCK])
            scaled += sum(work[i:i + BLOCK]) * speed
        return sum(work), scaled
