"""Calibrated stage timing.

The benchmark runs on a few cores of a shared host whose speed drifts:
for stretches of seconds up to minutes, all code (interpreter loop, numpy,
page faults) runs up to 1.7x slower. Medians within one run cannot remove a
slow stretch that covers most of the run, so wall times of the same code
spread from run to run by more than a useful regression bound.

So at every stage boundary the benchmark times a fixed pure-Python loop,
which touches no craft code, and logs the reading. Calibrated seconds are
wall seconds scaled by ``REFERENCE_S`` over the mean of all the run's
readings: one factor per run, for the drift from run to run. A single
reading is too noisy to scale its own stage (on a VM it flips between two
levels 1.4x apart from one reading to the next), but the mean of a run's
dozens of readings follows the host's speed. A calibrated second is a wall
second on a host that runs the loop in ``REFERENCE_S``.

The loop runs in the benchmark's own process, between stages, never beside
them: a process that has been idle (a sampler that sleeps) reads it up to
1.4x slower on a VM for a while, and a sampler running beside the stages
would also read the benchmark's own load.
"""

from __future__ import annotations

import statistics
import time

SPIN_N = 10_000
SPIN_REPS = 5
# Loop time on the reference host (a 2-core cloud VM of 2026, between numpy
# calls). It only sets the scale of calibrated seconds, so it is a constant,
# never re-measured.
REFERENCE_S = 0.001


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += (i * i) ^ (i >> 3)
    return total


def calibrate() -> float:
    """Seconds the calibration loop takes now: the fastest of a few repeats,
    so a single preemption does not read as a slow host."""
    best = float("inf")
    for _ in range(SPIN_REPS):
        t0 = time.monotonic()
        _spin(SPIN_N)
        best = min(best, time.monotonic() - t0)
    return best


class SpeedLog:
    """Loop times read during one benchmark run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def read(self) -> None:
        t0 = time.monotonic()
        loop_s = calibrate()
        self.times.append((t0 + time.monotonic()) / 2)
        self.loops.append(loop_s)

    def factor(self) -> float:
        """Calibrated seconds per wall second for this run."""
        return REFERENCE_S / statistics.fmean(self.loops) if self.loops else 1.0


class Stopwatch:
    """Times the consecutive stages of one operation. ``lap`` closes a stage,
    reads the host speed into the log and starts the next stage; the reading
    is not counted in either stage."""

    def __init__(self, log: SpeedLog) -> None:
        self.log = log
        self.wall: dict[str, float] = {}
        self._t = time.monotonic()

    def lap(self, stage: str) -> float:
        """Close ``stage``; returns its wall seconds."""
        wall = self.wall[stage] = time.monotonic() - self._t
        self.log.read()
        self._t = time.monotonic()
        return wall
