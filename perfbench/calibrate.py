"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of one core swings by a third or more over
tens of seconds, because of other tenants.  A run is too short to average
that out, so the benchmark times a fixed kernel next to its own
work and scales each end-to-end time to a reference speed:

    scaled time = measured time * REFERENCE_S / mean kernel time

During the timed loop a SpeedSampler times the kernel every PERIOD_S from a
SIGALRM handler, so that even ops of several seconds get samples from their
middle; the handler's own time is left out of the measured time.

The kernel draws uniforms from a Philox generator and loops over them in
Python, setting bits in an integer: the mix of numpy calls and interpreter
work in the package's hot loops, which tracks their speed more closely than
pure interpreter arithmetic does.  It is the benchmark's own code, so no
change to the package moves it.  Per-layer times are reported unscaled.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003  # the kernel's time at the reference speed
PERIOD_S = 0.5
SAMPLE_S = 0.01  # kernel time per sample, 2% of the period
_KEY = np.array([7, 7], dtype=np.uint64)


def _kernel() -> int:
    rng = np.random.Generator(np.random.Philox(key=_KEY))  # the same draws each call
    acc = 0
    for _ in range(18):
        for j, keep in enumerate(rng.random(1500) < 0.5):
            if keep:
                acc |= 1 << (j & 63)
    return acc


def kernel_seconds(budget_s: float) -> float:
    """Median time of kernel runs lasting about `budget_s` in all (at least
    three runs); the median is robust to a preemption."""
    times = []
    for _ in range(max(3, round(budget_s / REFERENCE_S))):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Kernel samples every PERIOD_S while in use; `spent` is their cost."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds(SAMPLE_S)]
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds(SAMPLE_S))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Measured time times this is time at the reference speed."""
        return REFERENCE_S / statistics.mean(self.samples)
