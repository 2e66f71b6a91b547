"""How fast this process runs right now, from a fixed reference kernel.

The machine the benchmark runs on may be shared: when other work lands on
the same cores, everything here runs slower for seconds or minutes at a
time, and growthlab's timings would move with it.  A `Speedometer` times a
small fixed kernel (Python big-integer and float arithmetic, as mpmath's
pure-Python backend and the march loops do, plus a numpy FFT) now and then,
and every INTERVAL_S seconds while it is on, from a SIGALRM handler that
runs between the bytecodes of whatever growthlab is doing.  The speed over
a stretch of samples is REFERENCE_S / (their mean kernel time), so 1.0 is
the reference machine at rest and 0.6 means the process ran at 60% of
that.  The slowdowns come in bursts of milliseconds, so a sample is one
uninterrupted kernel run, exposed to them as growthlab's own code is; the
fastest of several runs would miss them.  An untimed run just before it
refills the caches, so that the size of growthlab's working set does not
change the kernel's time.

A timing is normalised by multiplying its seconds, net of the time the
samples themselves took, by the speed of the samples taken during it and
at its two ends: the result is the time the same work would have taken at
reference speed.  The kernel never touches growthlab, mpmath's context or
numpy's random state, so it cannot change a result.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REFERENCE_S = 0.0020   # mean kernel time on the reference machine at rest
INTERVAL_S = 0.2       # time between samples while the timer is on

_A = 3 ** 110 + 12345  # ~175 bits, an mpmath mantissa at ~52 digits
_B = 7 ** 62 + 54321
_MASK = (1 << 175) - 1
_WAVE = np.exp(1j * np.linspace(0.0, 40.0, 4096))


def kernel() -> float:
    """Fixed work; returns a value so nothing is optimised away."""
    a, acc = _A, 0
    for i in range(4000):
        a = ((a * _B) >> 150) & _MASK | 1
        acc ^= a + i
    x = 0.5
    for _ in range(4000):
        x = x * 0.999 + 0.001 / (1.0 + x)
    for _ in range(16):
        y = np.fft.fft(_WAVE)
    return (acc & 0xFF) + x + float(abs(y[3]))


class Speedometer:
    """Kernel times of the samples taken; see the module docstring."""

    def __init__(self):
        self.samples = []
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()                # warm caches and numpy's FFT plan
        # seconds spent here and in sample(), to take out of timings
        self.spent_wall = time.perf_counter() - w0
        self.spent_cpu = time.process_time() - c0

    def sample(self) -> None:
        # a timer sample must not land inside this one's timed run
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        w0, c0 = time.perf_counter(), time.process_time()
        # untimed: refill the caches growthlab's work evicted, so the size
        # of its working set cannot bias the speed
        kernel()
        t = time.perf_counter()
        kernel()
        w1 = time.perf_counter()
        self.samples.append(w1 - t)
        self.spent_wall += w1 - w0
        self.spent_cpu += time.process_time() - c0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, first: int = 0) -> float:
        """Speed over the samples from index `first` on."""
        window = self.samples[first:]
        return REFERENCE_S * len(window) / math.fsum(window)
