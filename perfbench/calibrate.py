"""Sampling how fast the host runs while the program runs.

The benchmark's cores are shared with other machines' work, and their speed
drifts by 10 to 30% for stretches of seconds to minutes. `SpeedSampler` runs
a small fixed reference computation every 10 ms of wall time, from a SIGALRM
handler in the main thread, between the program's own bytecodes. The
reference therefore sees the host at the same moments as the program does,
and the program's time divided by the reference's mean duration is a count
of reference units that the drift moves far less than it moves seconds (see
README.md).

The reference imports nothing from selfcma, so a change to the program
cannot change it, and it touches no state but its own arrays. Its mix is the
program's: a Python loop over the rows of a small numpy population, a sort,
a covariance product and a symmetric eigendecomposition, at n=10 and n=40.
It takes 0.2 to 0.35 ms on a 2-core x86 box, so sampling costs 2 to 3.5%.
"""
from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.01

_rng = np.random.default_rng(20140610)
_Z10 = _rng.standard_normal((12, 10))
_Z40 = _rng.standard_normal((6, 40))
_W10 = np.arange(1.0, 11.0)
_W40 = np.arange(1.0, 41.0)
_C40 = _Z40.T @ _Z40 + np.eye(40)


def reference_computation() -> float:
    """The fixed unit of work; returns a checksum."""
    f = [float(np.dot(_W10, x * x)) for x in _Z10]
    best = _Z10[np.argsort(f)[:6]]
    values, _ = np.linalg.eigh(best.T @ best / 6)
    g = [float(np.dot(_W40, x * x)) for x in _Z40]
    values40, _ = np.linalg.eigh(_C40)
    return sum(f) + sum(g) + float(values[-1] + values40[-1])


class SpeedSampler:
    """Times the reference computation every `period` seconds while active.

    `seconds` sums the reference's wall time and `count` its runs, over
    every activation. An activation takes one sample at once, so `count`
    is never 0 after one.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.seconds = 0.0
        self.count = 0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_computation()
        self.seconds += time.perf_counter() - start
        self.count += 1

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
