"""The speed sampler: a fixed sliver of pure-Python work timed every
PERIOD_S throughout a run, operations included, so that a run knows how
fast the machine was during each operation.

On a shared machine the same code runs about 1.8 times slower in stretches
that switch within a fraction of a second or last minutes (see README.md).
The probe does the kind of work the library does (``Fraction`` arithmetic,
tuple keys, dict updates, small-object allocation) but imports nothing from
``diffeokit``, so no change to the library can change its time.  It runs in
a ``SIGALRM`` handler, so it also samples the middle of long operations;
``run.py`` takes the probe time out of each operation's time and divides
the rest by the operation's mean slowdown, probe time over ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Median probe time in the fast stretches of a 2-vCPU KVM guest (Xeon,
# Sapphire Rapids) with CPython 3.  Only ratios of scaled times mean
# anything; this constant keeps them in seconds of that machine.
NOMINAL_S = 0.00103

PERIOD_S = 0.03
_ITERATIONS = 150


def work() -> tuple:
    acc = Fraction(0)
    poly: dict = {}
    for i in range(1, _ITERATIONS):
        x = Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        acc += x
        key = (i % 5, i % 3, i % 2)
        poly[key] = poly.get(key, 0) + x
    return acc, len(poly)


class Sampler:
    """Times ``work`` every ``period`` seconds while started.  ``samples``
    holds ``(start, duration)`` pairs by ``time.perf_counter``.  The garbage
    collector is off during a probe, so the size of the library's heap does
    not change its time."""

    def __init__(self, period: float = PERIOD_S, warmup: int = 20) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self.probe)
        for _ in range(warmup):
            work()

    def probe(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0))

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
