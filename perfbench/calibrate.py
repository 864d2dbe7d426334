"""A fixed piece of pure-Python work that measures how fast the machine
runs at the moment, so that timings can be scaled to a reference speed.

On a shared host the speed one process gets drifts: the same pass of
``hypersimplex-n20`` took from 3.9 s to 6.9 s within a few minutes on a
2-vCPU guest, and wall time and CPU time drifted alike.  A run of a
workload takes samples of ``kernel`` between its items, with the
garbage collector off, and can report its times scaled as

    reference seconds = measured seconds * REFERENCE_S / mean sample

where the mean is over the samples taken in the same pass.  The kernel
is shaped like the program's work (frozensets as dict keys, integer
products, a bytecode-bound loop) and never calls the program, so no
change to the program changes it.  It runs on one thread, so it
stands for work on one thread only: ``cdx verify --max-n 7`` followed it
at a correlation of 0.95 over 100 s with ``--threads 1``, and at 0.3
with ``--threads 2``.
"""

import gc
import statistics
import time

# the kernel's time at the reference speed; a mean sample of this length
# leaves times unscaled
REFERENCE_S = 0.05
# seconds between samples within a pass: a 0.05 s sample every half
# second adds about a tenth to the pass
EVERY_S = 0.5
# samples a pass ends with at least; one sample alone is off by up to a
# tenth, and a one-item pass gets only two from EVERY_S
MIN_SAMPLES = 4

_BITS = 9


def kernel():
    """The fixed work, 0.035 to 0.06 s on a 2.1 GHz Xeon vCPU."""
    table = {}
    for mask in range(1 << _BITS):
        key = frozenset(d for d in range(_BITS) if mask >> d & 1)
        table[key] = mask * 2654435761 % 1000003
    total = 0
    for _ in range(10):
        for mask in range(1 << _BITS):
            inside = frozenset(d for d in range(_BITS) if mask >> d & 1)
            outside = frozenset(d for d in range(_BITS) if not mask >> d & 1)
            total += table[inside] * table[outside] + len(inside)
    for i in range(250_000):
        total += i * i % 7
    return total


def sample(clock=time.perf_counter):
    """Seconds one run of ``kernel`` takes, with the collector off so
    that it does not walk the program's heap inside the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """The factor from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Samples taken between a pass's items: one by ``take``, one by
    ``between`` whenever ``EVERY_S`` seconds have passed since the last,
    and by ``finish`` as many as bring them to ``MIN_SAMPLES``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self._last = None

    def take(self):
        self.samples.append(sample(self.clock))
        self._last = self.clock()

    def between(self):
        if self._last is None or self.clock() - self._last >= EVERY_S:
            self.take()

    def finish(self):
        self.take()
        while len(self.samples) < MIN_SAMPLES:
            self.take()

    def scale(self):
        return scale(self.samples)
