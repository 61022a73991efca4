"""The host's speed, sampled while the timed solves run.

The benchmark gets a few cores of a shared host whose speed drifts, by up to
2x over tens of seconds on a 2-vCPU Xeon VM, so one raw time says as much
about the host as about the program; a sextic solve is one 20-30 s sample
per run, too long to be steadied by medians.  ``Sampler`` runs a fixed
pure-Python loop, ``probe``, from a SIGALRM handler every ``INTERVAL_S``
seconds of timed work, in the measuring process itself (no thread, no second
process), and keeps the loop's durations.

The loop does integer arithmetic, then a random walk through a 12 MB list, each
for about half its time when run between solves: the host varies core speed
and memory latency independently, and the solver depends on both.  On a
2-vCPU Xeon VM, over 7 minutes in which raw solve times of the sextic at
q = 13 and of 100 tall-char0 problems had a log spread (standard deviation)
of 0.22 and 0.17, their log ratio to the two halves' geometric mean spread
0.050 and 0.042, against 0.096 and 0.080 for the arithmetic alone.

A time measured under a sampler is reported raw, less the time spent in
probes, and adjusted: scaled by ``REFERENCE_PROBE_S`` over the mean probe
duration, that is, in seconds of a host that runs the probe in
``REFERENCE_PROBE_S``.  The probe does not touch the program, so a change in
the program moves adjusted times as it moves raw ones.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
import statistics
import time

PROBE_ITERS = 25_000     # arithmetic steps of a probe
WALK_LEN = 300_000       # ints in the list the probe walks
WALK_STEPS = 8_000       # random steps of a probe through that list
INTERVAL_S = 0.15
# mean probe duration between solves on a 2-vCPU Intel Xeon VM, Python 3.11.7
REFERENCE_PROBE_S = 0.0055

_walk = None             # (values, order), built by prepare()


def prepare() -> tuple:
    """The list the probe walks and the order of the walk, built once."""
    global _walk
    if _walk is None:
        # a shuffled range, kept whole so that no freed memory is left for
        # the program to reuse; its index objects lie scattered in memory,
        # so each step of the walk reads two random places
        order = list(range(WALK_LEN))
        random.Random(0).shuffle(order)
        _walk = ([3 * i for i in range(WALK_LEN)], order)
    return _walk


def probe() -> float:
    """Seconds of one fixed pure-Python loop."""
    values, order = prepare()
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    for j in itertools.islice(order, WALK_STEPS):
        acc += values[j]
    return time.perf_counter() - t0


class Sampler:
    """Probe durations taken while ``running()``; ``total`` is their sum."""

    def __init__(self):
        self.durations: list = []
        self.total = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        try:
            d = probe()
            self.durations.append(d)
            self.total += d
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Probe once now, then every ``INTERVAL_S`` until the block ends."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Multiplier from raw seconds to seconds of the reference host."""
        return REFERENCE_PROBE_S / statistics.fmean(self.durations)
