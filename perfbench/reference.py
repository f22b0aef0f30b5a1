"""A fixed reference loop that measures how fast the host runs right now.

On a shared virtual machine the speed of a CPU second drifts: a fixed
``Fraction`` loop has run up to 2x apart, within a second and between runs
minutes apart.  The benchmark therefore times this loop while it measures
the program and scales the program's CPU time by ``REFERENCE_S`` over the
loop's time.  Every time the benchmark reports is so given in seconds of a
host on which the loop takes ``REFERENCE_S``; the program's own cost stays
in it, the host's speed mostly cancels out.

The loop does the kind of work classt does (``Fraction`` arithmetic on
continued fractions, then rendering the results as text and JSON) and never
imports classt, so a change to the program cannot change it.  The garbage
collector is off while it runs, so the size of the program's heap does not
change its time either.
"""

from __future__ import annotations

import contextlib
import gc
import json
import signal
import statistics
from fractions import Fraction
from time import process_time

# CPU seconds of one run of the loop on the 2-CPU virtual machine the
# benchmark was written on: about its tenth percentile there.
REFERENCE_S = 0.0012
# Wall seconds between two runs of the loop while a pass is sampled.
SAMPLE_INTERVAL_S = 0.02


def _loop() -> int:
    rows = []
    for r in range(2, 50):
        x = Fraction(r)
        for e in range(2, 6 + r % 9):
            x = e - 1 / x
        rows.append({"r": r, "value": str(x), "parts": [x.numerator % 97, x.denominator % 89]})
    return len(json.dumps(rows, sort_keys=True))


def measure() -> float:
    """CPU seconds of one run of the loop, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        _loop()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales the CPU time of a measured span to the reference host.

    A span that runs in another process, a set-up, is scaled by the loop's
    time right before and right after it: call ``start`` before the span and
    ``scale`` after it.  A pass of the program runs inside ``sampling()``: a
    wall-clock timer interrupts it every ``SAMPLE_INTERVAL_S`` to run the
    loop, because the host's speed changes within a one-second pass.  The
    interruptions' CPU time is added up in ``spent``, for the caller to take
    out of its own times, and ``factor`` gives the mean scale of the samples.
    ``samples`` keeps every loop time of the run.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._pass: list[float] = []
        self.start()

    def start(self) -> None:
        self.before = measure()
        self.samples.append(self.before)

    def scale(self) -> float:
        after = measure()
        self.samples.append(after)
        return 2 * REFERENCE_S / (self.before + after)

    def sampling(self) -> "HostSpeed":
        self._pass = []
        return self

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame) -> None:
        start = process_time()
        elapsed = measure()
        self._pass.append(elapsed)
        self.samples.append(elapsed)
        self.spent += process_time() - start

    def factor(self) -> float:
        """Mean scale over the samples of the last ``sampling()`` span; a
        span too short to be sampled is scaled by a loop run right now."""
        if not self._pass:
            self._pass.append(measure())
        return statistics.fmean(REFERENCE_S / t for t in self._pass)


class Unscaled:
    """Stands in for ``HostSpeed`` where times are reported as measured."""

    spent = 0.0

    def sampling(self):
        return contextlib.nullcontext()

    def factor(self) -> float:
        return 1.0
