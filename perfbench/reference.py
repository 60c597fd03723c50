"""Calibration of measured times against fixed reference work.

The benchmark runs on a shared host.  Other tenants change this process's
speed by tens of percent, for seconds at a time and for whole runs, so raw
times of the same code differ between runs by more than the regressions the
benchmark must catch.  The harness therefore times a fixed reference next to
the operations and reports each operation's time scaled to a host on which
the reference takes its nominal time:

    calibrated = measured * nominal / median(reference times near the op)

There are two references, one for each kind of operation:

* ``in_process`` -- exact rational series multiplication and JSON encoding
  in pure Python, the kind of work the package does, timed in the
  benchmark's own process (``sweep``, ``count``);
* ``launch`` -- a bare ``python -c pass`` process, for operations that are
  processes of their own (``cli`` and the set-up probes).

Neither imports the package or sees the repository's ``src``, so no change
to the program moves them.  The nominal times are what each reference took
on the reference host (README.md).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter
from typing import Callable

IN_PROCESS_NOMINAL_S = 0.003
LAUNCH_NOMINAL_S = 0.065

_ORDER = 32
_COEFFS = [Fraction(math.comb(2 * k, k), 4 ** k) for k in range(_ORDER)]


def _in_process_work() -> None:
    product = [Fraction(0)] * _ORDER
    for i, a in enumerate(_COEFFS):
        for j in range(_ORDER - i):
            product[i + j] += a * _COEFFS[j]
    json.dumps({str(k): {"c": str(c), "k": k} for k, c in enumerate(product)})


def _launch_work() -> None:
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                   capture_output=True, timeout=120)


class Reference:
    """Samples of one reference's duration, taken at most every ``every_s``
    seconds, and the scale factor they give for an interval."""

    def __init__(self, work: Callable[[], None], nominal_s: float,
                 every_s: float, window_s: float) -> None:
        self.work = work
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.window_s = window_s
        self.midpoints: list[float] = []
        self.durations: list[float] = []
        self.last_end = -math.inf

    def sample(self) -> None:
        began = perf_counter()
        self.work()
        end = perf_counter()
        self.midpoints.append((began + end) / 2)
        self.durations.append(end - began)
        self.last_end = end

    def sample_if_due(self) -> None:
        if perf_counter() - self.last_end >= self.every_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Nominal time over the median sample within ``window_s`` of
        [start, end]; the nearest sample if none is that close."""
        lo = bisect_left(self.midpoints, start - self.window_s)
        hi = bisect_right(self.midpoints, end + self.window_s)
        near = self.durations[lo:hi]
        if not near:
            nearest = min(range(len(self.midpoints)),
                          key=lambda i: abs(self.midpoints[i] - (start + end) / 2))
            near = [self.durations[nearest]]
        return self.nominal_s / statistics.median(near)


def in_process() -> Reference:
    return Reference(_in_process_work, IN_PROCESS_NOMINAL_S, 0.05, 0.25)


def launch() -> Reference:
    return Reference(_launch_work, LAUNCH_NOMINAL_S, 0.25, 0.5)
