"""Speed normalisation of measured seconds.

The speed of a core of a shared virtual machine changes by up to 50% within
seconds when other tenants load the host, and process CPU time changes with
it.  A ``SpeedSampler`` times a short fixed kernel every ``INTERVAL_S``
seconds from a SIGALRM handler, on the core the workload is running on.  The
kernel is an interpreter loop and NumPy elementwise work on a 512 KiB array,
in about equal shares; while the host load changed, this pair followed the
slowdown of the workloads' own code more closely than either part alone or
than kernels on smaller or larger arrays.  The handler first touches the
array, so the timed call does not pay for cache lines the workload evicted.
A window of wall time is then rescaled to the reference speed at which the
kernel takes ``REF_KERNEL_S`` seconds:

    normalised = (wall - handler time in the window) * REF_KERNEL_S * mean(1 / kernel)

Averaging 1/kernel (the speed) over samples taken at equal wall intervals
weights each part of the window by its duration.  The handler's own time is
taken out of the wall time, so sampling adds no cost to the figures; it
never touches the library under test, so a faster library shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
SETUP_INTERVAL_S = 0.05  # set-up lasts about a second; sample it densely
MIN_SAMPLES = 5       # a shorter window borrows its nearest neighbours
REF_KERNEL_S = 2.5e-3

_ARRAY = np.linspace(0.0, 1.0, 65536)  # 512 KiB


def _kernel():
    acc = 0
    for k in range(23000):
        acc += k * k
    np.sin(_ARRAY) * np.exp(-_ARRAY) + _ARRAY ** 3
    return acc


class SpeedSampler:
    def __init__(self):
        self.at = []      # time.monotonic() at each sample
        self.cost = []    # seconds of the timed kernel call of each sample
        self.busy = []    # seconds spent in each sample, array touch included

    def _tick(self, signum, frame):
        t = time.monotonic()
        _ARRAY.sum()  # brings the kernel's array back into cache
        t1 = time.monotonic()
        _kernel()
        t2 = time.monotonic()
        self.at.append(t)
        self.busy.append(t2 - t)
        self.cost.append(t2 - t1)

    def start(self, interval=INTERVAL_S):
        _kernel()  # first call pays one-off costs
        signal.signal(signal.SIGALRM, self._tick)
        self.set_interval(interval)

    def set_interval(self, interval):
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start, end):
        """(raw seconds, normalised seconds) of the wall window [start, end]."""
        if not self.cost:
            self._tick(None, None)
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        busy = sum(self.busy[lo:hi])
        # too few samples inside: widen to the nearest MIN_SAMPLES
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        raw = (end - start) - busy
        speed = statistics.fmean(1.0 / c for c in self.cost[lo:hi])
        return raw, raw * REF_KERNEL_S * speed
