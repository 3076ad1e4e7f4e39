"""Probe-normalized timing for a noisy host.

On a shared virtual machine the same work runs up to half again as slow
for seconds or minutes at a time, depending on the other tenants.
``SpeedClock`` therefore times a call twice: in plain seconds, and in
normalized seconds, where each stretch of the call is scaled by how fast
a small fixed computation (the probe) ran at its two ends:

    normalized = sum over stretches of  length * ref / mean(probe time at the ends)

The probe runs before and after the call and, from a SIGALRM timer,
every ``interval`` seconds inside it, whenever the interpreter next gets
control (after the current numpy call).  Its own time is left out of
both figures.

The probe never reads hermplane, loads no module the program would not
load, and is timed warm: each part runs once untimed, then twice timed,
and the faster of the two counts, so an interrupt in one does not.
Its working set (a 1024-entry dict and three 128 KiB arrays) fits in the
L2 cache, so what the program evicted before a sample cannot change the
sample's time, and each sample evicts at most that much of the
program's data.
"""

from __future__ import annotations

import signal
import time

# Probe durations on the 2-vCPU VM where the benchmark was defined, in a
# quiet period.  A unit conversion only: one normalized second is one
# second of that machine at that speed.
PY_REF_S = 0.0034
NP_REF_S = 0.0025


def py_loop(n=20_000):
    """A fixed dict-and-integer loop, like the scalar field code."""
    t = time.perf_counter()
    d = {}
    for i in range(n):
        k = i & 1023
        d[k] = (d.get(k, 0) + i * i) % 65521
    return time.perf_counter() - t


class NumpyGather:
    """Table gathers on small arrays, like the vectorized field arithmetic."""

    def __init__(self, n=1 << 14):
        import numpy as np

        self._np = np
        self.table = np.arange(n, dtype=np.int64)
        self.index = np.arange(n) * 7919 % n  # a fixed permutation, scattered
        self.out = np.empty(n, dtype=np.int64)

    def __call__(self, rounds=80):
        np = self._np
        t = time.perf_counter()
        for _ in range(rounds):
            np.take(self.table, self.index, out=self.out)
            np.add(self.out, self.table, out=self.out)
        return time.perf_counter() - t


class SpeedClock:
    """Times calls in plain and in probe-normalized seconds.

    `parts` are callables returning their own duration; `ref` is the sum
    of their reference durations.
    """

    def __init__(self, parts, ref, interval=0.2):
        self.parts = parts
        self.ref = ref
        self.interval = interval
        self.samples = []
        self.last = self._probe()[2]

    def _probe(self):
        """(start, end, timed duration) of one sample."""
        start = time.perf_counter()
        total = 0.0
        for part in self.parts:
            part()  # warm the caches after whatever ran before
            total += min(part(), part())
        return start, time.perf_counter(), total

    def _on_alarm(self, signum, frame):
        self.samples.append(self._probe())

    def time(self, fn, *args):
        """(fn(*args), plain seconds, normalized seconds)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self._probe()[2]
        plain = norm = 0.0
        left_t, left_d = t0, self.last
        for start, end, d in self.samples + [(t1, t1, after)]:
            stretch = start - left_t
            plain += stretch
            norm += stretch * self.ref / ((left_d + d) / 2)
            left_t, left_d = end, d
        self.last = after
        return result, plain, norm


def python_only():
    """For the import: numpy must not be loaded before hermplane."""
    return SpeedClock([py_loop], PY_REF_S)


def full():
    return SpeedClock([py_loop, NumpyGather()], PY_REF_S + NP_REF_S)
