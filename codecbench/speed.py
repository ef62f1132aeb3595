"""Host-speed probe: fixed kernels timed between and during the benchmark's operations.

On a shared host the same code runs at speeds up to about 1.8x apart, in
phases that last from seconds to over a minute, so a raw wall-clock median
of one run depends on the phase it ran in.  The probe times two small
kernels that owe nothing to the codec:

* ``scalar``: an interpreted loop of scalar numpy reads, integer and dict
  work -- the mix of the codec's entropy coder, which is most of compress
  and decompress;
* ``vector``: elementwise math on arrays larger than the CPU's L2 cache --
  the mix of ``cube_delta_e``.  It writes into buffers allocated once, so
  its cost does not depend on how the allocator was left by earlier work.

A reading is taken before and after every operation, and every
``TICK_S`` seconds from an interval timer, so that an operation longer than
a speed phase is read during its run too.  The timer's readings run in a
signal handler between the operation's bytecodes; the seconds they take are
counted in ``stolen_s`` and taken out of the operation's time.

An operation's *reference seconds* are its wall seconds times the kernel's
reference time over the mean kernel time of the readings from just before
to just after it: the seconds it would take at the speed where the kernel
takes its reference time.  A change to the codec moves reference seconds as
it moves wall seconds; a slow phase of the host slows the kernel too, and
cancels.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Kernel times, in seconds, that define the reference speed: about each
#: kernel's fastest time on a 2-vCPU x86-64 cloud VM with Python 3.11.
REF_S = {"scalar": 1.4e-3, "vector": 2.3e-3}
REPEATS = 3
TICK_S = 0.5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20141019)
        self._rows = rng.integers(-24, 24, size=(64, 64))
        self._table = {v: (v * 7919) & 0xFFFF for v in range(256)}
        self._vec = np.full(1 << 19, 0.5)
        self._tmp = np.empty_like(self._vec)
        self.readings = []  # per reading: kernel name -> seconds
        self.stolen_s = 0.0
        self._busy = False
        self.read()

    def _scalar(self):
        table = self._table
        acc = 0
        for row in self._rows:
            for pos in np.flatnonzero(row):
                v = int(row[pos])
                acc = (acc + table[v & 0xFF] + (v << 3)) & 0xFFFFFFFF
        return acc

    def _vector(self):
        x, t = self._vec, self._tmp
        np.multiply(x, x, out=t)
        np.add(t, 1.0, out=t)
        np.sqrt(t, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.multiply(t, x, out=t)
        return float(t.sum())

    def read(self):
        """Append a reading: the fastest of a few runs of each kernel."""
        self._busy = True
        try:
            out = {}
            for name, kernel in (("scalar", self._scalar), ("vector", self._vector)):
                best = float("inf")
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    kernel()
                    best = min(best, time.perf_counter() - t0)
                out[name] = best
            self.readings.append(out)
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        t0 = time.perf_counter()
        self.read()
        self.stolen_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        """Before an operation: the index of the latest reading, to pass to ``factors`` after it.

        Call ``read`` first after a gap in which no operation was timed.
        """
        return len(self.readings) - 1

    def factors(self, mark):
        """Take a reading; per kernel, reference seconds per wall second since ``mark``."""
        self.read()
        span = self.readings[mark:]
        return {name: REF_S[name] * len(span) / sum(r[name] for r in span) for name in REF_S}
