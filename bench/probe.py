"""Host-speed probe: a fixed slice of pure-Python work timed during each pass.

The benchmark's host is shared, and the same pass of the same inputs can run
30 % slower for minutes at a time.  The probe measures that drift where it
happens: a SIGPROF timer fires every ``PERIOD_S`` of process CPU time while
the cases run, and the handler times ``kernel()``, a fixed piece of work
shaped like liecoh's hot loops (exact Fraction elimination and a dict of
integer-tuple weights).  The kernel does not depend on liecoh, so no change
to the program changes what it computes.

``slowdown`` is the mean kernel time over a pass divided by ``REF_S``, a
fixed scale.  The benchmark divides its timings by it, so they read in
reference seconds: the time the same work would take on a host where the
kernel takes ``REF_S``.  ``spent`` is the time spent inside the handler;
the worker subtracts it from every case, and ``clock()`` leaves it out, so
the probe's own time is never charged to the program.
"""

import gc
import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02     # process CPU time between two probes
REF_S = 0.0005      # about kernel() in a fast stretch of a 2 vCPU Xeon, Python 3.11


def _elimination_rank(rows):
    """Rank by exact Gauss-Jordan elimination over Fractions."""
    M = [row[:] for row in rows]
    rank = 0
    for c in range(len(M[0])):
        p = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if p is None:
            continue
        M[rank], M[p] = M[p], M[rank]
        piv = M[rank][c]
        for r in range(len(M)):
            if r != rank and M[r][c]:
                f = M[r][c] / piv
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def _weight_count(rank, depth):
    """Walk down from a dominant weight by simple roots of A_rank, counting paths."""
    roots = [tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank))
             for i in range(rank)]
    top = (depth,) * rank
    paths = {top: 1}
    frontier = [top]
    while frontier:
        nxt = []
        for w in frontier:
            for a in roots:
                v = tuple(x - y for x, y in zip(w, a))
                if min(v) < -depth:
                    continue
                if v not in paths:
                    paths[v] = 0
                    nxt.append(v)
                paths[v] += paths[w]
        frontier = nxt
    return len(paths)


_RNG = random.Random(20261017)
_MATRIX = [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 3)) for _ in range(6)]
           for _ in range(5)]


def kernel():
    """The fixed work one probe times; about REF_S seconds on an unloaded host."""
    return _elimination_rank(_MATRIX), _weight_count(3, 1)


class Probe:
    """Times kernel() from a SIGPROF handler inside a ``with`` block."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []       # seconds per kernel() run
        self.spent = 0.0        # seconds spent inside the handler
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _on_tick(self, signum, frame):
        t0 = time.perf_counter()
        # a collection the program's garbage triggers here is not the host's speed
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def clock(self):
        """perf_counter() without the time spent in the handler."""
        return time.perf_counter() - self.spent


def slowdown(samples):
    """Mean probe time over REF_S; 1.0 when there are no samples."""
    return sum(samples) / len(samples) / REF_S if samples else 1.0
