"""Machine speed, sampled in the measuring process itself.

On a shared 2-vCPU cloud host the same work takes up to 60 % longer for
tens of seconds at a time (other tenants share the physical cores), and a
run's length does not average that away.  So every worker times a fixed
reference chunk of mpmath work (exp, expm1 and log at 45 digits, the mix of
a Kurepa integrand, in a private context) every INTERVAL_S from a timer
signal and before and after each operation.  An operation's latency is
reported at nominal speed: its wall time, less the chunks that ran inside
it, times NOMINAL_CHUNK_S over the mean chunk time around and during it.
Sixteen fresh runs of one 3 s proof there varied by 14 % in wall time and by
3.5 % at nominal speed.

NOMINAL_CHUNK_S is the chunk's time on that host when it is quiet, so
nominal seconds read close to the wall seconds of a quiet host.  The
scheme assumes the program runs single-threaded: a program that loaded the
second vCPU itself would slow the chunk and flatter its own latencies, so
such a change must also be judged on the wall times each run prints.
"""

from __future__ import annotations

import signal
import statistics
import time

import mpmath

INTERVAL_S = 0.1
NOMINAL_CHUNK_S = 2.5e-3
# a private context: the chunk runs inside a signal handler and must not
# touch the global mp.dps that the interrupted code depends on
_CTX = mpmath.MPContext()
_CTX.dps = 45
_X = _CTX.mpf("0.7318")
_clock = time.perf_counter


def reference_chunk():
    """About 3 ms of the mpmath work a Kurepa integrand does, at 45 digits."""
    total = _CTX.mpf(0)
    for k in range(1, 40):
        t = _X * k
        total += _CTX.exp(-t) * _CTX.expm1(_X * _CTX.log(t + 1)) / (t + 2)
    return total


class SpeedProbe:
    def __init__(self):
        self.chunks = []
        self.stolen = 0.0
        self._busy = False
        reference_chunk()  # warm the constant caches it uses

    def clock(self):
        """perf_counter that stands still while a chunk runs."""
        return _clock() - self.stolen

    def sample(self, *_):
        if self._busy:  # the timer fired inside a chunk: that chunk counts it
            return
        self._busy = True
        t0 = _clock()
        reference_chunk()
        elapsed = _clock() - t0
        self.chunks.append(elapsed)
        self.stolen += elapsed
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def time(self, fn, around=1):
        """(result of fn(), wall seconds, seconds at nominal speed).

        The speed is the mean time of the chunks from ``around`` chunks just
        before the call to ``around`` just after it; the mean, not the
        median, because bursts of slowness slow the measured code as much as
        the chunks.
        """
        first = len(self.chunks)
        for _ in range(around):
            self.sample()
        t0 = self.clock()
        result = fn()
        wall = self.clock() - t0
        for _ in range(around):
            self.sample()
        speed = statistics.fmean(self.chunks[first:])
        return result, wall, wall * NOMINAL_CHUNK_S / speed
