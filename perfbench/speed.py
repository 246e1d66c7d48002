"""A probe of the machine's speed, taken all through an untraced run.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to 1.5x over stretches of seconds to minutes: a fixed pure-Python loop
took 0.22 to 0.35 s from one repetition to the next, and the medians of
15 s windows spread by 0.24 of their median. Its processor time moves with
it, so neither wall nor processor time of one run says how fast the
program is. This probe runs a fixed piece of Python every `PERIOD_S`
seconds from a SIGALRM handler, which the interpreter runs between the
program's bytecodes on the one thread, so it samples the speed inside
every phase, a long set-up or a 15 s LP solve too.

Between two probes lies a stretch of the program's work. A timed interval
is reported at reference speed: each stretch in it is scaled by `REF_S`
over the median time of the `LOCAL` probes around the stretch, and the
probes themselves are left out. Interleaved this way, the times of query
batches, exact LP solves and brute-force searches spread by 0.02 to 0.05
of their median over 15 s windows, against 0.08 to 0.12 unscaled.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# The probe's time at this machine's usual speed (2.1 GHz Xeon, Python 3.11):
# scaled times read about as the seconds such a machine takes.
REF_S = 0.0011
LOCAL = 6  # probes whose median gives the speed of the stretch in their middle
LOOP = 6000
HARMONIC = 120


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # start of each probe
        self.end: list[float] = []  # its end
        self._factors: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):  # interpreter arithmetic
            s += i * i % 7
        h = Fraction(0)
        for i in range(1, HARMONIC):  # allocation and big integers, as in the exact LP
            h += Fraction(1, i)
        self.at.append(t0)
        self.end.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self) -> list[float]:
        """Speed factor of each stretch; stretch k ends where probe k starts."""
        n = len(self.at)
        if n < LOCAL:
            raise RuntimeError(f"only {n} speed probes ran")
        if len(self._factors) != n + 1:
            took = [e - a for a, e in zip(self.at, self.end)]
            self._factors = []
            for k in range(n + 1):
                i = min(max(k - LOCAL // 2, 0), n - LOCAL)
                self._factors.append(REF_S / statistics.median(took[i:i + LOCAL]))
        return self._factors

    def work(self, t0: float, t1: float) -> tuple[float, float]:
        """Time of the program's work in [t0, t1]: plain, and at reference speed."""
        factors = self.factors()
        plain = scaled = 0.0
        for k in range(bisect.bisect_right(self.at, t0), bisect.bisect_left(self.end, t1) + 1):
            lo = max(t0, self.end[k - 1]) if k else t0
            hi = min(t1, self.at[k]) if k < len(self.at) else t1
            if hi > lo:
                plain += hi - lo
                scaled += (hi - lo) * factors[k]
        return plain, scaled

    def scaled(self, t0: float, t1: float) -> float:
        return self.work(t0, t1)[1]

    def factor(self, t0: float, t1: float) -> float:
        """Reference time over plain time for the work in [t0, t1]."""
        plain, scaled = self.work(t0, t1)
        return scaled / plain
