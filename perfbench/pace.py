"""Host pace: scale measured times to a fixed reference pace.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, in phases of about 10 s to an hour and in swings of tens of
milliseconds, for every process on it: a fixed `Fraction` loop drifts as
much as the program does, and process CPU time follows wall time.  A
workload whose ops the kernel below tracks (README, "Host pace") sets
PACED; the benchmark then times the kernel next to its ops and reports each
time at the pace where the kernel takes REF_S:

    scaled = measured * REF_S / kernel time around the measurement

The kernel does a `Fraction` mat-vec, tuple-keyed dict updates and
big-integer modular steps.  It uses nothing of extmukai, so a change to the
program moves the scaled times exactly as it moves the measured ones; only
the host's pace is divided out.  A sample is the fastest of REPEATS kernel
runs with the cyclic garbage collector paused, so that garbage the ops
leave is not charged to the kernel.  Samples are taken between ops and
between set-up stages, never inside a timed stretch.  Unpaced, the
Stopwatch and the Pacer take no samples and leave every time as measured.
"""

import gc
import statistics
from fractions import Fraction as Q
from time import perf_counter

REF_S = 0.005  # scaled times are at the pace where kernel() takes 5 ms
REPEATS = 3  # kernel runs per sample; the fastest counts
EDGE_SAMPLES = 3  # samples at each end of a Stopwatch lap
SLICE_S = 0.25  # op time between two Pacer samples
WINDOW = 11  # Pacer samples whose median scales one op

_M = [[Q(7 * i + 3 * j - 20, 1 + (i + 2 * j) % 5) for j in range(10)] for i in range(10)]
_MOD = 7**500


def kernel():
    v = [Q(i - 4, 3) for i in range(10)]
    for _ in range(12):
        v = [sum((a * b for a, b in zip(row, v)), Q(0)) / 7 for row in _M]
        v = [Q(x.numerator % 1000003, 1 + x.denominator % 97) for x in v]
    d = {}
    for i in range(1500):
        k = (i % 37, (i * 7) % 11, i % 5)
        d[k] = d.get(k, 0) + i
    x = 3**400
    for i in range(200):
        x = (x * 12345 + i) % _MOD
    return v, d, x


def sample():
    """Seconds one kernel run takes at the host's current pace."""
    was = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            t = perf_counter()
            kernel()
            dt = perf_counter() - t
            best = dt if best is None or dt < best else best
    finally:
        if was:
            gc.enable()
    return best


def factor(samples):
    """What takes a time measured among `samples` to the reference pace."""
    return REF_S / statistics.median(samples) if samples else 1.0


class Stopwatch:
    """Times a stretch of work in laps, as measured and scaled.

    Paced, it takes EDGE_SAMPLES samples between laps, untimed; a lap is
    scaled by the median of the samples at both of its ends.
    """

    def __init__(self, paced):
        self.paced = paced
        self.edge = self._edge()
        self.raw = self.scaled = 0.0
        self.t = perf_counter()

    def _edge(self):
        return [sample() for _ in range(EDGE_SAMPLES)] if self.paced else []

    def lap(self):
        dt = perf_counter() - self.t
        edge = self._edge()
        self.raw += dt
        self.scaled += dt * factor(self.edge + edge)
        self.edge = edge
        self.t = perf_counter()


class Pacer:
    """Scales each op time by the host's pace around the op.

    `add(dt, item)` records a measured op time.  Paced, once SLICE_S
    seconds of op time have been recorded since the last sample, it takes
    another before the next op.  `close()` returns (scaled dt, item) for
    every op; an op is scaled by the median of the WINDOW samples nearest
    to it.  Back-to-back samples swing by up to 2x; the median of eleven
    moves with the host's phases.
    """

    def __init__(self, paced):
        self.paced = paced
        self.samples = [sample()] if paced else []
        self.timed = []  # (dt, index of the last sample before the op, item)
        self.queued_s = 0.0

    def add(self, dt, item):
        self.timed.append((dt, len(self.samples) - 1, item))
        self.queued_s += dt
        if self.paced and self.queued_s >= SLICE_S:
            self.samples.append(sample())
            self.queued_s = 0.0

    def close(self):
        if self.paced and (self.queued_s or len(self.samples) < 2):
            self.samples.append(sample())
        n, w = len(self.samples), min(WINDOW, len(self.samples))
        out = []
        for dt, i, item in self.timed:
            lo = max(0, min(i - (w - 1) // 2, n - w))
            out.append((dt * factor(self.samples[lo:lo + w]), item))
        return out
