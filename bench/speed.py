"""Times at a reference speed of the machine, from an interleaved yardstick.

The shared VM the benchmark was built on changes speed by up to 2x, over
tens of seconds and within a single second: a whole run can fall in a
slow or a fast spell, and raw times then spread far beyond any useful
bound.  ``Speed`` times a fixed pure-Python yardstick in a short block
right before and right after every timed call, and every ``TICK`` seconds
during it (from a SIGALRM handler, whose time is taken out of the
call's).  The call's time is then scaled by how fast the yardstick ran
across it:

    ref_seconds = seconds * Y_REF / mean(yardstick call times)

The mean leaves out samples over STALL times the median: the machine now
and then stalls the process for a tenth of a second, and one stalled
sample would outweigh a call's worth of others.  A plain median would not
do: the yardstick's speed jumps between two levels about 1.8x apart, and
a median snaps to one of them where a mean follows their mix.

The yardstick is benchmark code that never calls the program, so a faster
or slower program moves ``ref_seconds`` by the same share as ``seconds``;
only the machine's speed is divided out.  It does what the program's hot
loops do (combinations of coordinates, int masks, dict lookups,
popcounts) with the collector off and almost no allocation.
"""

from __future__ import annotations

import gc
import itertools
import signal
import statistics
import time

# one yardstick call's time in a block on the reference machine (a 2-core
# x86-64 VM, "Intel Xeon Processor" at 2.1 GHz, Python 3.11.7, at its
# median speed), so that reference times read close to its wall times
Y_REF = 4.0e-4

# yardstick calls in the block between two timed calls (about 8 ms), and
# in each sample during a call (about 2 ms), taken every TICK seconds
BLOCK_CALLS = 20
TICK_CALLS = 5
TICK = 0.05
# a sample over STALL times the median of a call's samples was stalled
STALL = 3.0


def yardstick() -> int:
    index = {}
    for n, supp in enumerate(itertools.combinations(range(11), 4)):
        index[sum(1 << c for c in supp)] = n
    acc = 0
    for key, n in index.items():
        mask = (key * 0x9E3779B1) & ((1 << 64) - 1)
        acc += (mask ^ (1 << n)).bit_count()
    return acc


def call_time(n: int) -> float:
    """Mean time of one yardstick call over n calls, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            yardstick()
        return (time.perf_counter() - t0) / n
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Scales timed calls to the reference speed.

    Around a timed call: ``start()``, the call, ``stop()``, then
    ``scale(seconds)`` with the time measured between ``start`` and
    ``stop``.  Back-to-back calls share the block between them; after
    untimed work, ``stale()`` makes the next ``start`` take a fresh one.
    """

    def __init__(self):
        self.before: float | None = None
        self.ticks: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.ticks.append(call_time(TICK_CALLS))

    def stale(self):
        self.before = None

    def start(self):
        if self.before is None:
            self.before = call_time(BLOCK_CALLS)
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, seconds: float) -> tuple[float, float]:
        """Return the call's own time, without the samples, and its
        reference time."""
        own = seconds - TICK_CALLS * sum(self.ticks)
        after = call_time(BLOCK_CALLS)
        ys = [self.before, after] + self.ticks
        cap = STALL * statistics.median(ys)
        y = statistics.fmean([v for v in ys if v <= cap])
        self.before = after
        return own, own * Y_REF / y
