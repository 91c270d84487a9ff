"""Host-speed normalization of the benchmark's timings.

The benchmark host is a few cores of a shared machine whose speed
drifts: a fixed piece of work runs up to about a third slower in some
stretches of seconds to minutes than in others.  Host seconds measured
in different stretches are not comparable, and no median inside one run
removes a stretch that covers the whole run.

``HostSpeed`` measures the drift while the workload runs.  An interval
timer (``SIGALRM`` every ``INTERVAL_S``) runs ``kernel`` — a fixed mix
of interpreter-bound object code and small-array NumPy work, the kinds
of work the program does, written here and calling nothing of the
program — and records how long it took.  A timed interval of the
workload is then reported in *reference seconds*:

    reference seconds = program seconds x REFERENCE_KERNEL_S / median kernel time

where *program seconds* are host seconds minus the time the sampler
itself spent, a sample is the fastest of ``CALLS_PER_SAMPLE``
back-to-back calls, and the median is over the samples taken inside
that interval (over the whole run when the interval holds fewer than
``MIN_SAMPLES``).  On a host running the kernel in exactly
``REFERENCE_KERNEL_S``, reference seconds are host seconds.  A change
to the program moves reference seconds exactly as it moves host
seconds: the kernel does not depend on the program.

The correction is partial, and a sample has noise of its own.  On the
2-core benchmark host, over two sets of ten 35 s runs per workload, the
spread of a run's host ``wall_s`` (quartile distance over median) was
0.113 and 0.066 on ``paper-figures``, 0.169 and 0.071 on
``bigmesh-matrix``, 0.071 and 0.074 on ``service-overlap``; in
reference seconds it was 0.077 and 0.033, 0.129 and 0.063, 0.044 and
0.061.  In one 8 s stretch where fixed simulations ran 17-21% faster a
similar kernel ran 10% faster.  The kernel tracks CPU speed only.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from collections import deque
from time import perf_counter

import numpy as np

#: Typical sampled ``kernel`` time on the reference host (2-core Intel
#: Xeon, Python 3.11, NumPy 2.4).
REFERENCE_KERNEL_S = 0.0006
#: Seconds between two samples (about 1% of the run).
INTERVAL_S = 0.2
#: Kernel calls per sample; the fastest is the sample.
CALLS_PER_SAMPLE = 3
#: Fewer samples than this inside an interval: use the run's median.
MIN_SAMPLES = 8

_RNG = np.random.default_rng(12345)
_DEST = _RNG.integers(0, 1280, size=3600)
_PORT = _RNG.integers(0, 5, size=3600)


class _Router:
    """A credit-limited queue: the object code of the engines."""

    __slots__ = ("credits", "queue")

    def __init__(self) -> None:
        self.credits = 4
        self.queue: deque = deque()

    def offer(self, flit: tuple) -> bool:
        if self.credits:
            self.credits -= 1
            self.queue.append(flit)
            return True
        return False

    def drain(self):
        self.credits += 1
        return self.queue.popleft() if self.queue else None


def kernel() -> int:
    """A fixed ~0.5 ms of the program's kinds of work, not its code.

    Router objects with credits and deques, a JSON round trip, and the
    fast engine's NumPy operations (``add.at``, ``minimum.at``,
    ``bincount``, ``flatnonzero``, fancy indexing) on 16x16x5-sized
    arrays.  Its data stays small, so how much of the cache the program
    leaves it barely changes its time.
    """
    routers = [_Router() for _ in range(32)]
    acc = 0
    for i in range(400):
        router = routers[(i * 7) & 31]
        if not router.offer((i, i & 3)):
            flit = router.drain()
            acc += flit[0] if flit else 0
    acc += len(json.loads(json.dumps(
        {f"u{i}": [i, f"{i:x}"] for i in range(40)})))
    occupancy = np.zeros(1280, dtype=np.int64)
    best = np.full(1280, 1 << 30, dtype=np.int64)
    for i in range(12):
        dest = _DEST[i * 300:(i + 1) * 300]
        np.add.at(occupancy, dest, 1)
        np.minimum.at(best, dest, _PORT[i * 300:(i + 1) * 300] + i)
        counts = np.bincount(_PORT, minlength=5)
        occupancy[np.flatnonzero(occupancy > i)] -= 1
        acc += int(counts[i % 5])
    return acc + int(best.min())


class HostSpeed:
    """Samples the kernel on a timer; converts host to reference time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.spent = 0.0          # host seconds inside the handler
        self._previous = None

    def start(self) -> None:
        kernel()                  # first call allocates; not a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        # The fastest of a few back-to-back calls, with the collector
        # paused: the first call pays for the caches the program left
        # cold, and a collection would time the program's heap.
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        best = float("inf")
        for _ in range(CALLS_PER_SAMPLE):
            t = perf_counter()
            kernel()
            best = min(best, perf_counter() - t)
        if collecting:
            gc.enable()
        self.samples.append((t0, best))
        self.spent += perf_counter() - t0

    def program_clock(self) -> float:
        """Host seconds, not counting the sampler's own time."""
        return perf_counter() - self.spent

    def factor(self, t0: float | None = None,
               t1: float | None = None) -> float:
        """Reference seconds per program second in host ``[t0, t1)``."""
        inside = [d for t, d in self.samples
                  if t0 is not None and t0 <= t < t1]
        if len(inside) < MIN_SAMPLES:
            inside = [d for _, d in self.samples]
        if not inside:
            return 1.0
        return REFERENCE_KERNEL_S / statistics.median(inside)

