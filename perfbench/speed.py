"""How fast the machine runs, sampled while an operation runs.

On a shared host the throughput of identical work drifts by tens of percent
within seconds, on every core at once. :class:`Probe` times a small fixed
kernel every ``INTERVAL_S`` of wall time while an operation runs (from a
``SIGALRM`` handler, so on the operation's own thread, between its
bytecodes), plus a few times just before and after it. The operation's time
*at reference speed* is its wall time, less the time the samples took,
times ``REFERENCE_S`` over the samples' trimmed mean: the time it would take
when the kernel takes ``REFERENCE_S``. Trimming drops the samples that a
page fault or a pending signal stretched. A slower or faster program moves this as it moves
the wall time; the machine's speed moves the operation and the kernel alike,
and cancels.

The kernel never calls the package under test, so a change to the program
cannot move it. It is half a plain-Python dict loop and half a numpy draw
and in-place sort of 10,000 normals, into a buffer allocated once (a fresh
array each time would make it time page faults, whose cost varies from one
process to the next). Over a few minutes of alternating runs of candidate
kernels and slices of the program's work (replications of the power study,
one LDG pass, ``generate_sbm``, ``load_edge_list``, ``rebalance``), the log
time of a slice against that of the dict loop alone had slopes of 0.4 to
1.0, and against the sort alone 0.9 to 1.8, varying with the slice and the
hour: the loop alone overcorrects the numpy-heavy slices and the sort alone
undercorrects the interpreter-heavy ones. The half-and-half kernel had
slopes of 0.6 to 1.3.
"""

from __future__ import annotations

import signal
import time
from typing import Any

import numpy as np

# Seconds one kernel run takes at reference speed; about its median on a
# 2-vCPU Intel Xeon at 2.1 GHz.
REFERENCE_S = 0.0005
# Wall seconds between samples while an operation runs.
INTERVAL_S = 0.05
# Samples taken just before and just after the operation.
EDGE_SAMPLES = 3
# Share of the samples dropped from each end before averaging.
TRIM = 0.2


_RNG = np.random.default_rng(0)
_BUFFER = np.empty(10_000)


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(2_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    _RNG.standard_normal(out=_BUFFER)
    _BUFFER.sort()
    return time.perf_counter() - start


class Probe:
    """Samples the kernel around and during the ``with`` block.

    Not reentrant; the block must run on the main thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        # Wall seconds the block spent in the alarm handler.
        self.handler_s = 0.0
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        entered = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.handler_s += time.perf_counter() - entered

    def __enter__(self) -> "Probe":
        self.samples.extend(kernel_seconds() for _ in range(EDGE_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(kernel_seconds() for _ in range(EDGE_SAMPLES))

    def at_reference_speed(self, wall_s: float) -> float:
        """``wall_s`` measured inside the block, less the handler's share,
        at the speed at which the kernel takes ``REFERENCE_S``."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut : len(ordered) - cut]
        return (wall_s - self.handler_s) * REFERENCE_S / (sum(kept) / len(kept))
