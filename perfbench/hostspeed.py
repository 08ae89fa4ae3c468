"""Host speed index, for timings taken on a shared machine.

On a host whose cores other tenants share, the same code runs up to ~50%
slower for spells of milliseconds to minutes.  While a pass runs, a timer
signal makes the measured thread itself run and time a small fixed kernel
every PERIOD_S: a Python loop over tuples, dicts and numpy scalar lookups,
and fancy-indexed table lookups with counts over uint8 arrays, which is
what hermgrass spends its time on.  An operation's normalized time is its
measured time, less the kernel runs that interrupted it, times the mean
over the kernel runs around it of NOMINAL_S / kernel CPU time: the time it
would take at the speed the host has when quiet.  The kernel is benchmark
code, so a change to hermgrass moves a normalized time exactly as it moves
the measured one.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

import numpy as np

# Kernel time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4) when quiet: the fixed scale that makes normalized times read as
# seconds.  Changing it rescales every normalized time.
NOMINAL_S = 0.001
# The kernel takes about 2% of the measured thread's time.
PERIOD_S = 0.05

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 64, (64, 64)).astype(np.uint8)
_ROW = _rng.integers(0, 64, 4096).astype(np.uint8)


def kernel():
    table, acc, seen = _TABLE, 0, {}
    for i in range(1200):
        key = (i & 63, (i >> 6) & 63)
        acc = (acc + int(table[key])) % 1000003
        seen[key] = acc
    x = _ROW
    for _ in range(15):
        x = _TABLE[x, _ROW]
        acc += int(np.count_nonzero(x))
    return acc


class Sampler:
    """Context manager that runs `kernel` every PERIOD_S from a SIGALRM
    handler and keeps (start time, CPU seconds) of each run.  The handler
    runs on the main thread, so the kernel meets the same core, neighbours
    and caches as the work measured on that thread, or as a child process
    pinned to the same core while the main thread waits for it."""

    def __init__(self):
        self.runs = []

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        # CPU time of this thread, so that time the core spends on other
        # work (a pinned child process, say) does not count as kernel time
        start, cpu = perf_counter(), thread_time()
        kernel()
        self.runs.append((start, thread_time() - cpu))

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of an interval [start, end] of the measured
        thread's work, from the kernel runs that began within two periods
        of it.  Call after the context has exited."""
        near = [(s, k) for s, k in self.runs if start - 2 * PERIOD_S <= s <= end + 2 * PERIOD_S]
        if not near:
            raise RuntimeError("no host speed sample near the interval")
        inside = sum(k for s, k in near if start <= s <= end)
        speed = sum(NOMINAL_S / k for _, k in near) / len(near)
        return (end - start - inside) * speed
