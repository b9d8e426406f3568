"""Timing against a fixed reference loop sampled while the program runs.

The 2-core machine the reference figures come from runs the same code up to
about 1.9x slower in some phases, and a phase can last from a second to
minutes. CPU time equals wall time in those phases, so they are not time spent
off the CPU, and a fixed loop of interpreter and small-array NumPy work slows
down with them.

:class:`SpeedSampler` runs one pass of :func:`reference_work` every
:data:`SpeedSampler.INTERVAL_S` of wall time from a ``SIGALRM`` handler, also
in the middle of a timed step. A step's time is its wall time minus the time
spent in the handler, divided by the median reference time from a window
around the step, times :data:`REF_NOMINAL_S`: it reads in seconds at the
speed the machine has in its quiet phases. Samples taken only before and
after a 3 s training step tracked its slow phases less well: over 14
back-to-back trainings the quartile spread was 14 % raw, 9 % with bracketing
samples and 6 % with samples taken during the step.

The reference loop calls nothing in ``qres``, so a change to the program
moves the program's timings and leaves the reference alone.
"""
from __future__ import annotations

import bisect
import dataclasses
import enum
import signal
import statistics
import time

import numpy as np

#: About the seconds one :func:`reference_work` pass takes on the reference
#: machine (a 2-core x86-64 VM) in a quiet phase.
REF_NOMINAL_S = 0.0002


class _Code(enum.IntEnum):
    A = 1
    B = 2
    C = 3
    D = 4
    E = 5
    F = 6
    G = 7
    H = 8
    I = 9
    J = 10
    K = 11
    L = 12


@dataclasses.dataclass
class _Vector:
    kind: int
    values: dict


_CODES = list(_Code)
_rng = np.random.default_rng(20120801)
_FEAT = _rng.integers(1, 13, size=(9, 40))
_THR = _rng.random((9, 40))
_POW2 = (2.0 ** np.arange(9)).astype(np.float32)
_LEAF = _rng.integers(0, 10, size=40 * 512).astype(np.uint8)
_LEAF_BASE = np.arange(40) * 512
_VALUE = _rng.random(40 * 10)
_VALUE_BASE = np.arange(40) * 10
_SORT_ROWS = _rng.random((160, 12))


def reference_work() -> float:
    """One pass of a fixed mix shaped like the program's hot paths: vectors
    keyed by an ``IntEnum`` in dataclasses, a table-lookup ensemble of 40
    small trees (as in ``gbrt._Layout.predict``), and a column sort with
    prefix sums (as in split search). A mix of plain interpreter loops and
    NumPy calls tracked the program's slow phases about half as well."""
    acc = 0.0
    for r in range(6):
        vec = _Vector(kind=r, values={c: (i + r) * 0.37 for i, c in enumerate(_CODES)})
        x = np.zeros(16)
        for c in sorted(vec.values):
            x[int(c)] = vec.values[c]
        left = (x.take(_FEAT) <= _THR).astype(np.float32)
        leaf = _LEAF.take(_LEAF_BASE + (_POW2 @ left).astype(np.intp))
        acc += float(_VALUE.take(_VALUE_BASE + leaf).sum())
        acc += max(abs(vec.values[c] - 0.5) for c in _CODES)
    order = np.argsort(_SORT_ROWS, axis=0, kind="stable")
    acc += float(np.cumsum(np.take_along_axis(_SORT_ROWS, order, axis=0), axis=0)[-1, 0])
    return acc


def reference_pass() -> float:
    """Seconds taken by one pass of :func:`reference_work`."""
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


class SpeedSampler:
    """Samples the reference loop on a wall-clock timer.

    Use :meth:`stamp` before and after a step, :meth:`work_s` for its time
    without the handler's, and, once the run is over, :meth:`factor` for its
    scale from raw to nominal seconds.
    """

    INTERVAL_S = 0.01
    #: Samples this far before and after a step count towards its speed.
    WINDOW_S = 0.1

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.handler_s = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while the handler runs
            return
        self._busy = True
        t = time.perf_counter()
        self.took.append(reference_pass())
        self.at.append(t)
        self.handler_s += time.perf_counter() - t
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def stamp(self) -> tuple[float, float]:
        """``(wall clock, handler seconds so far)``."""
        return time.perf_counter(), self.handler_s

    def work_s(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two stamps, less the time spent in the handler."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def factor(self, t0: float, t1: float) -> float:
        """Raw to nominal seconds for a step that ran from ``t0`` to ``t1``."""
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        if hi - lo < 3:  # fall back to the nearest samples on both sides
            lo, hi = max(0, lo - 3), min(len(self.at), hi + 3)
        return REF_NOMINAL_S / statistics.median(self.took[lo:hi])
