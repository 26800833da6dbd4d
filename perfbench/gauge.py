"""The host-speed gauge: a fixed slice of reference work, run between the
program's calls during the timed phase.

The host gives this process a share of physical cores that other
machines also use, and its speed flips between a fast and a slow mode
(about 1.7× apart for one slice) from one few-millisecond slice to the
next.  How much of a run falls in the slow mode drifts from minute to
minute, and it moved raw rates by 20–40% between runs of the same code.
Slices taken *between* the program's calls sample the same mix of modes
as the calls themselves, so

    program time × SLICE_SECONDS ÷ mean slice time

holds steady where raw time does not: over repeats of one session in
one process it varied by 1.4–3% (coefficient of variation), against
11–18% raw.  The slice is benchmark code that calls nothing of the
program, so a faster program moves the normalised figure by as much as
it moves the raw one.  Time spent in slices is kept out of every
measured span (:attr:`HostGauge.paused`).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

#: What one slice takes on the host the figures are scaled to.  It sets
#: the scale of every normalised timing metric, so changing it, or
#: changing :func:`reference_slice`, is a change to the benchmark.
SLICE_SECONDS = 1e-3

#: A latency is scaled by the slices taken during it and this many
#: before it: the host's speed near that call.
RECENT_SLICES = 8

_rng = np.random.default_rng(20221)
_SPD = _rng.standard_normal((60, 60))
_SPD = _SPD @ _SPD.T + 60 * np.eye(60)
_RHS = _rng.standard_normal((60, 4))
_ROWS = _rng.random((200, 16))


def reference_slice() -> None:
    """The three kinds of work a tuning iteration does: interpreted
    Python over dicts, small numpy array ops, and a small Cholesky
    factor and solve."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        total += i * i % 7
    for _ in range(15):
        scaled = _ROWS * 0.5 + 0.1
        float(np.sqrt((scaled * scaled).sum(axis=1)).max())
    for _ in range(4):
        factor = scipy.linalg.cho_factor(_SPD)
        scipy.linalg.cho_solve(factor, _RHS)


class HostGauge:
    """Runs :func:`reference_slice` on :meth:`tick` and keeps its times.

    :attr:`paused` is the total time spent in slices; a span measured
    around program calls subtracts the growth of :attr:`paused` over the
    span (:meth:`since` does).
    """

    def __init__(self):
        self.slices: list[float] = []
        self.paused = 0.0

    def tick(self) -> None:
        started = time.perf_counter()
        reference_slice()
        took = time.perf_counter() - started
        self.slices.append(took)
        self.paused += took

    def mark(self) -> tuple[float, float, int]:
        """The start of a latency: take it just after a :meth:`tick`."""
        return time.perf_counter(), self.paused, len(self.slices)

    def since(self, mark) -> float:
        """Seconds since ``mark``, without the slices taken meanwhile,
        scaled to the reference host by those slices and the
        :data:`RECENT_SLICES` before them."""
        started, paused, first = mark
        took = time.perf_counter() - started - (self.paused - paused)
        nearby = self.slices[max(0, first - RECENT_SLICES):]
        return took * SLICE_SECONDS / statistics.fmean(nearby)

    def scale(self) -> float:
        """Factor from this run's seconds to the reference host's."""
        return SLICE_SECONDS / statistics.fmean(self.slices)
