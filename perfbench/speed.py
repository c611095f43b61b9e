"""The machine's current speed, from a fixed reference computation.

On a shared host the same pass of the same program runs up to twice as
fast or as slow from one second to the next, as the machine's other
tenants come and go, and how much of a run falls in the fast phases
differs from run to run. A pass's wall time alone therefore spreads
more between runs than the bounds the benchmark sets. So between
operations, outside their timers, a run times a small fixed computation
(plain Python and small numpy arrays, as the program is, and none of the
program's code): a pass's wall time divided by the mean time of the
slices taken during it is the pass's cost in reference slices, in which
the machine's speed cancels. A change to the program moves it as it
moves wall time; nothing the program does changes the slice.

Set-up, a fresh interpreter's start, spreads the same way. Its wall
time is divided by the median time of every slice the run takes (one
just before and one just after each start, and those between
operations) and given in seconds at NOMINAL_SLICE_S: the time set-up
would take on a host where one slice takes 2.5 ms.
"""

from __future__ import annotations

import time

import numpy as np

SLICE_STEPS = 150      # one slice: about 2-3 ms on a 2.1 GHz Xeon core
INTERVAL_S = 0.05      # at most one slice per 50 ms of the workload's time
NOMINAL_SLICE_S = 2.5e-3

_A = np.array([[-0.10, 0.02, 0.00, 0.01],
               [0.05, -0.20, 0.00, 0.00],
               [0.00, 0.10, -0.30, 0.00],
               [0.00, 0.00, 0.20, -0.05]])


def reference_slice() -> float:
    """SLICE_STEPS classical RK4 steps of a fixed 4x4 linear system."""
    x = np.ones(4)
    h = 0.01
    acc = 0.0
    for _ in range(SLICE_STEPS):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        k3 = _A @ (x + 0.5 * h * k2)
        k4 = _A @ (x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += float(x[0]) - 0.5 * float(x[1])
    return acc


def timed_slice() -> float:
    """Wall time (s) of one reference slice."""
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference slices taken between one pass's operations."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.last = 0.0

    def tick(self, force: bool = False) -> None:
        """Time one slice, unless one ended less than INTERVAL_S ago."""
        t0 = time.perf_counter()
        if self.walls and not force and t0 - self.last < INTERVAL_S:
            return
        self.walls.append(timed_slice())
        self.last = time.perf_counter()

    def slice_s(self) -> float:
        """Mean slice time over the pass, one last slice included."""
        self.tick(force=True)
        return sum(self.walls) / len(self.walls)
