"""Machine-speed reference: wall times scaled to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts with load from
elsewhere: one identical 16-start solve takes 250 to 370 ms within a
single minute, in phases that last seconds to minutes.  A fixed reference
task, timed now and then between ops on the same CPU, slows down with it.

``SpeedTrack`` runs the reference task at most every ``INTERVAL_S``
seconds, outside any timed region, and scales a wall time taken at time
``t`` by ``reference_s / r(t)``, where ``r(t)`` is the mean reference
time within ``WINDOW_S`` seconds of ``t``, less its highest and lowest
sample.  A mean, not a median: the host flips between a fast and a slow
state many times a second, so an op's time follows the share of time
spent in each, which the mean tracks and a median of the two modes does
not.  A scaled time reads as the time the op would take on a machine
where the reference task takes ``reference_s``.  The constants below are
the reference tasks' typical times on the benchmark host (2-vCPU KVM
guest, Intel Xeon, Python 3.11), so scaled and raw times are close there.

Two reference tasks match the two kinds of work the workloads do:

* ``newton``: damped Newton steps with Armijo backtracking on a fixed
  5-variable log-barrier problem (small numpy arrays, a 5x5 solve and a
  frozen dataclass per step), like the solver's inner loop.
* ``bulk``: elementwise arithmetic over three 1e5-element float64 arrays,
  like the screening round's vectorised objective and Monte Carlo.

On the benchmark host, over two minutes, the ratio of a fixed 2-start
solve to a twice-as-long ``newton`` varied by 2.8% (coefficient of
variation of 6 s medians) while the solve alone varied by 9.9%; a plain
arithmetic loop only brought it to 6.2%.  A screening round over
``bulk`` on 1e6-element arrays varied by 2.9% against 6.1% alone.

The program under test never runs inside the reference tasks, so no
change to it can move them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.25
WINDOW_S = 3.0
MIN_SAMPLES = 5


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: float
    d: float
    e: float


_Q = np.diag([2.0, 3.0, 1.5, 1.0, 2.5]) + 0.1
_LIN = np.array([-1.0, 0.5, -0.3, 0.2, -0.7])


def _barrier(z: np.ndarray, mu: float) -> float:
    return float(0.5 * z @ _Q @ z + _LIN @ z
                 - mu * np.sum(np.log(z) + np.log(1.0 - z)))


def newton_task() -> float:
    total = 0.0
    for mu in (1.0, 0.1, 0.01, 1e-3):
        z = np.full(5, 0.5)
        for _ in range(12):
            p = _Point(*z.tolist())
            f0 = _barrier(z, mu)
            g = _Q @ z + _LIN - mu * (1.0 / z - 1.0 / (1.0 - z))
            H = _Q + mu * np.diag(1.0 / z**2 + 1.0 / (1.0 - z) ** 2)
            dz = np.linalg.solve(H, -g)
            t = 1.0
            while True:
                zn = z + t * dz
                if np.all(zn > 0.0) and np.all(zn < 1.0) and \
                        _barrier(zn, mu) <= f0 + 1e-4 * t * float(g @ dz):
                    break
                t *= 0.5
            z = zn
            total += p.a + math.sqrt(abs(p.e))
    return total


_BULK = np.random.default_rng(0).random((3, 100_000))


def bulk_task() -> float:
    a, b, c = _BULK
    h = (2.0 * a**2 + 3.0 * b**2) / 5.0
    d = 0.3 * a + 0.5 * b + 0.2 * c
    return float(np.sum(1.5 * h - 0.7 * d + np.hypot(a, c)))


TASKS = {"newton": (newton_task, 9.0e-3), "bulk": (bulk_task, 4.5e-3)}


class SpeedTrack:
    """Reference-task times over a run, and the scale they imply."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.task, self.reference_s = TASKS[kind]
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def probe(self) -> float:
        """Time the reference task once; return the wall time spent."""
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def pause(self) -> float:
        """Probe if ``INTERVAL_S`` has passed since the last probe; return
        the wall time spent, to be left out of the op being timed."""
        t0 = time.perf_counter()
        if t0 - self._last >= INTERVAL_S:
            self.probe()
        return time.perf_counter() - t0

    def scale(self, t: float) -> float:
        """reference_s over the trimmed mean probe time within
        ``WINDOW_S`` of ``t``, widened to the ``MIN_SAMPLES`` nearest
        probes."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            if lo > 0 and (hi >= len(self.times)
                           or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        window = sorted(self.seconds[lo:hi])
        if len(window) >= MIN_SAMPLES:
            window = window[1:-1]
        return self.reference_s / statistics.fmean(window)

    def scaled(self, seconds: float, t: float) -> float:
        return seconds * self.scale(t)

    def summary(self) -> dict:
        return {"kind": self.kind, "reference_s": self.reference_s,
                "probes": len(self.seconds),
                "median_s": statistics.median(self.seconds)
                if self.seconds else None,
                "samples": [[t - self.times[0], s] for t, s in
                            zip(self.times, self.seconds)]}
