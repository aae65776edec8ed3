"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark's host is shared, and the speed it gives one process drifts
by tens of percent over minutes: the same pass of a workload can take 60%
longer twenty minutes later. To take that drift out of the timed metrics,
a timed run interleaves a fixed reference kernel with the workload and
scales every time it reports to the speed at which each part of the
kernel takes ``REFERENCE_S``:

    reported = measured * k * REFERENCE_S / (mean time of its k parts)

The kernel is the benchmark's own code and never calls qsalign, so a
change to the program moves a scaled time by the same share as the
measured one. It does what the program's gate simulation does most:
index masks, gathers and scatters on a complex state vector. It has two
parts, timed apart, because the drift does not reach all work alike:
``narrow`` works on 2^9 amplitudes, where per-call overhead dominates,
and ``wide`` on 2^15, where memory traffic does. Each operation class
of a workload is scaled by the part, or the sum of both parts, nearest
its own work (workloads.py).

``Gauge`` runs both parts from an interval timer (SIGALRM), between two
bytecodes of whatever the workload is doing, so it samples the speed
evenly over the run, inside long operations too. Each sample is filed
under the label of the operation it interrupted, so that a class of
short operations is scaled by the speed while those operations ran, not
by the run's average. The time spent in the kernel is taken out of the
operation times.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the reference speed: each part takes this long (about what it takes on
# the 2-vCPU Xeon VM of the baseline)
REFERENCE_S = 0.004
INTERVAL_S = 0.1

# part -> (state qubits, gates applied)
PARTS = {"narrow": (9, 135), "wide": (15, 10)}
_STATES = {
    n: np.random.default_rng(n).standard_normal(1 << n) * (1 + 0j) for n, _ in PARTS.values()
}
_INDICES = {n: np.arange(1 << n, dtype=np.int64) for n, _ in PARTS.values()}


def _rotate(amps: np.ndarray, idx: np.ndarray, target: int, control: int) -> None:
    mask = ((idx >> target) & 1) == 0
    mask &= ((idx >> control) & 1) == 1
    i0 = np.nonzero(mask)[0]
    i1 = i0 | (1 << target)
    a = amps[i0].copy()
    b = amps[i1]
    amps[i0] = 0.6 * a - 0.8 * b
    amps[i1] = 0.8 * a + 0.6 * b


def kernel(part: str) -> float:
    """One fixed unit of work; returns a value so none of it is skipped."""
    n, gates = PARTS[part]
    amps = _STATES[n].copy()
    idx = _INDICES[n]
    for g in range(gates):
        _rotate(amps, idx, g % n, (g // n + g + 1) % n)
    return float(np.vdot(amps, amps).real)


class Gauge:
    """Interleave the kernel with the timed work; use as a context manager."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.label = None  # the operation running now, set by the caller
        self.samples: dict[object, list[dict[str, float]]] = {}
        self.spent = 0.0  # seconds inside the kernel so far
        self._on = False

    def _tick(self, signum, frame) -> None:
        self.sample()
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def sample(self) -> None:
        took = {}
        for part in PARTS:
            start = time.perf_counter()
            kernel(part)
            took[part] = time.perf_counter() - start
        self.samples.setdefault(self.label, []).append(took)
        self.spent += sum(took.values())

    def clock(self) -> float:
        """``perf_counter`` less the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def taken(self, parts, labels=None) -> list[float]:
        """Summed times of ``parts`` in each sample filed under any of
        ``labels``, or under any label."""
        return [sum(took[part] for part in parts) for label, samples in self.samples.items()
                if labels is None or label in labels for took in samples]

    def scale(self, parts, labels=None) -> float:
        """Factor from measured seconds to seconds at the reference speed,
        as ``parts`` ran during the operations under ``labels``."""
        return REFERENCE_S * len(parts) / statistics.fmean(self.taken(parts, labels))
