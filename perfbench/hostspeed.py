"""Host-speed correction of operation times measured on a shared host.

On a host shared with other tenants the same code runs at speeds that
differ by 2x and more: a virtual CPU is slowed by its neighbours, switching
within a fraction of a second or staying slow for minutes, and it is also
taken off the CPU for whole seconds at a time. A plain median of operation
times then measures the neighbours more than the program.

While an operation runs, SpeedSampler runs a fixed probe every INTERVAL_S
seconds, from a SIGALRM handler in the operation's own thread, and times it
in that thread's CPU time, so time off the CPU does not count. Each probe
time p_i gives the CPU's speed at that moment as nominal / p_i; their mean is
its average speed during the operation. Probes call nothing from optstop.

Contention slows different work by different amounts, so each workload names
the probe whose slowdown tracks its own (workloads.py). Fitting log(operation
time) against log(probe speed) over the operations of one run on a shared
2-vCPU host gave these slopes (1 means the probe tracks the operation):
  "scalar", a loop of numpy and scipy.special calls on Python floats, as in
  the per-path simulator: 0.93 on reference, but 0.37 on oracle_lattice and
  0.57 on train_csv;
  "array", a strided cumulative sum and an elementwise exp over a fixed 8 MB
  array: 0.94 on oracle_lattice and 0.99 on train_csv, but 2.3 on reference.

Corrected times are at the speed at which the probe takes its nominal time,
with the probes' own time taken out first:
  cpu  = operation CPU time (all threads, and children it reaped) x speed
  wall = min(wall time, CPU time) x speed
The min removes the time the host kept a single-threaded operation off the
CPU (steal and run-queue waits), which shows as wall time beyond CPU time.
It assumes the operation does not wait on its own (no workload here does:
their inputs are in memory or the page cache). An operation whose BLAS
threads make CPU time exceed wall time keeps its wall time.

The handler runs between bytecodes, so a long C call (a BLAS factorization,
a numpy gather) delays the next probe until it returns. The timer is one-shot
and re-armed at the end of each probe, so probes never nest.
"""

from __future__ import annotations

import functools
import math
import resource
import signal
import time

import numpy as np
from scipy.special import erfc

INTERVAL_S = 0.025


def scalar_probe() -> float:
    """CPU seconds of this thread a fixed loop of scalar ufunc calls takes now."""
    t0 = time.thread_time()
    x = 0.5
    for _ in range(700):
        if np.ndim(x) == 0:
            x = 0.5 * float(erfc(x / math.sqrt(2.0))) + math.exp(-0.5 * x * x) * 1e-3
    return time.thread_time() - t0


@functools.cache
def _probe_array() -> np.ndarray:
    return np.arange(1_000_000, dtype=float)


def array_probe() -> float:
    """CPU seconds of this thread two fixed passes over an 8 MB array take now."""
    a = _probe_array()
    t0 = time.thread_time()
    np.cumsum(a[::3])
    np.exp(a[:150_000] * 1e-7)
    return time.thread_time() - t0


# Each probe with its time at nominal speed: about its time on an idle core
# of a 2-vCPU Xeon host.
PROBES = {"scalar": (scalar_probe, 1.0e-3), "array": (array_probe, 1.4e-3)}


def cpu_time() -> float:
    """CPU seconds of this process, all its threads, and the children it reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedSampler:
    """Context manager: probes the CPU's speed while the block runs.

    One probe runs on entry, before the timer is armed, so a block shorter
    than INTERVAL_S still has a sample. `spent_wall_s` and `spent_cpu_s` are
    the time the probes took inside the block.
    """

    def __init__(self, probe: str):
        self.probe, self.nominal_s = PROBES[probe]
        self.samples: list[float] = []
        self.spent_wall_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples.append(self.probe())
        self.spent_wall_s += time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(self.probe())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean CPU speed over the block, relative to the nominal speed."""
        return sum(self.nominal_s / p for p in self.samples) / len(self.samples)

    def corrected(self, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """(wall, cpu) of the block at nominal speed; see the module docstring."""
        speed = self.speed()
        wall, cpu = wall_s - self.spent_wall_s, cpu_s - self.spent_cpu_s
        return min(wall, cpu) * speed, cpu * speed
