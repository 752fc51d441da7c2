"""Host-speed probes: fixed pieces of work, timed next to every operation.

The benchmark runs on shared hosts whose speed drifts: a fixed Python loop,
timed in 35 ms windows, moved between about 25 and 35 ms in phases that last
seconds.  Timing operations in CPU time removes the time the host withholds
from the virtual CPU (steal), but not the drift in how fast the CPU runs
while it has it.  So each operation is followed by a probe, whose work never
changes, and its CPU time is rescaled to the speed at which the probe takes
its reference time: ``op_cpu_s * reference_s / probe_s``.

Drift moves interpreted code and memory-bound array code by different
shares, so each workload uses the probe that resembles its own hot path:

- ``python``: interpreted integer arithmetic, for the workloads dominated by
  per-call overhead and loops of small numpy operations;
- ``bootstrap``: draw 1000 resamples of a 1000-sample column as int32
  indices and average the gathered values, the Monte Carlo bootstrap's
  kernel.

The probes' inputs are fixed and do not depend on the workload seed.
"""
from __future__ import annotations

import resource
import time

import numpy as np


def _python() -> int:
    total = 0
    for j in range(20_000):
        total += j * j % 7
    return total


_COLUMN = np.random.default_rng(0).random(1000)


def _bootstrap() -> float:
    # Four blocks of 250 resamples, so that the probe adds at most 3 MB to
    # the process's peak resident set, which the benchmark reports.
    rng = np.random.default_rng(1)
    total = 0.0
    for _ in range(4):
        idx = rng.integers(0, _COLUMN.size, size=(250, _COLUMN.size), dtype=np.int32)
        total += float(_COLUMN[idx].mean(axis=1).sum())
    return total


WORK = {"python": _python, "bootstrap": _bootstrap}

# CPU seconds of one probe on the machine the benchmark was calibrated on
# (two-CPU KVM guest, Intel Xeon family 6 model 207, Python 3.11, numpy 2.4),
# in its common, slower phase.  Only the scale of the reported times depends
# on them; comparisons between versions of the program do not.
REFERENCE_S = {"python": 0.002, "bootstrap": 0.012}


def cpu_s() -> float:
    """CPU seconds used by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe(kind: str, reps: int) -> float:
    """CPU seconds of one probe of ``kind``, averaged over ``reps`` runs.

    An untimed run first brings the probe's code and data back into the
    caches, so that what the operation before it left there does not count.
    """
    work = WORK[kind]
    work()
    t0 = cpu_s()
    for _ in range(reps):
        work()
    return (cpu_s() - t0) / reps


def scale(kind: str, before: float, after: float) -> float:
    """Factor that rescales a CPU time measured between two probes of
    ``kind`` to the reference speed."""
    return REFERENCE_S[kind] / ((before + after) / 2)
