"""Host speed: a fixed CPU kernel timed alongside the measured operations.

On a shared host a vCPU runs up to 1.7× slower for spells of a fraction
of a second to several seconds, and the share of time spent in such
spells drifts over minutes as other tenants' load comes and goes, at
times to a host 2.5× slower throughout; every operation of a run slows
with it.  The kernel below is benchmark code that no change under test
touches, so its time moves only with the host.  A run times it
(``sample``) before every child process it starts and between the
rounds and cycles of the fit and serve children, so the samples spread
over the run as the operations do, and reports its mean times scaled
by ``REFERENCE_MS`` over the run's mean kernel time: times on a host
running at the reference speed.  The report prints the raw times and
the factor next to them.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from benchmarks.e2e import stats

__all__ = ["REFERENCE_MS", "sample", "scale"]

REFERENCE_MS = 12.0
"""The kernel's mean time on the reference host, a 2-vCPU Intel Xeon
virtual machine, in a quiet spell (12–13 ms measured)."""
KERNELS_PER_SAMPLE = 4
TRIM_SHARE = 0.1
"""Share of the fastest and of the slowest kernel times the mean leaves
out: single kernel runs were seen to take up to 5× the typical time
while the operations around them did not slow (most often right after
a paper-cold run has written and deleted its cache)."""


def _kernel_s() -> float:
    """Run the kernel once and return its wall time in seconds.

    Interpreter work (dict updates, float arithmetic) and small dense
    linear algebra, the two kinds of work the workloads do.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(60000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] / (k + 1)
    a = np.random.default_rng(0).standard_normal((200, 12))
    for _ in range(150):
        np.linalg.solve(a.T @ a + np.eye(12), a.T @ a[:, 0])
    return time.perf_counter() - start


def sample() -> List[float]:
    """Time the kernel ``KERNELS_PER_SAMPLE`` times, in seconds."""
    return [_kernel_s() for _ in range(KERNELS_PER_SAMPLE)]


def scale(samples_s: Sequence[float]) -> float:
    """The factor that turns a run's times into reference-host times."""
    return REFERENCE_MS / 1000.0 / stats.trimmed_mean(samples_s, TRIM_SHARE)
