"""Machine-speed references used to normalise reported times.

The shared machine switches between a fast and a slow state (about
1.7x apart) and the share of time in each differs from run to run.  In
six 15 s runs on 2 vCPUs the median of one fixed certification pass
ranged over 36 %.  A reference is a fixed piece of work that does not
use sicmub and slows down with the machine; each run samples its
workload's reference between operations, outside the timed intervals,
and divides every operation time by the reference's mean slowdown
over the run: one rule for means, medians and tails.  Dividing each
operation by the slowdown of the 8 samples nearest to it instead did
not steady the tails: over ten seeds the p95 tail of search-certify
spread 0.088 (IQR/median) that way and 0.056 this way, the p80 tail of
search-exhaust 0.172 and 0.149.

``SpeedReference`` is a kernel of 3x3 numpy calls and Python arithmetic,
for the workloads that call sicmub in-process: the mean certification
pass time divided by the mean kernel time varied by 1.6 % where the raw
pass time varied by 36 %.  It does not follow process start, so cold
``sicmub`` processes use ``ImportReference``, a fresh interpreter that
imports numpy: in five 20 s runs the mean cli call ranged over 222-286
ms and its ratio to the mean reference time over 1.45-1.57, while the
ratio to the numpy kernel ranged over 113-136.  Set-up is process
start and imports too, so ``setup_s`` on every workload is divided by
the mean slowdown of an ``ImportReference`` sampled before each set-up
probe.  Raw wall times and the slowdowns are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_MATRICES = 120


class _Reference:
    #: Reference time that defines reference speed (about its median on 2.1 GHz Xeon vCPUs).
    nominal_s: float
    #: Minimum gap between two samples during a run.
    interval_s: float

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def _work(self) -> None:
        raise NotImplementedError

    def sample(self) -> float:
        start = perf_counter()
        self._work()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self._last = perf_counter()
        return elapsed

    def tick(self) -> None:
        """Sample the reference if ``interval_s`` has passed since the last sample."""
        if perf_counter() - self._last >= self.interval_s:
            self.sample()

    def mean_slowdown(self) -> float:
        """Mean reference time over nominal: how much slower than reference speed the run went."""
        return statistics.fmean(self.samples) / self.nominal_s


class SpeedReference(_Reference):
    nominal_s = 0.002
    interval_s = 0.02

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(14043774)
        g = rng.standard_normal((_MATRICES, 3, 3)) + 1j * rng.standard_normal((_MATRICES, 3, 3))
        self._mats = [m @ m.conj().T for m in g]

    def _work(self) -> None:
        acc = 0.0
        for a in self._mats:
            w = np.linalg.eigvalsh(a)
            acc += float(np.einsum("ab,ba->", a, a).real) + sum(float(x) for x in w)


class ImportReference(_Reference):
    nominal_s = 0.15
    #: After about every second cli call; sampling takes about a quarter of the run.
    interval_s = 0.4

    def _work(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True)
