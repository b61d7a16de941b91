"""Host-speed calibration: a fixed kernel, timed between the measured ops.

On a shared virtual machine the CPU runs the same work at different speeds
from one moment to the next (1.5-2x apart).  The speed flips within tens of
milliseconds, and its one-second average drifts over seconds to minutes.
The benchmark therefore times a kernel between ops and reports every time
in reference seconds:

    reference time = wall time * host speed factor,
    host speed factor = mean of kernel.ref_s / kernel time over the kernel
                        runs within WINDOW_S of the op

that is, the time the op would have taken on a host where the kernel takes
kernel.ref_s.  The kernel is benchmark code and never calls the package, so
a change to the package moves reference times exactly as it moves wall
times on a steady host.

The host's fast and slow states do not speed every kind of work up alike,
so each workload has a kernel made of the kinds of work its own ops do:
interpreted Python float math, small numpy array ops, and a gather with
segment sums and exp in extended precision over arrays of a few MiB, as in
the partition sums.  The mixes were fitted on a 12-minute probe that spanned
both states: in two-second blocks, the workload's ops divided by its kernel
varied least with these shares (coefficient of variation 0.040-0.048 for
identity's and bounds-scan's ops against 0.18 unscaled, 0.024 for
exact-large's against 0.12).  `ref_s` is the kernel's time in the baseline
host's usual slow state.
"""

from __future__ import annotations

import bisect
import itertools
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

WINDOW_S = 1.0
_SMALL = np.linspace(0.5, 2.0, 64)
_TABLE = np.linspace(-1.0, 1.0, 1 << 10, dtype=np.longdouble)
_GATHER = (np.arange(1 << 18) * 7919) % (1 << 10)
_STARTS = np.arange(0, 1 << 18, 4)


@dataclass(frozen=True)
class Kernel:
    """`floats` steps of Python float math, `small` small numpy ops and
    `large` extended-precision gathers; `ref_s` is its time on the
    reference host."""

    floats: int
    small: int
    large: int
    ref_s: float

    def run(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.floats):
            acc += math.exp(-0.001 * i) * (i % 3)
            pair = (i, acc)
            acc += pair[0] * 1e-9
        for _ in range(self.small):
            acc += float((np.exp(-0.3 * _SMALL) * _SMALL).sum())
        for _ in range(self.large):
            sums = np.add.reduceat(_TABLE[_GATHER], _STARTS)
            acc += float(np.exp(-sums).sum())
        return time.perf_counter() - t0


# shares of kernel time: float math 1/3 and small numpy 2/3 for identity and
# bounds-scan; 8 %, 25 % and 67 % with the gathers for exact-large
KERNELS = {
    "identity": Kernel(floats=2500, small=300, large=0, ref_s=2.15e-3),
    "bounds-scan": Kernel(floats=2500, small=300, large=0, ref_s=2.15e-3),
    "exact-large": Kernel(floats=3400, small=570, large=1, ref_s=11.9e-3),
}


def kernel_burst(kernel: Kernel, seconds: float) -> list[float]:
    """Kernel times, run back to back until `seconds` have passed (at least one run)."""
    times = [kernel.run()]
    end = time.perf_counter() + seconds - times[0]
    while time.perf_counter() < end:
        times.append(kernel.run())
    return times


def speed_factor(kernel: Kernel, kernel_times) -> float:
    return statistics.fmean(kernel.ref_s / k for k in kernel_times)


def window_factors(kernel: Kernel, samples: list[tuple[float, float]],
                   ops: list[tuple[float, float]], window: float = WINDOW_S) -> list[float]:
    """Host speed factor for each op.

    `samples` holds (time, kernel seconds) in time order; `ops` holds
    (start, end) on the same clock.  An op's factor is the mean of
    kernel.ref_s / kernel time over the samples within `window` seconds of
    it, or over the nearest sample before and after it when none is that
    close.
    """
    times = [t for t, _ in samples]
    speeds = list(itertools.accumulate((kernel.ref_s / k for _, k in samples), initial=0.0))
    factors = []
    for start, end in ops:
        lo = bisect.bisect_left(times, start - window)
        hi = bisect.bisect_right(times, end + window)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        factors.append((speeds[hi] - speeds[lo]) / (hi - lo))
    return factors
