"""Host-speed calibration.

The shared 2-core hosts this benchmark runs on change speed by ±25% over
seconds to minutes, for every process alike, and a whole 20 s run can fall
in a slow or a fast stretch. To keep that drift out of the end-to-end
times, each workload process times a fixed kernel, written here and
independent of genrec, right after its set-up and between its timed
operations: `interp` or `blas`, whichever is more like the workload's own
work (workloads.HOST_KERNEL). `run.py` scales every time by
REF_S / (the kernel's median time in that process), so times read as they
would on a host on which the kernel takes REF_S. A change to genrec cannot
change the kernel's time unless it leaves work running between operations
or changes numpy's settings.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one call of each kernel on the machine the README's figures
# come from (2 cores, numpy 2.4, OpenBLAS pinned to one thread).
REF_S = {"interp": 0.020, "blas": 0.020}
# Kernel calls right after set-up, and kernel time spent after each timed
# operation as a share of that operation's time.
CAL_SETUP = 10
CAL_SHARE = 0.05

_A = np.random.default_rng(0).standard_normal((200, 200)) / 15.0
_X = np.random.default_rng(1).standard_normal(200)
_W = np.random.default_rng(2).standard_normal((784, 500)) / 28.0
_V = np.random.default_rng(3).standard_normal(500)


def interp() -> float:
    """A Python loop and a chain of 200x200 products: interpreter and small
    BLAS calls, as in the solvers at small sizes. Returns its wall time in s."""
    t0 = time.perf_counter()
    s = 0
    for i in range(140000):
        s += i * i % 7
    v = _X
    for _ in range(700):
        v = np.tanh(_A @ v)
    return time.perf_counter() - t0


def blas() -> float:
    """Products with a 784x500 matrix and its transpose, as in a paper-scale
    forward pass and Jacobian. Returns its wall time in s."""
    t0 = time.perf_counter()
    v = _V
    for _ in range(70):
        v = np.tanh(_W.T @ (_W @ v))
    return time.perf_counter() - t0


KERNELS = {"interp": interp, "blas": blas}


def sample(kernel: str, seconds: float, at_least: int = 1) -> list[float]:
    """Times of calls of one kernel: at least `at_least` calls, and calls
    until `seconds` of kernel time have been spent."""
    fn, times = KERNELS[kernel], []
    while len(times) < at_least or sum(times) < seconds:
        times.append(fn())
    return times
