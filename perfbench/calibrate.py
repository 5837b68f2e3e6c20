"""Machine-speed calibration for timings taken on a shared host.

On the reference machine (2 vCPUs shared with other tenants) the speed of
the same code drifts by up to 1.45x over periods of 3 to 30 seconds, so raw
run medians spread by 15-19% between runs (README.md, "Noise"). The worker
therefore times a fixed kernel just before and just after every item and
scales the item's times by NOMINAL_S / (mean of the two samples): a timing
is reported in milliseconds of a machine on which the kernel takes exactly
NOMINAL_S. The kernels are benchmark code and never change with the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones.

Each workload uses the kernel that tracks it best (README.md, "Noise"):
- "interpreter": a Python loop and small numpy calls, for eval_multi and
  verify_battery, whose FIM assembly and oracles are Python loops;
- "memory": passes over an 8 MiB complex array (larger than L2) that
  allocate their temporaries afresh, for sweep_aperture, whose M x N
  steering stacks do the same. The array adds a constant 8 MiB to peak RSS,
  and each pass 8 MiB more while it runs.
"""

import gc
import time

import numpy as np

NOMINAL_S = {"interpreter": 0.002, "memory": 0.006}
# a kernel's time is the fastest of this many runs. For the 2 ms interpreter
# kernel, a preemption or timer interrupt costs far more, relatively, than it
# costs a 300 ms item; the memory kernel is timed whole, page faults included,
# because sweep items pay them too
REPEATS = {"interpreter": 5, "memory": 1}


class Calibrator:
    """Times one kernel; `sample()` returns its time in seconds."""

    def __init__(self, kind):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        if kind == "interpreter":
            self._small = np.ones((64, 64), dtype=complex)
        else:
            self._big = np.ones((256, 2048), dtype=complex)

    def _interpreter(self):
        s = 0
        for i in range(16000):
            s += i * i
        counts = {}
        for i in range(3200):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(16):
            np.einsum("mn,mn->m", self._small.conj(), self._small)
        return s

    def _memory(self):
        for _ in range(2):
            np.einsum("mn,mn->m", self._big.conj(), self._big)

    def sample(self):
        kernel = self._interpreter if self.kind == "interpreter" else self._memory
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS[self.kind]):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            return best
        finally:
            if gc_was_on:
                gc.enable()
