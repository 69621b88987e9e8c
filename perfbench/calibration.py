"""Fixed work, independent of fopsolve, that measures how fast the machine runs.

The benchmark times a calibration between every two operations and scales
each operation's time by `reference_s` over the mean of the calibration
times just before and just after it. On a machine shared with other
tenants the speed swings by tens of percent for seconds at a time; a
calibration with the same kind of work slows down with the program and
cancels most of the swing. `interp` is Python driving tiny numpy kernels,
like the solver on small problems. `stream` is a coordinate-format product
over a million entries, like the solver on large sparse problems.
"""
from __future__ import annotations

import time

import numpy as np

STREAM_N = 1_000_000
# About the time of each kind on the reference machine in a quiet moment
# (Intel Xeon, 2 vCPUs, one BLAS thread); see perfbench/README.md.
REFERENCE_S = {"interp": 0.010, "stream": 0.020}


class Calibration:
    def __init__(self, kind: str):
        self.reference_s = REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        if kind == "interp":
            self.a = rng.standard_normal((3, 3))
            self.x = rng.standard_normal(64)
            self.work = self._interp
        else:
            n = STREAM_N
            idx = np.arange(n)
            self.rows = np.concatenate([idx, idx[:-1], idx[1:]])
            self.cols = np.concatenate([idx, idx[1:], idx[:-1]])
            self.vals = rng.standard_normal(self.rows.size)
            self.x = rng.standard_normal(n)
            self.work = self._stream
        self.work()  # the first pass pays for page faults and lazy set-up

    def __call__(self) -> float:
        """One timing of the work, in seconds. A single timing, not the best
        of several: the program runs at the machine's speed of the moment,
        not its best, and the mean of the timings just before and just
        after an operation tracked its time most closely."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def _interp(self) -> None:
        for _ in range(300):
            m = self.a.copy()
            for col in range(3):
                p = col + int(np.argmax(np.abs(m[col:, col])))
                m[[col, p]] = m[[p, col]]
                factors = m[col + 1:, col] / m[col, col]
                m[col + 1:, col:] -= np.outer(factors, m[col, col:])
            float(self.x @ self.x)

    def _stream(self) -> None:
        y = np.bincount(self.rows, weights=self.vals * self.x[self.cols], minlength=STREAM_N)
        float(y @ self.x)
