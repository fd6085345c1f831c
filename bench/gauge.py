"""Machine-speed gauge: a fixed kernel timed all through a run.

The speed of the 2-vCPU VM this benchmark was defined on drifts by up to
±25 % over phases of seconds to minutes, because other tenants share its
cores; raw solve times of two runs a few minutes apart can differ by
half. While the gauge is open, an interval timer interrupts the run every
``PERIOD_S`` seconds and times a short kernel on fixed data shaped like
an iterate on the workload's grid. Each solve time, net of the readings
taken inside it, is then divided by the median reading from ``WINDOW_S``
before to ``WINDOW_S`` after the solve. No change to stiefel_rgd can
change the kernel, so the ratio moves only with the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PERIOD_S = 0.25
WINDOW_S = 1.0
# Kernel steps per reading, chosen for about 15 ms per reading.
STEPS = {1: 40, 2: 8}


class Gauge:
    """Use as a context manager; readings are taken while it is open."""

    def __init__(self, dimension: int, points: int, n_orbitals: int):
        off = -np.ones(points - 1)
        matrix = sp.diags([off, 2.0 * np.ones(points), off], (-1, 0, 1), format="csr")
        if dimension == 2:
            eye = sp.identity(points)
            matrix = sp.kron(matrix, eye) + sp.kron(eye, matrix)
        self.matrix = (matrix + sp.identity(matrix.shape[0])).tocsr()
        self.lu = spla.splu(self.matrix.tocsc())
        rng = np.random.default_rng(0)
        self.start = rng.standard_normal((matrix.shape[0], n_orbitals))
        # A potential the preconditioner does not know, as in the solver.
        self.shifted = (self.matrix + sp.diags(200.0 * rng.random(matrix.shape[0]))).tocsr()
        self.dimension = dimension
        self.steps = STEPS[dimension]
        self.times = []  # end time of each reading
        self.seconds = []  # duration of each reading
        self.spent = 0.0  # total time spent on readings
        self._previous = None

    def _kernel(self) -> None:
        # 1D iterates are bound by interpreter overhead on small arrays; 2D
        # ones spend about half their time in column-wise preconditioned
        # CG, which slows less when the machine does.
        if self.dimension == 2:
            self._pcg()
        x = self.start.copy()
        for _ in range(self.steps):
            y = self.matrix @ x
            gram = x.T @ y
            _, q = np.linalg.eigh(0.5 * (gram + gram.T))
            x = (x + 1e-3 * self.lu.solve(y)) @ q
            x /= np.linalg.norm(x, axis=0)
            sp.diags(np.einsum("ij,ij->i", x, x), format="csr") + self.matrix

    def _pcg(self) -> None:
        """Preconditioned CG steps, one column at a time."""
        for b in self.start.T:
            x = np.zeros_like(b)
            r = b.copy()
            z = self.lu.solve(r)
            p = z.copy()
            rz = float(np.dot(r, z))
            for _ in range(2 * self.steps):
                ap = self.shifted @ p
                alpha = rz / float(np.dot(p, ap))
                x += alpha * p
                r -= alpha * ap
                np.linalg.norm(r)
                z = self.lu.solve(r)
                rz, previous = float(np.dot(r, z)), rz
                p = z + (rz / previous) * p

    def read(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self.read()
        self._previous = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()
        return False

    def timed(self, fn):
        """Call ``fn``; return its result, its wall time net of the readings
        taken inside it, and its start and end times."""
        start, spent = time.perf_counter(), self.spent
        result = fn()
        end = time.perf_counter()
        return result, end - start - (self.spent - spent), start, end

    def around(self, start: float, end: float) -> float:
        """Median reading from ``WINDOW_S`` before ``start`` to ``WINDOW_S``
        after ``end``; call it once the readings after ``end`` exist."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.seconds[lo:hi])

    def median(self) -> float:
        return statistics.median(self.seconds)
