"""A machine-speed probe: a fixed numpy/scipy loop that uses no pdopt code.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, and it drifts the same way for both cores.  The benchmark times
this probe right before and after every timed call, and scales the call's
wall time by ``nominal / probe time``: the result is the call's time at the
probe's nominal speed.  The probe mimics a solver iteration (a sparse
difference operator and its transpose, a clamp, reductions and copies) on
the workload's grid, so both mostly slow down alike; over four minutes on a
shared two-core Intel Xeon VM it cut the spread of 10-second medians from
0.09-0.21 to 0.04-0.07.
The probe never changes with the program, so a change to pdopt moves the
scaled time in proportion to the wall time.
"""

import time

import numpy as np
import scipy.sparse as sp


class SpeedProbe:
    def __init__(self, size, reps, nominal_s):
        d = sp.diags([np.ones(size - 1), -np.ones(size)], [1, 0],
                     shape=(size - 1, size))
        eye = sp.identity(size)
        self.D = sp.vstack([sp.kron(d, eye), sp.kron(eye, d)]).tocsr()
        self.Dt = self.D.T.tocsr()
        self.u0 = np.random.default_rng(0).standard_normal(size * size)
        self.reps = reps
        self.nominal_s = nominal_s

    def time(self):
        """Seconds taken by one pass of the probe loop."""
        D, Dt = self.D, self.Dt
        half = self.u0.size // 2
        t0 = time.perf_counter()
        u = self.u0.copy()
        z = np.zeros(D.shape[0])
        for _ in range(self.reps):
            z = np.clip(z + 0.1 * (D @ u), -1.0, 1.0)
            u = u - 0.1 * (Dt @ z)
            s = float(np.abs(u).sum())
            u = np.maximum(np.concatenate([u[:half], u[half:]]) - 1e-3, -s)
        return time.perf_counter() - t0

    def scale(self, before, after):
        """Factor that takes a wall time measured between two probe times to
        the probe's nominal speed."""
        return self.nominal_s / (0.5 * (before + after))
