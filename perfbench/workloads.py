"""The four benchmark workloads: inputs, solver configurations, stop rules
and independent answer checks.

Every workload runs two methods on one instance:

- ``pdhg``: classic PDHG, the baseline; it never touches the BCD layer.
- ``iprepdhg``: inexact preconditioned PDHG with ``inner="bcd"``, the
  paper's colour-block sweep.

Their ``tau`` and ``p`` are fixed here and never re-tuned.

Inputs and the seed
-------------------
The noise, ray geometry and marginals are those of acceptance tests 08 and
09 (noise seed 11, ray seed 3, blobs at (8, 8) and (23, 22)).  The run's
``--seed`` picks one of the four axis mirrors of that instance
(``seed % 4``: none, rows, columns, both).  A mirror is an exact symmetry
of anisotropic TV and of the four-colour sweep order, so on the gap-stop
workloads every seed does the same work and reaches the same ``phi*``.
A fresh noise draw would not: across six noise seeds of ``tvl1-64``,
PDHG needed 4284 to 26884 iterations to a 1e-8 gap, so time-to-accuracy
would measure the draw, not the code.  The fixed-N workloads do the same
work on any input; their values at N are committed per mirror.

The answer checks do not trust the solver: objectives and feasibility are
recomputed here with plain numpy from the inputs.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from pdopt import problems

GAP_TOL = 1e-8          # relative objective gap of the gap-stop workloads
MAX_OUTER = 200000      # safety caps of a gap-stop solve; reaching either ...
MAX_SECONDS = 50.0      # ... is a failure, and keeps a broken solver's run short
OBJ_RTOL_AT_N = 1e-6    # fixed-N: objective at N against the committed value
FEAS_RTOL_AT_N = 1e-3   # fixed-N: feasibility at N against the committed value
METHODS = ("pdhg", "iprepdhg")


def mirror(a, seed):
    """The axis mirror of a grid array that ``seed`` selects."""
    k = seed % 4
    if k & 1:
        a = a[::-1, :]
    if k & 2:
        a = a[:, ::-1]
    return np.ascontiguousarray(a)


def _tv(x, shape):
    u = x.reshape(shape)
    return float(np.abs(np.diff(u, axis=0)).sum() + np.abs(np.diff(u, axis=1)).sum())


def _div(m, shape, h):
    """Divergence of a two-channel flux, written out from its definition."""
    n = shape[0] * shape[1]
    ch1 = m[:n].reshape(shape)
    ch2 = m[n:].reshape(shape)
    out = np.zeros(shape)
    out[:-1, :] += ch1[:-1, :]
    out[1:, :] -= ch1[:-1, :]
    out[:, :-1] += ch2[:, :-1]
    out[:, 1:] -= ch2[:, :-1]
    return out.ravel() / h


def _smooth_image(size):
    gx, gy = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size))
    return 0.5 + 0.25 * np.sin(6 * gx + 2) * np.cos(5 * gy + 1) + 0.25 * gx * gy


def _impulse_noise(u, level, seed):
    # the draw of problems.add_impulse_noise, kept here so the inputs do not
    # depend on the program under test
    rng = np.random.default_rng(seed)
    mask = rng.random(u.shape) < level
    vals = rng.integers(0, 2, size=u.shape).astype(float)
    out = u.copy()
    out[mask] = vals[mask]
    return out


def _blob(size, cx, cy, s=3.0):
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    g = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    return g / g.sum()


def fingerprint(*arrays):
    """A short digest of input arrays, rounded so last-bit differences of a
    platform's exp or sin do not change it."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=float)
        h.update(np.round(a, 10).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# inputs: arrays made from the seed, before any timing

@dataclass
class Inputs:
    shape: tuple
    data: dict

    def digest(self):
        return fingerprint(*(self.data[k] for k in sorted(self.data)))


def _tvl1_inputs(size, seed):
    b = mirror(_impulse_noise(_smooth_image(size), 0.15, seed=11), seed)
    return Inputs((size, size), {"b": b})


def _ct_inputs(seed):
    R = problems.synth_line_integral_matrix(16, 16, 12, 20, seed=3)
    rng = np.random.default_rng(3)
    u_true = np.kron(rng.integers(0, 2, (4, 4)).astype(float), np.ones((4, 4)))
    b = R @ u_true.ravel() + 0.01 * rng.standard_normal(R.shape[0])
    # mirroring the pixel grid permutes R's columns; the ray data stay put
    perm = mirror(np.arange(256).reshape(16, 16), seed).ravel()
    return Inputs((16, 16), {"R": R.tocsc()[:, perm].tocsr(), "b": b})


def _emd_inputs(seed):
    return Inputs((32, 32), {"rho0": mirror(_blob(32, 8, 8), seed),
                             "rho1": mirror(_blob(32, 23, 22), seed)})


# ---------------------------------------------------------------------------
# answers, recomputed from the inputs

def _tvl1_answer(inputs, x):
    return {"obj": float(np.abs(x - inputs.data["b"].ravel()).sum())
            + _tv(x, inputs.shape)}


def _ct_answer(inputs, x):
    r = inputs.data["R"] @ x - inputs.data["b"]
    return {"obj": 0.5 * float(r @ r) + 0.1 * _tv(x, inputs.shape)}


def _emd_answer(inputs, x):
    n = x.size // 2
    rho0, rho1 = inputs.data["rho0"], inputs.data["rho1"]
    target = (rho0 / rho0.sum() - rho1 / rho1.sum()).ravel()
    h = (inputs.shape[1] - 1) / 4.0
    return {"obj": float(np.hypot(x[:n], x[n:]).sum()),
            "feas": float(np.linalg.norm(_div(x, inputs.shape, h) - target))}


# ---------------------------------------------------------------------------
# workloads

_PDHG = {"algorithm": "pdhg", "inner": None, "p": 1, "m1": None, "m2": None}
_IPRE = {"algorithm": "iprepdhg", "inner": "bcd"}


@dataclass
class Workload:
    name: str
    why: str
    make_inputs: object       # seed -> Inputs
    build: object             # Inputs -> ProblemInstance
    method_kw: dict           # method -> inst.config overrides
    answer: object            # (Inputs, x) -> {"obj": ..., ["feas": ...]}
    probe: tuple              # (loop passes, nominal seconds) of the speed probe
    fixed_n: int = None       # outer iterations; None means a gap stop

    def configs(self, inst, ref):
        """The SolverConfig of each method, with this workload's stop rule."""
        if self.fixed_n is None:
            stop = {"phi_star": ref["phi_star"], "tol_delta": GAP_TOL,
                    "max_outer": MAX_OUTER, "max_seconds": MAX_SECONDS}
        else:
            stop = {"max_outer": self.fixed_n}
        return {m: inst.config(tol_residual=None, log_every=10 ** 9,
                               **self.method_kw[m], **stop)
                for m in METHODS}

    def check(self, inputs, method, result, ref):
        """Return (ok, answer) for one solve; `ref` is this mirror's entry."""
        x = result.state.x
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(result.state.z))):
            return False, {}
        ans = self.answer(inputs, x)
        if self.fixed_n is None:
            star = ref["phi_star"]
            ans["gap"] = abs(ans["obj"] - star) / abs(star)
            return (result.status == "converged" and ans["gap"] <= GAP_TOL), ans
        want = ref["at_n"][method]
        ok = (result.outer_iters == self.fixed_n
              and abs(ans["obj"] - want["obj"]) <= OBJ_RTOL_AT_N * abs(want["obj"]))
        if "feas" in want:
            ok = ok and abs(ans["feas"] - want["feas"]) <= (
                FEAS_RTOL_AT_N * want["feas"] + 1e-14)
        return ok, ans


def _tvl1_build(inputs):
    return problems.tvl1(inputs.data["b"], lam=1.0)


def _ct_build(inputs):
    # the builder's own ct_block_precond "norm" pair, at iPrePDHG's tau
    return problems.ct(inputs.data["R"], inputs.data["b"], lam=0.1,
                       rows=16, cols=16, tau=0.1)


def _emd_build(inputs):
    return problems.emd(inputs.data["rho0"], inputs.data["rho1"])


WORKLOADS = {w.name: w for w in [
    Workload(
        "tvl1-64",
        "the paper's TV-L1 race at 64x64, where per-call overhead dominates; "
        "the 1e-8 gap stop keeps objective monitoring on every iteration",
        lambda seed: _tvl1_inputs(64, seed), _tvl1_build,
        {"pdhg": {**_PDHG, "tau": 0.01}, "iprepdhg": {**_IPRE, "tau": 0.01, "p": 1}},
        _tvl1_answer, (900, 0.081)),
    Workload(
        "ct-16",
        "the only BCD plan mixing a diagonal and a Gram segment over a "
        "StackedOp, through SparseOp and Concat's masked scalar prox",
        _ct_inputs, _ct_build,
        {"pdhg": {**_PDHG, "tau": 0.01}, "iprepdhg": {**_IPRE, "tau": 0.1, "p": 1}},
        _ct_answer, (2400, 0.075)),
    Workload(
        "emd-32",
        "GroupL12 x-step, the Div2D two-block sweep with p=2 carry and a "
        "feasibility monitor, over a fixed number of iterations",
        _emd_inputs, _emd_build,
        {"pdhg": {**_PDHG, "tau": 0.001}, "iprepdhg": {**_IPRE, "tau": 0.001, "p": 2}},
        _emd_answer, (1500, 0.074), fixed_n=4000),
    Workload(
        "tvl1-256",
        "16x larger working set, so kernels and the repeated power iteration "
        "outweigh call overhead; fixed number of iterations",
        lambda seed: _tvl1_inputs(256, seed), _tvl1_build,
        {"pdhg": {**_PDHG, "tau": 0.01}, "iprepdhg": {**_IPRE, "tau": 0.01, "p": 1}},
        _tvl1_answer, (75, 0.111), fixed_n=150),
]}
