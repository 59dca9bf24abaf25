"""Builders for the application problems, synthetic data, and the reference engine."""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import prox as _prox
from . import solver as _solver
from .operators import Div2D, Grad2D, SparseOp, StackedOp, WeightedGrad2D
from .precond import ct_block_precond, gram_precond, scaled_identity


class MassMismatchError(ValueError):
    """EMD marginals with different total mass: the constraint set is empty."""


def _require_finite(**arrays):
    """Reject data with a NaN or an infinite entry, which no comparison in a
    builder's checks would catch and no solver would recover from."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


@dataclass
class ProblemInstance:
    problem: _solver.SaddleProblem
    name: str
    shape: tuple
    params: dict = field(default_factory=dict)
    recommended: dict = field(default_factory=dict)

    def config(self, **overrides):
        """A SolverConfig built from the recommended settings plus overrides;
        pdhg takes none of the recommended ``inner``, ``p``, ``m1``, ``m2``."""
        kw = dict(self.recommended)
        if overrides.get("algorithm", kw.get("algorithm")) == "pdhg":
            kw = {k: v for k, v in kw.items() if k not in ("inner", "p", "m1", "m2")}
        kw.update(overrides)
        tau = kw.pop("tau", 0.01)
        m, n = self.problem.dims
        cfg = _solver.SolverConfig(tau=tau, **kw)
        if cfg.algorithm != "pdhg":
            if cfg.m1 is None:
                cfg.m1 = scaled_identity(tau, n)
            if cfg.m2 is None:
                cfg.m2 = gram_precond(self.problem.A, tau)
        return cfg


def tvl1(b, lam):
    """Anisotropic total-variation denoising with an l1 data term.

    minimize over u:  lam * ||u - b||_1 + ||grad u||_1
    """
    if not lam > 0:         # NaN fails this too
        raise ValueError("lam must be positive")
    b = np.asarray(b, dtype=float)
    _require_finite(b=b)
    rows, cols = b.shape
    n = rows * cols
    A = Grad2D(rows, cols, h=1.0)
    f = _prox.L1(n, lam=lam, shift=b.ravel())
    g = _prox.L1(2 * n, lam=1.0)
    prob = _solver.SaddleProblem(f=f, g=g, A=A)
    return ProblemInstance(
        problem=prob, name="tvl1", shape=(rows, cols),
        params={"lam": lam},
        recommended={"algorithm": "iprepdhg", "inner": "bcd", "p": 1,
                     "tau": 0.01})


def _edge_weights(img, beta):
    """exp(-beta * color-difference) per forward edge; boundary rows get 1."""
    rows, cols, _ = img.shape
    w1 = np.ones((rows, cols))
    w2 = np.ones((rows, cols))
    d1 = np.linalg.norm(img[1:, :, :] - img[:-1, :, :], axis=2)
    d2 = np.linalg.norm(img[:, 1:, :] - img[:, :-1, :], axis=2)
    w1[:-1, :] = np.exp(-beta * d1)
    w2[:, :-1] = np.exp(-beta * d2)
    return np.concatenate([w1.ravel(), w2.ravel()])


def graphcut(img, alpha=0.5, beta=10.0, mu_f=(0.0, 0.0, 1.0),
             mu_b=(0.0, 1.0, 0.0)):
    """Continuous relaxation of a two-label segmentation.

    minimize over u in [0,1]^n:  <u, w_u> + ||W grad u||_1, where the unary
    weights compare each pixel's color to foreground and background means and
    the edge weights decay with the local color contrast.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("graphcut expects an RGB image of shape (M, N, 3)")
    _require_finite(img=img)
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    mu_f = np.asarray(mu_f, dtype=float)
    mu_b = np.asarray(mu_b, dtype=float)
    _require_finite(mu_f=mu_f, mu_b=mu_b)
    rows, cols, _ = img.shape
    n = rows * cols
    w_u = alpha * (np.sum((img - mu_f) ** 2, axis=2)
                   - np.sum((img - mu_b) ** 2, axis=2)).ravel()
    w = _edge_weights(img, beta)
    A = WeightedGrad2D(rows, cols, w, h=1.0)
    f = _prox.LinearPlusBox(n, c=w_u, lo=0.0, hi=1.0)
    g = _prox.L1(2 * n, lam=1.0)
    prob = _solver.SaddleProblem(f=f, g=g, A=A)
    return ProblemInstance(
        problem=prob, name="graphcut", shape=(rows, cols),
        params={"alpha": alpha, "beta": beta,
                "mu_f": tuple(mu_f), "mu_b": tuple(mu_b)},
        recommended={"algorithm": "iprepdhg", "inner": "bcd", "p": 1,
                     "tau": 0.01})


def emd(rho0, rho1, h=None):
    """Earth mover's distance between two mass distributions on a grid.

    minimize over the flux m:  ||m||_{1,2}  subject to  div(m) = rho0 - rho1.
    Both marginals are normalized to unit mass; their raw masses must agree
    to 1e-12 relative.
    """
    rho0 = np.asarray(rho0, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    if rho0.shape != rho1.shape:
        raise ValueError("marginals must share a shape")
    _require_finite(rho0=rho0, rho1=rho1)
    if np.any(rho0 < 0) or np.any(rho1 < 0):
        raise ValueError("marginals must be nonnegative")
    s0, s1 = rho0.sum(), rho1.sum()
    if s0 <= 0 or s1 <= 0:
        raise MassMismatchError("marginals must carry positive mass")
    if abs(s0 - s1) > 1e-12 * max(s0, s1):
        raise MassMismatchError(
            f"marginal masses differ: {s0!r} vs {s1!r} (relative tolerance 1e-12)")
    rho0 = rho0 / s0
    rho1 = rho1 / s1
    rows, cols = rho0.shape
    if h is None:
        h = (cols - 1) / 4.0
    n = rows * cols
    A = Div2D(rows, cols, h=h)
    groups = np.column_stack([np.arange(n), n + np.arange(n)])
    f = _prox.GroupL12(2 * n, groups, lam=1.0)
    target = (rho0 - rho1).ravel()
    g = _prox.PointIndicator(target)

    def objective(m):
        return f.value(m)

    def feasibility(m):
        return float(np.linalg.norm(A.matvec(m) - target))

    prob = _solver.SaddleProblem(f=f, g=g, A=A, objective=objective,
                                 feasibility=feasibility)
    return ProblemInstance(
        problem=prob, name="emd", shape=(rows, cols),
        params={"h": h},
        recommended={"algorithm": "iprepdhg", "inner": "bcd", "p": 2,
                     "tau": 0.01})


def ct(R, b, lam, rows, cols, precond_variant="norm", tau=0.01):
    """Tomographic reconstruction: least squares plus total variation.

    minimize over u:  1/2 ||R u - b||^2 + lam ||grad u||_1
    """
    if not lam > 0:         # NaN fails this too
        raise ValueError("lam must be positive")
    R_op = R if hasattr(R, "matvec") else SparseOp(R)
    if R_op.shape[1] != rows * cols:
        raise ValueError("R column count must equal rows*cols")
    b = np.asarray(b, dtype=float).ravel()
    if b.size != R_op.shape[0]:
        raise ValueError("b length must equal the row count of R")
    _require_finite(R=R_op.to_sparse().data, b=b)
    n = rows * cols
    grad = Grad2D(rows, cols, h=1.0)
    A = StackedOp([R_op, grad])
    f = _prox.Zero(n)
    g = _prox.Concat([_prox.Quadratic(R_op.shape[0], weight=1.0, center=b),
                      _prox.L1(2 * n, lam=lam)])
    prob = _solver.SaddleProblem(f=f, g=g, A=A)
    m1, m2 = ct_block_precond(R_op, rows, cols, tau, variant=precond_variant,
                              grad=grad)
    return ProblemInstance(
        problem=prob, name="ct", shape=(rows, cols),
        params={"lam": lam, "variant": precond_variant},
        recommended={"algorithm": "iprepdhg", "inner": "bcd", "p": 2,
                     "tau": tau, "m1": m1, "m2": m2})


def synth_line_integral_matrix(rows, cols, n_angles, n_detectors, seed=0):
    """Sparse parallel-beam line-integral matrix over a rows x cols pixel grid.

    Each matrix row holds the exact intersection lengths of one straight ray
    with the unit pixels; rays that miss the grid are dropped, so no zero
    rows are emitted.  Angles get a small deterministic jitter so rays avoid
    grid-aligned degeneracies.
    """
    if min(rows, cols, n_angles, n_detectors) < 1:
        raise ValueError("all parameters must be positive")
    rng = np.random.default_rng(seed)
    angles = (np.arange(n_angles) * math.pi / n_angles
              + 1e-3 * rng.standard_normal(n_angles) + 1e-4)
    cx, cy = cols / 2.0, rows / 2.0
    half_span = 0.5 * math.hypot(rows, cols)
    offsets = np.linspace(-half_span, half_span, n_detectors + 2)[1:-1]
    data, row_idx, col_idx = [], [], []
    out_row = 0
    for theta in angles:
        d = np.array([math.cos(theta), math.sin(theta)])
        normal = np.array([-d[1], d[0]])
        for s in offsets:
            c = np.array([cx, cy]) + s * normal
            ts = []
            for axis, lo_t, n_lines in ((0, c[0], cols), (1, c[1], rows)):
                if abs(d[axis]) > 1e-12:
                    ts.append((np.arange(n_lines + 1) - c[axis]) / d[axis])
            ts = np.sort(np.concatenate(ts))
            pts = c[None, :] + ts[:, None] * d[None, :]
            inside = ((pts[:, 0] >= -1e-9) & (pts[:, 0] <= cols + 1e-9)
                      & (pts[:, 1] >= -1e-9) & (pts[:, 1] <= rows + 1e-9))
            ts = ts[inside]
            if ts.size < 2:
                continue
            mids = c[None, :] + (0.5 * (ts[:-1] + ts[1:]))[:, None] * d[None, :]
            lens = np.diff(ts)
            px = np.floor(mids[:, 0]).astype(int)
            py = np.floor(mids[:, 1]).astype(int)
            ok = ((lens > 1e-12) & (px >= 0) & (px < cols)
                  & (py >= 0) & (py < rows))
            if not np.any(ok):
                continue
            data.extend(lens[ok])
            col_idx.extend((py[ok] * cols + px[ok]).tolist())
            row_idx.extend([out_row] * int(ok.sum()))
            out_row += 1
    mat = sp.csr_matrix((data, (row_idx, col_idx)),
                        shape=(out_row, rows * cols))
    mat.sum_duplicates()
    return mat


def add_impulse_noise(u, level, seed=0):
    """Set a `level` fraction of pixels to 0 or 1 uniformly at random."""
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(seed)
    mask = rng.random(u.shape) < level
    vals = rng.integers(0, 2, size=u.shape).astype(float)
    out = u.copy()
    out[mask] = vals[mask]
    return out


@dataclass
class ReferenceSolution:
    phi_star: float
    x: np.ndarray
    z: np.ndarray
    certificate: float
    certified: bool
    iters: int


def _emd_reference(instance, max_outer, x0, z0):
    """Gap-certified EMD reference: the flux objective is sandwiched by the
    value of the scaled dual potential, so run until that gap closes.

    The transport metric is degenerate in its dual, which stalls step-norm
    stopping rules; the duality gap is the reliable certificate here.
    """
    prob = instance.problem
    A = prob.A
    target = prob.g.target
    x, z = x0, z0
    total = 0
    obj = np.inf
    cert = np.inf
    chunk = 5000
    while total < max_outer:
        cfg = instance.config(algorithm="iprepdhg", inner="bcd", p=5,
                              tau=0.001, tol_residual=None, max_outer=chunk,
                              x0=x, z0=z, log_every=chunk)
        res = _solver.run(prob, cfg)
        x, z = res.state.x, res.state.z
        total += res.outer_iters
        obj = prob.objective(x)
        # dual potential: -<z, rho0 - rho1> is a lower bound once z is scaled
        # so every gradient pair has Euclidean norm at most 1
        gz = A.rmatvec(z)
        half = gz.size // 2
        scale = max(1.0, float(np.max(np.hypot(gz[:half], gz[half:]))))
        dual = -float(z @ target) / scale
        cert = abs(obj - dual) + prob.feasibility(x) * float(np.linalg.norm(z)) / scale
        if cert <= 1e-5 * max(1.0, abs(obj)):
            break
    certified = cert <= 1e-4 * max(1.0, abs(obj))
    return ReferenceSolution(phi_star=obj, x=x, z=z, certificate=cert,
                             certified=certified, iters=total)


def reference_solve(instance, tol=1e-10, max_outer=200000, x0=None, z0=None):
    """High-accuracy solve of a desk-scale instance by the exact-subproblem
    algorithm, with the a-posteriori ergodic bound as a gap certificate."""
    prob = instance.problem
    m, n = prob.dims
    if m + n > 20000:
        raise ValueError(f"reference_solve is desk-scale only (m+n={m + n} > 20000)")
    if instance.name == "emd":
        return _emd_reference(instance, max_outer, x0, z0)
    kw = {"algorithm": "prepdhg_exact", "tol_residual": tol,
          "max_outer": max_outer, "x0": x0, "z0": z0, "log_every": max(1, max_outer)}
    try:
        cfg = instance.config(inner="bcd", **kw)
        resolved = _solver.validate_config(prob, cfg)
    except (ValueError, _prox.UnsupportedKindError):
        cfg = instance.config(inner=None, **kw)
        resolved = None
    res = _solver.run(prob, cfg, resolved)
    x, z = res.state.x, res.state.z
    x_start = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    z_start = np.zeros(m) if z0 is None else np.asarray(z0, dtype=float)
    cert = _solver.ergodic_gap_bound(x_start, z_start, x, z,
                                     cfg.m1, cfg.m2, prob.A, res.state.k)
    return ReferenceSolution(phi_star=prob.phi(x), x=x, z=z,
                             certificate=cert, certified=(res.status == "converged"),
                             iters=res.state.k)
