"""Outer algorithms, inner iterators, theory constants, and diagnostics.

Three outer algorithms are provided: classic PDHG with scalar stepsizes,
preconditioned PDHG with the z-subproblem solved to tolerance, and the
inexact variant that replaces the z-subproblem by a fixed number p of
applications of an inner iterator S (proximal gradient, FISTA with adaptive
restart, or a cyclic block-coordinate sweep over color blocks).
"""

import ctypes
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import prox as _prox
from .operators import (OrderingError, SparseOp, StackedOp, bind_csr_matvec,
                        op_norm_sq_estimate, power_iteration)
from .precond import (BlockDiag, Diagonal, Gram, Preconditioner,
                      ScaledIdentity, gram_precond, ordering_for,
                      scaled_identity)


EXACT_TOL = 1e-12      # step-norm tolerance of prepdhg_exact's z-subproblem solve
GAP_BAND = 1e-12       # a gap from a carried A x_k this close to tol_delta is checked exactly
GRAM_PRODUCT_NNZ = 1 << 14  # entries of A over which BcdPlan forms blocks in one Gram product
BCD_GAMMA_GRID = 64    # log-grid points find_bcd_gamma searches


class ConfigError(ValueError):
    """Invalid solver configuration."""


class InfeasibleStepsizeError(ValueError):
    """No inner stepsize satisfies the theory conditions."""


class SingularMetricError(ValueError):
    """lambda_min(M2) <= 0: the inner-solver error constants are undefined.

    Gram metrics of grid operators are typically singular; add a ridge or
    supply the smallest positive eigenvalue explicitly if the theory
    diagnostics are wanted.
    """


@dataclass
class SaddleProblem:
    """The triple (f, g, A) of  minimize f(x) + g(Ax)."""

    f: _prox.ProxFunction
    g: _prox.ProxFunction
    A: object
    mu_f: float = 0.0            # strong-convexity modulus of f; no solver reads it
    objective: object = None     # optional callable x -> float
    feasibility: object = None   # optional callable x -> float

    def __post_init__(self):
        m, n = self.A.shape
        if self.f.dim != n or self.g.dim != m:
            raise ConfigError(
                f"dimension mismatch: f is {self.f.dim}-dim, g is {self.g.dim}-dim, "
                f"A is {m}x{n}")

    @property
    def dims(self):
        return self.A.shape

    def phi(self, x, ax=None):
        """The objective at ``x``: ``objective(x)`` when given, else
        ``f(x) + g(ax)`` with ``ax`` the product ``A x``, formed here when
        None.  ``run()`` passes the ``A x_k`` it carries from the step's
        forward product under a gap stop (see ``run``)."""
        if self.objective is not None:
            return float(self.objective(x))
        if ax is None:
            ax = self.A.matvec(x)
        return float(self.f.value(x) + self.g.value(ax))


@dataclass
class SolverConfig:
    """Settings of one run, which ``validate_config`` turns into its ``step``.

    Monitoring follows the log cadence and the stop rules: ``phi``, the
    problem's feasibility and the opt-in err-ratio and Lyapunov monitors
    are evaluated on logged iterations (every ``log_every``-th and the
    last); ``phi`` on every iteration only when ``tol_delta`` and
    ``phi_star`` are set, and on the final one when ``phi_star`` is set.
    Under that gap stop the per-iteration ``phi`` takes its ``A x_k`` from
    the step's own forward product where the step forms it in A's row order
    (see ``run``); logged rows, the final iterate and a stop decision use
    the exact ``phi``.  ``RunResult.monitor_s`` reports their cost, which
    ``time_s`` excludes.
    """

    algorithm: str = "iprepdhg"      # pdhg | prepdhg_exact | iprepdhg
    tau: float = 0.01
    sigma: float = None              # pdhg only; default 1/(tau ||A||^2)
    m1: Preconditioner = None
    m2: Preconditioner = None
    inner: str = None                # proxgrad | fista_restart | bcd
    gamma: float = None
    p: int = 1
    phi_star: float = None
    tol_delta: float = None
    tol_residual: float = None
    max_outer: int = 10000
    max_seconds: float = None
    log_every: int = 1
    monitor_err_ratio: bool = False
    monitor_lyapunov: bool = False
    x0: object = None
    z0: object = None


@dataclass
class IterateState:
    x: np.ndarray
    z: np.ndarray
    sum_x: np.ndarray
    sum_z: np.ndarray
    k: int = 0

    @property
    def x_avg(self):
        return self.sum_x / max(self.k, 1)

    @property
    def z_avg(self):
        return self.sum_z / max(self.k, 1)


TRACE_FIELDS = ("k", "obj", "delta", "feas", "dz_norm", "err_ratio",
                "lyapunov", "time_s")


@dataclass
class Trace:
    records: list = field(default_factory=list)

    def add(self, **kw):
        self.records.append({f: kw.get(f) for f in TRACE_FIELDS})

    def column(self, name):
        return [r[name] for r in self.records]

    def csv_text(self, omit_time=False):
        lines = [",".join(TRACE_FIELDS)]
        for r in self.records:
            vals = []
            for f in TRACE_FIELDS:
                v = r[f]
                if f == "time_s" and omit_time:
                    v = None
                if v is None:
                    vals.append("")
                elif f == "k":
                    vals.append(str(int(v)))
                else:
                    vals.append(format(float(v), ".17g"))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    def to_csv(self, path, omit_time=False):
        with open(path, "w") as fh:
            fh.write(self.csv_text(omit_time=omit_time))


@dataclass
class RunResult:
    state: IterateState
    trace: Trace
    status: str                    # converged | not-converged | diverged
    outer_iters: int
    time_s: float                  # algorithmic seconds; excludes monitoring
    final_delta: float = None
    monitor_s: float = 0.0         # wall seconds of phi, feasibility, the
                                   # err-ratio and Lyapunov monitors, stop rules


# ---------------------------------------------------------------------------
# z-subproblem machinery

@dataclass
class ZSubproblem:
    """g*(z) - <z - z_ref, q> + 1/2 ||z - z_ref||^2_M2, with q = A(2x^{k+1}-x^k).

    The quadratic is kept in the inverse-free form, so only matvecs with M2
    are ever needed.
    """

    z_ref: np.ndarray
    q: np.ndarray
    m2: Preconditioner
    g: _prox.ProxFunction

    def grad_quad(self, z):
        return self.m2.apply(z - self.z_ref) - self.q

    def quad_value(self, z):
        dz = z - self.z_ref
        return 0.5 * float(dz @ self.m2.apply(dz)) - float(dz @ self.q)

    def objective(self, z):
        return self.g.conjugate_value(z) + self.quad_value(z)


def inner_proxgrad(sub, gamma, p, conj_prox=None):
    """p proximal-gradient steps on the z-subproblem, started at z_ref.
    ``conj_prox`` is ``_conj_prox_at(sub.g, gamma)``, which ``validate_config``
    binds once per run; it is bound here if not given."""
    if p < 1:
        raise ConfigError("p must be >= 1")
    z = sub.z_ref
    if conj_prox is None:
        conj_prox = _conj_prox_at(sub.g, gamma)
    for _ in range(p):
        z = conj_prox(z - gamma * sub.grad_quad(z))
    return z, p


def inner_fista_restart(sub, gamma, p, conj_prox=None):
    """p FISTA steps with function-value adaptive restart; p counts gradient
    evals.  ``conj_prox`` as for ``inner_proxgrad``."""
    if p < 1:
        raise ConfigError("p must be >= 1")
    if conj_prox is None:
        conj_prox = _conj_prox_at(sub.g, gamma)
    return _fista_restart(sub.z_ref, sub.grad_quad, sub.objective,
                          conj_prox, gamma, p), p


def _conj_prox_at(g, gamma):
    """v -> the prox of g's conjugate at step gamma (metric 1/gamma), bound
    once: ``g``'s whole-vector kernel (a closed form, else the Moreau
    identity).  A metric that does not suit ``g`` is a ConfigError."""
    try:
        return g.conj_prox_kernel(gamma)
    except _prox.UnsupportedMetricError as exc:
        raise ConfigError(f"the z-step metric does not suit g: {exc}") from None


def _small_step(z_new, z, tol):
    return np.linalg.norm(z_new - z) <= tol * (1.0 + np.linalg.norm(z_new))


def _fista_restart(z, grad, obj, conj_prox, gamma, iters, tol=None):
    """``iters`` FISTA steps from z with function-value adaptive restart
    (O'Donoghue & Candes 2015); with a ``tol``, stop at the first step of
    norm <= tol (1 + ||z_new||).  ``conj_prox`` is bound at step ``gamma``."""
    y = z
    t = 1.0
    f_prev = obj(z)
    for _ in range(iters):
        z_new = conj_prox(y - gamma * grad(y))
        f_new = obj(z_new)
        if f_new > f_prev:
            # momentum restart: drop back to a plain proximal-gradient state
            t = 1.0
            y = z_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z_new + ((t - 1.0) / t_new) * (z_new - z)
            t = t_new
        f_prev = f_new
        if tol is not None and _small_step(z_new, z, tol):
            return z_new
        z = z_new
    return z


def _row_slice(mat, start, stop):
    """Rows ``start:stop`` of the CSR matrix ``mat``, sharing its data and
    column indices (only the row pointers are new)."""
    if start == 0 and stop == mat.shape[0]:
        return mat
    a, b = mat.indptr[start], mat.indptr[stop]
    return sp.csr_matrix((mat.data[a:b], mat.indices[a:b],
                          mat.indptr[start:stop + 1] - a),
                         shape=(stop - start, mat.shape[1]))


def _row_norms_sq(mat):
    """Each row's sum of its squared entries, in row order: the squared data
    over ``mat``'s own index arrays, times a vector of ones."""
    return (sp.csr_matrix((mat.data ** 2, mat.indices, mat.indptr), shape=mat.shape)
            @ np.ones(mat.shape[1]))


def _csr_part(data, cols, indptr, mask, shape):
    """The entries of the CSR arrays ``(data, cols, indptr)`` that ``mask``
    selects, as a CSR matrix of exact size and the given shape, each row's
    in their order."""
    picked = np.flatnonzero(mask)
    return sp.csr_matrix((data[picked], cols[picked], np.searchsorted(picked, indptr)),
                         shape=shape)


def _gram_block(gram, rows, start, n_live, scale, n_diag):
    """``(L_b, U_b)`` of one colour block from its rows of ``A A^T`` over
    the segment, rows ``rows`` (a slice) of the product ``gram``: scaled
    row-wise by ``scale``, the self-block (plan positions ``start:stop``)
    and the dead columns (from ``n_live``) dropped, and split into the
    columns before and after the block.  ``n_diag`` is the number of the
    block's rows with ``d != 0``."""
    stop = start + rows.stop - rows.start
    a, b = gram.indptr[rows.start], gram.indptr[rows.stop]
    indptr = gram.indptr[rows.start:rows.stop + 1] - a
    cols, data = gram.indices[a:b], gram.data[a:b]
    # row i holds its diagonal entry iff d_i != 0 (same sum, and the
    # product drops exact zeros); any other entry inside the block is a
    # coupling the ordering must not have
    if np.count_nonzero((cols >= start) & (cols < stop)) != n_diag:
        raise OrderingError("within-block columns of A^T are not mutually orthogonal")
    data *= np.repeat(scale, np.diff(indptr))
    # an entry the scaling took to zero is dropped
    kept = data != 0
    shape = (stop - start, n_live)
    return (_csr_part(data, cols, indptr, kept & (cols < start), shape),
            _csr_part(data, cols, indptr, kept & (cols >= stop) & (cols < n_live),
                      shape))


def _steps(inv_step, step):
    """``(inv_step, step)`` of a segment's solved rows, each a float when
    the step is the same on every row."""
    if step.size and step.min() == step.max():
        return float(inv_step[0]), float(step[0])
    return inv_step, step


class DiagSegment(NamedTuple):
    """A diagonal block ``diag(e)`` of M2 over plan positions ``lo:hi``,
    which hold A's rows ``lo:hi`` in order."""

    kind: str           # "diag"
    lo: int
    hi: int
    e: np.ndarray
    rows: slice         # the rows the sweep solves: all of lo:hi
    inv_step: object    # e, a float when it is the same on every row
    step: object        # 1/e, likewise
    dead: slice         # none: an empty range


class GramBlock(NamedTuple):
    """One colour block of a Gram segment.  ``G_b``, the block's rows of
    ``A A^T`` with the self-coupling removed, scaled row-wise by ``tau/h``,
    with columns over the live range, is held in two CSR parts, each row's
    entries in ``G_b``'s order (a stable partition of each row)."""

    sl: slice           # the block's positions in the segment's live range
    lower: object       # (v, out) -> out + l_b @ v, bound once; None if l_b is empty
    upper: object       # the same with u_b
    l_b: sp.csr_matrix  # G_b's columns before the block
    u_b: sp.csr_matrix  # G_b's columns after the block


class GramSegment(NamedTuple):
    """A Gram block ``tau B B^T + ridge I`` of M2 over plan positions
    ``lo:hi``: its live rows, those with ``h = tau ||b_i||^2 + ridge > 0``,
    colour block by colour block, then its dead rows (``h = 0``), which the
    sweep never touches."""

    kind: str           # "gram"
    lo: int
    hi: int
    idx: np.ndarray     # the rows of A at the live positions
    inv_h: np.ndarray   # 1/h over the live rows
    rows: slice         # the live rows, lo:lo + idx.size
    inv_step: object    # 1/inv_h, a float when it is the same on every live row
    step: object        # inv_h, likewise
    dead: slice         # the dead rows, lo + idx.size:hi
    blocks: list        # one GramBlock per colour block with live rows


class BcdPlan:
    """Precomputed structure for cyclic block-coordinate sweeps, in plan order.

    Splits the dual space into ``segments`` following M2's block structure,
    one ``DiagSegment`` or ``GramSegment`` per block, and fixes the plan
    order of the dual coordinates: ``order[i]`` is the row of A at plan
    position ``i``.  ``permute(v)`` takes a dual vector from A's row order
    into plan order and ``unpermute`` takes it back.  ``op`` is a
    ``SparseOp`` of A's rows in plan order, so ``op.matvec(x)`` is
    ``permute(A.matvec(x))`` and ``op.rmatvec(permute(z))`` is
    ``A.rmatvec(z)``, both up to rounding: a run that sweeps the plan keeps
    its dual iterate in plan order and pairs it with ``op``.

    A sweep's right-hand side is ``c = z_ref + S q``, with ``q = A t`` in
    plan order and ``S`` the segments' steps over their solved rows;
    ``rhs`` or ``forward_rhs`` forms it, and the sweep writes the new z
    over it.  ``bind(g)`` gives the sweep its kernels of ``g``.
    """

    def __init__(self, A, m2, ordering=None):
        self.g = self.kernels = None
        if isinstance(m2, (Diagonal, ScaledIdentity, Gram)):
            parts = [(0, m2.dim, m2, A)]
        elif isinstance(m2, BlockDiag) and isinstance(A, StackedOp):
            parts = list(zip(A.row_offsets, A.row_offsets[1:], m2.parts, A.ops))
            if len(m2.parts) != len(A.ops) or any(
                    part.dim != hi - lo for lo, hi, part, _ in parts):
                raise ConfigError("block preconditioner does not match stacked operator")
        else:
            raise ConfigError(
                "BCD needs M2 in Gram form or a block-diagonal composite over "
                "a stacked operator")
        mat = A.to_sparse().tocsr()
        mat.sum_duplicates()    # op's rows and the row norms read it canonical
        layouts, orders = [], []
        for lo, hi, part, rows_op in parts:
            lo, hi = int(lo), int(hi)
            if isinstance(part, (Diagonal, ScaledIdentity)):
                e = part.diagonal()
                layouts.append(DiagSegment("diag", lo, hi, e, slice(lo, hi),
                                           *_steps(e, 1.0 / e), slice(hi, hi)))
                orders.append(np.arange(lo, hi))
            elif isinstance(part, Gram):
                blocks = (ordering if ordering is not None and part is m2
                          else ordering_for(part.A)).blocks
                # the rows of a Gram operator other than A's over lo:hi, else
                # None: the segment then takes op's rows
                own = None
                if part.A is not rows_op:
                    own = part.A.to_sparse().tocsr()
                    own.sum_duplicates()
                order, layout = self._gram_layout(
                    _row_norms_sq(_row_slice(mat, lo, hi) if own is None else own),
                    part.tau, part.ridge, blocks)
                layouts.append((lo, part.tau, None if own is None else own[order], layout))
                orders.append(order + lo)
                del order, own      # not held while the Gram rows are formed
            else:
                raise ConfigError(
                    f"unsupported M2 block {type(part).__name__} for BCD")
        self.order = np.concatenate(orders)
        del orders
        self.op = SparseOp.adopt(mat[self.order].astype(float, copy=False))
        del mat
        self.segments = [seg if isinstance(seg, DiagSegment) else
                         self._gram_segment(*seg) for seg in layouts]
        self._forward = bind_csr_matvec(self.op.mat)

    @staticmethod
    def _gram_layout(d, tau, ridge, blocks):
        """(order, layout) of one Gram segment from ``d``, its rows'
        ``||a_i||^2``: ``order`` lists its rows in plan order (live rows
        block by block, then the dead ones), and ``layout`` is the row
        count, ``h = tau d + ridge`` over the live rows, and per colour
        block the number of live rows and of those with ``d != 0``."""
        if sum(b.size for b in blocks) != d.size:
            raise OrderingError("ordering does not partition the operator's row space")
        h = tau * d + ridge
        live_blocks = [blk[h[blk] > 0] for blk in blocks]
        order = np.concatenate(live_blocks + [np.flatnonzero(~(h > 0))])
        live = order[:sum(rows.size for rows in live_blocks)]
        return order, (order.size, h[live], [rows.size for rows in live_blocks],
                       [np.count_nonzero(d[rows]) for rows in live_blocks])

    def _gram_segment(self, lo, tau, rows, layout):
        """The ``GramSegment`` at plan position ``lo``.

        Each ``G_b`` is formed by its own product of the block's rows in
        plan order with the transpose of the segment's ``rows`` (``op``'s
        when None: the Gram operator is A or A's block over those rows), and
        its parts are gathered from it into arrays of their own; the product
        is dropped before the next one is formed, so the build holds about
        one block's Gram rows beyond what the plan keeps.  Consecutive
        blocks whose rows hold at most ``GRAM_PRODUCT_NNZ`` entries of A
        share one product, so a small plan pays one product's call overhead,
        not one per block.  The product forms each row on its own, so the
        parts have the same bits however the rows are grouped.  Building
        them also checks the ordering: an off-diagonal entry of ``A A^T``
        inside a block raises OrderingError."""
        n_rows, h, sizes, diag = layout
        n_live = h.size
        if rows is None:            # op's rows lo:lo + n_rows, and their transpose
            rows, base = self.op.mat, lo
            rows_t = self.op.mat_t
            if n_rows < self.op.shape[0]:
                cols = rows_t.indices
                rows_t = _csr_part(rows_t.data, cols, rows_t.indptr,
                                   (cols >= lo) & (cols < lo + n_rows),
                                   (rows_t.shape[0], n_rows))
                rows_t.indices -= lo
        else:
            base, rows_t = 0, rows.T.tocsr()
        bounds = np.cumsum([0] + sizes)     # colour block k: rows bounds[k]:bounds[k + 1]
        nnz = rows.indptr[base + bounds]    # A's entries before each block
        blocks = []
        first = 0
        while first < len(sizes):
            last = first + 1            # blocks first:last share one product
            while (last < len(sizes)
                   and nnz[last + 1] - nnz[first] <= GRAM_PRODUCT_NNZ):
                last += 1
            top = int(bounds[first])
            gram = _row_slice(rows, base + top, base + int(bounds[last])) @ rows_t
            for k in range(first, last):
                start, stop = int(bounds[k]), int(bounds[k + 1])
                if start < stop:
                    l_b, u_b = _gram_block(gram, slice(start - top, stop - top), start,
                                           n_live, tau / h[start:stop], diag[k])
                    lower, upper = (None if part.nnz == 0 else bind_csr_matvec(part)
                                    for part in (l_b, u_b))
                    blocks.append(GramBlock(slice(start, stop), lower, upper, l_b, u_b))
            del gram
            first = last
        inv_h = 1.0 / h
        return GramSegment("gram", lo, lo + n_rows, self.order[lo:lo + n_live], inv_h,
                           slice(lo, lo + n_live), *_steps(1.0 / inv_h, inv_h),
                           slice(lo + n_live, lo + n_rows), blocks)

    def permute(self, v):
        """The dual vector ``v`` (A's row order) in plan order."""
        return v[self.order]

    def unpermute(self, v):
        """The plan-order dual vector ``v`` back in A's row order."""
        out = np.empty_like(v)
        out[self.order] = v
        return out

    def subproblem(self, sub):
        """``sub`` in plan order.  It carries no metric: M2 acts in A's row
        order, and the sweep reads only ``z_ref`` and ``g`` (and ``rhs``
        its ``q``)."""
        return ZSubproblem(self.permute(sub.z_ref), self.permute(sub.q), None, sub.g)

    def rhs(self, z_ref, q):
        """The sweep's right-hand side ``z_ref + S q`` from ``q = A t``, both
        in plan order, as the row-order entry points form it: a new array."""
        c = z_ref.copy()
        for seg in self.segments:
            c[seg.rows] += q[seg.rows] * seg.step
        return c

    def forward_rhs(self, z_ref, t):
        """``S (S^-1 z_ref + A t)`` in plan order from the primal vector
        ``t``: a new array, ``rhs(z_ref, op.matvec(t))`` up to rounding.

        The forward product accumulates into ``S^-1 z_ref`` (one bound CSR
        product of ``op``'s matrix), and one in-place pass scales the rows
        by their steps, so each row sums A's terms before it is scaled, as
        ``q`` does, and no ``q`` is formed.  Dead rows take ``z_ref``'s bits."""
        c = np.empty(z_ref.size)
        for seg in self.segments:
            np.multiply(z_ref[seg.rows], seg.inv_step, out=c[seg.rows])
        self._forward(t, c)
        for seg in self.segments:
            c[seg.rows] *= seg.step
            c[seg.dead] = z_ref[seg.dead]
        return c

    def bind(self, g):
        """The per-segment kernels of ``g``: one for a diagonal segment, a
        list with one per colour block for a Gram segment, each the scalar
        conjugate prox of ``g`` at the rows' fixed step (``1/e`` or
        ``inv_h``) from ``g.conj_prox_kernel``.  A ``Concat`` resolves to the
        one part that holds the block, and the part's constants times the
        step are gathered once in plan order (nothing is stored for zero
        constants); a block spread over several parts routes through masks
        fixed at binding.  ``validate_config`` binds ``problem.g``; a sweep
        with any other ``g`` rebinds the plan first.  Raises
        UnsupportedKindError if ``g`` has no scalar conjugate prox."""
        if g is not self.g:
            kernels = []
            for seg in self.segments:
                if seg.kind == "diag":
                    kernels.append(g.conj_prox_kernel(1.0 / seg.e,
                                                      np.arange(seg.lo, seg.hi)))
                else:
                    kernels.append([g.conj_prox_kernel(seg.inv_h[blk.sl], seg.idx[blk.sl])
                                    for blk in seg.blocks])
            self.g, self.kernels = g, kernels
        return self.kernels


def inner_bcd(sub, plan, p, rhs=None):
    """p epochs of cyclic proximal BCD; each block update is an exact closed form.

    ``sub`` and the returned z are in A's row order, permuted into the
    plan's order for the sweep and back; the sweep's right-hand side is
    formed from ``sub.q`` (``BcdPlan.rhs``).  With ``rhs``, the right-hand
    side a step formed from its forward product (``BcdPlan.forward_rhs``),
    ``sub`` is in plan order, ``sub.q`` is not read, and z comes back in
    plan order, written over ``rhs``.
    """
    if p < 1:
        raise ConfigError("p must be >= 1")
    if rhs is not None:
        return _bcd_sweep(sub, plan, rhs, p), p
    sub = plan.subproblem(sub)
    return plan.unpermute(_bcd_sweep(sub, plan, plan.rhs(sub.z_ref, sub.q), p)), p


def solve_subproblem_exact(sub, tol=EXACT_TOL, max_iter=200000, gamma=None,
                           plan=None, rhs=None):
    """Iterate an inner solver (BCD epochs under a ``plan``, else FISTA with
    restart) until the step norm falls below tol: an "exact" solve for
    equivalence oracles and the reference engine.  Under a plan, ``sub``
    and the result are in A's row order, or with ``rhs`` in the plan's
    (see ``inner_bcd``); ``rhs`` is then left as it is."""
    if plan is None:
        if gamma is None:
            gamma = 1.0 / max(m2_norm_estimate(sub.m2), 1e-30)
        return _fista_restart(sub.z_ref, sub.grad_quad, sub.objective,
                              _conj_prox_at(sub.g, gamma), gamma, max_iter, tol)
    plan_order = rhs is not None
    if not plan_order:
        sub = plan.subproblem(sub)
        rhs = plan.rhs(sub.z_ref, sub.q)
    z = sub.z_ref
    for _ in range(max_iter):
        z_new = _bcd_sweep(sub, plan, rhs.copy(), 1, z)
        done = _small_step(z_new, z, tol)
        z = z_new
        if done:
            break
    return z if plan_order else plan.unpermute(z)


def _bcd_sweep(sub, plan, c, epochs, z=None):
    """``epochs`` BCD epochs in plan order, from z (from ``sub.z_ref`` when
    None); the new z is written over ``c``, the right-hand side
    ``z_ref + S q`` (see ``BcdPlan``), and returned.

    A diagonal segment does not depend on z: it is solved once, in place.
    A Gram segment carries ``e = z_ref - z`` over its live range.  Block b
    sets ``e_b = z_ref_b - kernel_b(c_b + G_b e)``, the block minimizer
    ``kernel_b(c_b - G_b dz)`` with ``dz = z - z_ref = -e``.  ``G_b e`` is
    ``L_b e`` and then ``U_b e`` accumulated into a copy of ``c_b`` (see
    ``GramBlock``), or into ``c_b`` itself in the last epoch, which reads it
    for the last time, so no zero fill and no subtraction pass; with no
    product to add the kernel reads ``c_b`` as it is.  In a first epoch
    from z_ref the blocks not yet swept have ``e = 0``, so it reads
    ``L_b`` only and e starts uninitialized.  After the last epoch the live
    range of ``c`` becomes ``z_ref - e``, which is ``z_ref + dz`` bit for
    bit.  Dead rows of ``c`` are not touched.
    """
    for seg, kernel in zip(plan.segments, plan.bind(sub.g)):
        rhs = c[seg.rows]
        if seg.kind == "diag":
            c[seg.rows] = kernel(rhs)
            continue
        z_ref = sub.z_ref[seg.rows]
        first = z is None       # e holds only the blocks swept so far
        e = np.empty(seg.idx.size) if first else z_ref - z[seg.rows]
        for epoch in range(epochs, 0, -1):
            for blk, block_kernel in zip(seg.blocks, kernel):
                lower, upper = blk.lower, None if first else blk.upper
                v = rhs[blk.sl]
                if lower is not None or upper is not None:
                    if epoch > 1:
                        v = v.copy()
                    if lower is not None:
                        lower(e, v)
                    if upper is not None:
                        upper(e, v)
                np.subtract(z_ref[blk.sl], block_kernel(v), out=e[blk.sl])
            first = False
        np.subtract(z_ref, e, out=rhs)
    return c


def m2_norm_estimate(m2):
    """Power-iteration estimate of lambda_max(M2), deterministic seeded start."""
    return power_iteration(m2.apply, m2.dim)


# ---------------------------------------------------------------------------
# theory constants

def c_proxgrad(gamma, lam_min, lam_max, p):
    """Relative-error constant after p proximal-gradient inner steps."""
    if lam_min <= 0:
        raise SingularMetricError("c(p) needs lambda_min(M2) > 0")
    hi = 2.0 * lam_min / lam_max ** 2
    if not 0 < gamma < hi:
        raise InfeasibleStepsizeError(f"gamma must lie in (0, {hi})")
    if p < 1:
        raise ConfigError("p must be >= 1")
    t = math.sqrt(1.0 - gamma * (2.0 * lam_min - gamma * lam_max ** 2))
    return (1.0 / gamma + lam_max) / (1.0 - t ** p) * (t ** p + t ** (p - 1))


def _bcd_gamma_bounds(gamma, lam_min, lam_max, l):
    theta = math.sqrt(max(0.0, 1.0 - gamma * (2.0 * lam_min - gamma * lam_max ** 2)))
    b1 = 2.0 * lam_min / lam_max ** 2
    b2 = (1.0 - theta) / (4.0 * math.sqrt(2.0) * gamma * l * lam_max)
    b3 = 1.0 / (4.0 * l * lam_max)
    b4 = 2.0 * l * lam_max / (17.0 * l * lam_max + 2.0 * ((1.0 - theta) / gamma) ** 2)
    return min(b1, b2, b3, b4)


def bcd_gamma_feasible(gamma, lam_min, lam_max, l):
    if lam_min <= 0:
        raise SingularMetricError("gamma feasibility needs lambda_min(M2) > 0")
    if gamma <= 0 or gamma >= 2.0 * lam_min / lam_max ** 2:
        return False
    return gamma <= _bcd_gamma_bounds(gamma, lam_min, lam_max, l)


def find_bcd_gamma(lam_min, lam_max, l):
    """Largest feasible BCD stepsize on a log grid over (0, 2 lam_min/lam_max^2).

    The error-constant inequalities are implicit in gamma, so feasibility is
    resolved numerically, on ``BCD_GAMMA_GRID`` points.
    """
    if lam_min <= 0:
        raise SingularMetricError("gamma search needs lambda_min(M2) > 0")
    hi = 2.0 * lam_min / lam_max ** 2
    grid = hi * np.logspace(-12, 0, BCD_GAMMA_GRID, endpoint=False)
    feasible = [g for g in grid if bcd_gamma_feasible(g, lam_min, lam_max, l)]
    if not feasible:
        raise InfeasibleStepsizeError(
            f"no feasible gamma found in (0, {hi}) for l={l}, "
            f"lam_min={lam_min}, lam_max={lam_max}")
    return float(feasible[-1])


def c_bcd(gamma, lam_min, lam_max, l, p):
    """Relative-error constant after p cyclic-BCD epochs over l blocks."""
    if not bcd_gamma_feasible(gamma, lam_min, lam_max, l):
        raise InfeasibleStepsizeError("gamma violates the BCD stepsize condition")
    if p < 1:
        raise ConfigError("p must be >= 1")
    theta = math.sqrt(1.0 - gamma * (2.0 * lam_min - gamma * lam_max ** 2))
    rho = 1.0 - (1.0 - theta) ** 2 / (2.0 * gamma)
    return (l * lam_max + 1.0 / gamma) * (rho ** p + rho ** (p - 1)) / (1.0 - rho ** p)


# ---------------------------------------------------------------------------
# diagnostics

def relative_error_residual(z_prev, z_new, sub):
    """(||eps||, ||eps|| / ||z_new - z_prev||) for the subproblem optimality
    inclusion, with eps the minimal-norm admissible error term."""
    eps = sub.g.conj_residual(z_new, sub.grad_quad(z_new))
    eps_norm = float(np.linalg.norm(eps))
    dz = float(np.linalg.norm(z_new - z_prev))
    if dz == 0.0:
        ratio = 0.0 if eps_norm <= 1e-14 else math.inf
    else:
        ratio = eps_norm / dz
    return eps_norm, ratio


def ergodic_gap_bound(x0, z0, x, z, m1, m2, A, N):
    """A-posteriori bound on the averaged iterates' saddle gap at (x, z)."""
    dx = np.asarray(x, dtype=float) - x0
    dz = np.asarray(z, dtype=float) - z0
    val = (float(dx @ m1.apply(dx)) + float(dz @ m2.apply(dz))
           - 2.0 * float(A.matvec(dx) @ dz))
    return val / (2.0 * N)


def saddle_value(problem, x, z, feas_tol=1e-8):
    """phi(x, z) = f(x) + <Ax, z> - g*(z)."""
    return (problem.f.value(x) + float(problem.A.matvec(x) @ z)
            - problem.g.conjugate_value(z, feas_tol))


def lyapunov(z, y, u, m1, problem, feas_tol=1e-6):
    """Generalized augmented Lagrangian L(z, y, u) of the dual-form algorithm."""
    d = m1.diagonal()
    r = problem.A.rmatvec(z) + y
    return (problem.g.conjugate_value(z, feas_tol)
            + problem.f.conjugate_value(y, feas_tol)
            + float(-r @ (u / d)) + 0.5 * float(r @ (r / d)))


def dual_transform(x_curr, x_prev, z_prev, m1, A):
    """Shadow dual variables (y, u) aligned with the dual-form algorithm."""
    d = m1.diagonal()
    u = d * np.asarray(x_curr, dtype=float)
    y = d * np.asarray(x_prev, dtype=float) - A.rmatvec(z_prev) - u
    return y, u


def admm_dual_step(z, y, v, tau, problem, tol=1e-13, max_iter=500000):
    """One ADMM step on the dual problem; the z-minimization is solved to
    high accuracy, so this serves as an equivalence oracle."""
    A, g = problem.A, problem.g
    gamma = 1.0 / max(tau * op_norm_sq_estimate(A), 1e-30)

    def obj(w):
        r = A.rmatvec(w) + y
        return g.conjugate_value(w) + float(-r @ v) + 0.5 * tau * float(r @ r)

    z_new = _fista_restart(np.asarray(z, dtype=float),
                           lambda w: A.matvec(tau * (A.rmatvec(w) + y) - v),
                           obj, _conj_prox_at(g, gamma), gamma, max_iter, tol)
    w = v / tau - A.rmatvec(z_new)
    y_new = _prox.conj_prox_via_moreau(problem.f, w, np.full(problem.f.dim, 1.0 / tau))
    v_new = v - tau * (A.rmatvec(z_new) + y_new)
    return z_new, y_new, v_new


# ---------------------------------------------------------------------------
# elementary steps

def pdhg_step(x, z, problem, tau, sigma, f_prox=None, g_conj=None,
              return_q=False):
    """One classic PDHG iteration, ``(x_new, z_new)``.  ``f_prox`` is
    ``f.prox_kernel(1/tau)`` and ``g_conj`` the dual step
    ``g.conj_prox_kernel(sigma)``, which ``validate_config`` binds once per
    run; each is bound here if not given.  With ``return_q`` it returns
    ``(x_new, z_new, q)``, where ``q = A(2 x_new - x)`` is the step's
    forward product."""
    f, g, A = problem.f, problem.g, problem.A
    if f_prox is None:
        f_prox = f.prox_kernel(1.0 / tau)
    if g_conj is None:
        g_conj = _conj_prox_at(g, sigma)
    x_new = f_prox(x - tau * A.rmatvec(z))
    q = A.matvec(2.0 * x_new - x)
    z_new = g_conj(z + sigma * q)
    return (x_new, z_new, q) if return_q else (x_new, z_new)


def prepdhg_x_step(x, z, problem, m1, f_prox=None, A=None):
    """Exact x-subproblem: a diagonal-metric prox of f.  ``f_prox`` is
    ``f.prox_kernel(m1.diagonal())``, which ``validate_config`` binds once
    per run; it is bound here if not given.  ``A`` is the operator z is
    paired with: ``problem.A``, or a ``BcdPlan``'s ``op`` when z is in plan
    order.  ``m1.apply_inverse`` divides by the diagonal (a scalar for a
    scaled identity), the same quotients as dividing by ``m1.diagonal()``."""
    if f_prox is None:
        f_prox = problem.f.prox_kernel(m1.diagonal())
    if A is None:
        A = problem.A
    w = m1.apply_inverse(A.rmatvec(z))
    return f_prox(np.subtract(x, w, out=w))


# ---------------------------------------------------------------------------
# main loop

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc mallopt parameters
_heap_fixed = False


def _fix_heap_thresholds():
    """Fix glibc malloc's mmap threshold at 32 MB and its trim threshold at
    64 MB, once per process.

    An outer iteration allocates and frees a few MB of array temporaries.
    Under glibc's default, adaptive thresholds, whether they are reused in
    place or handed back to the OS and page-faulted in again on every
    iteration depends on whatever the process allocated before: without
    this fix a 150-iteration solve of the 256x256 TV-L1 benchmark instance
    took 1.8k-2.8k (PDHG) or 6.9k-7.8k (iPrePDHG) minor page faults, not 0,
    and its solve times moved by a few percent.  These are the values the
    adaptive rule itself reaches after freeing a 32 MB block, so arrays up
    to 32 MB stay on the heap and the heap stays mapped.
    The setting is process-wide; it is skipped where the C library is not
    glibc.
    """
    global _heap_fixed
    if _heap_fixed:
        return
    _heap_fixed = True
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _bind_x_prox(f, d):
    """``f.prox_kernel(d)``, with a metric that does not suit ``f`` (one that
    varies within a ``GroupL12`` group) reported as a ConfigError."""
    try:
        return f.prox_kernel(d)
    except _prox.UnsupportedMetricError as exc:
        raise ConfigError(f"the x-step metric does not suit f: {exc}") from None


def validate_config(problem, config):
    """Check ``config`` against ``problem`` and resolve what a run needs, once.

    Returns a dict.  Its ``step(x, z) -> (x_new, z_new, sub, q)`` is the
    run's iteration: ``pdhg_step`` (``sub`` None), or ``prepdhg_x_step`` and
    a z-solver of the ZSubproblem ``sub``: for prepdhg_exact the closed form
    under a diagonal M2 or ``solve_subproblem_exact``, for iprepdhg ``p``
    steps of ``inner_bcd``, ``inner_proxgrad`` or ``inner_fista_restart``,
    looked up in this module when called.  ``q`` is the step's forward
    product ``A(2 x_new - x)`` in A's row order (``sub.q`` for a
    preconditioned step), or None for a step that sweeps a plan: it
    accumulates its forward product straight into the sweep's right-hand
    side (``BcdPlan.forward_rhs``), so it forms no ``q`` and its ``sub``
    holds only ``z_ref`` (plan order) and ``g``.  The conjugate prox of
    ``g`` that a step reads is a kernel bound once (``_conj_prox_at`` for
    pdhg and the z-solvers; ``BcdPlan.bind`` for a sweep), so no iteration
    calls ``prox.conj_prox``.  Also ``f_prox``, the x-step prox of ``f``
    bound at ``1/tau`` or ``m1``'s diagonal; ``sigma`` (pdhg), else
    ``m1``, ``m2``, ``plan`` and ``gamma``, None where the z-solver does
    not read them.  ``plan`` is the bound ``BcdPlan`` of a z-step that
    sweeps one (iprepdhg with bcd, prepdhg_exact with bcd under a
    non-diagonal M2); that step takes and returns z in the plan's order
    (``plan.order``) and pairs it with ``plan.op``, and ``run()`` permutes
    z at the edges of the run.  Raises ConfigError for a configuration that
    cannot run, or whose fields would not do what they say: pdhg takes no
    ``inner``, ``m1``, ``m2`` or ``gamma``, the other two no ``sigma``, and
    prepdhg_exact no ``inner="proxgrad"``; ``p``, ``max_outer`` and
    ``log_every`` must be integers >= 1; ``tol_delta``, ``tol_residual``
    and ``max_seconds``, when set, finite and >= 0; ``phi_star`` finite;
    and ``tol_delta`` needs ``phi_star``.
    """
    m, n = problem.dims
    cfg = config
    if cfg.algorithm not in ("pdhg", "prepdhg_exact", "iprepdhg"):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    for name in ("p", "max_outer", "log_every"):
        value = getattr(cfg, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    for name in ("tol_delta", "tol_residual", "max_seconds", "phi_star"):
        value = getattr(cfg, name)
        if value is None:
            continue
        if not (isinstance(value, numbers.Real) and math.isfinite(value)) or (
                name != "phi_star" and value < 0):
            kind = "finite" if name == "phi_star" else "finite and >= 0"
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if cfg.tol_delta is not None and cfg.phi_star is None:
        raise ConfigError("tol_delta needs phi_star: the gap is measured to it")
    for name in ("tau", "sigma", "gamma"):
        value = getattr(cfg, name)
        if value is None and name != "tau":
            continue        # sigma and gamma default to stepsizes from ||A||, ||M2||
        if value is None or not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    for name, dim in (("x0", n), ("z0", m)):
        start = getattr(cfg, name)
        if start is not None and np.shape(start) != (dim,):
            raise ConfigError(f"{name} must have shape ({dim},), got {np.shape(start)}")
    for name, dim in (("m1", n), ("m2", m)):
        metric = getattr(cfg, name)
        if metric is not None and metric.dim != dim:
            raise ConfigError(f"{name} is {metric.dim}-dim, A is {m}x{n}")
    if cfg.algorithm == "pdhg":
        # fields only the preconditioned steps read; pdhg_step would
        # silently ignore them
        for name in ("inner", "m1", "m2", "gamma"):
            if getattr(cfg, name) is not None:
                what = "inner iterator" if name == "inner" else name
                raise ConfigError(f"pdhg takes no {what}: its steps are tau and sigma")
        tau, sigma = cfg.tau, cfg.sigma
        norm_sq = op_norm_sq_estimate(problem.A)
        if sigma is None:
            sigma = 1.0 / (tau * norm_sq) if norm_sq > 0 else 1.0
        elif norm_sq > 0 and 1.0 / (tau * sigma) < norm_sq / 1.01 * (1 - 1e-9):
            raise ConfigError("pdhg stepsizes violate 1/(tau*sigma) >= ||A||^2")
        f_prox = _bind_x_prox(problem.f, 1.0 / tau)
        g_conj = _conj_prox_at(problem.g, sigma)

        def step(x, z):
            x_new, z_new, q = pdhg_step(x, z, problem, tau, sigma, f_prox,
                                        g_conj, return_q=True)
            return x_new, z_new, None, q

        return {"sigma": sigma, "f_prox": f_prox, "step": step}
    # fields the preconditioned steps would silently ignore: m2 sets the
    # dual step, and prepdhg_exact's z-solve runs BCD or FISTA to tolerance
    if cfg.sigma is not None:
        raise ConfigError(f"{cfg.algorithm} takes no sigma: its dual step is m2")
    if cfg.algorithm == "prepdhg_exact" and cfg.inner == "proxgrad":
        raise ConfigError("prepdhg_exact takes no inner='proxgrad': its exact "
                          "z-solve is bcd or fista_restart")
    m1 = cfg.m1 if cfg.m1 is not None else scaled_identity(cfg.tau, n)
    m2 = cfg.m2 if cfg.m2 is not None else gram_precond(problem.A, cfg.tau)
    if not isinstance(m1, (ScaledIdentity, Diagonal)):
        raise ConfigError("M1 must be a scaled-identity or diagonal form")
    inner = cfg.inner
    if cfg.algorithm == "iprepdhg" and inner is None:
        inner = "bcd"
    if inner not in ("bcd", "proxgrad", "fista_restart", None):
        raise ConfigError(f"unknown inner iterator {inner!r}")
    f_prox = _bind_x_prox(problem.f, m1.diagonal())
    closed_form = (cfg.algorithm == "prepdhg_exact"
                   and isinstance(m2, (Diagonal, ScaledIdentity)))
    plan = gamma = None
    if closed_form:
        pass                    # reads neither a plan nor gamma
    elif inner == "bcd":
        plan = BcdPlan(problem.A, m2)
        try:
            plan.bind(problem.g)
        except _prox.UnsupportedKindError as exc:
            raise ConfigError(f"inner='bcd' needs a scalar conjugate prox: {exc}") from None
    else:                       # the gradient z-solvers read gamma
        gamma = cfg.gamma
        if gamma is None:
            gamma = 1.0 / max(m2_norm_estimate(m2), 1e-30)
    z_solve = _z_solver(cfg.algorithm, closed_form, inner, problem.g, m2, plan,
                        gamma, cfg.p)

    if plan is None:
        def step(x, z):
            x_new = prepdhg_x_step(x, z, problem, m1, f_prox)
            t = 2.0 * x_new
            t -= x
            sub = ZSubproblem(z, problem.A.matvec(t), m2, problem.g)
            return x_new, z_solve(sub), sub, sub.q
    else:
        # a z-step that sweeps a plan works in its order, where M2 does not
        # act; its forward product goes straight into the sweep's
        # right-hand side, so no q is formed
        def step(x, z):
            x_new = prepdhg_x_step(x, z, problem, m1, f_prox, plan.op)
            t = 2.0 * x_new
            t -= x
            sub = ZSubproblem(z, None, None, problem.g)
            return x_new, z_solve(sub, plan.forward_rhs(z, t)), sub, None

    return {"m1": m1, "m2": m2, "f_prox": f_prox, "plan": plan,
            "gamma": gamma, "step": step}


def _z_solver(algorithm, closed_form, inner, g, m2, plan, gamma, p):
    """The z-step ``sub -> z_new`` of a preconditioned algorithm;
    ``closed_form`` says it is prepdhg_exact under a diagonal M2.  Under a
    plan it is ``(sub, rhs) -> z_new``, all in plan order, with ``rhs`` the
    sweep's right-hand side (``BcdPlan.forward_rhs``).  The conjugate prox
    of ``g`` that a step reads is bound here, once per run: at ``1/d2`` for
    the closed form, at ``gamma`` for the gradient inner iterators (the
    exact solve binds its own per solve)."""
    if closed_form:
        d2 = m2.diagonal()
        g_conj = _conj_prox_at(g, 1.0 / d2)
        return lambda sub: g_conj(sub.z_ref + sub.q / d2)
    if algorithm == "prepdhg_exact":
        if plan is None:
            return lambda sub: solve_subproblem_exact(sub, gamma=gamma)
        return lambda sub, rhs: solve_subproblem_exact(sub, plan=plan, rhs=rhs)
    if inner == "bcd":
        return lambda sub, rhs: inner_bcd(sub, plan, p, rhs)[0]
    conj_prox = _conj_prox_at(g, gamma)
    if inner == "proxgrad":
        return lambda sub: inner_proxgrad(sub, gamma, p, conj_prox)[0]
    return lambda sub: inner_fista_restart(sub, gamma, p, conj_prox)[0]


def run(problem, config, resolved=None):
    """Run the configured outer algorithm; returns a RunResult.

    ``resolved`` is what ``validate_config(problem, config)`` returned, for a
    caller that has already validated; without it the config is validated
    here.  When the z-step sweeps a BCD plan, z stays in the plan's order
    for the whole loop: ``z0`` is permuted into it on the way in, and
    ``state.z`` and ``sum_z`` back out of it on the way out; the err-ratio
    and Lyapunov monitors, when on, get z in A's row order.  Such a step
    forms no ``q`` (its forward product goes into the sweep's right-hand
    side, a new buffer that becomes ``z_new``), so the err-ratio monitor
    forms ``A(2 x_new - x_prev)`` itself, in A's row order.  ``phi`` and
    the feasibility monitor read only x.

    Under a gap stop (``tol_delta`` with ``phi_star``) on a problem without
    its own ``objective``, the per-iteration ``phi`` reads an ``A x_k``
    carried from the step's forward product ``q_k = A(2 x_k - x_{k-1})``:
    ``ax <- (q_k + ax) / 2``, seeded by one ``A.matvec(x0)``, so no
    iteration applies A a second time for its gap.  The error of ``ax``
    halves at each step, so it stays at the rounding level of the products:
    within a few ulps of ``max(|A| |x_k|)``.  It applies where the step
    hands ``q`` back in A's row order (PDHG and the preconditioned steps
    without a BCD plan); a plan's step forms no ``q``, and its gap check
    applies A afresh.  Logged rows, the final iterate and any iteration
    whose carried gap is NaN or within ``GAP_BAND`` of ``tol_delta`` (or
    below it) take the exact ``phi``, whose product reseeds ``ax``: every
    trace row, ``final_delta`` and the ``converged`` status come from the
    exact ``phi`` of that iterate.

    The run stops with status ``diverged`` when a monitored scalar shows a
    non-finite iterate: ``dz_norm`` not finite, or ``phi`` NaN (an infinite
    ``phi`` can be an indicator's value at a finite iterate).  Both are
    computed at the log cadence or for a stop rule, so the check costs no
    extra work.
    """
    _fix_heap_thresholds()
    cfg = config
    if resolved is None:
        resolved = validate_config(problem, cfg)
    m, n = problem.dims
    x = np.zeros(n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float).copy()
    z = np.zeros(m) if cfg.z0 is None else np.asarray(cfg.z0, dtype=float).copy()
    plan = resolved.get("plan")
    if plan is not None:
        z = plan.permute(z)
    state = IterateState(x=x, z=z, sum_x=np.zeros(n), sum_z=np.zeros(m))
    trace = Trace()
    step = resolved["step"]
    m1 = resolved.get("m1")
    status = "not-converged"
    final_delta = None
    elapsed = 0.0
    monitor_s = 0.0

    gap_stop = cfg.tol_delta is not None and cfg.phi_star is not None
    carry = gap_stop and problem.objective is None
    ax = None                   # A x_k carried from the steps' q (see above)
    carried = np.empty(m) if carry else None

    def in_rows(v):
        return v if plan is None else plan.unpermute(v)

    def gap(obj):
        num = abs(obj - cfg.phi_star)
        return 0.0 if num == 0.0 else num / max(abs(cfg.phi_star), 1e-300)

    for k in range(1, cfg.max_outer + 1):
        tic = time.perf_counter()
        x_prev, z_prev = state.x, state.z
        x_new, z_new, sub, q = step(x_prev, z_prev)
        state.x, state.z = x_new, z_new
        state.sum_x += x_new
        state.sum_z += z_new
        state.k = k
        elapsed += time.perf_counter() - tic

        # monitoring: each quantity only when a log row or a stop rule reads it
        tic = time.perf_counter()
        logged = k % cfg.log_every == 0 or k == cfg.max_outer
        dz_norm = None
        if logged or cfg.tol_residual is not None:
            dz_norm = float(np.linalg.norm(z_new - z_prev))
        stop_residual = False
        if cfg.tol_residual is not None:
            res = (max(np.linalg.norm(x_new - x_prev), dz_norm)
                   / (1.0 + np.linalg.norm(x_new) + np.linalg.norm(z_new)))
            stop_residual = res < cfg.tol_residual
        stop_time = cfg.max_seconds is not None and elapsed >= cfg.max_seconds
        final = k == cfg.max_outer or stop_residual or stop_time
        obj = delta = None
        if logged or gap_stop or (final and cfg.phi_star is not None):
            rows_q = carry and q is not None
            if rows_q and not (logged or final):
                if ax is None:
                    ax = problem.A.matvec(x_prev)
                ax = np.add(q, ax, out=carried)
                ax *= 0.5
                obj = problem.phi(x_new, ax)
                delta = gap(obj)
                if not delta >= cfg.tol_delta + GAP_BAND:
                    obj = None          # near or past the stop, or NaN
            if obj is None:
                if rows_q:              # exact, and reseeds the carried product
                    ax = problem.A.matvec(x_new)
                    obj = problem.phi(x_new, ax)
                else:
                    obj = problem.phi(x_new)
                delta = None if cfg.phi_star is None else gap(obj)
            final_delta = delta
        if logged:
            feas = problem.feasibility(x_new) if problem.feasibility else None
            err_ratio = None
            if cfg.monitor_err_ratio and sub is not None:
                if plan is not None:        # the monitor reads A's row order
                    t = 2.0 * x_new
                    t -= x_prev
                    sub = ZSubproblem(in_rows(z_prev), problem.A.matvec(t),
                                      resolved["m2"], problem.g)
                try:
                    _, err_ratio = relative_error_residual(sub.z_ref,
                                                           in_rows(z_new), sub)
                except _prox.UnsupportedKindError:
                    pass
            lyap = None
            if cfg.monitor_lyapunov and m1 is not None:
                z_prev_rows = in_rows(z_prev)
                y, u = dual_transform(x_new, x_prev, z_prev_rows, m1, problem.A)
                lyap = lyapunov(z_prev_rows, y, u, m1, problem)
            trace.add(k=k, obj=obj, delta=delta, feas=feas, dz_norm=dz_norm,
                      err_ratio=err_ratio, lyapunov=lyap, time_s=elapsed)
        diverged = ((dz_norm is not None and not math.isfinite(dz_norm))
                    or (obj is not None and math.isnan(obj)))
        stop_delta = (cfg.tol_delta is not None and delta is not None
                      and delta < cfg.tol_delta)
        monitor_s += time.perf_counter() - tic

        if diverged:
            status = "diverged"
            break
        if stop_delta or stop_residual:
            status = "converged"
            break
        if stop_time:
            break

    state.z, state.sum_z = in_rows(state.z), in_rows(state.sum_z)
    return RunResult(state=state, trace=trace, status=status,
                     outer_iters=state.k, time_s=elapsed,
                     final_delta=final_delta, monitor_s=monitor_s)
