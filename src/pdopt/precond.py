"""Preconditioner pairs (M1, M2), block orderings, and desk-scale validators.

M1 is restricted to scaled-identity or diagonal form so the x-subproblem
stays an exact diagonal-metric prox.  M2 may additionally be a Gram form
tau * A A^T (+ optional ridge) or a block-diagonal composite; Gram forms are
never materialized or inverted outside the desk-scale validators.
"""

import warnings

import numpy as np

from .operators import (Div2D, Grad2D, OrderingError, WeightedGrad2D,
                        op_norm_sq_estimate)

DENSE_GUARD = 2000     # largest dimension the dense desk-scale checks materialize


class Preconditioner:
    """Symmetric PSD metric with a matvec ``apply``; inverses only for diagonal forms."""

    dim = 0

    def apply(self, v):
        raise NotImplementedError

    def apply_inverse(self, v):
        raise NotImplementedError(
            "apply_inverse is only available for scaled-identity and diagonal forms")

    def diagonal(self):
        """Diagonal as an array, for forms that are diagonal."""
        raise NotImplementedError("not a diagonal form")

    def dense(self, guard=DENSE_GUARD):
        if self.dim > guard:
            raise ValueError(
                f"refusing to materialize a {self.dim}-dim preconditioner densely; "
                "dense validation is a desk-scale diagnostic")
        eye = np.eye(self.dim)
        return np.column_stack([self.apply(eye[:, j]) for j in range(self.dim)])


class ScaledIdentity(Preconditioner):
    def __init__(self, scale, dim):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self.dim = dim

    def apply(self, v):
        return self.scale * np.asarray(v, dtype=float)

    def apply_inverse(self, v):
        return np.asarray(v, dtype=float) / self.scale

    def diagonal(self):
        return np.full(self.dim, self.scale)


class Diagonal(Preconditioner):
    def __init__(self, d):
        d = np.asarray(d, dtype=float).ravel()
        if np.any(d <= 0):
            raise ValueError("diagonal entries must be strictly positive")
        self.d = d
        self.dim = d.size

    def apply(self, v):
        return self.d * np.asarray(v, dtype=float)

    def apply_inverse(self, v):
        return np.asarray(v, dtype=float) / self.d

    def diagonal(self):
        return self.d


class Gram(Preconditioner):
    """tau * A A^T + ridge * I, held implicitly through matvecs with A."""

    def __init__(self, tau, A, ridge=0.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.tau = float(tau)
        self.A = A
        self.ridge = float(ridge)
        self.dim = A.shape[0]

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        out = self.tau * self.A.matvec(self.A.rmatvec(v))
        if self.ridge:
            out = out + self.ridge * v
        return out


class BlockDiag(Preconditioner):
    """Block-diagonal composite over consecutive row ranges."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.offsets = np.cumsum([0] + [p.dim for p in self.parts])
        self.dim = int(self.offsets[-1])

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        return np.concatenate([p.apply(v[lo:hi]) for p, lo, hi in
                               zip(self.parts, self.offsets, self.offsets[1:])])


class BlockOrdering:
    """Partition of dual coordinates into color blocks with a fixed sweep order."""

    def __init__(self, kind, blocks):
        self.kind = kind
        self.blocks = [np.asarray(b, dtype=int) for b in blocks]
        total = np.sort(np.concatenate(self.blocks))
        if not np.array_equal(total, np.arange(total.size)):
            raise OrderingError("blocks must partition the coordinate range")

    @property
    def num_blocks(self):
        return len(self.blocks)


def two_block_ordering(rows, cols):
    """Checkerboard split of grid nodes: black = (i + j) even (1-based)."""
    nodes = np.arange(rows * cols)
    i, j = np.ogrid[:rows, :cols]
    red = ((i + j) % 2 == 1).ravel()
    return BlockOrdering("two_block", [nodes[~red], nodes[red]])


def four_block_ordering(rows, cols):
    """Channel-1 rows split by row parity, channel-2 rows by column parity.

    Fixed sweep order: odd-i channel-1, even-i channel-1, odd-j channel-2,
    even-j channel-2 (parities in the 1-based convention).  Each block is a
    strided slice of the node grid, read in row-major order.
    """
    mn = rows * cols
    grid = np.arange(mn).reshape(rows, cols)
    blocks = [grid[0::2].ravel(),                 # 1-based odd i
              grid[1::2].ravel(),
              mn + grid[:, 0::2].ravel(),         # 1-based odd j
              mn + grid[:, 1::2].ravel()]
    return BlockOrdering("four_block", blocks)


def trivial_ordering(dim):
    """Single all-coordinates block, valid only under a diagonal metric."""
    return BlockOrdering("trivial", [np.arange(dim)])


def ordering_for(A):
    """The claim-mandated color ordering for a grid operator."""
    if isinstance(A, Div2D):
        return two_block_ordering(A.rows, A.cols)
    if isinstance(A, (Grad2D, WeightedGrad2D)):
        return four_block_ordering(A.rows, A.cols)
    raise OrderingError(
        f"no block ordering for operator {type(A).__name__}; "
        "use a gradient-based inner iterator")


def scaled_identity(tau, n):
    """M = (1/tau) I, the metric of an unpreconditioned prox step."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return ScaledIdentity(1.0 / tau, n)


def pock_diagonal(A):
    """The diagonal pair (column absolute sums, row absolute sums)."""
    mat = A.to_sparse()
    col_sums = np.asarray(abs(mat).sum(axis=0)).ravel()
    row_sums = np.asarray(abs(mat).sum(axis=1)).ravel()
    for name, s in (("column", col_sums), ("row", row_sums)):
        degenerate = s == 0
        if np.any(degenerate):
            warnings.warn(f"zero {name} sums replaced by 1 (degenerate coordinates)")
            s[degenerate] = 1.0
    return Diagonal(col_sums), Diagonal(row_sums)


def gram_precond(A, tau, ridge=0.0):
    """M2 = tau A A^T (+ ridge I): the bound-minimizing choice for M1 = I/tau."""
    return Gram(tau, A, ridge)


def ct_block_precond(R, rows, cols, tau, variant="norm", grad=None):
    """Block preconditioner pair for the stacked (R; D) tomography operator.

    variant "norm":   M1 = (2/tau) I,  M2 = blockdiag(tau ||R||^2 I, tau D D^T)
    variant "rowsum": M1 = diag(column abs sums of R) + (1/tau) I,
                      M2 = blockdiag(diag(row abs sums of R), tau D D^T)

    ``grad`` is D, the stacked operator's own ``Grad2D`` block, so a BCD
    plan reads the Gram block's rows from the operator it already holds;
    without it a new ``Grad2D(rows, cols)`` is built.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    mat = R.to_sparse()
    if mat.shape[1] != rows * cols:
        raise ValueError("R column count must equal the grid size")
    n = rows * cols
    if grad is None:
        grad = Grad2D(rows, cols, h=1.0)
    elif grad.shape != (2 * n, n):
        raise ValueError("grad must be the rows x cols grid's gradient")
    if variant == "norm":
        m1 = ScaledIdentity(2.0 / tau, n)
        top = ScaledIdentity(tau * op_norm_sq_estimate(R), mat.shape[0])
    elif variant == "rowsum":
        col_sums = np.asarray(abs(mat).sum(axis=0)).ravel()
        row_sums = np.asarray(abs(mat).sum(axis=1)).ravel()
        if np.any(row_sums == 0):
            raise ValueError("rowsum variant needs R without zero rows")
        m1 = Diagonal(col_sums + 1.0 / tau)
        top = Diagonal(row_sums)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    m2 = BlockDiag([top, Gram(tau, grad)])
    return m1, m2


def validate_schur(m1, m2, A):
    """Smallest eigenvalue of M2 - A M1^{-1} A^T, materialized densely.

    Returns (valid, min_eig) with valid = (min_eig >= -1e-10).  Desk-scale
    diagnostic only; refuses m + n above ``DENSE_GUARD``.
    """
    m, n = A.shape
    if m + n > DENSE_GUARD:
        raise ValueError(
            f"validate_schur refuses m+n={m + n} > {DENSE_GUARD}: dense eigencheck "
            "is a desk-scale diagnostic")
    dense_a = A.to_sparse().toarray()
    m1_inv = np.diag(1.0 / m1.diagonal())
    schur = m2.dense() - dense_a @ m1_inv @ dense_a.T
    min_eig = float(np.linalg.eigvalsh(0.5 * (schur + schur.T))[0])
    return min_eig >= -1e-10, min_eig


def metric_spectrum(m2):
    """(lambda_min, smallest positive lambda, lambda_max) of a dense-materializable M2.

    The smallest positive eigenvalue is reported separately because Gram
    metrics of grid operators can be singular while the inner-solver theory
    divides by lambda_min; callers must decide which one applies.
    """
    dense = m2.dense()
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    pos = eigs[eigs > 1e-12 * max(1.0, eigs[-1])]
    lam_min_pos = float(pos[0]) if pos.size else 0.0
    return float(eigs[0]), lam_min_pos, float(eigs[-1])
