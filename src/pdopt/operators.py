"""Grid finite-difference operators, sparse operators, and block-structure tools.

Conventions: an M x N grid is stored row-major as a flat vector of length
M*N (node (i, j), 0-based, maps to i*N + j).  A two-channel field on the
grid is a flat vector of length 2*M*N with channel 1 (vertical differences)
occupying the first M*N entries and channel 2 the next M*N, so that
color-block slices are contiguous per channel.

The divergence is implemented as the exact negative adjoint of the
gradient, i.e. with the 1/h scaling.  This is forced by the adjoint
identity the block solvers rely on; see the project README.
"""

import numbers

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

POWER_ITERS = 200      # products a power iteration takes at most ...
POWER_TOL = 1e-10      # ... before its Rayleigh quotient moves less than this, relative


class DimensionMismatchError(ValueError):
    """Operator applied to a vector of the wrong length."""


class InvalidWeightsError(ValueError):
    """Weighted gradient got nonpositive weights."""


class OrderingError(ValueError):
    """A block ordering is incompatible with the operator it was used on."""


def _grid_size(rows, cols):
    """``(rows, cols)`` as plain ints; ValueError unless both are integers
    >= 1 (a bool is not one)."""
    for name, value in (("rows", rows), ("cols", cols)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(rows), int(cols)


def _grad_into(u, out, h):
    """Forward differences of the M x N array ``u`` into ``out`` (2, M, N),
    zero last row of channel 1 and last column of channel 2, divided by
    ``h`` in place (skipped for h == 1: x / 1.0 == x bit for bit).

    Channel 2 is one contiguous subtraction over row-major ``u``, written
    into the flat view of ``ch2``; the entries that wrap from one row's
    end to the next row's start are then overwritten by the zero column.
    ``out`` must be C-contiguous, so that the flat view writes into it.
    """
    ch1, ch2 = out
    np.subtract(u[1:], u[:-1], out=ch1[:-1])
    ch1[-1] = 0.0
    flat = u.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=ch2.reshape(-1)[:-1])
    ch2[:, -1] = 0.0
    if h != 1.0:
        out /= h
    return out


def _div_into(ch1, ch2, out, h):
    """Divergence of the M x N channels into ``out`` (M, N), divided by ``h``
    in place (skipped for h == 1).

    Vertical channel: p1[i,j] - p1[i-1,j], with p1[-1,.] treated as 0 and the
    stored last row of ch1 ignored (a structural zero of the gradient);
    horizontal likewise.  The operations and their order are those of adding
    into a zero array, so signed zeros come out the same: ``0.0 + p``, not
    a copy of ``p``.

    The horizontal passes run on the flat views of ``out`` and ``ch2``: all
    of ``ch2`` is added, then ``ch2`` shifted by one element is subtracted.
    Each pass also reaches one column it must leave alone (the add the last
    column, the subtraction the first, which it would pair with the end of
    the row above), so that column is saved before the pass and written
    back after it.  Every other entry goes through the same operations as
    in a 2-D column-offset pass, so the result is the same bits, and no
    temporary of grid size is made.  ``out`` must be C-contiguous, so that
    its flat view writes into it.
    """
    np.add(0.0, ch1[:-1], out=out[:-1])
    out[-1] = 0.0
    out[1:] -= ch1[:-1]
    flat, flat2 = out.reshape(-1), ch2.reshape(-1)
    keep = out[:, -1].copy()
    flat += flat2
    out[:, -1] = keep
    keep[:] = out[:, 0]
    flat[1:] -= flat2[:-1]
    out[:, 0] = keep
    if h != 1.0:
        out /= h
    return out


def bind_csr_matvec(mat):
    """``v -> mat @ v`` for a float64 CSR matrix, bound once.

    The product is ``_sparsetools.csr_matvec`` into a fresh zero vector, the
    call scipy's ``mat @ v`` makes after its Python dispatch, so the result
    is the same bits for about 3 us less per call.  That private call is
    made here and nowhere else.  It reads ``v`` without a length check: the
    caller passes a float vector of length ``mat.shape[1]``.  The matrix
    must not change after binding.  ``product(v, out)`` adds ``mat @ v`` into
    the float vector ``out`` instead and returns it: each row's sum starts
    from ``out``'s entry and adds its terms in row order.
    """
    if mat.format != "csr" or mat.dtype != np.float64:
        raise TypeError("bind_csr_matvec needs a float64 CSR matrix")
    m, n = mat.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    matvec = _sparsetools.csr_matvec

    def product(v, out=None):
        if out is None:
            out = np.zeros(m)
        matvec(m, n, indptr, indices, data, v, out)
        return out

    return product


def grad2d(u, h=1.0):
    """Forward-difference gradient of a 2D array.

    Returns (ch1, ch2) where ch1[i, j] = (u[i+1, j] - u[i, j]) / h with a
    zero last row, and ch2 analogously in j with a zero last column.
    Raises ValueError unless ``u`` is a non-empty 2-D array.
    """
    if not h > 0:         # NaN fails this too
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.size == 0:
        raise ValueError(f"grad2d needs a non-empty 2-D array, got shape {u.shape}")
    ch1, ch2 = _grad_into(u, np.empty((2,) + u.shape), h)
    return ch1, ch2


def div2d(ch1, ch2, h=1.0):
    """Divergence of a two-channel field, the exact negative adjoint of grad2d.

    Raises DimensionMismatchError unless both channels are non-empty 2-D
    arrays of the same shape.
    """
    if not h > 0:         # NaN fails this too
        raise ValueError("h must be positive")
    ch1 = np.asarray(ch1, dtype=float)
    ch2 = np.asarray(ch2, dtype=float)
    if ch1.ndim != 2 or ch1.size == 0 or ch2.shape != ch1.shape:
        raise DimensionMismatchError(
            "div2d needs two non-empty 2-D channels of the same shape, "
            f"got {ch1.shape} and {ch2.shape}")
    return _div_into(ch1, ch2, np.empty(ch1.shape), h)


class LinearOperator:
    """Base class: forward ``matvec`` on R^n -> R^m and adjoint ``rmatvec``.

    Operators are immutable after construction: derived quantities such as
    ``op_norm_sq_estimate`` are computed once and kept on the operator.
    """

    shape = (0, 0)  # (m, n)

    def matvec(self, x):
        raise NotImplementedError

    def rmatvec(self, z):
        raise NotImplementedError

    def to_sparse(self):
        """CSR materialization, used by block-structure checks and oracles."""
        raise NotImplementedError

    def normal_product(self):
        """The map ``v -> A^T A v`` on float vectors of length ``shape[1]``,
        which ``op_norm_sq_estimate`` iterates: ``rmatvec(matvec(v))``.  A
        subclass may return a map that writes every result into one buffer,
        so a caller is done with a result before the next call."""
        return lambda v: self.rmatvec(self.matvec(v))

    def _check_forward(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.shape[1]:
            raise DimensionMismatchError(
                f"expected input of length {self.shape[1]}, got {x.size}")
        return x

    def _check_adjoint(self, z):
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.shape[0]:
            raise DimensionMismatchError(
                f"expected input of length {self.shape[0]}, got {z.size}")
        return z


class Grad2D(LinearOperator):
    """2D forward-difference gradient, R^{MN} -> R^{2MN}."""

    def __init__(self, rows, cols, h=1.0):
        rows, cols = _grid_size(rows, cols)
        if not h > 0:         # NaN fails this too
            raise ValueError("h must be positive")
        self.rows = rows
        self.cols = cols
        self.h = float(h)
        self.shape = (2 * rows * cols, rows * cols)

    def matvec(self, x):
        x = self._check_forward(x)
        out = np.empty(self.shape[0])
        _grad_into(x.reshape(self.rows, self.cols),
                   out.reshape(2, self.rows, self.cols), self.h)
        return out

    def rmatvec(self, z):
        # -div(z) / h as div(z) / (-h): the quotient's sign is the xor of
        # the operands' signs, so this equals the negation for any non-NaN z
        z = self._check_adjoint(z).reshape(2, self.rows, self.cols)
        out = np.empty(self.shape[1])
        _div_into(z[0], z[1], out.reshape(self.rows, self.cols), -self.h)
        return out

    def normal_product(self):
        """``v -> A^T A v`` as one stencil over buffers the map keeps, so a
        call allocates nothing; each result is overwritten by the next call.

        The gradient is ``matvec``'s (``_grad_into``).  The divergence forms
        ``rmatvec``'s sums with the sign folded in: where ``rmatvec`` adds
        into zero and divides by ``-h``, this subtracts the same terms in the
        same order (and adds those it subtracts) and divides by ``h``, or not
        at all for h == 1, where ``rmatvec``'s division by -1 is a negation.
        Rounding is symmetric in sign, so every nonzero entry has
        ``rmatvec(matvec(v))``'s bits.  Adding the stored zeros of the
        gradient's last row and column in place of ``_div_into``'s column
        restores can flip the sign of an exact zero, which a power iteration
        cannot see: a zero adds nothing to its sums and it divides by no
        entry, so its estimate keeps its bits.
        """
        rows, cols, h = self.rows, self.cols, self.h
        grad = np.empty((2, rows, cols))
        out = np.empty(rows * cols)
        grid, ch1, ch2 = out.reshape(rows, cols), grad[0], grad[1].reshape(-1)

        def apply(v):
            _grad_into(v.reshape(rows, cols), grad, h)
            np.negative(ch1[0], out=grid[0])
            np.subtract(ch1[:-1], ch1[1:], out=grid[1:])
            np.subtract(out, ch2, out=out)
            np.add(out[1:], ch2[:-1], out=out[1:])
            if h != 1.0:
                np.divide(out, h, out=out)
            return out

        return apply

    def to_sparse(self):
        # built straight in canonical CSR form: row r of channel 1 holds
        # -1/h at node r and 1/h at the node below, row r of channel 2 -1/h
        # at r and 1/h at the node to the right; nodes on the last grid row
        # (column) leave their channel-1 (channel-2) row empty
        m, n = self.rows, self.cols
        itype = np.int32 if 4 * m * n < 2 ** 31 else np.int64  # the index type csr_matrix keeps
        nodes = np.arange(m * n, dtype=itype)
        down = nodes < (m - 1) * n
        right = nodes % n != n - 1
        first = np.concatenate([nodes[down], nodes[right]])
        second = first + np.repeat(np.array([n, 1], itype), [np.count_nonzero(down),
                                                             np.count_nonzero(right)])
        indptr = np.zeros(2 * m * n + 1, itype)
        indptr[1:] = 2 * np.cumsum(np.concatenate([down, right]), dtype=itype)
        data = np.tile([-1.0 / self.h, 1.0 / self.h], first.size)
        return sp.csr_matrix((data, np.column_stack([first, second]).ravel(), indptr),
                             shape=(2 * m * n, m * n))


class WeightedGrad2D(LinearOperator):
    """diag(w) times the 2D gradient, for strictly positive weights w."""

    def __init__(self, rows, cols, w, h=1.0):
        rows, cols = _grid_size(rows, cols)
        w = np.asarray(w, dtype=float).ravel()
        if w.size != 2 * rows * cols:
            raise DimensionMismatchError("weight vector must have length 2*M*N")
        if np.any(w <= 0):
            raise InvalidWeightsError("weights must be strictly positive")
        self.base = Grad2D(rows, cols, h)
        self.rows, self.cols, self.h = rows, cols, float(h)
        self.w = w
        self.shape = self.base.shape

    def matvec(self, x):
        out = self.base.matvec(x)
        return np.multiply(self.w, out, out=out)

    def rmatvec(self, z):
        return self.base.rmatvec(self.w * self._check_adjoint(z))

    def to_sparse(self):
        return sp.diags(self.w) @ self.base.to_sparse()


class Div2D(LinearOperator):
    """2D divergence, R^{2MN} -> R^{MN}; equals minus the gradient adjoint."""

    def __init__(self, rows, cols, h=1.0):
        self.grad = Grad2D(rows, cols, h)
        self.rows, self.cols, self.h = self.grad.rows, self.grad.cols, self.grad.h
        self.shape = self.grad.shape[::-1]

    def matvec(self, p):
        p = self._check_forward(p).reshape(2, self.rows, self.cols)
        out = np.empty(self.shape[0])
        _div_into(p[0], p[1], out.reshape(self.rows, self.cols), self.h)
        return out

    def rmatvec(self, z):
        # -grad(z) with the sign folded into the division by -h (see
        # Grad2D.rmatvec); the structural zeros come out as -0.0
        z = self._check_adjoint(z)
        out = np.empty(self.shape[1])
        _grad_into(z.reshape(self.rows, self.cols),
                   out.reshape(2, self.rows, self.cols), -self.h)
        return out

    def to_sparse(self):
        return (-self.grad.to_sparse().T).tocsr()


class SparseOp(LinearOperator):
    """Wrapper around a scipy sparse matrix in CSR form.

    The CSR transpose ``mat_t`` is built once at construction, and both
    products are bound with ``bind_csr_matvec``: ``rmatvec`` gives the bits
    of ``mat.T @ z`` (each output sums its terms in row order either way)
    without building a CSC transpose per call.  Its own copy is canonical
    (sorted, duplicates summed), which ``abs`` or ``power`` leave as it is.
    """

    def __init__(self, mat):
        mat = sp.csr_matrix(mat).astype(float)
        mat.sum_duplicates()
        self._own(mat)

    @classmethod
    def adopt(cls, mat):
        """A ``SparseOp`` holding ``mat`` itself, not a copy, for a caller
        that built the canonical float64 CSR matrix ``mat`` for it and does
        not change it afterwards."""
        op = cls.__new__(cls)
        op._own(mat)
        return op

    def _own(self, mat):
        self.mat = mat
        self.mat_t = mat.T.tocsr()
        self.shape = mat.shape
        self._forward = bind_csr_matvec(mat)
        self._adjoint = bind_csr_matvec(self.mat_t)

    def matvec(self, x):
        return self._forward(self._check_forward(x))

    def rmatvec(self, z):
        return self._adjoint(self._check_adjoint(z))

    def to_sparse(self):
        return self.mat


class StackedOp(SparseOp):
    """Vertical stack of operators sharing a common domain, applied as one
    ``SparseOp`` of the stacked rows.

    The parts' matrices are stacked once at construction, so every part
    must implement ``to_sparse`` (every operator in this module does), and
    ``matvec``/``rmatvec`` are ``SparseOp``'s two bound CSR products.  The
    forward product is each part's rows in turn.  The adjoint sums each
    column's terms over all parts in one CSR row, so it agrees with the sum
    of the parts' adjoints to rounding, not bit for bit.  ``ops`` and
    ``row_offsets`` (where each part's rows start, then the row count) keep
    the parts, for block preconditioners that pair with them.
    """

    def __init__(self, ops):
        ncols = {op.shape[1] for op in ops}
        if len(ncols) != 1:
            raise DimensionMismatchError("stacked operators must share a domain")
        self.ops = list(ops)
        self.row_offsets = np.cumsum([0] + [op.shape[0] for op in self.ops])
        super().__init__(sp.vstack([op.to_sparse() for op in self.ops],
                                   format="csr"))


def power_iteration(apply, dim):
    """Power-iteration estimate of the largest eigenvalue of the symmetric PSD
    map ``apply`` on R^dim.

    Deterministic: starts from a fixed-seed random vector (an all-ones start
    would sit in the null space of difference operators).  Stops when the
    Rayleigh quotient changes by at most ``POWER_TOL`` relative, after at
    most ``POWER_ITERS`` products; returns 0 for the zero map.
    """
    v = np.random.default_rng(12345).standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    v /= nrm
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = apply(v)
        wn = np.linalg.norm(w)
        if wn == 0:
            return 0.0
        lam_new = float(v @ w)
        v = w / wn
        if lam > 0 and abs(lam_new - lam) <= POWER_TOL * lam:
            return lam_new
        lam = lam_new
    return lam


def op_norm_sq_estimate(A):
    """Power-iteration estimate of lambda_max(A^T A), times a 1.01 safety factor.

    Computed once per operator: the value is kept on ``A``, which is
    immutable after construction.  The iterated map is
    ``A.normal_product()``.
    """
    # an operator without a __dict__ gets a throwaway memo: no caching
    memo = getattr(A, "__dict__", {})
    if "_norm_sq_estimate" not in memo:
        memo["_norm_sq_estimate"] = 1.01 * power_iteration(
            A.normal_product(), A.shape[1])
    return memo["_norm_sq_estimate"]


def block_gram(A, ordering):
    """Per-block diagonals of L_b^T L_b for the columns of A^T grouped by block.

    Raises OrderingError if any off-diagonal entry of a block Gram matrix is
    structurally nonzero, i.e. the ordering does not decouple the block.
    """
    mat = A.to_sparse()
    if sum(b.size for b in ordering.blocks) != A.shape[0]:
        raise OrderingError("ordering does not partition the operator's row space")
    diags = []
    for blk in ordering.blocks:
        sub = mat[blk, :]
        gram = (sub @ sub.T).tocoo()
        off = gram.row != gram.col
        if np.any(off):
            raise OrderingError(
                "within-block columns of A^T are not mutually orthogonal")
        d = np.zeros(blk.size)
        d[gram.row] += gram.data  # duplicates already summed by scipy
        diags.append(d)
    return diags
