import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pdopt.operators import (DimensionMismatchError, Div2D, Grad2D,
                             InvalidWeightsError, OrderingError, SparseOp,
                             StackedOp, WeightedGrad2D, bind_csr_matvec,
                             block_gram, op_norm_sq_estimate,
                             power_iteration)
from pdopt.precond import (BlockOrdering, four_block_ordering, ordering_for,
                           two_block_ordering)


def _grad(u, h):
    """``Grad2D.matvec`` of the grid ``u``, as its two channels (2, M, N)."""
    rows, cols = u.shape
    return Grad2D(rows, cols, h).matvec(u.ravel()).reshape(2, rows, cols)


def _div(ch1, ch2, h):
    """``Div2D.matvec`` of the two channels, as an M x N grid."""
    rows, cols = ch1.shape
    field = np.concatenate([ch1.ravel(), ch2.ravel()])
    return Div2D(rows, cols, h).matvec(field).reshape(rows, cols)


def test_grad2d_small_example():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    ch1, ch2 = _grad(u, h=1.0)
    np.testing.assert_allclose(ch1, [[2, 2], [0, 0]])
    np.testing.assert_allclose(ch2, [[1, 0], [1, 0]])


def test_grad2d_h_scaling():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    ch1, ch2 = _grad(u, h=2.0)
    np.testing.assert_allclose(ch1, [[1, 1], [0, 0]])
    np.testing.assert_allclose(ch2, [[0.5, 0], [0.5, 0]])


def test_grad2d_constant_is_zero():
    ch1, ch2 = _grad(np.full((5, 7), 3.3), h=0.25)
    assert not ch1.any() and not ch2.any()


def test_grad2d_boundary_zeros():
    rng = np.random.default_rng(0)
    ch1, ch2 = _grad(rng.standard_normal((6, 9)), h=1.0)
    assert not ch1[-1, :].any()
    assert not ch2[:, -1].any()


def test_div2d_small_example():
    ch1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    ch2 = np.zeros((2, 2))
    np.testing.assert_allclose(_div(ch1, ch2, h=1.0), [[1, 0], [-1, 0]])


def test_div2d_zero():
    assert not _div(np.zeros((3, 4)), np.zeros((3, 4)), h=2.0).any()


@pytest.mark.parametrize("h", [1.0, 63.75])
def test_div_is_negative_adjoint_of_grad(h):
    rng = np.random.default_rng(7)
    u = rng.standard_normal((8, 8))
    p1 = rng.standard_normal((8, 8))
    p2 = rng.standard_normal((8, 8))
    ch1, ch2 = _grad(u, h)
    lhs = np.sum(ch1 * p1) + np.sum(ch2 * p2)
    rhs = -np.sum(u * _div(p1, p2, h))
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_div2d_exact_negative_adjoint_of_grad_operator():
    # identity Div2D.matvec(p) + rmatvec of Grad2D = 0 must hold exactly
    rng = np.random.default_rng(3)
    op = Grad2D(5, 6, h=1.7)
    p = rng.standard_normal(op.shape[0])
    d = Div2D(5, 6, h=1.7)
    np.testing.assert_array_equal(d.matvec(p) + op.rmatvec(p),
                                  np.zeros(op.shape[1]))


@pytest.mark.parametrize("op", [
    Grad2D(4, 5, h=1.0),
    Grad2D(7, 3, h=0.5),
    Div2D(4, 5, h=1.0),
    Div2D(3, 3, h=2.5),
    WeightedGrad2D(4, 5, np.linspace(0.5, 2.0, 40), h=1.0),
])
def test_matvec_matches_sparse(op):
    rng = np.random.default_rng(11)
    dense = op.to_sparse().toarray()
    for _ in range(5):
        x = rng.standard_normal(op.shape[1])
        z = rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-13)
        np.testing.assert_allclose(op.rmatvec(z), dense.T @ z, atol=1e-13)


def test_adjoint_identity_random_probes():
    rng = np.random.default_rng(5)
    ops = [Grad2D(6, 6), Div2D(6, 6),
           WeightedGrad2D(6, 6, rng.uniform(0.1, 3, 72)),
           SparseOp(sp.random(9, 7, density=0.4, random_state=1))]
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.shape[1])
            z = rng.standard_normal(op.shape[0])
            lhs = float(op.matvec(x) @ z)
            rhs = float(x @ op.rmatvec(z))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_weighted_grad_ones_equals_grad():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(12)
    g = Grad2D(3, 4)
    w = WeightedGrad2D(3, 4, np.ones(24))
    np.testing.assert_array_equal(g.matvec(u), w.matvec(u))


def test_weighted_grad_scaling_example():
    u = np.array([[0.0, 1.0], [2.0, 3.0]]).ravel()
    w = WeightedGrad2D(2, 2, np.full(8, 2.0))
    out = w.matvec(u)
    np.testing.assert_allclose(out[:4].reshape(2, 2), [[4, 4], [0, 0]])
    np.testing.assert_allclose(out[4:].reshape(2, 2), [[2, 0], [2, 0]])


def test_weighted_grad_matches_explicit_sparse_on_3x3():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, 18)
    op = WeightedGrad2D(3, 3, w)
    dense = sp.diags(w) @ Grad2D(3, 3).to_sparse()
    u = rng.standard_normal(9)
    np.testing.assert_allclose(op.matvec(u), dense @ u, atol=1e-14)


def test_weighted_grad_rejects_nonpositive_weights():
    with pytest.raises(InvalidWeightsError):
        WeightedGrad2D(2, 2, np.array([1.0] * 7 + [0.0]))


def test_dimension_mismatch_errors():
    op = Grad2D(3, 3)
    with pytest.raises(DimensionMismatchError):
        op.matvec(np.zeros(8))
    with pytest.raises(DimensionMismatchError):
        op.rmatvec(np.zeros(17))


def test_sparse_op_1x1():
    op = SparseOp(sp.csr_matrix(np.array([[2.0]])))
    np.testing.assert_array_equal(op.matvec([3.0]), [6.0])


def test_stacked_op_concatenates():
    rng = np.random.default_rng(9)
    R = SparseOp(sp.random(5, 16, density=0.5, random_state=2))
    D = Grad2D(4, 4)
    st = StackedOp([R, D])
    u = rng.standard_normal(16)
    np.testing.assert_array_equal(st.matvec(u),
                                  np.concatenate([R.matvec(u), D.matvec(u)]))


def test_stacked_adjoint_matches_dense():
    rng = np.random.default_rng(10)
    R = SparseOp(sp.random(6, 16, density=0.5, random_state=3))
    st = StackedOp([R, Grad2D(4, 4)])
    dense = st.to_sparse().toarray()
    z = rng.standard_normal(st.shape[0])
    np.testing.assert_allclose(st.rmatvec(z), dense.T @ z, atol=1e-13)


def test_stacked_rejects_mismatched_domains():
    with pytest.raises(DimensionMismatchError):
        StackedOp([Grad2D(4, 4), Grad2D(3, 3)])


def test_op_norm_scaled_identity():
    op = SparseOp(2.0 * sp.eye(3))
    assert abs(op_norm_sq_estimate(op) - 4.04) <= 1e-9


def test_op_norm_grad_2x2_matches_dense_eig():
    op = Grad2D(2, 2)
    dense = op.to_sparse().toarray()
    lam = np.linalg.eigvalsh(dense.T @ dense)[-1]
    est = op_norm_sq_estimate(op)
    assert est <= 1.01 * lam * (1 + 1e-8)
    assert est >= lam * (1 - 1e-6)


def test_op_norm_grad_64_below_classical_bound():
    assert op_norm_sq_estimate(Grad2D(64, 64)) <= 8.08


def test_op_norm_zero_operator():
    assert op_norm_sq_estimate(SparseOp(sp.csr_matrix((4, 4)))) == 0.0


def test_block_gram_div_two_block_3x3():
    op = Div2D(3, 3)
    ordering = two_block_ordering(3, 3)
    diags = block_gram(op, ordering)
    dense = op.to_sparse().toarray()
    for blk, d in zip(ordering.blocks, diags):
        gram = dense[blk, :] @ dense[blk, :].T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) == 0.0
        np.testing.assert_allclose(d, np.diag(gram), atol=1e-14)


def test_block_gram_grad_four_block_interior_value():
    h = 0.5
    op = Grad2D(3, 3, h=h)
    ordering = four_block_ordering(3, 3)
    diags = block_gram(op, ordering)
    # every gradient row with two entries has squared norm 2/h^2
    all_d = np.concatenate(diags)
    assert np.isclose(all_d.max(), 2.0 / h ** 2)


def test_block_gram_rejects_single_block_on_grad():
    op = Grad2D(3, 3)
    with pytest.raises(OrderingError):
        block_gram(op, BlockOrdering("trivial", [np.arange(op.shape[0])]))


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (8, 8), (16, 16)])
def test_claim_orderings_valid_on_grids(rows, cols):
    block_gram(Div2D(rows, cols), two_block_ordering(rows, cols))
    block_gram(Grad2D(rows, cols), four_block_ordering(rows, cols))
    w = np.linspace(0.5, 1.5, 2 * rows * cols)
    block_gram(WeightedGrad2D(rows, cols, w), four_block_ordering(rows, cols))


def test_ordering_for_dispatch():
    assert ordering_for(Div2D(4, 4)).kind == "two_block"
    assert ordering_for(Grad2D(3, 3)).kind == "four_block"
    two = ordering_for(Div2D(4, 4))
    assert sorted(b.size for b in two.blocks) == [8, 8]
    four = ordering_for(Grad2D(3, 3))
    assert sorted(b.size for b in four.blocks) == [3, 3, 6, 6]
    with pytest.raises(OrderingError):
        ordering_for(SparseOp(sp.eye(4)))


def _grad_by_slices(u, h):
    """The gradient by zeros, slices and a division: the reference the
    one-pass stencils must match bit for bit."""
    ch1 = np.zeros_like(u)
    ch2 = np.zeros_like(u)
    ch1[:-1, :] = (u[1:, :] - u[:-1, :]) / h
    ch2[:, :-1] = (u[:, 1:] - u[:, :-1]) / h
    return ch1, ch2


def _div_by_slices(ch1, ch2, h):
    out = np.zeros_like(ch1)
    out[:-1, :] += ch1[:-1, :]
    out[1:, :] -= ch1[:-1, :]
    out[:, :-1] += ch2[:, :-1]
    out[:, 1:] -= ch2[:, :-1]
    return out / h


def _products_by_slices(op, x, z):
    """(matvec, rmatvec) of a grid operator by the zeros/slices/concatenate/
    negate formulas."""
    m, n, h = op.rows, op.cols, op.h
    mn = m * n
    if isinstance(op, Div2D):
        fwd = _div_by_slices(x[:mn].reshape(m, n), x[mn:].reshape(m, n), h).ravel()
        return fwd, -np.concatenate([c.ravel() for c in _grad_by_slices(z.reshape(m, n), h)])
    grad = np.concatenate([c.ravel() for c in _grad_by_slices(x.reshape(m, n), h)])
    if isinstance(op, WeightedGrad2D):
        zw = op.w * z
        return op.w * grad, -_div_by_slices(zw[:mn].reshape(m, n), zw[mn:].reshape(m, n), h).ravel()
    return grad, -_div_by_slices(z[:mn].reshape(m, n), z[mn:].reshape(m, n), h).ravel()


def _grid_values(rng, size):
    # normals with repeated values and signed zeros, so differences cancel
    # exactly and the sign of every zero is checked
    v = rng.standard_normal(size)
    v[rng.random(size) < 0.3] = 0.75
    v[rng.random(size) < 0.15] = 0.0
    v[rng.random(size) < 0.15] = -0.0
    return v


@pytest.mark.parametrize("h", [1.0, 0.37])
@pytest.mark.parametrize("rows,cols", [(1, 6), (5, 1), (1, 1), (2, 2), (4, 7)])
@pytest.mark.parametrize("kind", ["grad", "weighted", "div"])
def test_grid_stencils_match_slice_formulas_bit_for_bit(kind, rows, cols, h):
    rng = np.random.default_rng(rows * 100 + cols)
    if kind == "grad":
        op = Grad2D(rows, cols, h)
    elif kind == "weighted":
        op = WeightedGrad2D(rows, cols, rng.uniform(0.5, 2.0, 2 * rows * cols), h)
    else:
        op = Div2D(rows, cols, h)
    dense = op.to_sparse()
    for _ in range(5):
        x = _grid_values(rng, op.shape[1])
        z = _grid_values(rng, op.shape[0])
        want_fwd, want_adj = _products_by_slices(op, x, z)
        got_fwd, got_adj = op.matvec(x), op.rmatvec(z)
        assert got_fwd.tobytes() == want_fwd.tobytes()
        assert got_adj.tobytes() == want_adj.tobytes()
        for got, want in ((got_fwd, dense @ x), (got_adj, dense.T @ z)):
            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * scale


@pytest.mark.parametrize("h", [1.0, 0.37, 31 / 4])
@pytest.mark.parametrize("rows,cols", [(1, 6), (5, 1), (1, 1), (2, 2), (4, 7)])
def test_grad2d_normal_product_is_rmatvec_of_matvec(rows, cols, h):
    # every nonzero entry has the same bits; an exact zero may differ in sign
    rng = np.random.default_rng(rows * 100 + cols)
    op = Grad2D(rows, cols, h)
    apply = op.normal_product()
    for _ in range(5):
        v = _grid_values(rng, op.shape[1])
        want = op.rmatvec(op.matvec(v))
        got = apply(v)
        nonzero = want != 0
        assert np.array_equal(got != 0, nonzero)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()


@pytest.mark.parametrize("rows,cols,h", [(64, 64, 1.0), (32, 128, 31 / 4),
                                         (128, 32, 0.5), (1, 9, 1.0), (7, 1, 0.37)])
def test_grad2d_norm_estimate_is_the_power_iteration_of_its_products(rows, cols, h):
    op = Grad2D(rows, cols, h)
    want = 1.01 * power_iteration(lambda v: op.rmatvec(op.matvec(v)), op.shape[1])
    assert float.hex(op_norm_sq_estimate(op)) == float.hex(want)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9),
       h=st.sampled_from([1.0, 0.5, 0.37, 3.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_grad2d_div2d_match_slice_formulas_bit_for_bit(rows, cols, h, seed):
    rng = np.random.default_rng(seed)
    u = _grid_values(rng, rows * cols).reshape(rows, cols)
    for got, want in zip(_grad(u, h), _grad_by_slices(u, h)):
        assert got.tobytes() == want.tobytes()
    p1, p2 = (_grid_values(rng, rows * cols).reshape(rows, cols) for _ in range(2))
    assert _div(p1, p2, h).tobytes() == _div_by_slices(p1, p2, h).tobytes()


@pytest.mark.parametrize("ch1,ch2", [
    (np.ones((3, 4)), np.arange(4.0).reshape(1, 4)),    # one row of channel 2
    (np.ones(4), np.ones(4)),
    (np.ones((2, 3, 4)), np.ones((2, 3, 4))),
    (np.ones((0, 4)), np.ones((0, 4))),
], ids=["broadcast", "1-D", "3-D", "empty"])
def test_div2d_rejects_channels_that_are_not_one_grid(ch1, ch2):
    # Div2D reads one flat field: the two channels of its grid, 2 * 3 * 4 values
    with pytest.raises(DimensionMismatchError):
        Div2D(3, 4).matvec(np.concatenate([np.ravel(ch1), np.ravel(ch2)]))


@pytest.mark.parametrize("u", [np.ones(5), np.ones((2, 3, 4)), np.float64(1.0),
                               np.ones((3, 0))],
                         ids=["1-D", "3-D", "0-D", "empty"])
def test_grad2d_rejects_input_that_is_not_a_grid(u):
    with pytest.raises(DimensionMismatchError, match="expected input of length 6"):
        Grad2D(2, 3).matvec(u)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("build", [
    lambda h: Grad2D(2, 2, h=h),
    lambda h: Div2D(2, 2, h=h),
], ids=["Grad2D", "Div2D"])
def test_grid_spacing_must_be_positive(build, h):
    # a NaN passes "h <= 0", so the check is written "not h > 0"
    with pytest.raises(ValueError, match="h must be positive"):
        build(h)


@st.composite
def _csr_matrices(draw):
    """CSR matrices of shape up to 40 x 40 as a user might hand them over:
    empty rows and columns, duplicate entries, column indices unsorted within
    a row, and int32 or int64 index arrays."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    nnz = draw(st.integers(0, 3 * max(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # rows and columns from random subsets, so some stay empty and the
    # same (row, column) pair repeats
    rows = rng.choice(rng.permutation(m)[:rng.integers(1, m + 1)], nnz)
    cols = rng.choice(rng.permutation(n)[:rng.integers(1, n + 1)], nnz)
    data = _grid_values(rng, nnz)
    order = np.argsort(rows, kind="stable")      # sorted rows, columns as drawn
    mat = sp.csr_matrix((m, n))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    mat.data = data[order]
    mat.indices = cols[order].astype(dtype)
    mat.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))]
                                ).astype(dtype)
    return mat


@settings(max_examples=200, deadline=None)
@given(mat=_csr_matrices(), seed=st.integers(0, 2 ** 32 - 1))
def test_bound_csr_products_are_scipys_bit_for_bit(mat, seed):
    rng = np.random.default_rng(seed)
    x = _grid_values(rng, mat.shape[1])
    z = _grid_values(rng, mat.shape[0])
    want_fwd, want_adj = mat @ x, mat.T @ z
    assert bind_csr_matvec(mat)(x).tobytes() == want_fwd.tobytes()
    assert bind_csr_matvec(mat.T.tocsr())(z).tobytes() == want_adj.tobytes()
    # with an output vector, each row's sum starts from its entry and adds
    # the row's terms in stored order
    out = _grid_values(rng, mat.shape[0])
    want = out.copy()
    for i in range(mat.shape[0]):
        for jj in range(mat.indptr[i], mat.indptr[i + 1]):
            want[i] += mat.data[jj] * x[mat.indices[jj]]
    assert bind_csr_matvec(mat)(x, out) is out
    assert out.tobytes() == want.tobytes()
    # SparseOp works on a canonical copy (sorted, duplicates summed): its
    # products are scipy's for that copy, and a canonical input's own
    canon = mat.copy()
    canon.sum_duplicates()
    op = SparseOp(mat)
    assert op.matvec(x).tobytes() == (canon @ x).tobytes()
    assert op.rmatvec(z).tobytes() == (canon.T @ z).tobytes()


def test_bind_csr_matvec_rejects_other_formats_and_dtypes():
    mat = sp.random(4, 3, density=0.5, random_state=5, format="csr")
    with pytest.raises(TypeError):
        bind_csr_matvec(mat.tocsc())
    with pytest.raises(TypeError):
        bind_csr_matvec(mat.astype(np.float32))


def test_sparse_op_adjoint_builds_no_transpose_per_call(monkeypatch):
    op = SparseOp(sp.random(7, 5, density=0.5, random_state=6))
    z = np.random.default_rng(6).standard_normal(7)
    want = op.mat.T @ z

    def no_transpose(*args, **kwargs):
        raise AssertionError("rmatvec built a transpose")

    monkeypatch.setattr(sp.csr_matrix, "transpose", no_transpose)
    for _ in range(3):
        assert op.rmatvec(z).tobytes() == want.tobytes()


def _adjoint_gap(op, x, z):
    """|<A x, z> - <x, A^T z>| over the Cauchy-Schwarz scale of both sides."""
    ax, atz = op.matvec(x), op.rmatvec(z)
    scale = max(np.linalg.norm(ax) * np.linalg.norm(z),
                np.linalg.norm(x) * np.linalg.norm(atz))
    gap = abs(float(ax @ z) - float(x @ atz))
    return 0.0 if gap == 0.0 else gap / scale


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["grad", "div", "weighted", "sparse", "stacked"]),
       rows=st.integers(1, 9), cols=st.integers(1, 9),
       h=st.sampled_from([1.0, 0.37, 63.75]), seed=st.integers(0, 2 ** 32 - 1))
def test_adjoints_hold_to_rounding(kind, rows, cols, h, seed):
    # <A x, z> == <x, A^T z> to 1e-12 relative, for every operator kind
    rng = np.random.default_rng(seed)
    n = rows * cols

    def sparse():
        return SparseOp(sp.random(int(rng.integers(1, 12)), n, density=0.4,
                                  random_state=rng, format="csr"))

    op = {"grad": lambda: Grad2D(rows, cols, h),
          "div": lambda: Div2D(rows, cols, h),
          "weighted": lambda: WeightedGrad2D(rows, cols,
                                             rng.uniform(0.1, 3.0, 2 * n), h),
          "sparse": sparse,
          "stacked": lambda: StackedOp([sparse(), Grad2D(rows, cols, h)])}[kind]()
    for _ in range(3):
        x = rng.standard_normal(op.shape[1])
        z = rng.standard_normal(op.shape[0])
        assert _adjoint_gap(op, x, z) <= 1e-12


def _coo_built_grad(rows, cols, h):
    """Grad2D's matrix as it was built before: two COO blocks and a vstack."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    blocks = []
    for lo, hi in ((idx[:-1, :], idx[1:, :]), (idx[:, :-1], idx[:, 1:])):
        r = lo.ravel()
        blocks.append(sp.csr_matrix(
            (np.concatenate([np.full(r.size, 1.0 / h), np.full(r.size, -1.0 / h)]),
             (np.concatenate([r, r]), np.concatenate([hi.ravel(), r]))),
            shape=(rows * cols, rows * cols)))
    return sp.vstack(blocks, format="csr")


@pytest.mark.parametrize("h", [1.0, 0.37, 63.75])
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (5, 1), (2, 2), (4, 7), (64, 64)])
def test_grad2d_to_sparse_is_the_coo_built_matrix(rows, cols, h):
    # the same canonical CSR arrays, bit for bit, as the COO construction
    got, want = Grad2D(rows, cols, h).to_sparse(), _coo_built_grad(rows, cols, h)
    assert got.format == "csr" and got.shape == want.shape
    assert got.has_canonical_format
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == want.data.tobytes()
    assert got.indptr.dtype == want.indptr.dtype == np.int32
    assert got.indices.dtype == want.indices.dtype == np.int32


def test_grad2d_to_sparse_peak_is_near_the_matrix_it_keeps():
    # the index arrays are built in the int32 csr_matrix keeps; built as
    # int64 and narrowed, the build peaked at 2.6x the kept bytes at 256x256
    import tracemalloc
    op = Grad2D(256, 256)
    op.to_sparse()              # first-call costs outside the trace
    tracemalloc.start()
    try:
        mat = op.to_sparse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.5 * kept


@pytest.mark.parametrize("make", [
    lambda rows, cols: Grad2D(rows, cols),
    lambda rows, cols: Div2D(rows, cols, 0.5),
    lambda rows, cols: WeightedGrad2D(rows, cols, np.ones(18))],
    ids=["grad", "div", "weighted"])
@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-2, 3), (2.5, 3),
                                       (3, 2.0), (True, 3), (3, True)])
def test_grid_operators_reject_bad_sizes_when_built(make, rows, cols):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        make(rows, cols)


def test_grid_operators_keep_sizes_as_plain_ints():
    for op in (Grad2D(np.int64(3), np.int32(4)), Div2D(np.int64(3), 4),
               WeightedGrad2D(3, np.int16(4), np.ones(24))):
        assert type(op.rows) is int and type(op.cols) is int
        assert all(type(d) is int for d in op.shape)
