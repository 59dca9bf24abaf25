import numpy as np
import pytest
import scipy.sparse as sp

from pdopt.operators import Div2D, Grad2D, OrderingError, SparseOp, StackedOp
from pdopt.precond import (BlockDiag, BlockOrdering, Diagonal, Gram,
                           ScaledIdentity, ct_block_precond,
                           four_block_ordering, gram_precond, metric_spectrum,
                           ordering_for, pock_diagonal, scaled_identity,
                           two_block_ordering, validate_schur)


def test_scaled_identity_basics():
    m = scaled_identity(0.01, 3)
    np.testing.assert_allclose(m.diagonal(), [100.0] * 3)
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(m.apply(v), 100 * v)
    np.testing.assert_allclose(m.apply_inverse(v), 0.01 * v)
    with pytest.raises(ValueError):
        scaled_identity(0.0, 3)


def test_diagonal_requires_positive_entries():
    with pytest.raises(ValueError):
        Diagonal(np.array([1.0, 0.0]))


def test_pock_diagonal_grad_interior_values():
    m1, m2 = pock_diagonal(Grad2D(4, 4))
    d1 = m1.diagonal().reshape(4, 4)
    assert d1[1, 1] == 4.0 and d1[2, 2] == 4.0
    assert d1[0, 0] < 4.0
    d2 = m2.diagonal()
    ch1 = d2[:16].reshape(4, 4)
    assert ch1[1, 1] == 2.0
    assert np.max(d2) == 2.0


def test_pock_diagonal_sparse_example():
    m1, m2 = pock_diagonal(SparseOp(sp.csr_matrix(np.array([[1.0, -2.0],
                                                            [0.0, 3.0]]))))
    np.testing.assert_allclose(m1.diagonal(), [1.0, 5.0])
    np.testing.assert_allclose(m2.diagonal(), [3.0, 3.0])


def test_pock_diagonal_identity():
    m1, m2 = pock_diagonal(SparseOp(sp.eye(4)))
    np.testing.assert_allclose(m1.diagonal(), np.ones(4))
    np.testing.assert_allclose(m2.diagonal(), np.ones(4))


def test_pock_diagonal_degenerate_row_warns():
    mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.warns(UserWarning):
        _, m2 = pock_diagonal(SparseOp(mat))
    np.testing.assert_allclose(m2.diagonal(), [1.0, 1.0])


def test_gram_1x1_example():
    g = gram_precond(SparseOp(sp.csr_matrix(np.array([[2.0]]))), tau=0.5)
    np.testing.assert_allclose(g.apply(np.array([3.0])), [6.0])


def test_gram_matches_dense():
    for op in (Grad2D(3, 3), Div2D(3, 4), Grad2D(6, 6)):
        tau = 0.37
        g = gram_precond(op, tau)
        dense_a = op.to_sparse().toarray()
        expect = tau * dense_a @ dense_a.T
        np.testing.assert_allclose(g.dense(), expect, atol=1e-13)


def test_gram_ridge():
    op = Grad2D(3, 3)
    g = Gram(0.5, op, ridge=0.25)
    dense_a = op.to_sparse().toarray()
    expect = 0.5 * dense_a @ dense_a.T + 0.25 * np.eye(op.shape[0])
    np.testing.assert_allclose(g.dense(), expect, atol=1e-13)


def test_preconditioner_apply_symmetry():
    rng = np.random.default_rng(0)
    op = Grad2D(4, 4)
    forms = [scaled_identity(0.2, 32), Diagonal(rng.uniform(0.5, 2, 32)),
             gram_precond(op, 0.3),
             BlockDiag([Diagonal(rng.uniform(0.5, 2, 10)),
                        gram_precond(Grad2D(2, 2), 0.1)])]
    for m in forms:
        for _ in range(20):
            u = rng.standard_normal(m.dim)
            v = rng.standard_normal(m.dim)
            lhs = float(m.apply(u) @ v)
            rhs = float(u @ m.apply(v))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_block_ordering_requires_partition():
    with pytest.raises(OrderingError):
        BlockOrdering("broken", [np.array([0, 1]), np.array([1, 2])])


def test_two_block_counts():
    o = two_block_ordering(4, 4)
    assert [b.size for b in o.blocks] == [8, 8]


def test_four_block_sizes_3x3():
    o = four_block_ordering(3, 3)
    assert [b.size for b in o.blocks] == [6, 3, 6, 3]


@pytest.mark.parametrize("rows,cols", [(4, 6), (5, 7), (1, 1), (1, 6), (1, 7),
                                       (6, 1), (7, 1), (4, 5)])
def test_orderings_are_the_parity_definitions(rows, cols):
    # the blocks by 0-based parity of each node's (i, j), read in row-major
    # node order: the checkerboard, then row and column parity per channel
    mn = rows * cols
    i, j = np.divmod(np.arange(mn), cols)
    want_two = [np.flatnonzero((i + j) % 2 == 0), np.flatnonzero((i + j) % 2 == 1)]
    want_four = [np.flatnonzero(i % 2 == 0), np.flatnonzero(i % 2 == 1),
                 mn + np.flatnonzero(j % 2 == 0), mn + np.flatnonzero(j % 2 == 1)]
    for got, want in ((two_block_ordering(rows, cols), want_two),
                      (four_block_ordering(rows, cols), want_four)):
        assert len(got.blocks) == len(want)
        for block, expected in zip(got.blocks, want):
            assert block.dtype == expected.dtype
            assert np.array_equal(block, expected)


def test_trivial_ordering():
    o = BlockOrdering("trivial", [np.arange(5)])
    assert o.num_blocks == 1 and o.blocks[0].size == 5


def test_schur_equality_case():
    A = Grad2D(3, 3)
    tau = 0.2
    ok, eig = validate_schur(scaled_identity(tau, 9), gram_precond(A, tau), A)
    assert ok and abs(eig) <= 1e-12


def test_schur_invalid_example():
    A = SparseOp(sp.csr_matrix(np.array([[2.0]])))
    ok, eig = validate_schur(ScaledIdentity(1.0, 1), ScaledIdentity(1.0, 1), A)
    assert not ok and np.isclose(eig, -3.0)


def test_schur_pock_pair_valid():
    A = Grad2D(4, 4)
    m1, m2 = pock_diagonal(A)
    ok, _ = validate_schur(m1, m2, A)
    assert ok


def test_schur_guard_refuses_large():
    A = Grad2D(40, 40)
    with pytest.raises(ValueError, match=r"m\+n=4800 > 2000"):
        validate_schur(scaled_identity(1.0, 1600), gram_precond(A, 1.0), A)


def test_ct_block_precond_norm_variant():
    R = SparseOp(sp.eye(4))
    m1, m2 = ct_block_precond(R, 2, 2, tau=1.0, variant="norm")
    np.testing.assert_allclose(m1.diagonal(), np.full(4, 2.0))
    assert isinstance(m2, BlockDiag)
    top = m2.parts[0]
    np.testing.assert_allclose(top.diagonal(), np.full(4, 1.01), rtol=1e-6)
    bottom = m2.parts[1]
    dense_d = Grad2D(2, 2).to_sparse().toarray()
    np.testing.assert_allclose(bottom.dense(), dense_d @ dense_d.T, atol=1e-12)


def test_ct_block_precond_rowsum_variant():
    R = SparseOp(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]])))
    tau = 0.5
    m1, m2 = ct_block_precond(R, 1, 2, tau=tau, variant="rowsum")
    np.testing.assert_allclose(m1.diagonal(), np.array([1.0, 5.0]) + 1.0 / tau)
    np.testing.assert_allclose(m2.parts[0].diagonal(), [3.0, 3.0])


def test_ct_block_precond_rowsum_rejects_zero_rows():
    R = SparseOp(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        ct_block_precond(R, 1, 2, tau=1.0, variant="rowsum")


def test_builders_leave_a_sparse_operator_as_built():
    # unsorted indices and a duplicate entry, which scipy's abs() and power()
    # would sort and merge in place; SparseOp canonicalizes its own copy
    from pdopt.solver import BcdPlan
    mat = sp.csr_matrix((2, 4))
    mat.data = np.array([1.0, 2.0, 0.5, -3.0, 4.0])
    mat.indices = np.array([3, 1, 1, 0, 1], dtype=np.int32)
    mat.indptr = np.array([0, 3, 5], dtype=np.int32)
    dense = mat.toarray()
    op = SparseOp(mat)
    before = [a.copy() for a in (op.mat.indptr, op.mat.indices, op.mat.data)]
    with pytest.warns(UserWarning):         # column 2 is empty
        pock_diagonal(op)
    ct_block_precond(op, 2, 2, tau=0.1, variant="rowsum")
    BcdPlan(op, Gram(0.1, op), BlockOrdering("rows", [[0], [1]]))
    for want, got in zip(before, (op.mat.indptr, op.mat.indices, op.mat.data)):
        assert np.array_equal(got, want)
    rng = np.random.default_rng(2)
    x, z = rng.standard_normal(4), rng.standard_normal(2)
    np.testing.assert_allclose(op.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(op.rmatvec(z), dense.T @ z, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("variant", ["norm", "rowsum"])
def test_ct_block_precond_schur_valid(variant):
    rng = np.random.default_rng(1)
    R = SparseOp(sp.csr_matrix(rng.uniform(0.0, 1.0, (5, 9))))
    m1, m2 = ct_block_precond(R, 3, 3, tau=0.3, variant=variant)
    A = StackedOp([R, Grad2D(3, 3)])
    ok, eig = validate_schur(m1, m2, A)
    assert ok, eig


def test_metric_spectrum_reports_singular_gram():
    A = Grad2D(3, 3)
    lam_min, lam_min_pos, lam_max = metric_spectrum(gram_precond(A, 1.0))
    assert abs(lam_min) <= 1e-10        # DD^T is singular
    assert lam_min_pos > 1e-6
    assert lam_max > lam_min_pos


def test_ordering_for_validates():
    from pdopt.operators import block_gram
    A = Div2D(5, 5)
    diags = block_gram(A, ordering_for(A))
    assert sum(d.size for d in diags) == A.shape[0]
