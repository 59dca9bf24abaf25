import math

import numpy as np
import pytest
import scipy.sparse as sp

from pdopt.precond import validate_schur
from pdopt.problems import (MassMismatchError, add_impulse_noise, ct, emd,
                            graphcut, reference_solve,
                            synth_line_integral_matrix, tvl1)
from pdopt.solver import run


# ---------------------------------------------------------------------------
# total-variation denoising

def test_tvl1_constant_image_is_its_own_solution():
    b = np.full((6, 6), 0.3)
    inst = tvl1(b, lam=1.0)
    res = run(inst.problem, inst.config(max_outer=5000, tol_residual=1e-12))
    assert res.status == "converged"
    np.testing.assert_allclose(res.state.x, b.ravel(), atol=1e-10)
    assert inst.problem.phi(res.state.x) <= 1e-10


def test_tvl1_huge_lam_recovers_data():
    rng = np.random.default_rng(0)
    b = rng.random((6, 6))
    inst = tvl1(b, lam=1e6)
    res = run(inst.problem, inst.config(max_outer=20000, tol_residual=1e-10))
    np.testing.assert_allclose(res.state.x, b.ravel(), atol=1e-6)


def test_tvl1_noisy_8x8_reaches_reference_value():
    rng = np.random.default_rng(1)
    clean = np.kron(rng.integers(0, 2, (2, 2)).astype(float), np.ones((4, 4)))
    b = add_impulse_noise(clean, 0.15, seed=3)
    inst = tvl1(b, lam=1.0)
    ref = reference_solve(inst, tol=1e-12)
    assert ref.certified
    res = run(inst.problem, inst.config(max_outer=50000,
                                        phi_star=ref.phi_star,
                                        tol_delta=1e-6))
    assert res.status == "converged"
    assert res.final_delta < 1e-6


def test_tvl1_rejects_bad_lam():
    with pytest.raises(ValueError):
        tvl1(np.zeros((3, 3)), lam=0.0)


# ---------------------------------------------------------------------------
# segmentation

def test_graphcut_pure_foreground_and_background():
    blue = np.zeros((5, 5, 3))
    blue[:, :, 2] = 1.0
    inst = graphcut(blue)
    res = run(inst.problem, inst.config(max_outer=5000, tol_residual=1e-12))
    np.testing.assert_allclose(res.state.x, np.ones(25), atol=1e-8)

    green = np.zeros((5, 5, 3))
    green[:, :, 1] = 1.0
    inst = graphcut(green)
    res = run(inst.problem, inst.config(max_outer=5000, tol_residual=1e-12))
    np.testing.assert_allclose(res.state.x, np.zeros(25), atol=1e-8)


def test_graphcut_half_half_matches_reference():
    img = np.zeros((16, 16, 3))
    img[:, :8, 2] = 1.0     # left half blue (foreground)
    img[:, 8:, 1] = 1.0     # right half green (background)
    inst = graphcut(img)
    ref = reference_solve(inst, tol=1e-11)
    res = run(inst.problem, inst.config(max_outer=100000, tol_residual=1e-11))
    assert abs(inst.problem.phi(res.state.x) - ref.phi_star) <= 1e-8
    # left half labeled 1, right half labeled 0
    u = res.state.x.reshape(16, 16)
    assert np.all(u[:, :7] > 0.9) and np.all(u[:, 9:] < 0.1)


def test_graphcut_rejects_non_rgb():
    with pytest.raises(ValueError):
        graphcut(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# optimal transport

def test_emd_identical_marginals_zero_flux():
    rho = np.random.default_rng(2).random((4, 4)) + 0.1
    inst = emd(rho, rho.copy())
    res = run(inst.problem, inst.config(max_outer=3000, tol_residual=1e-12))
    assert inst.problem.objective(res.state.x) <= 1e-10
    np.testing.assert_allclose(res.state.x, np.zeros(32), atol=1e-9)


def test_emd_adjacent_point_masses_cost_is_cell_distance():
    # all mass moves one cell to the right: cost = grid spacing h
    inst = emd(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert inst.params["h"] == 0.25
    res = run(inst.problem, inst.config(max_outer=20000, tol_residual=1e-12))
    assert res.status == "converged"
    assert abs(inst.problem.objective(res.state.x) - 0.25) <= 1e-8
    assert inst.problem.feasibility(res.state.x) <= 1e-10


def test_emd_mass_normalization_is_scale_invariant():
    rng = np.random.default_rng(3)
    r0 = rng.random((3, 3))
    r1 = rng.random((3, 3))
    r1 *= r0.sum() / r1.sum()
    a = emd(r0, r1)
    b = emd(10.0 * r0, 10.0 * r1)
    np.testing.assert_allclose(a.problem.g.target, b.problem.g.target,
                               atol=1e-14)


def test_emd_rejects_mass_mismatch_and_negatives():
    with pytest.raises(MassMismatchError):
        emd(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))
    with pytest.raises(ValueError):
        emd(np.array([[1.0, -0.5]]), np.array([[0.5, 0.0]]))


# ---------------------------------------------------------------------------
# data validation shared by the builders

_BUILDERS = {
    "tvl1": lambda data: tvl1(data, lam=1.0),
    "graphcut": lambda data: graphcut(np.repeat(data[:, :, None], 3, axis=2)),
    "emd": lambda data: emd(data, np.ones_like(data)),
    "ct": lambda data: ct(sp.eye(16), data.ravel(), lam=0.1, rows=4, cols=4),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("builder", sorted(_BUILDERS))
def test_builders_reject_non_finite_data(builder, bad):
    # a NaN passes every comparison-based check (nonnegativity, mass) and an
    # inf would otherwise run out the whole iteration budget
    data = np.ones((4, 4))
    _BUILDERS[builder](data)            # the finite data is accepted
    data[1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        _BUILDERS[builder](data)


@pytest.mark.parametrize("build", [
    lambda: tvl1(np.ones((3, 3)), lam=math.nan),
    lambda: graphcut(np.ones((3, 3, 3)), alpha=math.nan),
    lambda: graphcut(np.ones((3, 3, 3)), mu_f=(0.0, math.nan, 1.0)),
    lambda: ct(sp.eye(16), np.ones(16), lam=math.nan, rows=4, cols=4),
], ids=["tvl1-lam", "graphcut-alpha", "graphcut-mu_f", "ct-lam"])
def test_builders_reject_nan_parameters(build):
    # NaN is not <= 0 either, so a positivity check must be written as
    # "not > 0" to catch it
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# tomography

def test_ct_identity_operator_recovers_image():
    rng = np.random.default_rng(4)
    u_true = rng.random((8, 8))
    import scipy.sparse as sp
    inst = ct(sp.eye(64), u_true.ravel(), lam=1e-8, rows=8, cols=8)
    res = run(inst.problem, inst.config(max_outer=50000, tol_residual=1e-11))
    np.testing.assert_allclose(res.state.x, u_true.ravel(), atol=1e-4)


def test_ct_8x8_matches_reference_value():
    R = synth_line_integral_matrix(8, 8, 6, 10, seed=5)
    rng = np.random.default_rng(5)
    u_true = np.kron(rng.integers(0, 2, (2, 2)).astype(float), np.ones((4, 4)))
    b = R @ u_true.ravel()
    inst = ct(R, b, lam=0.1, rows=8, cols=8)
    ref = reference_solve(inst, tol=1e-11)
    res = run(inst.problem, inst.config(max_outer=100000,
                                        phi_star=ref.phi_star,
                                        tol_delta=1e-6))
    assert res.status == "converged"
    assert res.final_delta < 1e-6


@pytest.mark.parametrize("variant", ["norm", "rowsum"])
def test_ct_preconditioner_pair_is_schur_valid(variant):
    R = synth_line_integral_matrix(8, 8, 6, 10, seed=6)
    from pdopt.operators import SparseOp
    inst = ct(SparseOp(R), R @ np.zeros(64), lam=0.1, rows=8, cols=8,
              precond_variant=variant)
    ok, eig = validate_schur(inst.recommended["m1"], inst.recommended["m2"],
                             inst.problem.A)
    assert ok, eig


def test_ct_input_validation():
    import scipy.sparse as sp
    with pytest.raises(ValueError):
        ct(sp.eye(64), np.zeros(64), lam=0.0, rows=8, cols=8)
    with pytest.raises(ValueError):
        ct(sp.eye(64), np.zeros(63), lam=0.1, rows=8, cols=8)
    with pytest.raises(ValueError):
        ct(sp.eye(60), np.zeros(60), lam=0.1, rows=8, cols=8)


def test_synth_matrix_geometry():
    rows, cols = 8, 8
    R = synth_line_integral_matrix(rows, cols, 10, 12, seed=0)
    assert R.shape[1] == rows * cols
    assert R.nnz > 0 and np.all(R.data > 0)
    row_sums = np.asarray(R.sum(axis=1)).ravel()
    assert np.all(row_sums > 0)             # no zero rows
    diag = math.hypot(rows, cols)
    assert row_sums.max() <= diag + 1e-9    # a chord cannot exceed the diagonal
    assert row_sums.max() >= cols - 0.2     # some near-axial ray spans the grid


def test_synth_matrix_deterministic():
    a = synth_line_integral_matrix(6, 6, 5, 7, seed=9)
    b = synth_line_integral_matrix(6, 6, 5, 7, seed=9)
    assert (a != b).nnz == 0


# ---------------------------------------------------------------------------
# noise + reference engine

def test_add_impulse_noise_levels():
    u = np.full((16, 16), 0.5)
    np.testing.assert_array_equal(add_impulse_noise(u, 0.0), u)
    all_noise = add_impulse_noise(u, 1.0)
    assert set(np.unique(all_noise)) <= {0.0, 1.0}
    noisy = add_impulse_noise(u, 0.15, seed=0)
    assert int(np.sum(noisy != 0.5)) == 38
    with pytest.raises(ValueError):
        add_impulse_noise(u, 1.5)


def test_reference_solve_tiny_tvl1_against_enumeration():
    # b = [[0,1],[0,1]], lam=1: any u interpolating the two columns achieves
    # data + regularizer = 2, and no candidate does better
    inst = tvl1(np.array([[0.0, 1.0], [0.0, 1.0]]), lam=1.0)
    ref = reference_solve(inst, tol=1e-12)
    assert ref.certified
    assert abs(ref.phi_star - 2.0) <= 1e-9
    assert ref.certificate >= -1e-12


def test_reference_solve_warm_start_idempotent():
    inst = tvl1(np.random.default_rng(6).random((4, 4)), lam=1.5)
    ref = reference_solve(inst, tol=1e-10)
    again = reference_solve(inst, tol=1e-10, x0=ref.x, z0=ref.z)
    assert again.iters <= max(5, ref.iters // 10)
    assert abs(again.phi_star - ref.phi_star) <= 1e-10


def test_reference_solve_refuses_large():
    inst = tvl1(np.zeros((100, 100)), lam=1.0)
    with pytest.raises(ValueError):
        reference_solve(inst)


def test_instance_config_overrides():
    inst = tvl1(np.zeros((4, 4)), lam=1.0)
    cfg = inst.config(tau=0.5, p=3, max_outer=17)
    assert cfg.tau == 0.5 and cfg.p == 3 and cfg.max_outer == 17
    assert cfg.m1 is not None and cfg.m2 is not None
    np.testing.assert_allclose(cfg.m1.diagonal(), np.full(16, 2.0))
