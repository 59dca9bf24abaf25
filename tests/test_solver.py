import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import pdopt

from pdopt.operators import Div2D, Grad2D, SparseOp
from pdopt.precond import (Diagonal, Gram, ScaledIdentity, gram_precond,
                           metric_spectrum, scaled_identity, two_block_ordering)
from pdopt.prox import (BoxIndicator, Concat, GroupL12, L1, PointIndicator,
                        Quadratic, UnsupportedKindError, Zero, conj_prox)
from pdopt.solver import (BcdPlan, ConfigError, InfeasibleStepsizeError,
                          SaddleProblem, SingularMetricError, SolverConfig,
                          ZSubproblem, admm_dual_step, bcd_gamma_feasible,
                          c_bcd, c_proxgrad, dual_transform, ergodic_gap_bound,
                          find_bcd_gamma, inner_bcd, inner_fista_restart,
                          inner_proxgrad, lyapunov, pdhg_step, prepdhg_x_step,
                          relative_error_residual, run, solve_subproblem_exact,
                          validate_config)


# ---------------------------------------------------------------------------
# elementary steps

def test_pdhg_fixed_point_trivial():
    prob = SaddleProblem(f=Zero(2), g=Zero(3),
                         A=SparseOp(sp.csr_matrix((3, 2))))
    x, z = pdhg_step(np.zeros(2), np.zeros(3), prob, 0.5, 0.5)
    assert not x.any() and not z.any()


def test_pdhg_1d_quadratic_converges():
    prob = SaddleProblem(f=Quadratic(1, weight=1.0, center=np.array([1.0])),
                         g=Zero(1), A=SparseOp(sp.csr_matrix((1, 1))))
    x, z = np.zeros(1), np.zeros(1)
    for _ in range(200):
        x, z = pdhg_step(x, z, prob, 0.5, 0.5)
    assert abs(x[0] - 1.0) < 1e-10


def test_pdhg_matches_hand_rolled_reference():
    # independent re-implementation of the same iteration, scalar case
    prob = SaddleProblem(f=L1(1, lam=1.0), g=L1(1, lam=1.0),
                         A=SparseOp(sp.csr_matrix(np.array([[1.0]]))))
    tau = sigma = 0.5
    x, z = np.array([2.0]), np.array([0.3])
    rx, rz = 2.0, 0.3
    for _ in range(200):
        x_new, z_new = pdhg_step(x, z, prob, tau, sigma)
        # reference: soft-threshold x-step, clamped dual ascent z-step
        v = rx - tau * rz
        rx_new = math.copysign(max(abs(v) - tau, 0.0), v)
        w = rz + sigma * (2 * rx_new - rx)
        rz_new = min(1.0, max(-1.0, w))
        rx, rz = rx_new, rz_new
        assert abs(x_new[0] - rx) <= 1e-14 and abs(z_new[0] - rz) <= 1e-14
        x, z = x_new, z_new


def test_prepdhg_x_step_zero_f_is_gradient_step():
    rng = np.random.default_rng(0)
    A = SparseOp(sp.csr_matrix(rng.standard_normal((4, 3))))
    prob = SaddleProblem(f=Zero(3), g=Zero(4), A=A)
    m1 = Diagonal(rng.uniform(0.5, 2.0, 3))
    x = rng.standard_normal(3)
    z = rng.standard_normal(4)
    expect = x - A.rmatvec(z) / m1.diagonal()
    np.testing.assert_allclose(prepdhg_x_step(x, z, prob, m1), expect,
                               atol=1e-14)


def test_prepdhg_x_step_reduces_to_pdhg_x_update():
    rng = np.random.default_rng(1)
    A = SparseOp(sp.csr_matrix(rng.standard_normal((4, 3))))
    prob = SaddleProblem(f=L1(3, lam=0.8), g=Zero(4), A=A)
    tau = 0.3
    x = rng.standard_normal(3)
    z = rng.standard_normal(4)
    got = prepdhg_x_step(x, z, prob, scaled_identity(tau, 3))
    expect = prob.f.prox(x - tau * A.rmatvec(z), 1.0 / tau)
    np.testing.assert_allclose(got, expect, atol=1e-15)


def test_prepdhg_x_step_point_indicator():
    t = np.array([1.0, -2.0])
    A = SparseOp(sp.csr_matrix(np.ones((1, 2))))
    prob = SaddleProblem(f=PointIndicator(t), g=Zero(1), A=A)
    got = prepdhg_x_step(np.zeros(2), np.array([5.0]), prob,
                         scaled_identity(0.5, 2))
    np.testing.assert_array_equal(got, t)


# ---------------------------------------------------------------------------
# inner iterators

def _quadratic_subproblem(rng, m=7):
    """Subproblem with quadratic g so the exact solution is a linear solve."""
    g = Quadratic(m, weight=1.4, center=rng.standard_normal(m))
    A = SparseOp(sp.csr_matrix(rng.standard_normal((m, 5))))
    m2 = Gram(0.4, A, ridge=0.3)
    z_ref = rng.standard_normal(m)
    q = rng.standard_normal(m)
    dense = m2.dense()
    # optimality: z/w + center + M2 (z - z_ref) - q = 0
    lhs = np.eye(m) / g.weight + dense
    z_star = np.linalg.solve(lhs, dense @ z_ref + q - g.center)
    return ZSubproblem(z_ref, q, m2, g), z_star


def test_inner_proxgrad_point_conjugate_lands_at_zero():
    # g = indicator of the origin shifted dual: conjugate prox maps anywhere
    sub = ZSubproblem(np.ones(3), np.zeros(3),
                      ScaledIdentity(1.0, 3), L1(3, lam=0.5))
    z, count = inner_proxgrad(sub, 1.0, 1)
    assert count == 1
    assert np.max(np.abs(z)) <= 0.5 + 1e-15


def test_inner_proxgrad_identity_metric_one_step_exact():
    rng = np.random.default_rng(2)
    m = 5
    sub = ZSubproblem(rng.standard_normal(m), rng.standard_normal(m),
                      ScaledIdentity(1.0, m), PointIndicator(np.zeros(m)))
    # g = indicator{0} has conjugate 0, so the subproblem minimizer is
    # z_ref + q and one unit step reaches it exactly
    z, _ = inner_proxgrad(sub, 1.0, 1)
    np.testing.assert_allclose(z, sub.z_ref + sub.q, atol=1e-14)


@pytest.mark.parametrize("engine", [inner_proxgrad, inner_fista_restart])
def test_inner_iterators_converge_to_dense_solution(engine):
    rng = np.random.default_rng(3)
    sub, z_star = _quadratic_subproblem(rng)
    gamma = 1.0 / metric_spectrum(sub.m2)[2]
    z, _ = engine(sub, gamma, 400)
    assert np.linalg.norm(z - z_star) <= 1e-8


def test_fista_p1_equals_proxgrad_p1():
    rng = np.random.default_rng(4)
    sub, _ = _quadratic_subproblem(rng)
    gamma = 0.1
    z1, _ = inner_proxgrad(sub, gamma, 1)
    z2, _ = inner_fista_restart(sub, gamma, 1)
    np.testing.assert_allclose(z1, z2, atol=1e-15)


def test_solve_subproblem_exact_matches_dense():
    rng = np.random.default_rng(5)
    sub, z_star = _quadratic_subproblem(rng)
    z = solve_subproblem_exact(sub, tol=1e-13)
    assert np.linalg.norm(z - z_star) <= 1e-9


def test_inner_bcd_epoch_is_red_black_gauss_seidel():
    # linear conjugate (EMD-style): one epoch equals one red-black sweep
    rng = np.random.default_rng(6)
    A = Div2D(4, 4)
    m = A.shape[0]
    tau = 0.7
    m2 = Gram(tau, A)
    g = PointIndicator(rng.standard_normal(m))
    z_ref = rng.standard_normal(m)
    q = rng.standard_normal(m)
    sub = ZSubproblem(z_ref, q, m2, g)
    plan = BcdPlan(A, m2)
    z_got, count = inner_bcd(sub, plan, 1)
    assert count == 1

    # oracle: Gauss-Seidel on  M2 (z - z_ref) = q - target, black then red
    dense = m2.dense()
    rhs = q - g.target
    dz = np.zeros(m)
    from pdopt.precond import two_block_ordering
    for blk in two_block_ordering(4, 4).blocks:
        for i in blk:
            resid = rhs[i] - dense[i, :] @ dz + dense[i, i] * dz[i]
            dz[i] = resid / dense[i, i]
    np.testing.assert_allclose(z_got, z_ref + dz, atol=1e-13)


def test_inner_bcd_box_conjugate_exact_block_minimizer():
    # TV-L1-style dual: each block update must be the exact constrained
    # block minimizer, cross-checked by a dense per-coordinate solve over
    # p epochs; Grad2D's structurally zero rows (h = 0) must stay put
    rng = np.random.default_rng(7)
    A = Grad2D(3, 3)
    m = A.shape[0]
    tau = 0.4
    m2 = Gram(tau, A)
    g = L1(m, lam=1.0)
    z_ref = np.clip(rng.standard_normal(m), -1, 1)
    q = rng.standard_normal(m)
    sub = ZSubproblem(z_ref, q, m2, g)
    plan = BcdPlan(A, m2)
    dense = m2.dense()
    from pdopt.precond import four_block_ordering
    z = z_ref.copy()
    for p in (1, 2, 3):
        for blk in four_block_ordering(3, 3).blocks:
            for i in blk:
                h = dense[i, i]
                # coordinate objective: -q_i dz_i + cross_i dz_i + (h/2) dz_i^2
                # over the box [-1, 1]; cross_i is the off-diagonal coupling
                cross = dense[i, :] @ (z - z_ref) - h * (z[i] - z_ref[i])
                if h > 0:
                    z[i] = np.clip(z_ref[i] + (q[i] - cross) / h, -1, 1)
        z_got, count = inner_bcd(sub, plan, p)
        assert count == p
        np.testing.assert_allclose(z_got, z, atol=1e-13)
    dead = np.diag(dense) == 0
    assert dead.any()
    np.testing.assert_array_equal(z_got[dead], z_ref[dead])


def test_inner_bcd_ct_block_plan_is_gauss_seidel():
    # ct_block_precond: a diagonal segment (tau ||R||^2 I) and a Gram
    # segment (tau D D^T) over a StackedOp, with a Concat conjugate
    from pdopt.operators import StackedOp
    from pdopt.precond import ct_block_precond, four_block_ordering
    from pdopt.prox import Concat
    rng = np.random.default_rng(9)
    R = SparseOp(sp.csr_matrix(rng.uniform(0.0, 1.0, (5, 9))))
    A = StackedOp([R, Grad2D(3, 3)])
    tau, lam, weight = 0.3, 0.8, 1.5
    _, m2 = ct_block_precond(R, 3, 3, tau=tau, variant="norm")
    center = rng.standard_normal(5)
    g = Concat([Quadratic(5, weight=weight, center=center), L1(18, lam=lam)])
    m = A.shape[0]
    z_ref = np.concatenate([rng.standard_normal(5), np.clip(rng.standard_normal(18), -lam, lam)])
    q = rng.standard_normal(m)
    sub = ZSubproblem(z_ref, q, m2, g)
    plan = BcdPlan(A, m2)
    assert [seg.kind for seg in plan.segments] == ["diag", "gram"]
    assert len(plan.segments[1].blocks) == 4

    dense = m2.dense()
    order = [np.arange(5)] + [5 + b for b in four_block_ordering(3, 3).blocks]
    z = z_ref.copy()
    for p in (1, 2):
        for blk in order:
            for i in blk:
                h = dense[i, i]
                if h == 0:
                    continue
                cross = dense[i, :] @ (z - z_ref) - h * (z[i] - z_ref[i])
                v = z_ref[i] + (q[i] - cross) / h
                if i < 5:   # conjugate of (w/2)(x - c)^2, step 1/h
                    z[i] = weight * (v - center[i] / h) / (weight + 1.0 / h)
                else:       # conjugate of lam |x|: clamp
                    z[i] = np.clip(v, -lam, lam)
        z_got, _ = inner_bcd(sub, plan, p)
        np.testing.assert_allclose(z_got, z, atol=1e-13)


def test_ct_plan_reads_the_gram_rows_from_op(monkeypatch):
    # problems.ct hands its Grad2D block to ct_block_precond, so the
    # gradient is materialized once (when the StackedOp stacks its rows)
    # and the plan takes the Gram rows from op; a Gram block over another
    # Grad2D object is materialized itself, and both plans hold the same bits
    from pdopt import problems
    from pdopt.precond import ct_block_precond
    builds = []
    to_sparse = Grad2D.to_sparse

    def counting(self):
        builds.append(self)
        return to_sparse(self)

    monkeypatch.setattr(Grad2D, "to_sparse", counting)
    rng = np.random.default_rng(33)
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    inst = problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8, cols=8,
                       tau=0.1)
    A, m2 = inst.problem.A, inst.recommended["m2"]
    assert m2.parts[1].A is A.ops[1]
    shared = BcdPlan(A, m2)
    assert builds == [A.ops[1]]
    _, m2_own = ct_block_precond(SparseOp(R), 8, 8, 0.1)
    builds.clear()
    own = BcdPlan(A, m2_own)
    assert builds == [m2_own.parts[1].A]
    assert own.order.tobytes() == shared.order.tobytes()
    for a, b in zip(own.segments[1].blocks, shared.segments[1].blocks):
        for x, y in ((a.l_b, b.l_b), (a.u_b, b.u_b)):
            assert all(getattr(x, k).tobytes() == getattr(y, k).tobytes()
                       for k in ("data", "indices", "indptr"))
    with pytest.raises(ValueError, match="grad"):
        ct_block_precond(SparseOp(R), 8, 8, 0.1, grad=Grad2D(4, 4))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 7), cols=st.integers(2, 7), p=st.integers(1, 3),
       tau=st.floats(0.05, 2.0), h=st.floats(0.5, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inner_bcd_is_dense_red_black_gauss_seidel(rows, cols, p, tau, h, seed):
    # linear conjugate: p epochs equal p dense red-black Gauss-Seidel sweeps
    # on  M2 (z - z_ref) = q - target
    rng = np.random.default_rng(seed)
    A = Div2D(rows, cols, h)
    m = A.shape[0]
    m2 = Gram(tau, A)
    g = PointIndicator(rng.standard_normal(m))
    z_ref, q = rng.standard_normal(m), rng.standard_normal(m)
    z_got, _ = inner_bcd(ZSubproblem(z_ref, q, m2, g), BcdPlan(A, m2), p)
    dense = m2.dense()
    rhs = q - g.target
    dz = np.zeros(m)
    for _ in range(p):
        for blk in two_block_ordering(rows, cols).blocks:
            for i in blk:
                dz[i] = (rhs[i] - dense[i] @ dz + dense[i, i] * dz[i]) / dense[i, i]
    scale = 1.0 + np.max(np.abs(z_ref + dz))
    np.testing.assert_allclose(z_got, z_ref + dz, rtol=0, atol=1e-12 * scale)


def test_solve_subproblem_exact_with_bcd_plan_matches_dense():
    # BCD epochs from the previous epoch's point, not z_ref, until the step
    # vanishes; the ridge keeps Grad2D's structurally zero rows live
    rng = np.random.default_rng(32)
    A = Grad2D(3, 3)
    m = A.shape[0]
    g = Quadratic(m, weight=1.4, center=rng.standard_normal(m))
    m2 = Gram(0.4, A, ridge=0.3)
    z_ref, q = rng.standard_normal(m), rng.standard_normal(m)
    dense = m2.dense()
    z_star = np.linalg.solve(np.eye(m) / g.weight + dense,
                             dense @ z_ref + q - g.center)
    z = solve_subproblem_exact(ZSubproblem(z_ref, q, m2, g), tol=1e-14,
                               plan=BcdPlan(A, m2))
    assert np.linalg.norm(z - z_star) <= 1e-10


# The loops these functions ran before they shared one FISTA-with-restart
# loop, written out as they were: the oracle for bit-for-bit equality.  Their
# conjugate prox is the kernel the solvers now bind once (``g``'s
# whole-vector kernel at step gamma) where they called the Moreau route;
# tests/test_prox.py checks that kernel against the Moreau route.

def _old_fista_restart(sub, gamma, p):
    conj = sub.g.conj_prox_kernel(gamma)
    z = sub.z_ref
    y = z
    t = 1.0
    f_prev = sub.objective(z)
    for _ in range(p):
        z_new = conj(y - gamma * sub.grad_quad(y))
        f_new = sub.objective(z_new)
        if f_new > f_prev:
            t = 1.0
            y = z_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z_new + ((t - 1.0) / t_new) * (z_new - z)
            t = t_new
        z = z_new
        f_prev = f_new
    return z


def _old_solve_exact(sub, tol, max_iter, gamma=None, plan=None):
    if plan is None:
        if gamma is None:
            gamma = 1.0 / max(pdopt.solver.m2_norm_estimate(sub.m2), 1e-30)
        conj = sub.g.conj_prox_kernel(gamma)
    else:
        plan_sub = plan.subproblem(sub)
    z = sub.z_ref
    y = z
    t = 1.0
    f_prev = sub.objective(z)
    prev = None
    for _ in range(max_iter):
        if plan is not None:        # one epoch; the sweep runs in plan order
            c = plan.rhs(plan_sub.z_ref, plan_sub.q)
            z_new = plan.unpermute(
                pdopt.solver._bcd_sweep(plan_sub, plan, c, 1, plan.permute(z)))
            # the epochs stop on the estimated error step r / (1 - r)
            step = np.linalg.norm(z_new - z)
            bound = tol * (1.0 + np.linalg.norm(z_new))
            if step == 0.0 or (prev is not None and step < prev and
                               step * (step / prev) / (1.0 - step / prev) <= bound):
                return z_new
            z, prev = z_new, step
            continue
        z_new = conj(y - gamma * sub.grad_quad(y))
        f_new = sub.objective(z_new)
        if f_new > f_prev:
            t = 1.0
            y = z_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z_new + ((t - 1.0) / t_new) * (z_new - z)
            t = t_new
        f_prev = f_new
        if np.linalg.norm(z_new - z) <= tol * (1.0 + np.linalg.norm(z_new)):
            return z_new
        z = z_new
    return z


def _old_admm_dual_step(z, y, v, tau, problem, tol, max_iter):
    A = problem.A
    lam = pdopt.operators.op_norm_sq_estimate(A)
    gamma = 1.0 / max(tau * lam, 1e-30)
    conj = problem.g.conj_prox_kernel(gamma)
    cur = np.asarray(z, dtype=float)
    yy = cur
    t = 1.0

    def grad(w):
        return A.matvec(tau * (A.rmatvec(w) + y) - v)

    def obj(w):
        r = A.rmatvec(w) + y
        return (problem.g.conjugate_value(w) + float(-r @ v)
                + 0.5 * tau * float(r @ r))

    f_prev = obj(cur)
    for _ in range(max_iter):
        z_new = conj(yy - gamma * grad(yy))
        f_new = obj(z_new)
        if f_new > f_prev:
            t = 1.0
            yy = z_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            yy = z_new + ((t - 1.0) / t_new) * (z_new - cur)
            t = t_new
        f_prev = f_new
        if np.linalg.norm(z_new - cur) <= tol * (1.0 + np.linalg.norm(z_new)):
            cur = z_new
            break
        cur = z_new
    z_new = cur
    w = v / tau - A.rmatvec(z_new)
    y_new = pdopt.prox.conj_prox_via_moreau(problem.f, w,
                                            np.full(problem.f.dim, 1.0 / tau))
    v_new = v - tau * (A.rmatvec(z_new) + y_new)
    return z_new, y_new, v_new


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 4), cols=st.integers(2, 4),
       kind=st.sampled_from(["quadratic", "l1"]), p=st.integers(1, 40),
       max_iter=st.integers(0, 40), tol=st.sampled_from([1e-12, 1e-4, 1e-1]),
       tau=st.floats(0.1, 2.0), ridge=st.floats(0.05, 1.0),
       step=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_fista_loop_is_the_parent_loop_bit_for_bit(rows, cols, kind, p,
                                                   max_iter, tol, tau, ridge,
                                                   step, seed):
    # small max_iter runs the exact solvers out of iterations, a loose tol
    # stops them early; both must return the very same bytes as before
    rng = np.random.default_rng(seed)
    A = Grad2D(rows, cols)
    m, n = A.shape
    if kind == "quadratic":
        g = Quadratic(m, weight=0.5 + rng.random(), center=rng.standard_normal(m))
    else:
        g = L1(m, lam=0.1 + rng.random())
    m2 = Gram(tau, A, ridge=ridge)
    sub = ZSubproblem(rng.standard_normal(m), rng.standard_normal(m), m2, g)
    gamma = step / pdopt.solver.m2_norm_estimate(m2)

    z, count = inner_fista_restart(sub, gamma, p)
    assert count == p
    assert z.tobytes() == _old_fista_restart(sub, gamma, p).tobytes()
    for kw in ({}, {"gamma": gamma}, {"plan": BcdPlan(A, m2)}):
        got = solve_subproblem_exact(sub, tol=tol, max_iter=max_iter, **kw)
        want = _old_solve_exact(sub, tol, max_iter, **kw)
        assert got.tobytes() == want.tobytes(), kw

    prob = SaddleProblem(f=Quadratic(n, weight=2.0, center=rng.standard_normal(n)),
                         g=g, A=A)
    args = (rng.standard_normal(m), rng.standard_normal(n),
            rng.standard_normal(n), tau, prob)
    got = admm_dual_step(*args, tol=tol, max_iter=max_iter)
    want = _old_admm_dual_step(*args, tol, max_iter)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_bcd_plan_rebinds_for_another_g():
    # a plan bound to problem.g is swept with other functions: each sweep
    # binds its own g
    rng = np.random.default_rng(29)
    A = Div2D(5, 4)
    m = A.shape[0]
    m2 = Gram(0.4, A)
    prob = SaddleProblem(f=Zero(A.shape[1]), g=L1(m, lam=0.5), A=A)
    plan = validate_config(prob, SolverConfig(tau=0.4, m2=m2))["plan"]
    assert plan.g is prob.g
    z_ref, q = rng.standard_normal(m), rng.standard_normal(m)
    target = rng.standard_normal(m)
    want, _ = inner_bcd(ZSubproblem(z_ref, q, m2, PointIndicator(target)),
                        BcdPlan(A, m2), 2)
    for g in (PointIndicator(target), PointIndicator(target)):   # two objects
        got, _ = inner_bcd(ZSubproblem(z_ref, q, m2, g), plan, 2)
        assert plan.g is g
        assert got.tobytes() == want.tobytes()
    with pytest.raises(UnsupportedKindError):
        inner_bcd(ZSubproblem(z_ref, q, m2, BoxIndicator(m)), plan, 1)


def test_bcd_plan_block_over_two_concat_parts():
    # a Concat split inside a colour block: the block routes each part's
    # coordinates to its own closed form
    rng = np.random.default_rng(30)
    A = Grad2D(3, 3)
    m = A.shape[0]
    m2 = Gram(0.4, A)
    plan = BcdPlan(A, m2)
    split = int(plan.segments[0].idx[2])       # the third row of block 0
    parts = [L1(split, lam=0.8), Quadratic(m - split, weight=1.5,
                                           center=rng.standard_normal(m - split))]
    z_ref, q = np.clip(rng.standard_normal(m), -0.8, 0.8), rng.standard_normal(m)
    sub = ZSubproblem(z_ref, q, m2, Concat(parts))
    z_got, _ = inner_bcd(sub, plan, 2)
    dense = m2.dense()
    from pdopt.precond import four_block_ordering
    z = z_ref.copy()
    for _ in range(2):
        for blk in four_block_ordering(3, 3).blocks:
            for i in blk:
                h = dense[i, i]
                if h == 0:
                    continue
                cross = dense[i, :] @ (z - z_ref) - h * (z[i] - z_ref[i])
                v = z_ref[i] + (q[i] - cross) / h
                if i < split:
                    z[i] = np.clip(v, -0.8, 0.8)
                else:
                    w, c = 1.5, parts[1].center[i - split]
                    z[i] = w * (v - c / h) / (w + 1.0 / h)
    np.testing.assert_allclose(z_got, z, atol=1e-13)


def _benchmark_instances():
    """The benchmark's four instances (tvl1-64, ct-16, emd-32, tvl1-256) at
    iPrePDHG's tau; the BCD plan depends on the operator and M2 only, so
    the image and marginals are stand-ins."""
    from pdopt import problems
    rng = np.random.default_rng(31)
    R = problems.synth_line_integral_matrix(16, 16, 12, 20, seed=3)
    blob = np.exp(-np.arange(32.0) ** 2 / 18.0)
    yield problems.tvl1(rng.random((64, 64)), lam=1.0), 0.01
    yield problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=16, cols=16,
                      tau=0.1), 0.1
    yield problems.emd(np.outer(blob, blob), np.outer(blob[::-1], blob)), 0.001
    yield problems.tvl1(rng.random((256, 256)), lam=1.0), 0.01


def _old_gram_blocks(plan, seg, part):
    """The segment's ``G_b`` as they were built before the plan split them:
    row slices of one product of its rows in plan order with their
    transpose, scaled by tau/h, self-coupling and dead columns removed, each
    row in the product's order."""
    rows = plan.op.mat[seg.lo:seg.hi]
    gram = rows @ rows.T.tocsr()
    h = part.tau * (rows.power(2) @ np.ones(rows.shape[1])) + part.ridge
    n_live = seg.idx.size
    for sl in (blk.sl for blk in seg.blocks):
        g_b = gram[sl].tocsr()
        g_b.data *= np.repeat(part.tau / h[sl], np.diff(g_b.indptr))
        cols = g_b.indices
        g_b.data[((cols >= sl.start) & (cols < sl.stop)) | (cols >= n_live)] = 0.0
        g_b.eliminate_zeros()
        yield sp.csr_matrix((g_b.data, g_b.indices, g_b.indptr),
                            shape=(g_b.shape[0], n_live))


def test_bcd_bound_block_products_are_scipys_bit_for_bit():
    # each G_b is held as L_b (columns before the block) and U_b (after it),
    # a stable partition of each row: L_b @ v with U_b @ v added into the
    # same output is G_b @ v up to the order of its terms, and with the
    # blocks not yet swept at zero, L_b @ dz alone is G_b @ dz bit for bit
    rng = np.random.default_rng(32)
    for inst, tau in _benchmark_instances():
        cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau, p=1)
        resolved = validate_config(inst.problem, cfg)
        plan, m2 = resolved["plan"], resolved["m2"]
        n_blocks = 0
        for i, seg in enumerate(plan.segments):
            if seg.kind == "diag":
                continue
            part = m2 if isinstance(m2, Gram) else m2.parts[i]
            idx = seg.idx
            for blk, g_b in zip(seg.blocks, _old_gram_blocks(plan, seg, part)):
                sl, l_b, u_b = blk.sl, blk.l_b, blk.u_b
                lower, upper = blk.lower, blk.upper
                assert np.all(l_b.indices < sl.start)
                assert np.all(u_b.indices >= sl.stop)
                assert (lower is None) == (l_b.nnz == 0)
                assert (upper is None) == (u_b.nnz == 0)
                assert abs(l_b + u_b - g_b).max() == 0.0
                for part_b in (l_b, u_b):       # each row keeps G_b's order
                    for r in rng.choice(sl.stop - sl.start, 20):
                        row = g_b.indices[g_b.indptr[r]:g_b.indptr[r + 1]]
                        own = part_b.indices[part_b.indptr[r]:part_b.indptr[r + 1]]
                        assert list(own) == [c for c in row if c in set(own)]
                dz = rng.standard_normal(idx.size)
                dz[rng.random(idx.size) < 0.2] = -0.0
                want = g_b @ dz
                got = np.zeros(want.size)
                for product in (lower, upper):
                    if product is not None:
                        assert product(dz, got) is got
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
                dz[sl.start:] = 0.0               # not yet swept
                got = lower(dz) if lower is not None else np.zeros(want.size)
                assert got.tobytes() == (g_b @ dz).tobytes()
                n_blocks += 1
        assert n_blocks > 0, inst.name


def test_bcd_plan_rejects_coupled_block():
    from pdopt.operators import OrderingError
    from pdopt.precond import BlockOrdering
    A = Grad2D(4, 4)
    with pytest.raises(OrderingError):
        BcdPlan(A, Gram(0.5, A), BlockOrdering("trivial", [np.arange(A.shape[0])]))


def test_inner_bcd_zero_drift_fixed_point():
    A = Grad2D(3, 3)
    m2 = Gram(0.5, A)
    m = A.shape[0]
    z_ref = np.clip(np.random.default_rng(8).standard_normal(m), -1, 1)
    sub = ZSubproblem(z_ref, np.zeros(m), m2, L1(m, lam=1.0))
    z, _ = inner_bcd(sub, BcdPlan(A, m2), 3)
    np.testing.assert_allclose(z, z_ref, atol=1e-14)


# ---------------------------------------------------------------------------
# theory constants

def test_c_proxgrad_examples():
    assert np.isclose(c_proxgrad(1.0, 1.0, 1.0, 1), 2.0)
    assert np.isclose(c_proxgrad(0.5, 1.0, 1.0, 1), 9.0)
    assert np.isclose(c_proxgrad(0.5, 1.0, 1.0, 2), 3.0)


def test_c_proxgrad_decreasing_to_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lam_max = rng.uniform(0.5, 3.0)
        lam_min = lam_max * rng.uniform(0.1, 1.0)
        gamma = rng.uniform(0.1, 0.999) * 2 * lam_min / lam_max ** 2
        vals = [c_proxgrad(gamma, lam_min, lam_max, p) for p in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        t = math.sqrt(1 - gamma * (2 * lam_min - gamma * lam_max ** 2))
        p_big = max(40, int(10.0 / max(1e-6, 1.0 - t)))
        assert c_proxgrad(gamma, lam_min, lam_max, p_big) < 1e-2 * vals[0]


def test_c_proxgrad_guards():
    with pytest.raises(SingularMetricError):
        c_proxgrad(0.1, 0.0, 1.0, 1)
    with pytest.raises(InfeasibleStepsizeError):
        c_proxgrad(5.0, 1.0, 1.0, 1)


def test_c_bcd_examples():
    assert np.isclose(c_bcd(0.1, 1.0, 1.0, 1, 1), 429.0)
    expect = 11 * (0.95 ** 10 + 0.95 ** 9) / (1 - 0.95 ** 10)
    assert np.isclose(c_bcd(0.1, 1.0, 1.0, 1, 10), expect)


def test_bcd_gamma_feasibility_matches_direct_inequalities():
    rng = np.random.default_rng(10)
    for _ in range(50):
        lam_max = rng.uniform(0.5, 4.0)
        lam_min = lam_max * rng.uniform(0.05, 1.0)
        l = rng.integers(1, 5)
        gamma = rng.uniform(1e-4, 1.0) * 2 * lam_min / lam_max ** 2
        theta = math.sqrt(max(0.0, 1 - gamma * (2 * lam_min
                                                - gamma * lam_max ** 2)))
        direct = (gamma < 2 * lam_min / lam_max ** 2
                  and gamma <= (1 - theta) / (4 * math.sqrt(2) * gamma
                                              * l * lam_max)
                  and gamma <= 1 / (4 * l * lam_max)
                  and gamma <= 2 * l * lam_max
                  / (17 * l * lam_max + 2 * ((1 - theta) / gamma) ** 2))
        assert bcd_gamma_feasible(gamma, lam_min, lam_max, l) == direct


def test_find_bcd_gamma_returns_feasible():
    g = find_bcd_gamma(1.0, 1.0, 1)
    assert bcd_gamma_feasible(g, 1.0, 1.0, 1)
    assert g > 0.01


# ---------------------------------------------------------------------------
# diagnostics

def test_relative_error_zero_at_exact_solution():
    rng = np.random.default_rng(11)
    sub, z_star = _quadratic_subproblem(rng)
    _, ratio = relative_error_residual(sub.z_ref, z_star, sub)
    eps, _ = relative_error_residual(sub.z_ref, z_star, sub)
    assert eps <= 1e-8


def test_relative_error_stalled_iterate_is_inf():
    rng = np.random.default_rng(12)
    sub, _ = _quadratic_subproblem(rng)
    _, ratio = relative_error_residual(sub.z_ref, sub.z_ref.copy(), sub)
    assert ratio == np.inf


def test_relative_error_bounded_by_c_proxgrad():
    rng = np.random.default_rng(13)
    sub, _ = _quadratic_subproblem(rng)
    lam_min, _, lam_max = metric_spectrum(sub.m2)
    gamma = lam_min / lam_max ** 2
    c1 = c_proxgrad(gamma, lam_min, lam_max, 1)
    z, _ = inner_proxgrad(sub, gamma, 1)
    _, ratio = relative_error_residual(sub.z_ref, z, sub)
    assert ratio <= c1


def test_ergodic_gap_bound_basics():
    rng = np.random.default_rng(14)
    A = Grad2D(3, 3)
    m1 = scaled_identity(0.2, 9)
    m2 = gram_precond(A, 0.2)
    x0, z0 = np.zeros(9), np.zeros(18)
    assert ergodic_gap_bound(x0, z0, x0, z0, m1, m2, A, 5) == 0.0
    x = rng.standard_normal(9)
    z = rng.standard_normal(18)
    b1 = ergodic_gap_bound(x0, z0, x, z, m1, m2, A, 10)
    b2 = ergodic_gap_bound(x0, z0, x, z, m1, m2, A, 20)
    assert np.isclose(b1, 2 * b2)
    assert b1 >= 0.0     # Schur-valid pair makes the quadratic form PSD


def test_dual_transform_constant_x():
    A = SparseOp(sp.eye(3))
    m1 = scaled_identity(0.5, 3)
    x = np.array([1.0, 2.0, 3.0])
    y, u = dual_transform(x, x, np.zeros(3), m1, A)
    np.testing.assert_allclose(y, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(u, 2.0 * x)


def test_dual_transform_prox_identity_and_u_recursion():
    # along exact PrePDHG iterates, y^{k+1} must equal the conjugate prox of
    # f at (u^k - A^T z^k) in the M1^{-1} metric, and the u-recursion must
    # reproduce M1 x exactly
    rng = np.random.default_rng(15)
    n, m = 4, 6
    A = SparseOp(sp.csr_matrix(rng.standard_normal((m, n))))
    prob = SaddleProblem(f=Quadratic(n, weight=2.0,
                                     center=rng.standard_normal(n)),
                         g=Quadratic(m, weight=1.0,
                                     center=rng.standard_normal(m)),
                         A=A)
    tau = 0.3
    m1 = scaled_identity(tau, n)
    m2 = gram_precond(A, tau)
    x, z = np.zeros(n), np.zeros(m)
    d = m1.diagonal()
    u_prev = d * x
    for k in range(100):
        x_new = prepdhg_x_step(x, z, prob, m1)
        y, u = dual_transform(x_new, x, z, m1, A)
        from pdopt.prox import conj_prox_via_moreau
        y_expect = conj_prox_via_moreau(prob.f, u_prev - A.rmatvec(z), d)
        np.testing.assert_allclose(y, y_expect, atol=1e-12)
        # u-recursion: u^{k+1} = u^k - A^T z^k - y^{k+1}
        np.testing.assert_allclose(u, u_prev - A.rmatvec(z) - y, atol=1e-13)
        q = A.matvec(2 * x_new - x)
        sub = ZSubproblem(z, q, m2, prob.g)
        z = solve_subproblem_exact(sub, tol=1e-13)
        x = x_new
        u_prev = u
    np.testing.assert_allclose(u_prev, d * x, atol=1e-13)


def test_admm_equivalence_short():
    rng = np.random.default_rng(16)
    n, m = 4, 6
    A = SparseOp(sp.csr_matrix(rng.standard_normal((m, n))))
    prob = SaddleProblem(f=Quadratic(n, weight=2.0,
                                     center=rng.standard_normal(n)),
                         g=Quadratic(m, weight=1.5,
                                     center=rng.standard_normal(m)),
                         A=A)
    tau = 0.3
    m1 = scaled_identity(tau, n)
    m2 = gram_precond(A, tau)
    x, z = np.zeros(n), np.zeros(m)
    x_prev = x
    z_prev = z
    worst = 0.0
    for k in range(10):
        x_new = prepdhg_x_step(x, z, prob, m1)
        q = A.matvec(2 * x_new - x)
        z_new = solve_subproblem_exact(ZSubproblem(z, q, m2, prob.g),
                                       tol=1e-13)
        if k >= 1:
            y, u = dual_transform(x, x_prev, z_prev, m1, A)
            za, ya, va = admm_dual_step(z_prev, y, tau * u, tau, prob)
            y2, u2 = dual_transform(x_new, x, z, m1, A)
            worst = max(worst, np.linalg.norm(za - z),
                        np.linalg.norm(ya - y2),
                        np.linalg.norm(va - tau * u2))
        x_prev, z_prev = x, z
        x, z = x_new, z_new
    assert worst <= 1e-8


def test_lyapunov_trivial_zero():
    A = SparseOp(sp.eye(2))
    prob = SaddleProblem(f=Quadratic(2, weight=1.0), g=PointIndicator(np.zeros(2)),
                         A=A, mu_f=1.0)
    val = lyapunov(np.zeros(2), np.zeros(2), np.zeros(2),
                   scaled_identity(1.0, 2), prob)
    assert val == 0.0


# ---------------------------------------------------------------------------
# run() and configuration

def _toy_problem(rng):
    b = rng.random((6, 6))
    A = Grad2D(6, 6)
    return SaddleProblem(f=L1(36, lam=1.0, shift=b.ravel()),
                         g=L1(72, lam=1.0), A=A)


def test_run_rejects_p_zero():
    prob = _toy_problem(np.random.default_rng(17))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", p=0, tau=0.01)
    with pytest.raises(ConfigError):
        validate_config(prob, cfg)


def test_pdhg_rejects_inner():
    prob = _toy_problem(np.random.default_rng(18))
    cfg = SolverConfig(algorithm="pdhg", inner="bcd", tau=0.01)
    with pytest.raises(ConfigError):
        validate_config(prob, cfg)


@pytest.mark.parametrize("field,value", [
    ("m1", ScaledIdentity(100.0, 36)), ("m2", Gram(0.01, Grad2D(6, 6))),
    ("gamma", 0.5)])
def test_pdhg_rejects_fields_it_does_not_read(field, value):
    # pdhg_step reads tau and sigma only: a metric or an inner stepsize
    # given to it would be ignored without a word
    prob = _toy_problem(np.random.default_rng(42))       # A is 72 x 36
    cfg = SolverConfig(algorithm="pdhg", tau=0.01, max_outer=2, **{field: value})
    with pytest.raises(ConfigError, match=f"pdhg takes no {field}"):
        validate_config(prob, cfg)
    with pytest.raises(ConfigError, match=field):
        run(prob, cfg)
    assert run(prob, dataclasses.replace(cfg, **{field: None})).outer_iters == 2


@pytest.mark.parametrize("fields,match", [
    ({"algorithm": "iprepdhg", "sigma": 5.0}, "iprepdhg takes no sigma"),
    ({"algorithm": "prepdhg_exact", "sigma": 5.0}, "prepdhg_exact takes no sigma"),
    ({"algorithm": "prepdhg_exact", "inner": "proxgrad"},
     "prepdhg_exact takes no inner='proxgrad'")])
def test_preconditioned_steps_reject_fields_they_do_not_read(fields, match):
    # m2 sets their dual step, so a sigma would be ignored; prepdhg_exact
    # with proxgrad would run the same FISTA exact solve as fista_restart
    prob = _toy_problem(np.random.default_rng(43))
    cfg = SolverConfig(tau=0.01, max_outer=2, **fields)
    with pytest.raises(ConfigError, match=match):
        validate_config(prob, cfg)
    with pytest.raises(ConfigError, match=match):
        run(prob, cfg)
    field = "sigma" if "sigma" in fields else "inner"
    assert run(prob, dataclasses.replace(cfg, **{field: None})).outer_iters == 2


@pytest.mark.parametrize("field,value", [
    ("tau", float("nan")), ("tau", float("inf")), ("tau", 0.0),
    ("sigma", float("nan")), ("sigma", -1.0),
    ("gamma", float("nan")), ("gamma", float("inf")), ("gamma", 0.0)])
def test_config_rejects_nonfinite_or_nonpositive_steps(field, value):
    prob = _toy_problem(np.random.default_rng(27))
    for algorithm, inner in (("pdhg", None), ("iprepdhg", "proxgrad")):
        cfg = SolverConfig(**{"algorithm": algorithm, "inner": inner,
                              "tau": 0.01, field: value})
        with pytest.raises(ConfigError, match=field):
            validate_config(prob, cfg)
        with pytest.raises(ConfigError):
            run(prob, cfg)


@pytest.mark.parametrize("fields,match", [
    ({"log_every": 0}, "log_every"), ({"log_every": -2}, "log_every"),
    ({"log_every": 2.0}, "log_every"), ({"p": 1.5}, "p must"),
    ({"p": True}, "p must"), ({"max_outer": -1}, "max_outer"),
    ({"max_outer": 0}, "max_outer"),
    ({"tol_delta": 1e-6}, "phi_star"),
    ({"tol_delta": -1e-6, "phi_star": 1.0}, "tol_delta"),
    ({"tol_delta": float("nan"), "phi_star": 1.0}, "tol_delta"),
    ({"tol_residual": -1e-8}, "tol_residual"),
    ({"tol_residual": float("inf")}, "tol_residual"),
    ({"max_seconds": float("nan")}, "max_seconds"),
    ({"max_seconds": -1.0}, "max_seconds"),
    ({"phi_star": float("inf")}, "phi_star"),
    ({"phi_star": float("nan")}, "phi_star")])
def test_config_rejects_bad_run_control(fields, match):
    # rejected before any iteration, on every algorithm: unchecked, a zero
    # log cadence divides by zero, a negative one logs on a stride, a
    # fractional p reaches range(), a cap below 1 runs no iteration, a gap
    # stop without phi_star never fires and a NaN time budget never expires
    prob = _toy_problem(np.random.default_rng(28))
    for algorithm, inner in (("pdhg", None), ("iprepdhg", "bcd")):
        cfg = SolverConfig(algorithm=algorithm, inner=inner, tau=0.01,
                           **fields)
        with pytest.raises(ConfigError, match=match):
            validate_config(prob, cfg)
        with pytest.raises(ConfigError, match=match):
            run(prob, cfg)


@pytest.mark.parametrize("fields,match", [
    ({"algorithm": "admm"}, "unknown algorithm"),
    ({"algorithm": "iprepdhg", "m1": Gram(1.0, Div2D(6, 6))}, "M1 must be"),
    ({"algorithm": "prepdhg_exact", "m1": Gram(1.0, Div2D(6, 6))}, "M1 must be"),
    ({"algorithm": "iprepdhg", "inner": "newton"}, "unknown inner"),
    ({"algorithm": "prepdhg_exact", "inner": "bcd_sweep"}, "unknown inner")])
def test_config_rejects_unknown_choices(fields, match):
    # a 36-dim Gram M1 has the right size but no diagonal, so the x-step
    # would not be a closed-form prox
    prob = _toy_problem(np.random.default_rng(29))
    cfg = SolverConfig(tau=0.01, max_outer=2, **fields)
    with pytest.raises(ConfigError, match=match):
        validate_config(prob, cfg)
    with pytest.raises(ConfigError, match=match):
        run(prob, cfg)


@pytest.mark.parametrize("f_dim,g_dim", [(35, 72), (36, 71), (72, 36)])
def test_problem_rejects_mismatched_dimensions(f_dim, g_dim):
    # the check runs when the problem is built, before validate_config or
    # run could see it
    with pytest.raises(ConfigError, match="dimension mismatch"):
        SaddleProblem(f=L1(f_dim, lam=1.0), g=L1(g_dim, lam=1.0), A=Grad2D(6, 6))


def test_pdhg_rejects_bad_stepsizes():
    prob = _toy_problem(np.random.default_rng(19))
    cfg = SolverConfig(algorithm="pdhg", tau=1.0, sigma=100.0)
    with pytest.raises(ConfigError):
        validate_config(prob, cfg)


@pytest.mark.filterwarnings("ignore:zero row sums")
def test_gamma_is_resolved_only_for_the_z_solvers_that_read_it(monkeypatch):
    from pdopt.precond import pock_diagonal
    prob = _toy_problem(np.random.default_rng(28))
    calls = []
    estimate = pdopt.solver.m2_norm_estimate

    def counting(m2, *args, **kw):
        calls.append(m2)
        return estimate(m2, *args, **kw)

    monkeypatch.setattr(pdopt.solver, "m2_norm_estimate", counting)
    m1, m2 = pock_diagonal(prob.A)
    for inner in (None, "fista_restart"):
        # the closed-form z-step under a diagonal M2 never reads gamma
        cfg = SolverConfig(algorithm="prepdhg_exact", inner=inner, m1=m1,
                           m2=m2, tau=0.05)
        assert validate_config(prob, cfg)["gamma"] is None
    assert calls == []
    with pytest.raises(ConfigError, match="gamma"):
        validate_config(prob, SolverConfig(algorithm="prepdhg_exact", m1=m1,
                                           m2=m2, tau=0.05, gamma=-1.0))
    # a Gram M2 and no plan: solve_subproblem_exact runs FISTA at gamma
    resolved = validate_config(prob, SolverConfig(algorithm="prepdhg_exact",
                                                  tau=0.05))
    assert len(calls) == 1 and resolved["gamma"] == 1.0 / estimate(calls[0])


@pytest.mark.parametrize("g", [BoxIndicator(72, -1.0, 1.0),
                               Concat([L1(36), BoxIndicator(36)]),
                               GroupL12(72, np.arange(72).reshape(-1, 2))])
def test_bcd_rejects_g_without_scalar_conj_prox(g):
    # the box's and the group norm's conjugate proxes have no scalar closed
    # form, so the BCD sweep cannot run them: the config fails before the
    # first iteration, though their whole-vector kernels (the Moreau
    # identity) serve the gradient z-solvers and PDHG
    kind = "GroupL12" if isinstance(g, GroupL12) else "BoxIndicator"
    prob = SaddleProblem(f=Zero(36), g=g, A=Grad2D(6, 6))
    cfg = SolverConfig(algorithm="iprepdhg", tau=0.01, max_outer=3)
    with pytest.raises(ConfigError, match=kind):
        validate_config(prob, cfg)
    with pytest.raises(ConfigError, match=kind):
        run(prob, cfg)
    for algorithm, inner in (("iprepdhg", "proxgrad"), ("pdhg", None)):
        res = run(prob, SolverConfig(algorithm=algorithm, inner=inner,
                                     tau=0.01, max_outer=3))
        assert res.outer_iters == 3


@pytest.mark.parametrize("field,value", [
    ("x0", np.zeros(35)), ("z0", np.zeros((72, 1))),
    ("m1", ScaledIdentity(100.0, 37)), ("m2", Gram(0.01, Grad2D(5, 5)))])
def test_config_rejects_mismatched_shapes(field, value):
    prob = _toy_problem(np.random.default_rng(31))       # A is 72 x 36
    algorithms = ("pdhg", "iprepdhg") if field in ("x0", "z0") else ("iprepdhg",)
    for algorithm in algorithms:
        cfg = SolverConfig(algorithm=algorithm, tau=0.01, max_outer=2,
                           **{field: value})
        with pytest.raises(ConfigError, match=field):
            validate_config(prob, cfg)
        with pytest.raises(ConfigError, match=field):
            run(prob, cfg)


def test_run_fixed_inner_effort(monkeypatch):
    prob = _toy_problem(np.random.default_rng(20))
    counts = []
    sweep = pdopt.solver._bcd_sweep

    def counting(sub, plan, c, epochs, z=None):
        counts.append(epochs)
        return sweep(sub, plan, c, epochs, z)

    monkeypatch.setattr(pdopt.solver, "_bcd_sweep", counting)
    for p in (1, 2, 3):
        counts.clear()
        cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", p=p, tau=0.01,
                           max_outer=7)
        res = run(prob, cfg)
        assert res.outer_iters == 7
        assert counts == [p] * 7


@pytest.mark.parametrize("algorithm", ["pdhg", "iprepdhg", "prepdhg_exact"])
def test_run_binds_the_x_step_prox_once(monkeypatch, algorithm):
    prob = _toy_problem(np.random.default_rng(22))
    binds = []
    bind = prob.f.prox_kernel

    def counting(d):
        binds.append(d)
        return bind(d)

    monkeypatch.setattr(prob.f, "prox_kernel", counting)
    cfg = SolverConfig(algorithm=algorithm, tau=0.01, max_outer=20,
                       tol_residual=None)
    res = run(prob, cfg)
    assert res.outer_iters == 20
    # one bind in validate_config; f.prox, which binds on every call, is
    # never called
    assert len(binds) == 1


def test_config_rejects_x_metric_varying_within_a_group():
    A = Div2D(3, 3)
    n = A.shape[1] // 2
    f = GroupL12(2 * n, np.column_stack([np.arange(n), n + np.arange(n)]))
    prob = SaddleProblem(f=f, g=PointIndicator(np.zeros(A.shape[0])), A=A)
    m1 = Diagonal(np.linspace(1.0, 2.0, 2 * n))
    cfg = SolverConfig(algorithm="iprepdhg", tau=0.01, m1=m1, max_outer=2)
    with pytest.raises(ConfigError, match="within each group"):
        validate_config(prob, cfg)


def test_run_not_converged_status():
    prob = _toy_problem(np.random.default_rng(21))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=2, tol_residual=1e-14)
    res = run(prob, cfg)
    assert res.status == "not-converged"
    assert res.outer_iters == 2


def test_run_trace_format():
    prob = _toy_problem(np.random.default_rng(22))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=4)
    res = run(prob, cfg)
    text = res.trace.csv_text(omit_time=True)
    lines = text.strip().split("\n")
    assert lines[0] == "k,obj,delta,feas,dz_norm,err_ratio,lyapunov,time_s"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "" and first[3] == ""    # no phi_star, no feasibility
    assert first[-1] == ""                      # omitted time


def test_run_deterministic_trace():
    prob = _toy_problem(np.random.default_rng(23))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=20)
    t1 = run(prob, cfg).trace.csv_text(omit_time=True)
    t2 = run(prob, cfg).trace.csv_text(omit_time=True)
    assert t1 == t2


def test_run_delta_stop_rule():
    rng = np.random.default_rng(24)
    prob = _toy_problem(rng)
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=20000, phi_star=None, tol_residual=1e-10)
    res = run(prob, cfg)
    phi_star = prob.phi(res.state.x)
    cfg2 = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                        max_outer=20000, phi_star=phi_star, tol_delta=1e-6)
    res2 = run(prob, cfg2)
    assert res2.status == "converged"
    assert res2.final_delta < 1e-6


def test_tvl1_constant_image_reaches_exact_floor():
    b = np.full((5, 5), 0.4)
    prob = SaddleProblem(f=L1(25, lam=1.0, shift=b.ravel()),
                         g=L1(50, lam=1.0), A=Grad2D(5, 5))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.05,
                       max_outer=2000, phi_star=0.0, tol_delta=1e-12)
    res = run(prob, cfg)
    assert res.status == "converged"
    np.testing.assert_allclose(res.state.x, b.ravel(), atol=1e-12)


def test_reduction_to_pdhg():
    # identity metrics + one unit proximal-gradient step reproduce plain PDHG
    rng = np.random.default_rng(25)
    prob = _toy_problem(rng)
    m, n = prob.dims
    tau, sigma = 0.1, 1.0
    cfg = SolverConfig(algorithm="iprepdhg", inner="proxgrad", p=1, gamma=1.0,
                       tau=tau, m1=scaled_identity(tau, n),
                       m2=ScaledIdentity(1.0 / sigma, m), max_outer=100)
    res = run(prob, cfg)
    x, z = np.zeros(n), np.zeros(m)
    for _ in range(100):
        x, z = pdhg_step(x, z, prob, tau, sigma)
    assert np.max(np.abs(res.state.x - x)) <= 1e-14
    assert np.max(np.abs(res.state.z - z)) <= 1e-14


def test_max_seconds_stop():
    prob = _toy_problem(np.random.default_rng(26))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=10 ** 7, max_seconds=0.2, tol_residual=0.0)
    res = run(prob, cfg)
    assert res.time_s < 5.0
    assert res.outer_iters < 10 ** 7


class _Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _monitored_problem(rng):
    prob = _toy_problem(rng)
    prob.objective = _Counted(lambda x: prob.f.value(x)
                              + prob.g.value(prob.A.matvec(x)))
    prob.feasibility = _Counted(lambda x: float(np.linalg.norm(x)))
    return prob


def test_run_monitors_only_logged_iterations():
    prob = _monitored_problem(np.random.default_rng(28))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=35, log_every=10)
    res = run(prob, cfg)
    assert res.trace.column("k") == [10, 20, 30, 35]
    assert prob.objective.calls == 4
    assert prob.feasibility.calls == 4


def test_run_delta_stop_evaluates_phi_every_iteration():
    prob = _monitored_problem(np.random.default_rng(29))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=200, log_every=10 ** 6, phi_star=1.0,
                       tol_delta=1e-12)
    res = run(prob, cfg)
    assert res.outer_iters == 200
    assert prob.objective.calls == 200
    assert prob.feasibility.calls == 1          # the final, logged iteration
    assert math.isfinite(res.monitor_s) and res.monitor_s > 0


def test_run_times_the_opt_in_monitors_as_monitoring(monkeypatch):
    calls = []

    def slow_lyapunov(*args):
        calls.append(args)
        time.sleep(0.01)
        return 0.0

    monkeypatch.setattr(pdopt.solver, "lyapunov", slow_lyapunov)
    prob = _toy_problem(np.random.default_rng(31))
    cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                       max_outer=10, log_every=5, monitor_lyapunov=True)
    res = run(prob, cfg)
    assert len(calls) == 2                  # the logged iterations, 5 and 10
    assert res.time_s < 0.02 <= res.monitor_s


def test_run_sparse_log_rows_match_dense_log():
    prob = _toy_problem(np.random.default_rng(30))
    rows = {}
    for every in (1, 5):
        cfg = SolverConfig(algorithm="iprepdhg", inner="bcd", tau=0.01,
                           max_outer=23, log_every=every, phi_star=10.0,
                           monitor_err_ratio=True, monitor_lyapunov=True)
        text = run(prob, cfg).trace.csv_text(omit_time=True)
        rows[every] = text.strip().split("\n")[1:]
    keep = [r for r in rows[1] if int(r.split(",")[0]) % 5 == 0 or r.startswith("23,")]
    assert [r.split(",")[0] for r in keep] == ["5", "10", "15", "20", "23"]
    assert keep == rows[5]


@pytest.mark.parametrize("stop", [
    {"max_outer": 37},
    {"tol_residual": 1e-4},
    {"max_seconds": 0.05, "tol_residual": 0.0},
    {"tol_delta": 1e-3}])
def test_final_delta_is_the_final_iterate_delta(stop):
    prob = _toy_problem(np.random.default_rng(31))
    phi_star = 9.1787          # the optimum to 6e-6, relative
    cfg = SolverConfig(**{"algorithm": "iprepdhg", "inner": "bcd", "tau": 0.01,
                          "max_outer": 10 ** 7, "log_every": 10 ** 8,
                          "phi_star": phi_star, **stop})
    res = run(prob, cfg)
    if "max_outer" in stop:
        assert res.outer_iters == 37 and res.status == "not-converged"
        assert res.trace.column("k") == [37]    # the last iteration is logged
    else:
        assert res.status == ("not-converged" if "max_seconds" in stop
                              else "converged")
        assert res.outer_iters < 10 ** 7
        assert res.trace.records == []          # the final iterate is unlogged
    assert res.final_delta == abs(prob.phi(res.state.x) - phi_star) / phi_star
    assert math.isfinite(res.monitor_s) and res.monitor_s >= 0


def _gap_stop_problems():
    """tvl1 16x16, ct 8x8 and the toy problem, each with PDHG's tau."""
    from pdopt import problems
    rng = np.random.default_rng(61)
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    yield "tvl1", problems.tvl1(rng.random((16, 16)), lam=1.0).problem, 0.01
    yield "ct", problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8,
                            cols=8, tau=0.1).problem, 0.01
    yield "toy", _toy_problem(rng), 0.05


@pytest.mark.parametrize("algorithm,inner", [("pdhg", None),
                                             ("iprepdhg", "proxgrad")])
def test_gap_stop_from_the_carried_product_is_the_exact_one(monkeypatch,
                                                            algorithm, inner):
    # log_every=10**9 checks the gap from the A x_k carried from the step's
    # q; log_every=1 logs, and so checks exactly, every iteration.  phi_star
    # is phi at iteration 2000 of the same run, so the 1e-6 stop comes first
    for name, prob, tau in _gap_stop_problems():
        base = SolverConfig(algorithm=algorithm, inner=inner, tau=tau,
                            max_outer=2000, tol_residual=None, log_every=10 ** 9)
        phi_star = prob.phi(run(prob, base).state.x)
        cfg = dataclasses.replace(base, phi_star=phi_star, tol_delta=1e-6)
        resolved = validate_config(prob, cfg)
        products = []
        with monkeypatch.context() as patch:
            patch.setattr(prob.A, "matvec", lambda x, _mv=prob.A.matvec:
                          products.append(1) or _mv(x))
            got = run(prob, cfg, resolved)
        want = run(prob, dataclasses.replace(cfg, log_every=1))
        assert got.status == want.status == "converged", name
        assert got.outer_iters == want.outer_iters < 2000, name
        assert got.final_delta == want.final_delta, name
        for a, b in ((got.state.x, want.state.x), (got.state.z, want.state.z),
                     (got.state.sum_x, want.state.sum_x),
                     (got.state.sum_z, want.state.sum_z)):
            assert a.tobytes() == b.tobytes(), name
        assert got.final_delta == abs(prob.phi(got.state.x) - phi_star) / abs(phi_star)
        if algorithm == "pdhg":
            # the step's product, the seed A x0 and the exact final check
            assert len(products) == got.outer_iters + 2, name


def test_carried_product_stays_within_ulps_of_the_exact_one(monkeypatch):
    # phi_star=0 with tol_delta=0 never stops, so every iteration but the
    # last checks the gap from the carried A x_k.  Its error follows the
    # rounding of the step's 2 x_k - x_{k-1} and of the products, whose
    # scale is |A| |x_k|: measured in ulps of max|A x_k| it read 8 on the
    # near-flat early TV-L1 iterates (max|A x| 0.017 against max|x| 0.26)
    for name, prob, tau in list(_gap_stop_problems())[:2]:
        cfg = SolverConfig(algorithm="pdhg", tau=tau, max_outer=3000,
                           tol_residual=None, log_every=10 ** 9,
                           phi_star=0.0, tol_delta=0.0)
        abs_a = abs(prob.A.to_sparse())
        ulps = []
        phi = prob.phi

        def checking(x, ax=None):
            scale = np.max(abs_a @ np.abs(x))
            ulps.append(np.max(np.abs(ax - prob.A.matvec(x))) / np.spacing(scale))
            return phi(x, ax)

        monkeypatch.setattr(prob, "phi", checking)
        res = run(prob, cfg)
        assert res.outer_iters == len(ulps) == 3000, name
        assert max(ulps) <= 8.0, name


def test_gap_stop_from_a_nan_start_stops_diverged():
    prob = _toy_problem(np.random.default_rng(62))
    x0 = np.zeros(prob.dims[1])
    x0[7] = np.nan
    cfg = SolverConfig(algorithm="pdhg", tau=0.05, max_outer=100,
                       log_every=10 ** 9, tol_residual=None, phi_star=9.0,
                       tol_delta=1e-6, x0=x0)
    res = run(prob, cfg)
    assert (res.status, res.outer_iters) == ("diverged", 1)
    assert math.isnan(res.final_delta)


# The per-iteration dispatch run() made before validate_config chose the
# step once, written out as it was: the oracle for byte-identical runs.

def _old_dispatch_step(problem, cfg, resolved):
    m1, m2, f_prox = resolved.get("m1"), resolved.get("m2"), resolved["f_prox"]
    inner = "bcd" if cfg.algorithm == "iprepdhg" and cfg.inner is None else cfg.inner

    def step(x_prev, z_prev):
        if cfg.algorithm == "pdhg":
            sigma = resolved["sigma"]
            x_new = f_prox(x_prev - cfg.tau * problem.A.rmatvec(z_prev))
            q = problem.A.matvec(2.0 * x_new - x_prev)
            z_new = conj_prox(problem.g, z_prev + sigma * q,
                              np.full(problem.g.dim, 1.0 / sigma))
            return x_new, z_new, None, q
        x_new = prepdhg_x_step(x_prev, z_prev, problem, m1, f_prox)
        q = problem.A.matvec(2.0 * x_new - x_prev)
        sub = ZSubproblem(z_prev, q, m2, problem.g)
        if cfg.algorithm == "prepdhg_exact" and isinstance(
                m2, (Diagonal, ScaledIdentity)):
            d2 = m2.diagonal()
            z_new = conj_prox(problem.g, z_prev + q / d2, d2)
        elif cfg.algorithm == "prepdhg_exact":
            z_new = solve_subproblem_exact(sub, tol=1e-12,
                                           gamma=resolved.get("gamma"),
                                           plan=resolved.get("plan"))
        elif inner == "bcd":
            z_new, _ = inner_bcd(sub, resolved["plan"], cfg.p)
        elif inner == "proxgrad":
            z_new, _ = inner_proxgrad(sub, resolved["gamma"], cfg.p)
        else:
            z_new, _ = inner_fista_restart(sub, resolved["gamma"], cfg.p)
        return x_new, z_new, sub, q

    return step


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("algorithm,inner,metrics", [
    ("pdhg", None, None),
    ("prepdhg_exact", None, "pock"),
    ("prepdhg_exact", "bcd", None),
    ("prepdhg_exact", "fista_restart", None),
    ("iprepdhg", "bcd", None),
    ("iprepdhg", "proxgrad", None),
    ("iprepdhg", "fista_restart", None)])
def test_run_step_is_the_old_dispatch_byte_for_byte(algorithm, inner, metrics):
    from pdopt.precond import pock_diagonal
    prob = _toy_problem(np.random.default_rng(41))
    m1, m2 = pock_diagonal(prob.A) if metrics == "pock" else (None, None)
    cfg = SolverConfig(algorithm=algorithm, inner=inner, tau=0.05, p=3,
                       m1=m1, m2=m2, max_outer=12, tol_residual=None,
                       monitor_err_ratio=True)
    got = run(prob, cfg)
    resolved = validate_config(prob, cfg)
    # the old dispatch kept z in A's row order and called the grid stencils
    old = {**resolved, "plan": None,
           "step": _old_dispatch_step(prob, cfg, resolved)}
    want = run(prob, cfg, old)
    if inner is None:
        # the old dual step took the Moreau route, the bound closed form
        # matches it to a few ulps: the same iterations, each iterate
        # within 2e-14 relative
        assert got.trace.column("k") == want.trace.column("k")
        np.testing.assert_allclose(got.trace.column("obj"),
                                   want.trace.column("obj"), rtol=2e-14)
        for a, b in ((got.state.x, want.state.x), (got.state.z, want.state.z)):
            assert np.max(np.abs(a - b)) <= 2e-14 * np.max(np.abs(b))
        return
    if inner != "bcd":
        assert (got.trace.csv_text(omit_time=True)
                == want.trace.csv_text(omit_time=True))
        assert np.array_equal(got.state.x, want.state.x)
        assert np.array_equal(got.state.z, want.state.z)
        return
    # a BCD run keeps z in plan order and pairs it with a CSR of A, whose
    # products sum in another order than the stencils: equal to 1e-12
    # (the exact solve's error ratios sit at 1e-13, its rounding floor).
    # An error ratio is compared only on rows whose step is above z's
    # rounding level: from z0 = 0 the first step is ~4e-15, so that row's
    # ratio is rounding noise
    assert got.trace.column("k") == want.trace.column("k")
    np.testing.assert_allclose(got.trace.column("obj"),
                               want.trace.column("obj"), rtol=1e-12)
    dz_norm = np.array(want.trace.column("dz_norm"))
    above = dz_norm > 1e3 * np.finfo(float).eps * np.linalg.norm(want.state.z)
    assert above[1:].all()
    np.testing.assert_allclose(np.array(got.trace.column("err_ratio"))[above],
                               np.array(want.trace.column("err_ratio"))[above],
                               rtol=1e-12, atol=1e-12)
    for a, b in ((got.state.x, want.state.x), (got.state.z, want.state.z)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _small_plans(rng):
    """Plans of three builders' operators (CT's mixes a diagonal and a Gram
    segment, EMD's has no dead rows), and one over a CSR operator whose
    dead rows store zeros."""
    from pdopt import problems
    from pdopt.precond import BlockOrdering
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    blob = np.exp(-np.arange(8.0) ** 2 / 6.0)
    for inst, tau in ((problems.tvl1(rng.random((9, 10)), lam=1.0), 0.01),
                      (problems.emd(np.outer(blob, blob),
                                    np.outer(blob[::-1], blob)), 0.001),
                      (problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8,
                                   cols=8, tau=0.1), 0.1)):
        cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
        yield BcdPlan(inst.problem.A, cfg.m2)
    mat = sp.random(9, 7, density=0.5, random_state=4, format="csr")
    for row in (2, 5):
        mat.data[mat.indptr[row]:mat.indptr[row + 1]] = 0.0
    op = SparseOp(mat)
    assert np.diff(op.mat.indptr)[[2, 5]].all()     # stored zeros
    yield BcdPlan(op, Gram(0.3, op), BlockOrdering("rows", [[i] for i in range(9)]))


def test_forward_rhs_is_the_rhs_of_the_forward_product():
    # a plan step's right-hand side, formed from t without a q, is
    # z_ref + S (A t) up to rounding; dead rows keep z_ref's bits, -0.0
    # included, also where they store zeros that an inf in t turns into NaN
    rng = np.random.default_rng(44)
    for plan in _small_plans(rng):
        m, n = plan.op.shape
        dead = np.zeros(m, dtype=bool)
        for seg in plan.segments:
            dead[seg.dead] = True
        z_ref = rng.standard_normal(m)
        z_ref[dead] = -0.0
        t = rng.standard_normal(n)
        got = plan.forward_rhs(z_ref, t)
        want = plan.rhs(z_ref, plan.op.matvec(t))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        t[::3] = np.inf
        with np.errstate(invalid="ignore"):
            got = plan.forward_rhs(z_ref, t)
        assert got[dead].tobytes() == z_ref[dead].tobytes()


@pytest.mark.parametrize("builder", ["tvl1", "ct"])
def test_err_ratio_of_a_plan_run_is_the_row_order_residual(builder):
    # a plan's step forms no q, so the err-ratio monitor forms
    # A(2 x_new - x_prev) in A's row order itself: every trace row is
    # relative_error_residual of that iteration, recomputed here from the
    # iterates the step returned
    from pdopt import problems
    rng = np.random.default_rng(43)
    if builder == "tvl1":
        inst, tau = problems.tvl1(rng.random((9, 10)), lam=1.0), 0.01
    else:
        R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
        inst, tau = problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8,
                                cols=8, tau=0.1), 0.1
    prob = inst.problem
    cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau, max_outer=25,
                      log_every=1, tol_residual=None, monitor_err_ratio=True)
    resolved = validate_config(prob, cfg)
    plan, step = resolved["plan"], resolved["step"]
    iterates = []

    def recording(x, z):
        out = step(x, z)
        iterates.append((x, plan.unpermute(z), out[0], plan.unpermute(out[1])))
        return out

    res = run(prob, cfg, {**resolved, "step": recording})
    want = []
    for x_prev, z_prev, x_new, z_new in iterates:
        sub = ZSubproblem(z_prev, prob.A.matvec(2.0 * x_new - x_prev),
                          resolved["m2"], prob.g)
        want.append(relative_error_residual(z_prev, z_new, sub)[1])
    got = res.trace.column("err_ratio")
    assert len(got) == 25 and None not in got
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_run_reaches_the_benchmarks_hooks_at_call_time(monkeypatch):
    # perfbench/tracing.py wraps these attributes to time the layers of a
    # solve; a step bound before the wrapping must still call the wrappers
    from pdopt import problems, prox
    prob = _toy_problem(np.random.default_rng(42))
    configs = {name: SolverConfig(algorithm=algorithm, inner=inner, tau=0.01,
                                  max_outer=7, tol_residual=None)
               for name, algorithm, inner in (("pdhg", "pdhg", None),
                                              ("bcd", "iprepdhg", "bcd"))}
    resolved = {name: validate_config(prob, cfg) for name, cfg in configs.items()}
    assert isinstance(resolved["bcd"]["plan"], BcdPlan)
    calls = []
    for owner, name in ((pdopt.solver, "pdhg_step"),
                        (pdopt.solver, "prepdhg_x_step"),
                        (pdopt.solver, "inner_bcd"), (prox, "conj_prox")):
        def counting(*args, _fn=getattr(owner, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(owner, name, counting)
    run(prob, configs["pdhg"], resolved["pdhg"])
    # the dual step is bound once by validate_config: prox.conj_prox, the
    # Moreau route, is never called
    assert sorted(calls) == ["pdhg_step"] * 7
    calls.clear()
    run(prob, configs["bcd"], resolved["bcd"])
    assert sorted(calls) == ["inner_bcd"] * 7 + ["prepdhg_x_step"] * 7
    assert callable(prob.g.conj_prox_scalar)
    for name in ("gram_precond", "scaled_identity", "ct_block_precond"):
        assert callable(getattr(problems, name))


_HEAP_PROBE = """
import ctypes
import numpy as np
import scipy.sparse as sp
from pdopt.operators import SparseOp
from pdopt.prox import Zero
from pdopt.solver import SaddleProblem, SolverConfig, run

class MallInfo(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo
prob = SaddleProblem(f=Zero(2), g=Zero(3), A=SparseOp(sp.csr_matrix((3, 2))))
run(prob, SolverConfig(algorithm="pdhg", tau=1.0, max_outer=1))
before = mallinfo2()
a = np.ones(2_000_000)      # 16 MB
during = mallinfo2()
del a
after = mallinfo2()
print(during.hblks - before.hblks, during.uordblks - before.uordblks >= 16e6,
      after.arena == during.arena)
"""


@pytest.mark.skipif(not hasattr(os, "confstr") or sys.platform != "linux",
                    reason="glibc malloc thresholds")
def test_run_keeps_arrays_below_32mb_on_a_mapped_heap():
    # after a solve, a 16 MB array comes from the heap rather than its own
    # mmap, and freeing it does not shrink the heap
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (OSError, ValueError):
        glibc = None
    if not glibc:
        pytest.skip("C library is not glibc")
    env = dict(os.environ, PYTHONPATH=str(Path(pdopt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "True", "True"]


def _small_instance(builder, rows, cols, rng):
    """A small instance of one of the four builders, at iPrePDHG's tau."""
    from pdopt import problems
    if builder == "tvl1":
        return problems.tvl1(rng.random((rows, cols)), lam=1.0), 0.01
    if builder == "graphcut":
        return problems.graphcut(rng.random((rows, cols, 3))), 0.01
    if builder == "emd":
        rho0 = rng.random((rows, cols)) + 0.1
        return problems.emd(rho0, rho0[::-1]), 0.001      # equal masses
    R = problems.synth_line_integral_matrix(rows, cols, 3, 5, seed=1)
    return problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=rows,
                       cols=cols, tau=0.1), 0.1


@pytest.mark.filterwarnings("ignore:zero row sums")
@settings(max_examples=40, deadline=None)
@given(builder=st.sampled_from(["tvl1", "graphcut", "emd", "ct"]),
       rows=st.integers(2, 7), cols=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_order_is_a_permutation_of_a_s_rows(builder, rows, cols, seed):
    rng = np.random.default_rng(seed)
    inst, tau = _small_instance(builder, rows, cols, rng)
    A = inst.problem.A
    cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
    plan = validate_config(inst.problem, cfg)["plan"]
    m, n = A.shape
    assert np.array_equal(np.sort(plan.order), np.arange(m))
    z = rng.standard_normal(m)
    z[rng.random(m) < 0.2] = -0.0
    assert plan.unpermute(plan.permute(z)).tobytes() == z.tobytes()
    assert plan.permute(plan.unpermute(z)).tobytes() == z.tobytes()
    # each Gram segment: live rows block by block at lo:lo + idx.size, then
    # the rows with ||a_i|| = 0
    d = np.asarray(A.to_sparse().power(2).sum(axis=1)).ravel()
    for seg in plan.segments:
        if seg.kind == "gram":
            assert np.array_equal(plan.order[seg.rows], seg.idx)
            assert np.all(d[seg.idx] > 0) and not np.any(d[plan.order[seg.dead]])
            assert seg.rows == slice(seg.lo, seg.lo + seg.idx.size)
            assert seg.dead == slice(seg.rows.stop, seg.hi)
            assert seg.blocks[-1].sl.stop == seg.idx.size
    # op is A with its rows in plan order; its adjoint holds to rounding
    op = plan.op
    for _ in range(3):
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        ax, atz = A.matvec(x), A.rmatvec(z)
        assert np.max(np.abs(op.matvec(x) - plan.permute(ax))) <= 1e-13 * np.max(np.abs(ax))
        assert (np.max(np.abs(op.rmatvec(plan.permute(z)) - atz))
                <= 1e-13 * np.max(np.abs(atz)))
        pz, opx, optz = plan.permute(z), op.matvec(x), op.rmatvec(plan.permute(z))
        gap = abs(float(opx @ pz) - float(x @ optz))
        assert gap <= 1e-12 * max(np.linalg.norm(opx) * np.linalg.norm(pz),
                                  np.linalg.norm(x) * np.linalg.norm(optz))


@pytest.mark.filterwarnings("ignore:zero row sums")
def test_bcd_plan_is_built_only_for_a_z_step_that_sweeps_it(monkeypatch):
    from pdopt.precond import pock_diagonal
    prob = _toy_problem(np.random.default_rng(43))
    inits = []
    init = BcdPlan.__init__

    def counting(self, *args, **kw):
        inits.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(BcdPlan, "__init__", counting)
    m1, m2 = pock_diagonal(prob.A)
    # the closed-form z-step under a diagonal M2 never reads a plan
    cfg = SolverConfig(algorithm="prepdhg_exact", inner="bcd", m1=m1, m2=m2,
                       tau=0.05, max_outer=5)
    resolved = validate_config(prob, cfg)
    assert resolved["plan"] is None and inits == []
    assert run(prob, cfg, resolved).outer_iters == 5
    cfg = SolverConfig(algorithm="prepdhg_exact", inner="bcd", tau=0.05,
                       max_outer=5)
    resolved = validate_config(prob, cfg)
    assert isinstance(resolved["plan"], BcdPlan) and len(inits) == 1
    assert run(prob, cfg, resolved).outer_iters == 5


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("builder", ["tvl1", "graphcut", "emd", "ct"])
def test_plan_x_step_is_the_x_step_through_op(builder):
    # the plan's backward product, -M1^-1 A^T with M1 folded into its
    # entries, accumulated into a copy of x, is x - M1^-1 (A^T z) to
    # rounding; with the builder's m1 and with a Diagonal one (constant on
    # EMD's flux pairs, as GroupL12's prox needs)
    rng = np.random.default_rng(45)
    inst, tau = _small_instance(builder, 8, 7, rng)
    prob = inst.problem
    m, n = prob.dims
    cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
    for m1 in (validate_config(prob, cfg)["m1"],
               Diagonal(np.tile(rng.uniform(0.5, 5.0, n // 2), 2))):
        plan = BcdPlan(prob.A, cfg.m2, m1=m1)
        f_prox = prob.f.prox_kernel(m1.diagonal())
        for _ in range(3):
            x, z = rng.standard_normal(n), 10.0 * rng.standard_normal(m)
            point = x - m1.apply_inverse(plan.op.rmatvec(z))
            got = plan.backward(z, x.copy())
            assert np.max(np.abs(got - point)) <= 1e-14 * np.max(np.abs(point))
            got = prepdhg_x_step(x, z, prob, m1, f_prox, plan.backward)
            want = f_prox(point)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # without m1 the plan keeps A^T as it is: A.rmatvec in plan order
    z = rng.standard_normal(m)
    got = BcdPlan(prob.A, cfg.m2).backward(z)
    assert got.tobytes() == plan.op.rmatvec(z).tobytes()


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("builder", ["tvl1", "emd", "ct"])
def test_plan_step_is_two_csr_products_and_the_sweep(monkeypatch, builder):
    # outside the sweep a plan step applies the plan's two folded products,
    # and never divides by M1
    from pdopt import operators
    calls = []
    matvec = operators._sparsetools.csr_matvec

    def counting(*args):
        calls.append(args[0])
        return matvec(*args)

    def refuse(self, v):
        raise AssertionError("a plan step divides by M1")

    monkeypatch.setattr(operators._sparsetools, "csr_matvec", counting)
    for metric in (ScaledIdentity, Diagonal):
        monkeypatch.setattr(metric, "apply_inverse", refuse)
    rng = np.random.default_rng(46)
    inst, tau = _small_instance(builder, 8, 7, rng)
    m, n = inst.problem.dims
    for p in (1, 2, 3):
        cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau, p=p)
        resolved = validate_config(inst.problem, cfg)
        blocks = [blk for seg in resolved["plan"].segments if seg.kind == "gram"
                  for blk in seg.blocks]
        # a first epoch from z_ref reads L_b only, a later one L_b and U_b
        lower = sum(blk.lower is not None for blk in blocks)
        upper = sum(blk.upper is not None for blk in blocks)
        calls.clear()
        resolved["step"](rng.standard_normal(n), rng.standard_normal(m))
        assert len(calls) == 2 + lower + (p - 1) * (lower + upper), p


def _held_bytes(objs):
    """The bytes of the distinct arrays reachable from ``objs`` through
    sequences, sparse matrices and closures, each base array counted once."""
    seen, total, stack = set(), 0, list(objs)
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif sp.issparse(obj):
            stack += [obj.data, obj.indices, obj.indptr]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
    return total


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("builder", ["tvl1", "graphcut", "emd", "ct"])
def test_plan_holds_no_more_than_op_and_its_segments(builder):
    # the folded products scale the plan's own CSR of A and its transpose
    # in place: the plan holds no more distinct array bytes than one that
    # kept op (A's rows in plan order and their transpose), order and the
    # segments; A and the kernels of g are the problem's either way
    inst, tau = _small_instance(builder, 8, 7, np.random.default_rng(47))
    cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
    plan = validate_config(inst.problem, cfg)["plan"]
    held = _held_bytes([v for k, v in vars(plan).items()
                        if k not in ("A", "g", "kernels")])
    op = plan.op
    assert 0 < held <= _held_bytes([op.mat, op.mat_t, plan.order, plan.segments])


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_exact_bcd_solve_is_within_its_tolerance(tol):
    # on EMD the Gauss-Seidel rate is near 0.9: a step below tol (1 + ||z||)
    # leaves the iterate about ten steps from the solution, so the epochs
    # stop on the estimated error step r / (1 - r) instead
    inst = _emd_8x8()
    prob = inst.problem
    m = prob.dims[0]
    plan = validate_config(prob, inst.config(algorithm="prepdhg_exact",
                                             inner="bcd", tau=0.001))["plan"]
    rng = np.random.default_rng(48)
    # q in A's range: A A^T is singular on EMD's divergence, constant in its
    # null space, so any other q makes the subproblem unbounded
    q = prob.A.matvec(rng.standard_normal(prob.dims[1]))
    sub = ZSubproblem(rng.standard_normal(m), q, None, prob.g)
    limit = solve_subproblem_exact(sub, tol=0.0, max_iter=4000, plan=plan)
    z = solve_subproblem_exact(sub, tol=tol, plan=plan)
    assert np.linalg.norm(z - limit) <= tol * (1.0 + np.linalg.norm(z))


def _emd_8x8():
    from pdopt import problems
    blob = np.exp(-np.arange(8.0) ** 2 / 6.0)
    return problems.emd(np.outer(blob, blob), np.outer(blob[::-1], blob))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_stops_at_a_non_finite_iterate():
    # gamma = 1e3 is far past the proximal-gradient step bound, so the inner
    # steps blow up and the iterates overflow to inf and NaN within ~50
    # iterations; the run stops there instead of running out its budget
    inst = _emd_8x8()
    cfg = inst.config(algorithm="iprepdhg", inner="proxgrad", gamma=1e3,
                      max_outer=3000, tol_residual=None)
    res = run(inst.problem, cfg)
    assert res.status == "diverged" and res.outer_iters < 100
    assert not math.isfinite(res.trace.records[-1]["dz_norm"])
    # found at the log cadence: at the first logged iteration after it
    cfg.log_every = 100
    res = run(inst.problem, cfg)
    assert res.status == "diverged" and res.outer_iters == 100
    assert res.trace.column("k") == [100]


def test_run_diverged_reads_a_nan_objective_not_an_infinite_one():
    # an infinite objective can be an indicator's value at a finite iterate
    for value, status in ((math.inf, "not-converged"), (math.nan, "diverged")):
        prob = _toy_problem(np.random.default_rng(44))
        prob.objective = lambda x, value=value: value
        cfg = SolverConfig(algorithm="iprepdhg", tau=0.01, max_outer=6,
                           log_every=10 ** 6, phi_star=1.0, tol_delta=1e-9)
        res = run(prob, cfg)
        assert res.status == status
        assert res.outer_iters == (6 if status == "not-converged" else 1)
