"""The iPrePDHG iteration's layers against the code they replaced, byte for byte.

The functions below are the BCD sweep and its exact-solve loop, the scalar
L1 conjugate prox, the L1 objective and the preconditioned x-step with the
step's ``q``, written out as they were before they wrote their differences
into arrays they own, called the ``clip`` ufunc directly, ran in plan order
and read only the swept blocks in a first epoch: the oracle for
byte-identical results, and for whole BCD solves, which now pair z in plan
order with a CSR of A, results within 1e-12.  PDHG's step is written out as
it was before its dual step was bound: through the Moreau route, which the
bound closed forms match to a few ulps.  The stacked operator's products
are written out as they were before it applied as one CSR of its stacked
rows, part by part: the forward product the same bits, the adjoint and
whole solves within rounding.  The grid gradient's stencil is written out
as it was before its horizontal differences became one flat subtraction.
"""

import numpy as np
import pytest

from pdopt import problems, solver
from pdopt.operators import Grad2D, SparseOp, StackedOp, _grad_into
from pdopt.prox import L1, _times_step, conj_prox
from pdopt.solver import (BcdPlan, ZSubproblem, inner_bcd, run,
                          solve_subproblem_exact, validate_config)


def _gram_product(sl, lower, upper, v):
    """``G_b @ v`` as the plan holds it: ``L_b``'s terms, then ``U_b``'s
    added into the same output."""
    out = np.zeros(sl.stop - sl.start)
    for part in (lower, upper):
        if part is not None:
            part(v, out)
    return out


def _old_bcd_sweep(sub, plan, z, epochs, at_ref=False):
    for seg, kernel, products in zip(plan.segments, plan.bind(sub.g),
                                     plan.products):
        if seg[0] == "diag":
            _, lo, hi, e = seg
            z[lo:hi] = kernel(sub.z_ref[lo:hi] + sub.q[lo:hi] / e)
        else:
            _, _, _, idx, inv_h, _ = seg
            z_ref = sub.z_ref[idx]
            c = z_ref + sub.q[idx] * inv_h
            dz = np.zeros(idx.size) if at_ref else z[idx] - z_ref
            skip = at_ref
            for _ in range(epochs):
                for (sl, *parts), block_kernel in zip(products, kernel):
                    v = c[sl] if skip else c[sl] - _gram_product(sl, *parts, dz)
                    skip = False
                    dz[sl] = block_kernel(v) - z_ref[sl]
            z[idx] = z_ref + dz


def _old_solve_exact(sub, plan, tol, max_iter):
    z = sub.z_ref
    for _ in range(max_iter):
        z_new = z.copy()
        _old_bcd_sweep(sub, plan, z_new, 1)
        if np.linalg.norm(z_new - z) <= tol * (1.0 + np.linalg.norm(z_new)):
            return z_new
        z = z_new
    return z


def _old_l1_conj_prox_kernel(self, t, idx):
    lam, ts = self.lam, _times_step(t, self.shift, idx)
    if ts is None:
        return lambda v: np.clip(v, -lam, lam)
    return lambda v: np.clip(v - ts, -lam, lam)


def _old_l1_value(self, x):
    return self.lam * float(np.sum(np.abs(np.asarray(x) - self.shift)))


def _old_prepdhg_x_step(x, z, problem, m1, f_prox=None):
    if f_prox is None:
        f_prox = problem.f.prox_kernel(m1.diagonal())
    return f_prox(x - m1.apply_inverse(problem.A.rmatvec(z)))


def _old_pdhg_step(problem, cfg, resolved):
    tau, sigma, f_prox = cfg.tau, resolved["sigma"], resolved["f_prox"]
    A, g = problem.A, problem.g

    def step(x, z):
        x_new = f_prox(x - tau * A.rmatvec(z))
        q = A.matvec(2.0 * x_new - x)
        return (x_new, conj_prox(g, z + sigma * q, np.full(g.dim, 1.0 / sigma)),
                None, q)

    return step


def _old_step(problem, cfg, resolved):
    m1, m2, plan = resolved["m1"], resolved["m2"], resolved["plan"]
    f_prox = resolved["f_prox"]

    def step(x, z):
        x_new = _old_prepdhg_x_step(x, z, problem, m1, f_prox)
        sub = ZSubproblem(z, problem.A.matvec(2.0 * x_new - x), m2, problem.g)
        if cfg.algorithm == "prepdhg_exact":
            return (x_new, _old_solve_exact(sub, plan, solver.EXACT_TOL, 200000),
                    sub, sub.q)
        z_new = sub.z_ref.copy()
        _old_bcd_sweep(sub, plan, z_new, cfg.p, at_ref=True)
        return x_new, z_new, sub, sub.q

    return step


class _PartByPartStackedOp(StackedOp):
    """A ``StackedOp`` whose products apply its parts one by one."""

    def matvec(self, x):
        x = self._check_forward(x)
        return np.concatenate([op.matvec(x) for op in self.ops])

    def rmatvec(self, z):
        z = self._check_adjoint(z)
        out = np.zeros(self.shape[1])
        for op, lo, hi in zip(self.ops, self.row_offsets, self.row_offsets[1:]):
            out += op.rmatvec(z[lo:hi])
        return out


def _old_grad_into(u, out, h):
    ch1, ch2 = out
    np.subtract(u[1:], u[:-1], out=ch1[:-1])
    ch1[-1] = 0.0
    np.subtract(u[:, 1:], u[:, :-1], out=ch2[:, :-1])
    ch2[:, -1] = 0.0
    if h != 1.0:
        out /= h
    return out


def _assert_runs_agree(got, want, name, rtol=1e-12):
    """Same stop, trace rows and iterations; logged objectives and the final
    x and z within ``rtol`` relative (z in the max norm of the vector)."""
    assert (got.status, got.outer_iters) == (want.status, want.outer_iters), name
    assert got.trace.column("k") == want.trace.column("k"), name
    for a, b in zip(got.trace.column("obj"), want.trace.column("obj")):
        assert abs(a - b) <= rtol * abs(b) or a == b, name
    for a, b in ((got.state.x, want.state.x), (got.state.z, want.state.z)):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), name


def _instances():
    """Small instances of the four builders, at iPrePDHG's tau for each."""
    rng = np.random.default_rng(51)
    blob = np.exp(-np.arange(8.0) ** 2 / 6.0)
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    yield problems.tvl1(rng.random((9, 10)), lam=1.0), 0.01
    yield problems.graphcut(rng.random((9, 8, 3))), 0.01
    yield problems.emd(np.outer(blob, blob), np.outer(blob[::-1], blob)), 0.001
    yield problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8, cols=8,
                      tau=0.1), 0.1


def _edge_values(rng, n):
    """Random values with +-0.0, +-inf and NaN mixed in."""
    v = 3.0 * rng.standard_normal(n)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    at = rng.choice(n, size=min(n, 3 * edges.size), replace=False)
    v[at] = np.resize(edges, at.size)
    return v


@pytest.mark.filterwarnings("ignore:zero row sums")
def test_bcd_sweep_is_the_old_sweep_byte_for_byte():
    rng = np.random.default_rng(52)
    for inst, tau in _instances():
        cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
        m2 = cfg.m2
        plan = BcdPlan(inst.problem.A, m2)
        m = inst.problem.dims[0]
        for g in (inst.problem.g, L1(m, lam=0.6, shift=rng.standard_normal(m))):
            z_ref = rng.standard_normal(m)
            z_ref[rng.random(m) < 0.1] = -0.0
            sub = ZSubproblem(z_ref, 5.0 * rng.standard_normal(m), m2, g)
            for p in (1, 2, 3):
                got = inner_bcd(sub, plan, p)[0]
                want = sub.z_ref.copy()
                _old_bcd_sweep(sub, BcdPlan(inst.problem.A, m2), want, p,
                               at_ref=True)
                assert got.tobytes() == want.tobytes(), (inst.name, p)
            # from points other than z_ref: the sweep's not-at-ref path
            got = [solve_subproblem_exact(sub, tol=tol, max_iter=4, plan=plan)
                   for tol in (1e-12, 1e-1)]
            want = [_old_solve_exact(sub, BcdPlan(inst.problem.A, m2), tol, 4)
                    for tol in (1e-12, 1e-1)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("shift", ["zero", "negative-zero", "random", "edges"])
def test_l1_kernel_and_value_are_the_old_ones_byte_for_byte(shift):
    rng = np.random.default_rng(53)
    n = 64
    shifts = {"zero": None, "negative-zero": np.full(n, -0.0),
              "random": rng.standard_normal(n), "edges": _edge_values(rng, n)}
    phi = L1(n, lam=0.8, shift=shifts[shift])
    idx = np.sort(rng.choice(n, size=40, replace=False))
    for t in (1.7, rng.uniform(0.1, 5.0, idx.size)):
        v = _edge_values(rng, idx.size)
        v_bytes = v.tobytes()
        got = phi.conj_prox_kernel(t, idx)(v)
        want = _old_l1_conj_prox_kernel(phi, t, idx)(v)
        assert got.tobytes() == want.tobytes()
        assert v.tobytes() == v_bytes          # the kernel leaves its input
    for x in (_edge_values(rng, n), 3.0 * rng.standard_normal(n),
              np.full(n, -0.0), np.arange(n) - 7):
        got, want = phi.value(x), _old_l1_value(phi, x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("algorithm", ["pdhg", "iprepdhg", "prepdhg_exact"])
def test_solves_are_the_old_code_byte_for_byte(monkeypatch, algorithm):
    # a trace row per iteration, so every objective value is compared.  The
    # old code ran the BCD solves in A's row order through the grid
    # stencils; they now keep z in plan order and pair it with a CSR of A,
    # whose products sum their terms in another order, so those two agree
    # to 1e-12 relative.  PDHG's dual step is now a bound closed form where
    # the old one took the Moreau route: the same iterations, each iterate
    # within a few ulps (2e-14 relative)
    for inst, tau in _instances():
        max_outer = 4 if algorithm == "prepdhg_exact" else 30
        inner = None if algorithm == "pdhg" else "bcd"
        cfg = inst.config(algorithm=algorithm, inner=inner, tau=tau,
                          max_outer=max_outer, tol_residual=None)
        got = run(inst.problem, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(L1, "value", _old_l1_value)
            if algorithm != "pdhg":
                patch.setattr(L1, "conj_prox_kernel", _old_l1_conj_prox_kernel)
            resolved = validate_config(inst.problem, cfg)
            old_step = _old_pdhg_step if algorithm == "pdhg" else _old_step
            resolved = {**resolved, "plan": None,
                        "step": old_step(inst.problem, cfg, resolved)}
            want = run(inst.problem, cfg, resolved)
        _assert_runs_agree(got, want, inst.name,
                           rtol=2e-14 if algorithm == "pdhg" else 1e-12)


@pytest.mark.parametrize("h", [1.0, 0.37, -63.75])
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (5, 1), (2, 2), (4, 7),
                                       (16, 16), (9, 33), (64, 64)])
def test_grad_stencil_is_the_old_one_byte_for_byte(rows, cols, h):
    # a negative h is how Grad2D.rmatvec and Div2D.rmatvec fold in the sign
    rng = np.random.default_rng(54)
    for u in (_edge_values(rng, rows * cols), np.full(rows * cols, -0.0),
              rng.standard_normal(rows * cols)):
        u = u.reshape(rows, cols)
        got = _grad_into(u, np.empty((2, rows, cols)), h)
        want = _old_grad_into(u, np.empty((2, rows, cols)), h)
        assert got.tobytes() == want.tobytes()


def _stacked_ops(rng):
    """The 8x8 CT instance's operator, and stacks with other spacings."""
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    yield problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8, cols=8).problem.A
    for rows, cols, h in ((4, 7, 0.37), (9, 5, 63.75), (1, 6, 1.0)):
        yield StackedOp([SparseOp(rng.standard_normal((5, rows * cols))),
                         Grad2D(rows, cols, h)])


def test_stacked_products_are_the_part_by_part_ones():
    # the forward product is the same bits for a unit-spacing gradient
    # (ct's parts), and divides each term by h before the difference for
    # another spacing; the adjoint sums each column in one CSR row instead
    # of adding per-part partial sums.  Both move by rounding only, 1e-14
    # relative in the max norm of the vector
    rng = np.random.default_rng(55)
    for A in _stacked_ops(rng):
        old = _PartByPartStackedOp(A.ops)
        for _ in range(3):
            x = rng.standard_normal(A.shape[1])
            z = 10.0 * rng.standard_normal(A.shape[0])
            if A.ops[1].h == 1.0:
                assert A.matvec(x).tobytes() == old.matvec(x).tobytes()
            for got, want in ((A.matvec(x), old.matvec(x)),
                              (A.rmatvec(z), old.rmatvec(z))):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("algorithm", ["pdhg", "iprepdhg"])
def test_ct_solves_match_a_part_by_part_operator(algorithm):
    # a trace row per iteration; the part-by-part run's power iteration and
    # products move the iterates by rounding only
    rng = np.random.default_rng(56)
    R = problems.synth_line_integral_matrix(8, 8, 6, 10, seed=3)
    inst = problems.ct(R, rng.random(R.shape[0]), lam=0.1, rows=8, cols=8,
                       tau=0.1)
    prob = inst.problem
    old = solver.SaddleProblem(f=prob.f, g=prob.g,
                               A=_PartByPartStackedOp(prob.A.ops))
    inner = None if algorithm == "pdhg" else "bcd"
    cfg = inst.config(algorithm=algorithm, inner=inner,
                      tau=0.01 if algorithm == "pdhg" else 0.1,
                      max_outer=30, log_every=1, tol_residual=None)
    _assert_runs_agree(run(prob, cfg), run(old, cfg), algorithm)
