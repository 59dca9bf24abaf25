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
The divergence and the operator-norm estimates that run it are checked
against digests and values recorded from the code before its horizontal
passes ran on flat views, with no oracle kept.  So are the BCD plan's
arrays, recorded from the code that formed each Gram segment's rows as one
product before it formed them a colour block at a time.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdopt import operators, problems, solver
from pdopt.operators import (Div2D, Grad2D, OrderingError, SparseOp,
                             StackedOp, WeightedGrad2D, _div_into, _grad_into)
from pdopt.precond import BlockOrdering, Gram, four_block_ordering
from pdopt.prox import L1, _times_step, conj_prox
from pdopt.solver import (BcdPlan, ZSubproblem, inner_bcd, run,
                          solve_subproblem_exact, validate_config)


def _gram_product(blk, v):
    """``G_b @ v`` as the plan holds it: ``L_b``'s terms, then ``U_b``'s
    added into the same output."""
    out = np.zeros(blk.sl.stop - blk.sl.start)
    for part in (blk.lower, blk.upper):
        if part is not None:
            part(v, out)
    return out


def _old_bcd_sweep(sub, plan, z, epochs, at_ref=False):
    for seg, kernel in zip(plan.segments, plan.bind(sub.g)):
        if seg.kind == "diag":
            lo, hi = seg.lo, seg.hi
            z[lo:hi] = kernel(sub.z_ref[lo:hi] + sub.q[lo:hi] / seg.e)
        else:
            idx = seg.idx
            z_ref = sub.z_ref[idx]
            c = z_ref + sub.q[idx] * seg.inv_h
            dz = np.zeros(idx.size) if at_ref else z[idx] - z_ref
            skip = at_ref
            for _ in range(epochs):
                for blk, block_kernel in zip(seg.blocks, kernel):
                    sl = blk.sl
                    v = c[sl] if skip else c[sl] - _gram_product(blk, dz)
                    skip = False
                    dz[sl] = block_kernel(v) - z_ref[sl]
            z[idx] = z_ref + dz


def _old_solve_exact(sub, plan, tol, max_iter):
    # stops as the solver does: on the estimated error step r / (1 - r)
    z, prev = sub.z_ref, None
    for _ in range(max_iter):
        z_new = z.copy()
        _old_bcd_sweep(sub, plan, z_new, 1)
        step = np.linalg.norm(z_new - z)
        bound = tol * (1.0 + np.linalg.norm(z_new))
        if step == 0.0 or (prev is not None and step < prev
                           and step * (step / prev) / (1.0 - step / prev) <= bound):
            return z_new
        z, prev = z_new, step
    return z


def _old_l1_conj_prox_kernel(self, t, idx):
    lam, ts = self.lam, _times_step(t, self.shift, idx)
    if ts is None:
        return lambda v: np.clip(v, -lam, lam)
    return lambda v: np.clip(v - ts, -lam, lam)


def _seven_pass_l1_prox(phi, v, d):
    """``L1.prox_kernel(d)(v)`` as it was: shift + sign(w) * max(|w| - thr, 0)."""
    thr = phi.lam / d
    w = np.asarray(v, dtype=float) - phi.shift
    out = np.abs(w)
    out -= thr
    np.maximum(out, 0.0, out=out)
    np.multiply(np.sign(w), out, out=out)
    return np.add(phi.shift, out, out=out)


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


def _assert_sweeps_agree(got, want, z_ref, dead, name):
    """Within 1e-13 relative in the max norm of the vector; on dead rows
    the bits of z_ref, -0.0 included."""
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
    assert got[dead].tobytes() == z_ref[dead].tobytes() == want[dead].tobytes(), name


@pytest.mark.filterwarnings("ignore:zero row sums")
def test_bcd_sweep_is_the_old_sweep_byte_for_byte():
    # the sweep now carries e = z_ref - z and accumulates c_b + L_b e (+ U_b
    # e) into a copy of c_b in csr_matvec's order, where the old one
    # subtracted G_b dz, summed from zero, from c_b: the same iterates up
    # to rounding, no longer the same bits; dead rows are never touched
    rng = np.random.default_rng(52)
    for inst, tau in _instances():
        cfg = inst.config(algorithm="iprepdhg", inner="bcd", tau=tau)
        m2 = cfg.m2
        plan = BcdPlan(inst.problem.A, m2)
        m = inst.problem.dims[0]
        is_dead = np.zeros(m, dtype=bool)
        for seg in plan.segments:
            is_dead[seg.dead] = True
        dead = plan.order[is_dead]      # rows of A; EMD's Div2D has none
        assert dead.size or inst.name == "emd"
        for g in (inst.problem.g, L1(m, lam=0.6, shift=rng.standard_normal(m))):
            z_ref = rng.standard_normal(m)
            z_ref[rng.random(m) < 0.1] = -0.0
            z_ref[dead[::2]] = -0.0
            sub = ZSubproblem(z_ref, 5.0 * rng.standard_normal(m), m2, g)
            for p in (1, 2, 3):
                got = inner_bcd(sub, plan, p)[0]
                want = sub.z_ref.copy()
                _old_bcd_sweep(sub, BcdPlan(inst.problem.A, m2), want, p,
                               at_ref=True)
                _assert_sweeps_agree(got, want, z_ref, dead, (inst.name, p))
            # from points other than z_ref: the sweep's not-at-ref path
            for tol in (1e-12, 1e-1):
                got = solve_subproblem_exact(sub, tol=tol, max_iter=4, plan=plan)
                want = _old_solve_exact(sub, BcdPlan(inst.problem.A, m2), tol, 4)
                _assert_sweeps_agree(got, want, z_ref, dead, (inst.name, tol))


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


@pytest.mark.parametrize("metric", ["scalar", "constant", "varying"])
def test_l1_prox_kernel_is_the_seven_pass_formula(metric):
    # shift + (w - clip(w, -thr, thr)): the same bits where neither the
    # shift nor the input holds -0.0 or NaN; else equal values, a zero's
    # sign differing only where the shift holds -0.0, NaN where NaN
    rng = np.random.default_rng(57)
    n = 64
    d = {"scalar": 2.5, "constant": np.full(n, 0.7),
         "varying": rng.uniform(0.2, 5.0, n)}[metric]
    plain = 3.0 * rng.standard_normal(n)
    plain[:4] = [np.inf, -np.inf, 0.0, 1.25]        # 1.25 = lam / 0.7 below
    cases = [(None, plain), (rng.standard_normal(n), plain),
             (rng.standard_normal(n), np.round(rng.standard_normal(n), 1))]
    for shift, v in cases:
        phi = L1(n, lam=0.875, shift=shift)
        got = phi.prox_kernel(d)(v)
        assert got.tobytes() == _seven_pass_l1_prox(phi, v, d).tobytes()
    for shift in (np.full(n, -0.0), _edge_values(rng, n), rng.standard_normal(n)):
        v = _edge_values(rng, n)
        v[5:9] = shift[5:9]                  # w = 0 there
        v[9] = -0.1                          # -thr < w < 0: the old -0.0
        phi = L1(n, lam=0.875, shift=shift)
        with np.errstate(invalid="ignore"):     # inf - inf in both
            got, want = phi.prox_kernel(d)(v), _seven_pass_l1_prox(phi, v, d)
        np.testing.assert_array_equal(got, want)
        moved = got.view(np.int64) != want.view(np.int64)
        zeros = (got == 0.0) & (want == 0.0) & np.signbit(shift)
        assert np.all(zeros[moved] | (np.isnan(got) & np.isnan(want))[moved])
        assert moved[9] == (shift[9] == 0.0 and np.signbit(shift[9]))


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


# The divergence's output bytes, as sha256 digests, for the inputs
# ``_div_field`` builds: recorded from the 2-D column-offset passes the
# flat passes replaced, keyed by (grid shape, h).  A negative h is how
# Grad2D.rmatvec folds in the sign.
_DIV_DIGESTS = {
    ((1, 1), 1.0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ((1, 1), -1.0): "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ((1, 1), 0.5): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ((1, 1), -2.0): "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    ((1, 1), 7.75): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ((1, 7), 1.0): "7ac1600b27bb1f1a809867f124591d41c72a0145b901fdef0ed666f13b45c215",
    ((1, 7), -1.0): "418c7d365d0addbbc11d5c33c6907fe518af7aeac2c31bc9b4b46bd8a60ffb07",
    ((1, 7), 0.5): "d5e16cd47d79c39bfac45b19ffe5bd7f5ef75ba7da8a1181a54f149b7ecd12f2",
    ((1, 7), -2.0): "69ea75bb1a29434b5173fb8bb901296d5283e59d05d78fd4623057b9ff1a0b5b",
    ((1, 7), 7.75): "013643875a2c17b9e95f7108ff23453cd87804ca089d84335b95e4555b9d0674",
    ((7, 1), 1.0): "41bee82627773e9b61e2b50f6400abf1c8fc23f2c90074e76e53f85625c1ce3e",
    ((7, 1), -1.0): "8674ffa9602235bf79bb6556cafe8b8231696ac9f49ac7db1d1a5ac79518f88c",
    ((7, 1), 0.5): "70c40c1fae7c5888b800c24a7ca9a1c6fd7ef3edcb358a39e0a5752aa308e6f9",
    ((7, 1), -2.0): "2673c00a1dcbe5155fd0d83232b5f5f2d08f0c335a1b577776266885c43f3b16",
    ((7, 1), 7.75): "b937a9837f02d461864cd98576a91da512827843d43065240099803279fbbdb9",
    ((9, 10), 1.0): "f1640b9333d375fb913dde9b321d6d303a737a972deb46c83a9048e39c5d6561",
    ((9, 10), -1.0): "a31badb2035d8919c4d8b7714c3e79222b34a22aebea3d149f76d59f72331c4c",
    ((9, 10), 0.5): "1040f56cb4521877ce31ea13ce96426880ade5747e31de2d3f22aa5d37950b8b",
    ((9, 10), -2.0): "f2aba8fb0513d36dc9f547923769308cc9f40236ce12fd82fd17ebfebade5827",
    ((9, 10), 7.75): "1a3cd452041825f9e4cf1db575ec468473ca161e02f6951cfd1b0b4694ffb0d5",
    ((64, 64), 1.0): "cd4ca3f3792224bf9829b5c1bb4d244fa4de2e616d8b34c083e14f123797cefc",
    ((64, 64), -1.0): "34643d8ed39de0c1a56509ea0ca611e326765995be73f233517120a9b9b1f1fd",
    ((64, 64), 0.5): "a67a31c72cea33294b7d06f96150aa6bd95e8dddfaeba213cfb57f921a23fb00",
    ((64, 64), -2.0): "7f99ed451ee80092bf641620bacb2c78d276637bde03bc0deb5e524f2786e1aa",
    ((64, 64), 7.75): "d3b6d17bd3b10c3c947f73eeb9e5d87ba83a57f0f42e2d7957114dd57e5010ef",
    ((256, 256), 1.0): "e62106a88ed55004bf4d0951a3b42844d3d9e20e51f0c2db8bce29f2003c08a3",
    ((256, 256), -1.0): "df9843c090084639f209824bd0d038df8cec1e999af7494ae49d696ed1eac45a",
    ((256, 256), 0.5): "66f6e802143f3e53c7893d93f415ee18daf4e7716a270ad40bc156edb520b73a",
    ((256, 256), -2.0): "832d72f92c795ed4180bd5ac7e376ed91fdd1fb56c25938bae943982419b5620",
    ((256, 256), 7.75): "e63335d7542526c0bc95a6f4d8f3e4c833dbc5d6572c5018e9fe6087a93a6bcd",
}

# float.hex of op_norm_sq_estimate for Grad2D(64, 64), Grad2D(256, 256) and
# Div2D(32, 32, 31/4), recorded with the same divergence under one BLAS
# thread.  The power iteration's dot products go through BLAS, which splits
# a long one (the 256x256 grid's) between its threads, so the last bit
# depends on the thread count; a test process pins it to one.
_NORM_SQ_HEX = ["0x1.01d1808703714p+3", "0x1.01df4746213b7p+3",
                "0x1.1295a60bec408p-3"]
_NORM_SQ_SCRIPT = """
from pdopt.operators import Div2D, Grad2D, op_norm_sq_estimate
for op in (Grad2D(64, 64), Grad2D(256, 256), Div2D(32, 32, 31 / 4)):
    print(float.hex(op_norm_sq_estimate(op)))
"""


def _div_field(rows, cols):
    """Two channels of exact quotients with +-0.0, +-inf and +-NaN mixed in,
    built by integer arithmetic only, so the bits are the same on every
    platform and numpy version."""
    k = np.arange(2 * rows * cols)
    v = ((k * 7919) % 1009 - 504) / 37.0
    pick = (k * 31 + rows) % 97
    edges = (0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0))
    for edge, lo, hi in zip(edges, (0, 12, 24, 27, 30, 32),
                            (12, 24, 27, 30, 32, 34)):
        v[(pick >= lo) & (pick < hi)] = edge
    return v


def _digest(out):
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("shape,h", list(_DIV_DIGESTS), ids=str)
def test_divergence_is_the_recorded_bits(shape, h):
    rows, cols = shape
    v = _div_field(rows, cols)
    p = v.reshape(2, rows, cols)
    want = _DIV_DIGESTS[shape, h]
    with np.errstate(invalid="ignore", over="ignore"):
        got = [_div_into(p[0], p[1], np.empty(shape), h)]
        if h > 0:
            got.append(Div2D(rows, cols, h).matvec(v))
        else:
            ones = np.ones(v.size)
            got += [Grad2D(rows, cols, -h).rmatvec(v),
                    WeightedGrad2D(rows, cols, ones, -h).rmatvec(v)]
    for out in got:
        assert _digest(out) == want


def test_norm_estimates_are_the_recorded_bits():
    env = {**os.environ, "PYTHONPATH": str(Path(operators.__file__).parents[1]),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    got = subprocess.run([sys.executable, "-c", _NORM_SQ_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert got.split() == _NORM_SQ_HEX


def test_divergence_makes_no_grid_sized_temporary():
    rows = cols = 256
    p = np.random.default_rng(57).standard_normal((2, rows, cols))
    out = np.empty((rows, cols))
    tracemalloc.start()
    try:
        _div_into(p[0], p[1], out, -1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes // 8


# sha256 of every array a BcdPlan holds (see _plan_digest), recorded from
# the code that formed each Gram segment's rows as one product and split it
# in place, with no oracle kept.  Forming them a colour block at a time, or
# a few blocks per product, must give the same bits: csr_matmat emits each
# row's entries in the same order with the same sums whatever other rows
# are in the product.
_PLAN_DIGESTS = {
    "tvl1": "6c1b5ffcc79aa99ff4e7e14ecac25620707620670d86fe60936d144553999df6",
    "graphcut": "d19287737344148b06de32ad25d609966ba185ee107e10f3735125d7208c7088",
    "emd": "15eb62e5f55301446a7377eeeeea874c890aedd49fe1a756ab9e069cd56449b0",
    "ct": "9a394fc4635c5254f88ad6530ade2990b857d246e2585d558ba197af89132c91",
    "tvl1-64": "24ebd6ff8c6134c94940e0ce555d486be6a18c8cdf015656cf065a8d6238b471",
    "custom": "7bcd20cc285225252cc5b0916b0d31c35144d80aa8bf721fa82435175b862c22",
    "custom-ridge": "e9081dee1ffa71dcf951f3e55d8f0b3f81015298337e033f73aea5fad6af09c2",
}


def _plan_digest(A, plan):
    """One sha256 over the plan's order, the CSR arrays of A's rows in plan
    order (a ``SparseOp``) and their transpose's, each diagonal segment's
    ``e``, and each Gram segment's ``inv_h`` and every ``L_b``/``U_b``'s
    ``data``, ``indices`` and ``indptr``, each with its dtype."""
    arrays = [plan.order]
    op = SparseOp(solver._canonical_csr(A)[plan.order])
    for mat in (op.mat, op.mat_t):
        arrays += [mat.data, mat.indices, mat.indptr]
    for seg in plan.segments:
        if seg.kind == "diag":
            arrays.append(seg.e)
        else:
            arrays.append(seg.inv_h)
            for blk in seg.blocks:
                for part in (blk.l_b, blk.u_b):
                    arrays += [part.data, part.indices, part.indptr]
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _plan_cases():
    """(name, A, M2, ordering): the four builders' small instances, a 64x64
    TV-L1 and a 9x10 gradient under a custom ordering (eight blocks in
    reverse, each read backwards), the last over a Gram operator other
    than A and with a ridge, so rows with ``d = 0`` are live."""
    for inst, tau in _instances():
        yield (inst.name, inst.problem.A,
               inst.config(algorithm="iprepdhg", inner="bcd", tau=tau).m2, None)
    inst = problems.tvl1(np.random.default_rng(7).random((64, 64)), lam=1.0)
    yield ("tvl1-64", inst.problem.A,
           inst.config(algorithm="iprepdhg", inner="bcd", tau=0.01).m2, None)
    grad = Grad2D(9, 10)
    custom = BlockOrdering("custom", [half[::-1] for blk in
                                      four_block_ordering(9, 10).blocks[::-1]
                                      for half in np.array_split(blk, 2)])
    yield "custom", grad, Gram(0.3, grad), custom
    yield "custom-ridge", SparseOp(grad.to_sparse()), Gram(0.3, grad, 0.5), custom


@pytest.mark.filterwarnings("ignore:zero row sums")
@pytest.mark.parametrize("limit", [0, solver.GRAM_PRODUCT_NNZ, 1 << 62],
                         ids=["block-by-block", "default", "whole-segment"])
def test_bcd_plan_is_the_recorded_bits(monkeypatch, limit):
    monkeypatch.setattr(solver, "GRAM_PRODUCT_NNZ", limit)
    for name, A, m2, ordering in _plan_cases():
        assert _plan_digest(A, BcdPlan(A, m2, ordering)) == _PLAN_DIGESTS[name], name


def test_bcd_plan_build_peak_is_near_what_it_keeps():
    # the build forms a 256x256 grid's Gram rows one colour block at a time
    # into exact-size parts, so its transient stays under half of what the
    # plan keeps (op, its transpose, order, inv_h and the L_b/U_b parts);
    # one product of the whole segment, split in place, peaks at 1.88x
    inst = problems.tvl1(np.random.default_rng(58).random((256, 256)), lam=1.0)
    m2 = inst.config(algorithm="iprepdhg", inner="bcd", tau=0.01).m2
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = BcdPlan(inst.problem.A, m2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(seg.blocks) for seg in plan.segments] == [4]
    assert peak - start <= 1.5 * (kept - start)


@pytest.mark.parametrize("limit", [0, 1 << 62], ids=["block-by-block", "whole-segment"])
def test_bcd_plan_rejects_a_coupled_later_block(monkeypatch, limit):
    # the first block is a valid colour; the second joins two colours of
    # different channels, whose rows share grid nodes
    monkeypatch.setattr(solver, "GRAM_PRODUCT_NNZ", limit)
    A = Grad2D(4, 4)
    first, *rest = four_block_ordering(4, 4).blocks
    ordering = BlockOrdering("coupled", [first, np.concatenate(rest[:2]), rest[2]])
    with pytest.raises(OrderingError, match="not mutually orthogonal"):
        BcdPlan(A, Gram(0.5, A), ordering)
