import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdopt.prox import (BoxIndicator, Concat, GroupL12, L1, LinearPlusBox,
                        PointIndicator, Quadratic, UnsupportedKindError,
                        UnsupportedMetricError, Zero, conj_prox,
                        conj_prox_via_moreau)


def _random_kinds(rng, n):
    return [
        L1(n, lam=1.0),
        L1(n, lam=0.7, shift=rng.standard_normal(n)),
        BoxIndicator(n, -0.5, 2.0),
        LinearPlusBox(n, rng.standard_normal(n), 0.0, 1.0),
        PointIndicator(rng.standard_normal(n)),
        Quadratic(n, weight=1.6, center=rng.standard_normal(n)),
        Zero(n),
        GroupL12(n, np.arange(n).reshape(-1, 2), lam=0.9),
    ]


def test_l1_soft_threshold_example():
    phi = L1(3, lam=1.0)
    np.testing.assert_allclose(phi.prox(np.array([3.0, 0.5, -3.0]), 1.0),
                               [2.0, 0.0, -2.0])


def test_box_clamp_example():
    phi = BoxIndicator(3, 0.0, 1.0)
    for d in (1.0, np.array([0.3, 2.0, 5.0])):
        np.testing.assert_allclose(phi.prox(np.array([-0.2, 0.5, 1.7]), d),
                                   [0.0, 0.5, 1.0])


def test_group_l12_shrinkage_example():
    phi = GroupL12(2, np.array([[0, 1]]), lam=1.0)
    np.testing.assert_allclose(phi.prox(np.array([3.0, 4.0]), 1.0),
                               [2.4, 3.2])


def test_group_l12_zero_at_origin():
    phi = GroupL12(4, np.arange(4).reshape(2, 2), lam=1.0)
    np.testing.assert_array_equal(phi.prox(np.zeros(4), 1.0), np.zeros(4))
    # inside the shrinkage dead zone the whole group collapses to 0
    np.testing.assert_array_equal(phi.prox(np.array([0.1, 0.1, 0, 0]), 1.0)[:2],
                                  [0.0, 0.0])


def test_group_l12_nonconstant_metric_rejected():
    phi = GroupL12(2, np.array([[0, 1]]), lam=1.0)
    with pytest.raises(UnsupportedMetricError):
        phi.prox(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def _group_layouts():
    n = 6
    # EMD's column-stacked pairs (i, n+i), and a strided size-3 layout
    return [np.column_stack([np.arange(n), n + np.arange(n)]),
            np.arange(12).reshape(3, 4).T]


@pytest.mark.parametrize("layout", [0, 1])
def test_group_l12_matches_per_group_loop(layout):
    groups = _group_layouts()[layout]
    dim = groups.size
    rng = np.random.default_rng(11)
    lam = 0.7
    phi = GroupL12(dim, groups, lam=lam)
    v = rng.standard_normal(dim)
    v[groups[0]] = 0.0                      # a zero-norm group
    d = np.empty(dim)
    for grp in groups:                      # metric constant within groups
        d[grp] = rng.uniform(0.5, 2.0)
    want = np.empty(dim)
    for grp in groups:
        nrm = np.linalg.norm(v[grp])
        scale = max(0.0, 1.0 - lam / (d[grp[0]] * nrm)) if nrm > 0 else 0.0
        want[grp] = scale * v[grp]
    got = phi.prox(v, d)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(got[groups[0]], 0.0)
    assert np.isclose(phi.value(v),
                      lam * sum(np.linalg.norm(v[grp]) for grp in groups),
                      rtol=1e-15)
    # conjugate: 0 while every group norm is <= lam, inf otherwise
    y = v * (0.9 * lam / max(np.linalg.norm(v[grp]) for grp in groups))
    assert phi.conjugate_value(y) == 0.0
    y[groups[-1]] *= 1.2 * lam / np.linalg.norm(y[groups[-1]])
    assert phi.conjugate_value(y) == np.inf


@pytest.mark.parametrize("layout", [0, 1])
def test_group_l12_rejects_metric_varying_within_a_group(layout):
    groups = _group_layouts()[layout]
    phi = GroupL12(groups.size, groups, lam=1.0)
    d = np.ones(groups.size)
    d[groups[1][-1]] = 2.0
    with pytest.raises(UnsupportedMetricError):
        phi.prox(np.ones(groups.size), d)
    with pytest.raises(UnsupportedMetricError):
        phi.prox_kernel(d)              # at binding, before any v


def test_point_indicator_prox_is_target():
    t = np.array([1.0, -2.0])
    np.testing.assert_array_equal(PointIndicator(t).prox(np.zeros(2), 5.0), t)


def test_quadratic_prox_closed_form():
    rng = np.random.default_rng(0)
    n = 6
    phi = Quadratic(n, weight=2.5, center=rng.standard_normal(n))
    v = rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, n)
    got = phi.prox(v, d)
    np.testing.assert_allclose(got, (d * v + 2.5 * phi.center) / (d + 2.5),
                               atol=1e-14)


def test_prox_optimality_against_perturbations():
    # the prox output must beat every perturbed candidate on the prox objective
    rng = np.random.default_rng(1)
    n = 8
    for phi in _random_kinds(rng, n):
        v = rng.standard_normal(n) * 2
        d = rng.uniform(0.3, 3.0, n)
        if isinstance(phi, GroupL12):
            d = np.repeat(rng.uniform(0.3, 3.0, n // 2), 2)
        p = phi.prox(v, d)
        base = phi.value(p) + 0.5 * float(d @ (p - v) ** 2)
        for _ in range(20):
            q = p + rng.standard_normal(n) * rng.choice([1e-4, 0.1, 1.0])
            cand = phi.value(q) + 0.5 * float(d @ (q - v) ** 2)
            assert base <= cand + 1e-9


def test_prox_nonexpansive_in_metric_norm():
    rng = np.random.default_rng(2)
    n = 10
    for phi in _random_kinds(rng, n):
        d = rng.uniform(0.2, 4.0, n)
        if isinstance(phi, GroupL12):
            d = np.repeat(rng.uniform(0.2, 4.0, n // 2), 2)
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        p1, p2 = phi.prox(v1, d), phi.prox(v2, d)
        lhs = float(d @ (p1 - p2) ** 2)
        rhs = float(d @ (v1 - v2) ** 2)
        assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_moreau_identity_all_kinds():
    rng = np.random.default_rng(3)
    n = 8
    for phi in _random_kinds(rng, n):
        for _ in range(25):
            x = rng.standard_normal(n) * 3
            d = rng.uniform(0.2, 5.0, n)
            if isinstance(phi, GroupL12):
                d = np.repeat(rng.uniform(0.2, 5.0, n // 2), 2)
            lhs = phi.prox(x, d) + conj_prox_via_moreau(phi, d * x, d) / d
            assert np.max(np.abs(x - lhs)) <= 1e-12


def test_conj_prox_moreau_absolute_value_example():
    phi = L1(1, lam=1.0)
    w = np.array([3.0])
    got = conj_prox_via_moreau(phi, w, np.array([1.0]))
    np.testing.assert_allclose(got, [1.0])
    np.testing.assert_allclose(phi.prox(w, 1.0) + got, w)


def test_conj_prox_of_zero_function():
    phi = Zero(4)
    got = conj_prox_via_moreau(phi, np.array([3.0, -1.0, 0.0, 9.0]), 1.0)
    np.testing.assert_array_equal(got, np.zeros(4))


def test_conj_prox_quadratic_against_direct_formula():
    # conjugate of (w/2)||x - c||^2 is ||z||^2/(2w) + <z, c>; its prox under
    # diag(d) solves  z/w + c + d(z - v) = 0
    rng = np.random.default_rng(4)
    n = 7
    w = 1.3
    c = rng.standard_normal(n)
    phi = Quadratic(n, weight=w, center=c)
    v = rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, n)
    expect = (d * v - c) / (1.0 / w + d)
    np.testing.assert_allclose(conj_prox(phi, v, d), expect, atol=1e-13)


def test_scalar_conj_prox_examples():
    idx = np.array([0])
    assert L1(1, lam=1.0).conj_prox_scalar(np.array([5.0]), 0.3, idx) == 1.0
    # PointIndicator's conjugate is linear: <z, c>
    assert PointIndicator([2.0]).conj_prox_scalar(np.array([1.0]), 0.5, idx) == 0.0
    quad = Quadratic(1, weight=1.0, center=[1.0])
    assert quad.conj_prox_scalar(np.array([2.0]), 1.0, idx) == 0.5
    with pytest.raises(UnsupportedKindError):
        BoxIndicator(1).conj_prox_scalar(np.array([1.0]), 1.0, idx)


def test_conj_prox_scalar_matches_vector_path():
    rng = np.random.default_rng(5)
    n = 6
    kinds = [L1(n, lam=0.8, shift=rng.standard_normal(n)),
             PointIndicator(rng.standard_normal(n)),
             Quadratic(n, weight=2.0, center=rng.standard_normal(n))]
    for phi in kinds:
        v = rng.standard_normal(n)
        h = rng.uniform(0.5, 3.0, n)      # metric diagonal
        via_moreau = conj_prox(phi, v, h)
        fast = phi.conj_prox_scalar(v, 1.0 / h, np.arange(n))
        np.testing.assert_allclose(fast, via_moreau, atol=1e-12)


def test_concat_dispatch():
    rng = np.random.default_rng(6)
    q = Quadratic(3, weight=1.5, center=rng.standard_normal(3))
    l = L1(4, lam=0.6)
    cat = Concat([q, l])
    assert cat.dim == 7
    x = rng.standard_normal(7)
    assert np.isclose(cat.value(x), q.value(x[:3]) + l.value(x[3:]))
    d = rng.uniform(0.5, 2.0, 7)
    np.testing.assert_allclose(cat.prox(x, d),
                               np.concatenate([q.prox(x[:3], d[:3]),
                                               l.prox(x[3:], d[3:])]))
    # scalar conjugate prox routed by global coordinate index
    idx = np.array([1, 4, 6])
    t = np.array([0.5, 1.0, 2.0])
    v = rng.standard_normal(3)
    got = cat.conj_prox_scalar(v, t, idx)
    np.testing.assert_allclose(got[0], q.conj_prox_scalar(v[:1], t[:1],
                                                          np.array([1]))[0])
    np.testing.assert_allclose(got[1:], l.conj_prox_scalar(v[1:], t[1:],
                                                           np.array([1, 3])))


def _scalar_closed_form(phi, v, t, idx):
    """Each kind's scalar conjugate prox written out, with Concat's masked
    dispatch by global index: the reference a bound kernel must match."""
    if isinstance(phi, Concat):
        out = np.empty(idx.size)
        for part, lo, hi in zip(phi.parts, phi.offsets, phi.offsets[1:]):
            mask = (idx >= lo) & (idx < hi)
            if mask.any():
                out[mask] = _scalar_closed_form(
                    part, v[mask], t[mask] if np.ndim(t) else t, idx[mask] - lo)
        return out
    if isinstance(phi, L1):
        return np.clip(v - t * phi.shift[idx], -phi.lam, phi.lam)
    if isinstance(phi, PointIndicator):
        return v - t * phi.target[idx]
    return phi.weight * (v - t * phi.center[idx]) / (phi.weight + t)


def _kernel_case(kind, rng):
    """(phi, idx) for one kind; Concat parts hold 3 to 6 coordinates each."""
    n = int(rng.integers(3, 9))
    if kind == "l1":
        return L1(n, lam=0.7), rng.permutation(n)[:n - 1]
    if kind == "l1-shift":
        return L1(n, lam=0.7, shift=rng.standard_normal(n)), rng.permutation(n)
    if kind == "point":
        return PointIndicator(rng.standard_normal(n)), rng.permutation(n)[:2]
    if kind == "quadratic":
        return Quadratic(n, weight=1.3, center=rng.standard_normal(n)), rng.permutation(n)
    sizes = rng.integers(3, 7, 3)
    cat = Concat([Quadratic(int(sizes[0]), weight=0.6, center=rng.standard_normal(sizes[0])),
                  L1(int(sizes[1]), lam=0.9),
                  PointIndicator(rng.standard_normal(sizes[2]))])
    lo, hi = cat.offsets[1], cat.offsets[2]
    if kind == "concat-inside":        # a block inside the L1 part
        return cat, lo + rng.permutation(hi - lo)[:2]
    # a block over the first two parts and maybe the third, in mixed order
    inside = rng.permutation(cat.dim)[:int(rng.integers(2, cat.dim))]
    return cat, rng.permutation(np.concatenate([[0, lo], inside[inside > lo]]))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["l1", "l1-shift", "point", "quadratic",
                             "concat-inside", "concat-spanning"]),
       seed=st.integers(0, 2 ** 32 - 1), scalar_t=st.booleans())
def test_bound_kernel_is_the_closed_form_bit_for_bit(kind, seed, scalar_t):
    rng = np.random.default_rng(seed)
    phi, idx = _kernel_case(kind, rng)
    t = float(rng.uniform(0.1, 5.0)) if scalar_t else rng.uniform(0.1, 5.0, idx.size)
    v = 3.0 * rng.standard_normal(idx.size)
    want = _scalar_closed_form(phi, v, t, idx)
    kernel = phi.conj_prox_kernel(t, idx)
    got = kernel(v)
    assert got is not v
    assert got.tobytes() == want.tobytes()
    assert phi.conj_prox_scalar(v, t, idx).tobytes() == want.tobytes()
    assert kernel(v).tobytes() == want.tobytes()      # binding is reusable


def test_bound_clip_is_numpys_clip_bit_for_bit():
    # pdopt.prox imports numpy's private clip ufunc in one place; a numpy
    # release that moves or changes it fails here
    from pdopt.prox import _clip
    assert isinstance(_clip, np.ufunc) and _clip.__name__ == "clip"
    rng = np.random.default_rng(29)
    v = 3.0 * rng.standard_normal(2048)
    v[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -5e-324]
    for lo, hi in ((-1.0, 1.0), (-0.5, 2.0), (-0.0, 0.0), (0.0, 0.0),
                   (-np.inf, np.inf), (1.0, 1.0)):
        want = np.clip(v, lo, hi)
        assert _clip(v, lo, hi).tobytes() == want.tobytes(), (lo, hi)
        out = v.copy()
        assert _clip(out, lo, hi, out=out) is out
        assert out.tobytes() == want.tobytes(), (lo, hi)


def test_kernel_of_unsupported_kind_raises():
    idx = np.arange(2)
    for phi in (BoxIndicator(2), Concat([L1(2), BoxIndicator(2)])):
        with pytest.raises(UnsupportedKindError, match="BoxIndicator"):
            phi.conj_prox_kernel(1.0, idx + 2 * isinstance(phi, Concat))
    # a Concat block that misses the unsupported part still binds
    Concat([L1(2), BoxIndicator(2)]).conj_prox_kernel(1.0, idx)


def _whole_case(kind, rng, half):
    """One function of ``kind`` on 2 * half coordinates; GroupL12's groups
    are consecutive pairs, so a step constant on pairs suits it."""
    n = 2 * half
    lam = float(rng.uniform(0.1, 3.0))
    if kind == "zero":
        return Zero(n)
    if kind == "l1":
        return L1(n, lam=lam)
    if kind == "l1-shift":
        return L1(n, lam=lam, shift=rng.standard_normal(n))
    if kind == "group":
        return GroupL12(n, np.arange(n).reshape(-1, 2), lam=lam)
    if kind == "box":
        return BoxIndicator(n, -float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
    if kind == "linear-box":
        return LinearPlusBox(n, rng.standard_normal(n), 0.0, 1.0)
    if kind == "point":
        return PointIndicator(rng.standard_normal(n))
    if kind == "point-zero":
        return PointIndicator(np.zeros(n))
    if kind == "quadratic":
        return Quadratic(n, weight=float(rng.uniform(0.1, 5.0)),
                         center=rng.standard_normal(n))
    if kind == "quadratic-zero":
        return Quadratic(n, weight=float(rng.uniform(0.1, 5.0)))
    # closed forms and Moreau fallbacks side by side; parts keep pairs whole
    k = int(rng.integers(0, half + 1))
    parts = [GroupL12(2 * k, np.arange(2 * k).reshape(-1, 2), lam=lam)] if k else []
    rest = n - 2 * k
    if rest:
        cut = int(rng.integers(0, rest + 1))
        parts += [p for p in (L1(cut, lam=lam, shift=rng.standard_normal(cut)),
                              BoxIndicator(rest - cut, -1.0, 0.5)) if p.dim]
    return Concat(parts)


def _assert_is_the_moreau_route(phi, v, t, got):
    """``got`` against ``conj_prox_via_moreau``: a closed form within 4 ulps
    of the inputs' scale, a Moreau fallback bit for bit, a Concat part by
    part."""
    if isinstance(phi, Concat):
        for part, sl in phi._routes:
            _assert_is_the_moreau_route(part, v[sl], t[sl] if np.ndim(t) else t,
                                        got[sl])
        return
    want = conj_prox_via_moreau(phi, v, t)
    closed_forms = {L1: "shift", PointIndicator: "target", Quadratic: "center"}
    if type(phi) in closed_forms:
        const = getattr(phi, closed_forms[type(phi)])  # subtracted times t
        scale = np.abs(v) + np.abs(want) + np.abs(t * const)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
    else:
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["zero", "l1", "l1-shift", "group", "box",
                             "linear-box", "point", "point-zero", "quadratic",
                             "quadratic-zero", "concat"]),
       half=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       scalar_t=st.booleans(), magnitude=st.integers(-3, 3))
def test_whole_vector_kernel_is_the_moreau_route(kind, half, seed, scalar_t,
                                                 magnitude):
    # the whole-vector kernel PDHG and the gradient z-solvers bind: the
    # closed form within a few ulps of the Moreau identity (the reference
    # route), the Moreau identity itself bit for bit where there is no
    # closed form; the input is left as it is
    rng = np.random.default_rng(seed)
    phi = _whole_case(kind, rng, half)
    steps = 10.0 ** rng.uniform(-2.0, 2.0, half)
    t = float(steps[0]) if scalar_t else np.repeat(steps, 2)
    v = 10.0 ** magnitude * rng.standard_normal(phi.dim)
    v[rng.random(phi.dim) < 0.2] = rng.choice([0.0, -0.0])
    v_bytes = v.tobytes()
    kernel = phi.conj_prox_kernel(t)
    got = kernel(v)
    assert got is not v and v.tobytes() == v_bytes
    _assert_is_the_moreau_route(phi, v, t, got)
    assert kernel(v).tobytes() == got.tobytes()         # binding is reusable


def test_whole_vector_kernel_keeps_only_its_step_constants():
    # the whole-vector closed form reads the constants as they are: a zero
    # shift, target or centre stores nothing, a nonzero one its product by t
    n = 6
    for phi in (L1(n), PointIndicator(np.zeros(n)), Quadratic(n)):
        kernel = phi.conj_prox_kernel(0.5)
        assert all(not isinstance(c.cell_contents, np.ndarray)
                   for c in kernel.__closure__ or ())
    shift = np.arange(n, dtype=float)
    kernel = L1(n, shift=shift).conj_prox_kernel(0.5)
    arrays = [c.cell_contents for c in kernel.__closure__
              if isinstance(c.cell_contents, np.ndarray)]
    assert len(arrays) == 1 and arrays[0].tobytes() == (0.5 * shift).tobytes()


def test_conj_residual_zero_at_conjugate_prox_point():
    # at z = conj prox of (z_prev + q/d) the inclusion residual must vanish
    rng = np.random.default_rng(7)
    n = 5
    for phi in (L1(n, lam=1.0, shift=rng.standard_normal(n)),
                PointIndicator(rng.standard_normal(n)),
                Quadratic(n, weight=1.7, center=rng.standard_normal(n))):
        z_prev = rng.standard_normal(n)
        q = rng.standard_normal(n)
        d = rng.uniform(0.5, 2.0, n)
        z = conj_prox(phi, z_prev + q / d, d)
        s = d * (z - z_prev) - q
        eps = phi.conj_residual(z, s)
        assert np.linalg.norm(eps) <= 1e-9


def test_conj_residual_is_valid_subgradient():
    # xi = -eps - s must satisfy the conjugate's subgradient inequality
    rng = np.random.default_rng(8)
    n = 4
    phi = L1(n, lam=1.0)
    z = np.clip(rng.standard_normal(n), -1.0, 1.0)
    s = rng.standard_normal(n)
    eps = phi.conj_residual(z, s)
    xi = -eps - s
    for _ in range(50):
        w = rng.uniform(-1.0, 1.0, n)
        assert (phi.conjugate_value(w)
                >= phi.conjugate_value(z) + float(xi @ (w - z)) - 1e-8)


def test_conjugate_values():
    phi = BoxIndicator(2, 0.0, 1.0)
    assert phi.conjugate_value(np.array([2.0, -3.0])) == 2.0
    pt = PointIndicator(np.array([1.0, 2.0]))
    assert pt.conjugate_value(np.array([3.0, 4.0])) == 11.0
    l1 = L1(2, lam=1.0)
    assert l1.conjugate_value(np.array([0.5, -1.0])) == 0.0
    assert l1.conjugate_value(np.array([1.5, 0.0])) == np.inf


def test_l1_prox_tie_breaking_at_kink():
    # |v| exactly at the threshold maps to the boundary value 0
    phi = L1(1, lam=1.0)
    assert phi.prox(np.array([1.0]), 1.0)[0] == 0.0


def _prox_closed_form(phi, v, d):
    """Each kind's prox with a scalar metric expanded to an array and the
    constants formed on every call: the reference a bound kernel must match
    bit for bit."""
    v = np.asarray(v, dtype=float)
    if np.ndim(d) == 0:
        d = np.full(phi.dim, float(d))
    if isinstance(phi, Zero):
        return v.copy()
    if isinstance(phi, L1):
        w = v - phi.shift
        return phi.shift + np.sign(w) * np.maximum(np.abs(w) - phi.lam / d, 0.0)
    if isinstance(phi, BoxIndicator):
        return np.clip(v, phi.lo, phi.hi)
    if isinstance(phi, LinearPlusBox):
        return np.clip(v - phi.c / d, phi.lo, phi.hi)
    if isinstance(phi, PointIndicator):
        return phi.target.copy()
    if isinstance(phi, Quadratic):
        return (d * v + phi.weight * phi.center) / (d + phi.weight)
    if isinstance(phi, GroupL12):
        dg = d[phi.members]
        vg = v[phi.members]
        norms = np.linalg.norm(vg, axis=0)
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = np.maximum(0.0, 1.0 - phi.lam / (dg[0, nz] * norms[nz]))
        out = np.empty_like(v)
        out[phi.members] = vg * scale
        return out
    out = np.empty(phi.dim)
    for part, sl in phi._routes:
        out[sl] = _prox_closed_form(part, v[sl], d[sl])
    return out


def _prox_case(kind, rng):
    """(phi, groups or None) for one kind; groups fix where the metric may vary."""
    n = 6 * int(rng.integers(1, 4))
    if kind == "zero":
        return Zero(n), None
    if kind == "l1":
        return L1(n, lam=0.8), None
    if kind == "l1-shift":
        return L1(n, lam=0.7, shift=rng.standard_normal(n)), None
    if kind == "box":
        return BoxIndicator(n, -0.5, 1.2), None
    if kind == "linear-box":
        return LinearPlusBox(n, rng.standard_normal(n), -1.0, 1.0), None
    if kind == "point":
        return PointIndicator(rng.standard_normal(n)), None
    if kind == "quadratic":
        return Quadratic(n, weight=1.3, center=rng.standard_normal(n)), None
    if kind == "group-pairs":        # EMD's (i, n/2 + i): the contiguous layout
        half = n // 2
        groups = np.column_stack([np.arange(half), half + np.arange(half)])
        return GroupL12(n, groups, lam=0.9), groups
    if kind == "group-strided":      # size-3 groups (i, i + k, i + 2k), gathered
        groups = np.arange(n).reshape(3, -1).T
        return GroupL12(n, groups, lam=0.6), groups
    k = int(rng.integers(2, n - 1))
    return Concat([Quadratic(k, weight=0.5, center=rng.standard_normal(k)),
                   L1(n - k, lam=1.1, shift=rng.standard_normal(n - k))]), None


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["zero", "l1", "l1-shift", "box", "linear-box",
                             "point", "quadratic", "group-pairs",
                             "group-strided", "concat"]),
       metric=st.sampled_from(["scalar", "constant", "varying"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prox_kernel_is_the_closed_form_bit_for_bit(kind, metric, seed):
    rng = np.random.default_rng(seed)
    phi, groups = _prox_case(kind, rng)
    n = phi.dim
    if metric == "scalar":
        d = float(rng.uniform(0.2, 5.0))
    elif metric == "constant":
        d = np.full(n, rng.uniform(0.2, 5.0))
    elif groups is None:
        d = rng.uniform(0.2, 5.0, n)
    else:                            # varying across groups only
        d = np.empty(n)
        for grp in groups:
            d[grp] = rng.uniform(0.2, 5.0)
    v = 2.0 * rng.standard_normal(n)
    v[rng.permutation(n)[:n // 4]] = rng.choice([0.0, -0.0, 1.0, -1.0])
    if groups is not None:
        v[groups[0]] = 0.0           # a zero-norm group
        v[groups[-1]] *= 1e-3        # a group inside the dead zone
    want = _prox_closed_form(phi, v, d)
    kernel = phi.prox_kernel(d)
    got = kernel(v)
    assert got is not v
    assert got.tobytes() == want.tobytes()
    assert phi.prox(v, d).tobytes() == want.tobytes()
    assert kernel(v).tobytes() == want.tobytes()      # binding is reusable
    if groups is not None:
        np.testing.assert_array_equal(got[groups[0]], 0.0)


def test_group_l12_layout_detection():
    half = 5
    pairs = np.column_stack([np.arange(half), half + np.arange(half)])
    assert GroupL12(2 * half, pairs).contiguous
    assert not GroupL12(12, np.arange(12).reshape(-1, 3)).contiguous
    assert not GroupL12(2 * half, pairs[::-1]).contiguous


def test_group_l12_rejects_nonpositive_lam_and_metric():
    pairs = _group_layouts()[0]
    with pytest.raises(ValueError, match="lam must be positive"):
        GroupL12(pairs.size, pairs, lam=0.0)
    with pytest.raises(ValueError, match="strictly positive"):
        GroupL12(pairs.size, pairs).prox_kernel(0.0)


# NaN fails ``v > 0``, so each constructor and the metric check reject it
# instead of binding NaN values and proxes

def test_l1_rejects_nan_lam():
    with pytest.raises(ValueError, match="lam must be positive"):
        L1(4, lam=float("nan"))


def test_group_l12_rejects_nan_lam():
    pairs = _group_layouts()[0]
    with pytest.raises(ValueError, match="lam must be positive"):
        GroupL12(pairs.size, pairs, lam=float("nan"))


def test_quadratic_rejects_nan_weight():
    with pytest.raises(ValueError, match="weight must be positive"):
        Quadratic(4, weight=float("nan"))


def test_prox_kernel_rejects_a_nan_metric():
    for phi in _random_kinds(np.random.default_rng(71), 4):
        for d in (float("nan"), np.array([1.0, np.nan, 2.0, 0.5])):
            if isinstance(phi, (Zero, PointIndicator, BoxIndicator)):
                continue        # their prox does not read the metric
            with pytest.raises(ValueError, match="strictly positive"):
                phi.prox_kernel(d)
