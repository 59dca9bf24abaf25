"""Proximal operators with diagonal metrics and their conjugate machinery.

Every function here knows three things: its value, its prox under a
diagonal metric diag(d) (the minimizer of phi(y) + 1/2 * sum d_i (y_i-v_i)^2),
and its convex conjugate's value.  The prox is written once, as a kernel with
the metric bound (``prox_kernel``, which ``prox`` calls).  Proxes of
conjugates are derived through the generalized Moreau identity
(``conj_prox``, the reference route) instead of being hand-coded, except for
the closed forms the solvers bind (``conj_prox_kernel``, which
``conj_prox_scalar`` calls): per coordinate inside block-coordinate sweeps,
and over the whole vector for PDHG's dual step and the gradient z-solvers,
where a kind without a closed form binds the Moreau identity instead.
Functions are treated as immutable after construction: a bound kernel keeps
the constants it computed.

The scalar kernels call numpy's ``clip`` ufunc directly, the call
``np.clip`` makes after its Python dispatch, so results are the same bits.
``_clip`` below is the one import of that private name.
"""

import numpy as np

try:                                            # numpy >= 2
    from numpy._core.umath import clip as _clip
except ImportError:                             # numpy 1.x
    from numpy.core.umath import clip as _clip


class UnsupportedMetricError(ValueError):
    """Metric not constant within a coupled group of coordinates."""


class UnsupportedKindError(ValueError):
    """Requested closed form not available for this function kind."""


def _times_step(t, const, idx):
    """``t * const[idx]`` (``t * const`` when ``idx`` is None), or None when
    those constants are all zero."""
    c = const if idx is None else const[idx]
    return t * c if c.any() else None


def _metric(d):
    """A metric to bind: a float for a scalar ``d``, so bound constants stay
    scalars, else the array.  Raises unless strictly positive."""
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):       # NaN fails this too
        raise ValueError("diagonal metric must be strictly positive")
    return float(d) if d.ndim == 0 else d


class ProxFunction:
    """Base class for a closed proper convex function with a known prox."""

    dim = 0

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, d):
        """Minimizer of value(y) + 1/2 ||y - v||^2_diag(d)."""
        return self.prox_kernel(d)(v)

    def prox_kernel(self, d):
        """``prox`` with the metric ``d`` bound: a function ``v -> prox(v, d)``
        that returns a new array.  Binding checks the metric once (``d > 0``
        where the prox reads it) and computes the constants that depend on
        it, such as ``lam/d``; a scalar ``d`` keeps them scalars.  The solvers
        bind the x-step prox once per run."""
        raise NotImplementedError

    def conjugate_value(self, y, feas_tol=1e-8):
        raise NotImplementedError

    def conj_prox_scalar(self, v, t, idx):
        """Closed-form prox of the conjugate, coordinatewise.

        Returns argmin_z  (this function's conjugate at z) restricted to
        coordinates ``idx``, plus 1/(2 t_i) (z_i - v_i)^2.  Only kinds whose
        conjugate prox decouples per scalar coordinate support this.
        """
        return self.conj_prox_kernel(t, idx)(v)

    def conj_prox_kernel(self, t, idx=None):
        """``conj_prox_scalar`` with the step ``t`` and coordinates ``idx``
        bound: a function ``v -> conj_prox_scalar(v, t, idx)`` that returns a
        new array and leaves ``v`` as it is.  Binding gathers the
        per-coordinate constants times ``t`` once, or nothing when they are
        zero.

        With ``idx`` None the kernel acts on the whole vector: the closed form
        reads the constants as they are, with no gather.  A kind without a
        closed form binds the Moreau identity at step ``t`` instead (the bits
        of ``conj_prox_via_moreau(self, v, t)``), and raises
        UnsupportedKindError for coordinates ``idx``."""
        if idx is None:
            return _moreau_kernel(self, t)
        raise UnsupportedKindError(
            f"{type(self).__name__} has no scalar conjugate prox; "
            "use a gradient-based inner solver")

    def conj_residual(self, z, s):
        """Minimal-norm eps with -eps in  (subdifferential of conjugate at z) + s."""
        raise UnsupportedKindError(
            f"{type(self).__name__} has no closed-form conjugate subdifferential")


class Zero(ProxFunction):
    """The zero function."""

    def __init__(self, dim):
        self.dim = dim

    def value(self, x):
        return 0.0

    def prox_kernel(self, d):
        return lambda v: np.array(v, dtype=float)

    def conjugate_value(self, y, feas_tol=1e-8):
        y = np.asarray(y, dtype=float)
        return 0.0 if np.linalg.norm(y, np.inf) <= feas_tol else np.inf

    def conj_residual(self, z, s):
        # conjugate is the indicator of {0}; its subdifferential at 0 is all
        # of R^m, so the residual vanishes whenever z is (numerically) zero
        z = np.asarray(z, dtype=float)
        if np.linalg.norm(z, np.inf) > 1e-8:
            raise UnsupportedKindError("conjugate of Zero evaluated off its domain")
        return np.zeros_like(np.asarray(s, dtype=float))


class L1(ProxFunction):
    """lam * ||x - shift||_1."""

    def __init__(self, dim, lam=1.0, shift=None):
        if not lam > 0:         # NaN fails this too
            raise ValueError("lam must be positive")
        self.dim = dim
        self.lam = float(lam)
        self.shift = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float).ravel()
        self._shifted = bool(self.shift.any())

    def value(self, x):
        # abs(x - 0.0) is abs(x) bit for bit (-0.0 and NaN included), so a
        # zero shift is not subtracted; np.add.reduce is the call np.sum makes
        w = np.asarray(x, dtype=float)
        if self._shifted:
            w = w - self.shift
        return self.lam * float(np.add.reduce(np.abs(w), axis=None))

    def prox_kernel(self, d):
        shift, thr = self.shift, self.lam / _metric(d)

        def kernel(v):
            # shift + sign(w) * max(|w| - thr, 0), one temporary
            w = np.asarray(v, dtype=float) - shift
            out = np.abs(w)
            out -= thr
            np.maximum(out, 0.0, out=out)
            np.multiply(np.sign(w), out, out=out)
            return np.add(shift, out, out=out)
        return kernel

    def conjugate_value(self, y, feas_tol=1e-8):
        y = np.asarray(y, dtype=float)
        if np.max(np.abs(y)) > self.lam + feas_tol:
            return np.inf
        return float(y @ self.shift)

    def conj_prox_kernel(self, t, idx=None):
        # conjugate: <z, shift> + indicator(|z| <= lam)
        lam, ts = self.lam, _times_step(t, self.shift, idx)
        if ts is None:
            return lambda v: _clip(v, -lam, lam)

        def kernel(v):
            w = v - ts
            return _clip(w, -lam, lam, out=w)
        return kernel

    def conj_residual(self, z, s):
        z = np.asarray(z, dtype=float)
        s = np.asarray(s, dtype=float)
        c = -s - self.shift
        tol = 1e-9 * (1.0 + self.lam)
        eps = c.copy()
        at_hi = z >= self.lam - tol
        at_lo = z <= -self.lam + tol
        eps[at_hi & (c > 0)] = 0.0
        eps[at_lo & (c < 0)] = 0.0
        return eps


class GroupL12(ProxFunction):
    """lam * sum of euclidean norms over fixed coordinate groups.

    ``groups`` is the (num_groups, group_size) index array as given; the
    kernels read its member-major copy ``members`` (group_size, num_groups)
    and reduce over axis 0, which keeps each gather and reduction contiguous
    for any group layout.  When ``members`` is ``arange(dim)`` row by row
    (``contiguous``; EMD's pairs ``(i, n + i)``), the kernels work on a
    reshaped view instead, with no gather or scatter.

    ``prox_kernel(d)`` checks once that the metric is constant within each
    group (else UnsupportedMetricError) and keeps one metric value per
    group.  The kernel scales each group by ``max(0, 1 - lam / (d |v_g|))``
    with ``d |v_g|`` clamped from below at ``lam``: the clamp only turns
    factors that would be negative into 0, and a zero-norm group gets 0
    without a division by zero or a mask.
    """

    def __init__(self, dim, groups, lam=1.0):
        groups = np.asarray(groups, dtype=int)
        if groups.ndim != 2:
            raise ValueError("groups must be a (num_groups, group_size) index array")
        flat = np.sort(groups.ravel())
        if flat.size != dim or not np.array_equal(flat, np.arange(dim)):
            raise ValueError("groups must partition the coordinate set")
        if not lam > 0:         # NaN fails this too
            raise ValueError("lam must be positive")
        self.dim = dim
        self.groups = groups
        self.members = np.ascontiguousarray(groups.T)
        self.contiguous = np.array_equal(
            self.members, np.arange(dim).reshape(self.members.shape))
        self.lam = float(lam)

    def _grouped(self, x):
        """x member-major, (group_size, num_groups): a view when the layout is
        contiguous, else a gathered copy."""
        x = np.asarray(x, dtype=float)
        return x.reshape(self.members.shape) if self.contiguous else x[self.members]

    @staticmethod
    def _norms(xg):
        # np.linalg.norm(xg, axis=0) without its dispatch: the same sum of
        # squares, reduced in row order
        return np.sqrt(np.add.reduce(xg * xg, axis=0))

    def _group_norms(self, x):
        return self._norms(self._grouped(x))

    def value(self, x):
        return self.lam * float(np.sum(self._group_norms(x)))

    def prox_kernel(self, d):
        d = _metric(d)
        if np.ndim(d):
            dg = d[self.members]
            if np.max(np.abs(dg - dg[0])) > 1e-12 * (1.0 + np.max(dg)):
                raise UnsupportedMetricError(
                    "group shrinkage needs a metric constant within each group")
            d = dg[0]
        lam, members, contiguous = self.lam, self.members, self.contiguous

        def kernel(v):
            vg = self._grouped(v)
            scale = d * self._norms(vg)
            np.fmax(scale, lam, out=scale)
            np.divide(lam, scale, out=scale)
            np.subtract(1.0, scale, out=scale)
            vg = vg * scale
            if contiguous:
                return vg.reshape(-1)
            out = np.empty(vg.size)
            out[members] = vg
            return out
        return kernel

    def conjugate_value(self, y, feas_tol=1e-8):
        if np.max(self._group_norms(y), initial=0.0) > self.lam + feas_tol:
            return np.inf
        return 0.0


class BoxIndicator(ProxFunction):
    """Indicator of the box [lo, hi]^dim."""

    def __init__(self, dim, lo=0.0, hi=1.0):
        if not lo <= hi:
            raise ValueError("need lo <= hi")
        self.dim = dim
        self.lo = float(lo)
        self.hi = float(hi)

    def value(self, x, feas_tol=1e-8):
        x = np.asarray(x, dtype=float)
        ok = np.all(x >= self.lo - feas_tol) and np.all(x <= self.hi + feas_tol)
        return 0.0 if ok else np.inf

    def prox_kernel(self, d):
        lo, hi = self.lo, self.hi
        return lambda v: np.clip(np.asarray(v, dtype=float), lo, hi)

    def conjugate_value(self, y, feas_tol=1e-8):
        y = np.asarray(y, dtype=float)
        return float(np.sum(np.maximum(y * self.hi, y * self.lo)))

    def conj_residual(self, z, s):
        # conjugate is the box support function; its subdifferential is the
        # maximizing face of the box
        z = np.asarray(z, dtype=float)
        s = np.asarray(s, dtype=float)
        scale = max(abs(self.lo), abs(self.hi), 1.0)
        tol = 1e-9 * scale
        eps = np.where(z > tol, -(s + self.hi), np.where(z < -tol, -(s + self.lo), 0.0))
        zero = np.abs(z) <= tol
        lo_t, hi_t = -s[zero] - self.hi, -s[zero] - self.lo
        eps[zero] = np.where(hi_t < 0, hi_t, np.where(lo_t > 0, lo_t, 0.0))
        return eps


class LinearPlusBox(ProxFunction):
    """<c, x> plus the indicator of [lo, hi]^dim."""

    def __init__(self, dim, c, lo=0.0, hi=1.0):
        self.dim = dim
        self.c = np.asarray(c, dtype=float).ravel()
        self.lo = float(lo)
        self.hi = float(hi)

    def value(self, x, feas_tol=1e-8):
        x = np.asarray(x, dtype=float)
        ok = np.all(x >= self.lo - feas_tol) and np.all(x <= self.hi + feas_tol)
        return float(self.c @ x) if ok else np.inf

    def prox_kernel(self, d):
        cd, lo, hi = self.c / _metric(d), self.lo, self.hi

        def kernel(v):
            out = np.asarray(v, dtype=float) - cd
            return np.clip(out, lo, hi, out=out)
        return kernel

    def conjugate_value(self, y, feas_tol=1e-8):
        w = np.asarray(y, dtype=float) - self.c
        return float(np.sum(np.maximum(w * self.hi, w * self.lo)))


class PointIndicator(ProxFunction):
    """Indicator of a single point; its conjugate is linear."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float).ravel()
        self.dim = self.target.size

    def value(self, x, feas_tol=1e-8):
        x = np.asarray(x, dtype=float)
        return 0.0 if np.linalg.norm(x - self.target, np.inf) <= feas_tol else np.inf

    def prox_kernel(self, d):
        target = self.target
        return lambda v: target.copy()

    def conjugate_value(self, y, feas_tol=1e-8):
        return float(np.asarray(y, dtype=float) @ self.target)

    def conj_prox_kernel(self, t, idx=None):
        ts = _times_step(t, self.target, idx)
        if ts is None:
            return lambda v: np.array(v, dtype=float)
        return lambda v: v - ts

    def conj_residual(self, z, s):
        return -(np.asarray(s, dtype=float) + self.target)


class Quadratic(ProxFunction):
    """(weight / 2) * ||x - center||^2."""

    def __init__(self, dim, weight=1.0, center=None):
        if not weight > 0:      # NaN fails this too
            raise ValueError("weight must be positive")
        self.dim = dim
        self.weight = float(weight)
        self.center = np.zeros(dim) if center is None else np.asarray(center, dtype=float).ravel()

    def value(self, x):
        r = np.asarray(x, dtype=float) - self.center
        return 0.5 * self.weight * float(r @ r)

    def prox_kernel(self, d):
        d = _metric(d)
        wc, dw = self.weight * self.center, d + self.weight

        def kernel(v):
            # (d v + weight center) / (d + weight)
            out = d * np.asarray(v, dtype=float)
            out += wc
            out /= dw
            return out
        return kernel

    def conjugate_value(self, y, feas_tol=1e-8):
        y = np.asarray(y, dtype=float)
        return float(y @ y) / (2.0 * self.weight) + float(y @ self.center)

    def conj_prox_kernel(self, t, idx=None):
        # conjugate: ||z||^2/(2w) + <z, center>
        w, ts = self.weight, _times_step(t, self.center, idx)
        wt = w + t
        if ts is None:
            return lambda v: w * v / wt
        return lambda v: w * (v - ts) / wt

    def conj_residual(self, z, s):
        z = np.asarray(z, dtype=float)
        return -(z / self.weight + self.center + np.asarray(s, dtype=float))


class Concat(ProxFunction):
    """Sum of functions acting on consecutive coordinate slices."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.offsets = np.cumsum([0] + [p.dim for p in self.parts])
        self.dim = int(self.offsets[-1])
        # each part with its coordinate slice, fixed with the parts
        self._routes = [(p, slice(int(lo), int(hi))) for p, lo, hi in
                        zip(self.parts, self.offsets, self.offsets[1:])]

    def _slices(self):
        return self._routes

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(sum([p.value(x[sl]) for p, sl in self._routes]))

    def _by_parts(self, bind):
        """A whole-vector kernel that runs ``bind(part, sl)``, each part's
        kernel bound once, on the part's slice."""
        routes = [(sl, bind(p, sl)) for p, sl in self._slices()]
        dim = self.dim

        def kernel(v):
            v = np.asarray(v, dtype=float)
            out = np.empty(dim)
            for sl, part_kernel in routes:
                out[sl] = part_kernel(v[sl])
            return out
        return kernel

    def prox_kernel(self, d):
        d = _metric(d)
        return self._by_parts(lambda p, sl: p.prox_kernel(d[sl] if np.ndim(d) else d))

    def conjugate_value(self, y, feas_tol=1e-8):
        y = np.asarray(y, dtype=float)
        return float(sum(p.conjugate_value(y[sl], feas_tol) for p, sl in self._slices()))

    def conj_prox_kernel(self, t, idx=None):
        # the whole vector binds each part's whole-vector kernel; coordinates
        # inside one part bind that part's kernel; a spread over several
        # parts routes each part's coordinates through a fixed mask
        if idx is None:
            return self._by_parts(
                lambda p, sl: p.conj_prox_kernel(t[sl] if np.ndim(t) else t))
        idx = np.asarray(idx, dtype=int)
        routes = []
        for p, sl in self._slices():
            mask = (idx >= sl.start) & (idx < sl.stop)
            if not mask.any():
                continue
            if mask.all():
                return p.conj_prox_kernel(t, idx - sl.start)
            routes.append((mask, p.conj_prox_kernel(
                t[mask] if np.ndim(t) else t, idx[mask] - sl.start)))

        def kernel(v):
            out = np.empty(idx.size)
            for mask, part_kernel in routes:
                out[mask] = part_kernel(v[mask])
            return out
        return kernel

    def conj_residual(self, z, s):
        z = np.asarray(z, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.empty(self.dim)
        for p, sl in self._slices():
            out[sl] = p.conj_residual(z[sl], s[sl])
        return out


def _moreau_kernel(phi, t):
    """``v -> conj_prox_via_moreau(phi, v, t)``, the same bits, with phi's
    prox bound at the metric ``t`` once."""
    t = _metric(t)
    prox = phi.prox_kernel(t)

    def kernel(v):
        w = np.asarray(v, dtype=float) / t
        out = prox(w)                       # a new array
        np.subtract(w, out, out=out)
        out *= t
        return out
    return kernel


def conj_prox_via_moreau(phi, w, d):
    """prox of phi's conjugate under metric inverse(diag(d)), via Moreau.

    ``d`` is the diagonal of the metric M used on the primal side; the
    identity  x = prox^M_phi(x) + M^{-1} prox^{M^{-1}}_{phi*}(M x)  gives the
    conjugate prox without a second closed form.
    """
    w = np.asarray(w, dtype=float)
    d = _metric(d)
    return d * (w / d - phi.prox(w / d, d))


def conj_prox(phi, v, d):
    """prox of phi's conjugate under metric diag(d)."""
    d = _metric(d)
    return conj_prox_via_moreau(phi, v, 1.0 / d)
