"""Command-line front end: single runs, comparisons, validation suites, oracle runs.

Configuration is flat key=value, either in a file (one pair per line, `#`
comments) or as command-line tokens; command-line tokens override the file.
Exit statuses: 0 success, 2 not converged, 3 validation failure or usage
error, 4 I/O error, 5 diverged (``solve`` stopped at a non-finite iterate).
"""

import argparse
import csv
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import gridio, precond, problems, prox, solver
from .operators import Div2D, Grad2D, SparseOp, WeightedGrad2D

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_DIVERGED = 5


class CliError(Exception):
    def __init__(self, message, exit_code=EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


_FLOAT_KEYS = {"lam", "alpha", "beta", "tau", "sigma", "gamma", "h", "noise",
               "tol_delta", "tol_residual", "max_seconds", "phi_star", "tol"}
_INT_KEYS = {"p", "max_outer", "seed", "log_every", "angles", "detectors",
             "jobs"}
_LIST_KEYS = {"taus": float, "ps": int, "seeds": int}      # comma-separated
_STR_KEYS = {"problem", "input", "input2", "matrix", "data", "output",
             "prefix", "algorithm", "inner", "variant", "suite", "methods",
             "time_stamps", "mu_f", "mu_b"}
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | set(_LIST_KEYS)

# the keys each command reads; any other is an unknown key (exit 3).  The
# problem's keys come with the two that place its artifacts
_PROBLEM_KEYS = {"problem", "input", "input2", "matrix", "data", "noise",
                 "seed", "lam", "alpha", "beta", "mu_f", "mu_b", "h",
                 "angles", "detectors", "variant", "tau", "output", "prefix"}
_STOP_KEYS = ("phi_star", "tol_delta", "tol_residual", "max_outer",
              "max_seconds", "log_every")
_COMMAND_KEYS = {
    "solve": _PROBLEM_KEYS | set(_STOP_KEYS) | {"algorithm", "sigma", "inner",
                                                "gamma", "p", "time_stamps"},
    "compare": _PROBLEM_KEYS | set(_STOP_KEYS) | {"methods", "taus", "ps", "p",
                                                  "jobs"},
    "validate": {"suite", "seeds"},
    "oracle": _PROBLEM_KEYS | {"tol"},
}


def _convert(key, raw, where):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            return [_LIST_KEYS[key](t) for t in raw.split(",")]
        return raw
    except ValueError:
        kind = ("float" if key in _FLOAT_KEYS else "int" if key in _INT_KEYS
                else f"comma-separated list of {_LIST_KEYS[key].__name__}")
        raise CliError(f"{where}: key '{key}' expects a {kind}, got {raw!r}")


def read_config_file(path, known=_KNOWN_KEYS):
    """The key=value pairs of the file ``path``; a key outside ``known`` is
    an unknown key."""
    pairs = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", EXIT_IO)
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, raw = (t.strip() for t in stripped.split("=", 1))
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        pairs[key] = _convert(key, raw, f"{path}:{lineno}")
    return pairs


def parse_config(args):
    """Merge config file pairs with command-line overrides.  Each command
    (``args.command``) accepts only the keys it reads."""
    known = _COMMAND_KEYS.get(getattr(args, "command", None), _KNOWN_KEYS)
    cfg = {}
    if args.config:
        cfg.update(read_config_file(args.config, known))
    for token in args.overrides:
        if "=" not in token:
            raise CliError(f"command line: expected key=value, got {token!r}")
        key, raw = (t.strip() for t in token.split("=", 1))
        if key not in known:
            raise CliError(f"command line: unknown key {key!r}")
        cfg[key] = _convert(key, raw, "command line")
    return cfg


def _load_grid(path):
    try:
        if path.endswith(".pgm"):
            return gridio.load_pgm(path)
        if path.endswith(".npy"):
            return np.load(path)
        return gridio.load_grid_csv(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {path}: {exc}", EXIT_IO)


def _require(cfg, key):
    if key not in cfg:
        raise CliError(f"missing required key {key!r}")
    return cfg[key]


def build_problem(cfg):
    """The ProblemInstance ``cfg`` describes; a builder's rejection of its
    parameters or data (a ValueError) is a CliError."""
    name = _require(cfg, "problem")
    try:
        return _build_problem(name, cfg)
    except ValueError as exc:
        raise CliError(f"problem {name}: {exc}") from None


def _build_problem(name, cfg):
    if name == "tvl1":
        grid = _load_grid(_require(cfg, "input"))
        if "noise" in cfg:
            grid = problems.add_impulse_noise(grid, cfg["noise"],
                                              cfg.get("seed", 0))
        return problems.tvl1(grid, cfg.get("lam", 1.0))
    if name == "graphcut":
        img = _load_grid(_require(cfg, "input"))
        if img.ndim == 2:
            if img.shape[1] % 3:
                raise CliError("graphcut needs RGB data: (M, N, 3) array or "
                               "a CSV of shape (M, 3N)")
            img = img.reshape(img.shape[0], img.shape[1] // 3, 3)
        kw = {k: cfg[k] for k in ("alpha", "beta") if k in cfg}
        for k in ("mu_f", "mu_b"):
            if k in cfg:
                kw[k] = tuple(float(t) for t in cfg[k].split(","))
        return problems.graphcut(img, **kw)
    if name == "emd":
        rho0 = _load_grid(_require(cfg, "input"))
        rho1 = _load_grid(_require(cfg, "input2"))
        return problems.emd(rho0, rho1, cfg.get("h"))
    if name == "ct":
        phantom = _load_grid(_require(cfg, "input"))
        rows, cols = phantom.shape
        if "matrix" in cfg:
            try:
                mat = gridio.load_coo_matrix(cfg["matrix"])
            except (OSError, ValueError) as exc:
                raise CliError(f"cannot load {cfg['matrix']}: {exc}", EXIT_IO)
        else:
            mat = problems.synth_line_integral_matrix(
                rows, cols, cfg.get("angles", 36), cfg.get("detectors", rows),
                cfg.get("seed", 0))
        R = SparseOp(mat)
        if "data" in cfg:
            b = _load_grid(cfg["data"]).ravel()
        else:
            b = R.matvec(phantom.ravel())
        return problems.ct(R, b, cfg.get("lam", 0.1), rows, cols,
                           precond_variant=cfg.get("variant", "norm"),
                           tau=cfg.get("tau", 0.01))
    raise CliError(f"unknown problem {name!r}")


def _stop_rules(cfg):
    """The stop-rule and logging keys of ``cfg``; tol_residual=1e-8 by default."""
    rules = {k: cfg[k] for k in _STOP_KEYS if k in cfg}
    if "tol_delta" not in rules and "tol_residual" not in rules:
        rules["tol_residual"] = 1e-8
    return rules


def build_solver_config(instance, cfg):
    """The SolverConfig of a solve from the config keys.  ``cmd_solve``
    validates it against the problem once and hands what that resolves to
    ``solver.run``; a ValueError from either step is a CliError."""
    overrides = {k: cfg[k] for k in ("algorithm", "tau", "sigma", "inner",
                                     "gamma", "p") if k in cfg}
    return instance.config(**overrides, **_stop_rules(cfg))


def _output_dir(cfg, args):
    out = (getattr(args, "output", None) or cfg.get("output")
           or os.environ.get("PDOPT_OUTPUT_DIR") or ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}", EXIT_IO)
    return out


def _write_solution(instance, x, outdir, prefix):
    rows, cols = instance.shape
    flux = instance.name == "emd"       # two channels, stacked
    grid = x.reshape(2 * rows if flux else rows, cols)
    gridio.save_grid_csv(os.path.join(outdir, f"{prefix}_solution.csv"), grid)
    if not flux:
        gridio.save_pgm(os.path.join(outdir, f"{prefix}_solution.pgm"), grid)


def cmd_solve(args):
    cfg = parse_config(args)
    instance = build_problem(cfg)
    try:
        sc = build_solver_config(instance, cfg)
        resolved = solver.validate_config(instance.problem, sc)
    except ValueError as exc:
        raise CliError(str(exc))
    outdir = _output_dir(cfg, args)
    prefix = cfg.get("prefix", instance.name)
    res = solver.run(instance.problem, sc, resolved)
    omit_time = cfg.get("time_stamps", "on") == "off"
    try:
        res.trace.to_csv(os.path.join(outdir, f"{prefix}_trace.csv"),
                         omit_time=omit_time)
        _write_solution(instance, res.state.x, outdir, prefix)
    except OSError as exc:
        raise CliError(f"cannot write artifacts: {exc}", EXIT_IO)
    delta = "" if res.final_delta is None else format(res.final_delta, ".6e")
    print(f"status={res.status} outer_iters={res.outer_iters} "
          f"time_s={res.time_s:.4f} final_delta={delta}")
    return {"converged": EXIT_OK, "diverged": EXIT_DIVERGED}.get(
        res.status, EXIT_NOT_CONVERGED)


# ---------------------------------------------------------------------------
# compare

_INNER = {"iprepdhg_bcd": "bcd", "iprepdhg_fista": "fista_restart",
          "iprepdhg_proxgrad": "proxgrad"}
_METHODS = ("pdhg", "dp_pdhg", "prepdhg", *_INNER)


def _method_grid(method, taus, ps):
    """The ``(tau, p)`` of each row ``method`` runs: one row per value of
    the parameters it reads, None for one it does not read.  An unknown
    method gets one row, at the first tau, which records its error."""
    if method == "dp_pdhg":         # pock_diagonal's metrics take no tau
        return [(None, None)]
    if method not in _METHODS:
        return [(taus[0], None)]
    if method in _INNER:
        return list(itertools.product(taus, ps))
    return [(tau, None) for tau in taus]


def _method_config(instance, method, tau, p, cfg):
    common = _stop_rules(cfg)
    if method == "pdhg":
        return instance.config(algorithm="pdhg", tau=tau, **common)
    if method == "dp_pdhg":
        m1, m2 = precond.pock_diagonal(instance.problem.A)
        return instance.config(algorithm="prepdhg_exact", inner=None, p=1,
                               m1=m1, m2=m2, **common)
    if method == "prepdhg":
        kw = {"algorithm": "prepdhg_exact", "inner": None, "p": 1}
    elif method in _INNER:
        kw = {"algorithm": "iprepdhg", "inner": _INNER[method], "p": p}
    else:
        raise CliError(f"unknown method {method!r}; known: {', '.join(_METHODS)}")
    if instance.name == "ct":
        # the recommended block preconditioner, built at this row's tau
        A = instance.problem.A
        rows, cols = instance.shape
        kw["m1"], kw["m2"] = precond.ct_block_precond(
            A.ops[0], rows, cols, tau, variant=cfg.get("variant", "norm"),
            grad=A.ops[1])
    return instance.config(tau=tau, **kw, **common)


def _param_string(method, tau, p):
    s = f"algorithm={method}"
    if tau is not None:
        s += f" tau={tau}"
    if p is not None:
        s += f" p={p}"
    return s


def cmd_compare(args):
    cfg = parse_config(args)
    instance = build_problem(cfg)
    methods = [m.strip() for m in _require(cfg, "methods").split(",") if m.strip()]
    if len(methods) < 2:
        raise CliError("compare needs at least 2 methods")
    taus = cfg.get("taus", [cfg.get("tau", 0.01)])
    ps = cfg.get("ps", [cfg.get("p", 1)])
    outdir = _output_dir(cfg, args)
    prefix = cfg.get("prefix", instance.name)

    jobs = [(method, tau, p) for method in methods
            for tau, p in _method_grid(method, taus, ps)]

    def run_one(job):
        method, tau, p = job
        try:
            sc = _method_config(instance, method, tau, p, cfg)
            res = solver.run(instance.problem, sc)    # validates the config
            return {"method": method, "params": _param_string(method, tau, p),
                    "status": res.status, "outer_iters": res.outer_iters,
                    "time_s": res.time_s, "final_delta": res.final_delta,
                    "error": ""}
        except Exception as exc:  # record per-row, keep comparing
            return {"method": method, "params": _param_string(method, tau, p),
                    "status": "error", "outer_iters": "", "time_s": "",
                    "final_delta": "", "error": str(exc)}

    # precedence: the --jobs flag, then the config file, then 1
    n_jobs = max(1, args.jobs if args.jobs is not None else cfg.get("jobs", 1))
    path = os.path.join(outdir, f"{prefix}_compare.csv")
    try:
        # opened before any job runs, so a bad path fails fast; run_one
        # records every job's own error, so an OSError here is the file's
        with open(path, "w", newline="") as fh:
            if n_jobs > 1:
                with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                    rows = list(pool.map(run_one, jobs))
            else:
                rows = [run_one(j) for j in jobs]

            best = {}
            for i, r in enumerate(rows):
                if r["status"] == "converged":
                    if (r["method"] not in best
                            or r["time_s"] < rows[best[r["method"]]]["time_s"]):
                        best[r["method"]] = i
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["method", "params", "status", "outer_iters", "time_s",
                          "final_delta", "best", "error"])
            for i, r in enumerate(rows):
                t = "" if r["time_s"] == "" else format(r["time_s"], ".6f")
                d = ("" if r["final_delta"] in ("", None)
                     else format(r["final_delta"], ".6e"))
                mark = "1" if best.get(r["method"]) == i else ""
                out.writerow([r["method"], r["params"], r["status"],
                              r["outer_iters"], t, d, mark, r["error"]])
    except OSError as exc:
        raise CliError(f"cannot write artifacts: {exc}", EXIT_IO)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suites

def _suite_moreau(seeds):
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = 13
        d = rng.uniform(0.2, 3.0, n)
        v = rng.standard_normal(n) * 3
        lam = 1.3
        got = prox.conj_prox(prox.L1(n, lam=lam), v, d)
        worst = max(worst, float(np.max(np.abs(got - np.clip(v, -lam, lam)))))
        w = 0.7
        c = rng.standard_normal(n)
        got = prox.conj_prox(prox.Quadratic(n, weight=w, center=c), v, d)
        expect = (d * v - c) / (1.0 / w + d)
        worst = max(worst, float(np.max(np.abs(got - expect))))
        t = rng.standard_normal(n)
        got = prox.conj_prox(prox.PointIndicator(t), v, d)
        worst = max(worst, float(np.max(np.abs(got - (v - t / d)))))
    return worst, worst <= 1e-12


def _suite_adjoint(seeds):
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for rows, cols in ((3, 5), (8, 8), (16, 12)):
            for op in (Grad2D(rows, cols, 0.7), Div2D(rows, cols, 1.3),
                       WeightedGrad2D(rows, cols,
                                      rng.uniform(0.5, 2, 2 * rows * cols))):
                x = rng.standard_normal(op.shape[1])
                z = rng.standard_normal(op.shape[0])
                lhs = float(op.matvec(x) @ z)
                rhs = float(x @ op.rmatvec(z))
                worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    return worst, worst <= 1e-12


def _suite_schur(seeds):
    A = Grad2D(8, 8)
    m1 = precond.scaled_identity(0.1, 64)
    m2 = precond.gram_precond(A, 0.1)
    ok, eig = precond.validate_schur(m1, m2, A)
    # a deliberately broken pair must be detected
    bad_a = SparseOp(2.0 * np.eye(4))
    bad_ok, _ = precond.validate_schur(precond.scaled_identity(1.0, 4),
                                       precond.Diagonal(np.ones(4)), bad_a)
    return eig, ok and not bad_ok


def _toy_instance(seed):
    rng = np.random.default_rng(seed)
    b = rng.random((8, 8))
    return problems.tvl1(b, lam=1.0)


def _suite_ergodic(seeds):
    worst = -np.inf
    ok = True
    for seed in seeds:
        inst = _toy_instance(seed)
        prob = inst.problem
        ref = problems.reference_solve(inst, tol=1e-11)
        m, n = prob.dims
        x0, z0 = np.zeros(n), np.zeros(m)
        # gap of the N-averaged point against the reference saddle point
        for N in (1, 10, 100):
            sc_n = inst.config(max_outer=N, tol_residual=None)
            r = solver.run(prob, sc_n)
            xa, za = r.state.x_avg, r.state.z_avg
            gap = (solver.saddle_value(prob, xa, ref.z)
                   - solver.saddle_value(prob, ref.x, za))
            bound = solver.ergodic_gap_bound(x0, z0, ref.x, ref.z,
                                             sc_n.m1, sc_n.m2, prob.A, N)
            worst = max(worst, gap - bound)
            ok = ok and gap <= bound + 1e-9
    return worst, ok


def _suite_relative_error(seeds):
    worst = 0.0
    ok = True
    for seed in seeds:
        inst = _toy_instance(seed)
        prob = inst.problem
        tau = 0.1
        m, n = prob.dims
        m2 = precond.gram_precond(prob.A, tau, ridge=0.1)
        spec = precond.metric_spectrum(m2)
        lam_min, lam_max = spec[0], spec[2]
        gamma = lam_min / lam_max ** 2
        for p in (1, 2):
            c = solver.c_proxgrad(gamma, lam_min, lam_max, p)
            sc = inst.config(algorithm="iprepdhg", inner="proxgrad", p=p,
                             tau=tau, gamma=gamma, m2=m2, max_outer=50,
                             tol_residual=None, monitor_err_ratio=True)
            res = solver.run(prob, sc)
            ratios = [r["err_ratio"] for r in res.trace.records
                      if r["err_ratio"] is not None
                      and np.isfinite(r["err_ratio"])]
            if ratios:
                worst = max(worst, max(ratios) / c)
                ok = ok and max(ratios) <= c * (1 + 1e-9)
    return worst, ok


def _suite_lyapunov(seeds):
    ok = True
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n, m = 12, 10
        A = SparseOp(rng.standard_normal((m, n)))
        mu = 20.0
        f = prox.Quadratic(n, weight=mu, center=rng.standard_normal(n))
        g = prox.Quadratic(m, weight=1.0, center=rng.standard_normal(m))
        prob = solver.SaddleProblem(f=f, g=g, A=A, mu_f=mu)
        tau = 1.0
        sc = solver.SolverConfig(algorithm="iprepdhg", inner="proxgrad", p=3,
                                 tau=tau,
                                 m2=precond.gram_precond(A, tau, ridge=0.5),
                                 max_outer=200, monitor_lyapunov=True,
                                 tol_residual=None)
        res = solver.run(prob, sc)
        vals = [r["lyapunov"] for r in res.trace.records
                if r["lyapunov"] is not None]
        diffs = np.diff(vals[2:])
        if diffs.size:
            worst = max(worst, float(diffs.max()))
            ok = ok and diffs.max() <= 1e-8
    return worst, ok


def _suite_admm(seeds):
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n, m = 4, 6
        A = SparseOp(rng.standard_normal((m, n)))
        f = prox.Quadratic(n, weight=2.0, center=rng.standard_normal(n))
        g = prox.Quadratic(m, weight=1.5, center=rng.standard_normal(m))
        prob = solver.SaddleProblem(f=f, g=g, A=A)
        tau = 0.3
        m1 = precond.scaled_identity(tau, n)
        m2 = precond.gram_precond(A, tau)
        x = np.zeros(n)
        z = np.zeros(m)
        x_prev = x.copy()
        # one transformed-state comparison per outer iteration
        for k in range(20):
            x_new = solver.prepdhg_x_step(x, z, prob, m1)
            q = A.matvec(2.0 * x_new - x)
            sub = solver.ZSubproblem(z, q, m2, g)
            z_new = solver.solve_subproblem_exact(sub, tol=1e-13)
            if k >= 1:
                y, u = solver.dual_transform(x, x_prev, z_prev, m1, A)
                v = tau * u
                za, ya, va = solver.admm_dual_step(z_prev, y, v, tau, prob)
                y2, u2 = solver.dual_transform(x_new, x, z, m1, A)
                worst = max(worst, float(np.linalg.norm(za - z)),
                            float(np.linalg.norm(ya - y2)),
                            float(np.linalg.norm(va - tau * u2)))
            x_prev, z_prev = x, z
            x, z = x_new, z_new
    return worst, worst <= 1e-8


_SUITES = {"moreau": _suite_moreau, "adjoint": _suite_adjoint,
           "schur": _suite_schur, "ergodic": _suite_ergodic,
           "relative-error": _suite_relative_error,
           "lyapunov": _suite_lyapunov, "admm": _suite_admm}


def cmd_validate(args):
    cfg = parse_config(args)
    sel = cfg.get("suite", args.suite)
    names = list(_SUITES) if sel in (None, "all") else [sel]
    for nm in names:
        if nm not in _SUITES:
            raise CliError(f"unknown suite {nm!r}; known: {', '.join(_SUITES)}")
    seeds = cfg.get("seeds", [1, 2, 3, 4, 5])
    failed = False
    for nm in names:
        margin, ok = _SUITES[nm](seeds)
        print(f"{'PASS' if ok else 'FAIL'} {nm} margin={margin:.3e}")
        failed = failed or not ok
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_oracle(args):
    cfg = parse_config(args)
    instance = build_problem(cfg)
    try:
        ref = problems.reference_solve(instance, tol=cfg.get("tol", 1e-10))
    except ValueError as exc:
        raise CliError(f"oracle: {exc}") from None
    outdir = _output_dir(cfg, args)
    prefix = cfg.get("prefix", instance.name)
    try:
        _write_solution(instance, ref.x, outdir, f"{prefix}_oracle")
    except OSError as exc:
        raise CliError(f"cannot write artifacts: {exc}", EXIT_IO)
    print(f"phi_star={ref.phi_star:.12e} certificate={ref.certificate:.6e} "
          f"certified={ref.certified} iters={ref.iters}")
    return EXIT_OK if ref.certified else EXIT_NOT_CONVERGED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are CliErrors (exit 3), where
    argparse would exit 2, the not-converged status."""

    def error(self, message):
        raise CliError(message)


def main(argv=None):
    handlers = {"solve": cmd_solve, "compare": cmd_compare,
                "validate": cmd_validate, "oracle": cmd_oracle}
    parser = _Parser(prog="pdopt")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in handlers:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--output", default=None)
        if name == "compare":
            p.add_argument("--jobs", type=int, default=None)
        if name == "validate":
            p.add_argument("--suite", default="all")
        p.add_argument("overrides", nargs="*")
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
