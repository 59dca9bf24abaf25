"""Derive and certify the committed references in references.json.

    python3 perfbench/make_references.py [workload ...]

For each workload and each of the four input mirrors it records the inputs
digest and:

- on the gap-stop workloads, ``phi_star``: the smaller of two objective
  values from two different methods, which must agree within 1e-10 relative;
- on the fixed-N workloads, the objective and feasibility each method
  reaches after N outer iterations, recomputed from the inputs.

It takes a few minutes and is never part of a timed run.
"""

import json
import sys
import time

import run

AGREE_RTOL = 1e-10


def _lp_tvl1(inputs):
    """TV-L1 as a linear program, solved by HiGHS dual simplex: variables
    (x, s, e) with |x - b| <= s, |D x| <= e, minimizing sum s + sum e."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import linprog
    from pdopt.operators import Grad2D

    b = inputs.data["b"].ravel()
    n = b.size
    D = Grad2D(*inputs.shape).to_sparse().tocsr()
    m = D.shape[0]
    eye_n, eye_m = sp.identity(n, format="csr"), sp.identity(m, format="csr")
    zeros = sp.csr_matrix((n, m)), sp.csr_matrix((m, n))
    a_ub = sp.vstack([sp.hstack([eye_n, -eye_n, zeros[0]]),
                      sp.hstack([-eye_n, -eye_n, zeros[0]]),
                      sp.hstack([D, zeros[1], -eye_m]),
                      sp.hstack([-D, zeros[1], -eye_m])]).tocsr()
    b_ub = np.concatenate([b, -b, np.zeros(2 * m)])
    c = np.concatenate([np.zeros(n), np.ones(n + m)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs-ds",
                  bounds=[(None, None)] * n + [(0, None)] * (n + m))
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.x[:n]


def _solve(inst, **kw):
    from pdopt import solver
    res = solver.run(inst.problem, inst.config(log_every=10 ** 9, **kw))
    return res.state.x, res.outer_iters


def gap_reference(w, inputs):
    inst = w.build(inputs)
    if w.name.startswith("tvl1"):
        methods = {
            "HiGHS dual simplex on the LP form": lambda: (_lp_tvl1(inputs), 0),
            "iPrePDHG bcd tau=0.01 p=1, 8000 iterations": lambda: _solve(
                inst, tau=0.01, p=1, tol_residual=None, max_outer=8000),
        }
    else:
        methods = {
            "iPrePDHG bcd tau=0.1 p=2 to step residual 1e-12": lambda: _solve(
                inst, tau=0.1, p=2, tol_residual=1e-12, max_outer=400000),
            "PDHG tau=0.01 to step residual 1e-12": lambda: _solve(
                inst, algorithm="pdhg", inner=None, p=1, m1=None, m2=None,
                tau=0.01, tol_residual=1e-12, max_outer=400000),
        }
    values = {}
    for label, fn in methods.items():
        t0 = time.perf_counter()
        x, iters = fn()
        values[label] = {"obj": w.answer(inputs, x)["obj"], "iters": iters,
                         "seconds": round(time.perf_counter() - t0, 2)}
    objs = [v["obj"] for v in values.values()]
    spread = (max(objs) - min(objs)) / abs(min(objs))
    if spread > AGREE_RTOL:
        raise RuntimeError(f"{w.name}: methods disagree by {spread:.2e}: {values}")
    return {"phi_star": min(objs), "agreement": spread, "methods": values}


def fixed_n_reference(w, inputs):
    from pdopt import solver
    inst = w.build(inputs)
    cfgs = w.configs(inst, None)
    out = {}
    for m, cfg in cfgs.items():
        res = solver.run(inst.problem, cfg)
        out[m] = w.answer(inputs, res.state.x)
    return {"at_n": out}


def main(names):
    error = run.prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    try:
        with open(bench.REFERENCES) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        entry = {"fixed_n": w.fixed_n, "mirrors": {}}
        for k in range(4):
            inputs = w.make_inputs(k)
            make = gap_reference if w.fixed_n is None else fixed_n_reference
            entry["mirrors"][str(k)] = {"inputs": inputs.digest(), **make(w, inputs)}
            print(name, k, json.dumps(entry["mirrors"][str(k)]), flush=True)
        refs[name] = entry
        with open(bench.REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
