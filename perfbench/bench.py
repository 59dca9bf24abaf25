"""Measurement and report of one benchmark run (see run.py for the command)."""

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import pdopt
from pdopt import solver

import tracing
from probe import SpeedProbe
from run import THREAD_VARS
from workloads import METHODS, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
SPAN_DIR = HERE / "out"

WARM_ITERS = 30        # outer iterations of each untimed warm-up solve
SETUP_MIN = 5          # set-up repeats: at least this many ...
SETUP_MAX = 200        # ... at most this many ...
SETUP_BUDGET_S = 2.0   # ... and stop adding repeats after this much set-up time

_perf = time.perf_counter


def environment():
    """Versions, thread pins and CPU of this run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu": cpu, "nproc": os.cpu_count()}


def reference(w, inputs, seed):
    """The committed reference entry of this workload and mirror."""
    with open(REFERENCES) as fh:
        refs = json.load(fh)[w.name]
    entry = refs["mirrors"][str(seed % 4)]
    if entry["inputs"] != inputs.digest():
        raise RuntimeError(
            f"{w.name}: inputs digest {inputs.digest()} does not match the "
            f"committed reference ({entry['inputs']}); regenerate references")
    if refs.get("fixed_n") != w.fixed_n:
        raise RuntimeError(f"{w.name}: reference was made for N={refs.get('fixed_n')}")
    return entry


def setup(w, inputs, ref, tracer=None):
    """Build the instance and both configs; validate each config once."""
    if tracer is None:
        inst = w.build(inputs)
    else:
        inst = tracer.call("problems.build", w.build, inputs)
    cfgs = w.configs(inst, ref)
    for m in METHODS:
        solver.validate_config(inst.problem, cfgs[m])
    return inst, cfgs


def bcd_static(inst, cfg):
    """Sparse products, their nonzeros and plan size of one BCD epoch, read
    from ``BcdPlan.segments``: every sparse matrix held per colour block is
    applied once per epoch."""
    plan = solver.validate_config(inst.problem, cfg)["plan"]
    spmv = nnz = nbytes = 0

    def walk(obj, per_block):
        nonlocal spmv, nnz, nbytes
        if sp.issparse(obj):
            nbytes += obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
            if per_block:
                spmv += 1
                nnz += obj.nnz
        elif isinstance(obj, np.ndarray):
            nbytes += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item, per_block or isinstance(obj, list))

    for seg in plan.segments:
        walk(seg, False)
    return {"solver.bcd.spmv_per_epoch": spmv, "solver.bcd.nnz_per_epoch": nnz,
            "solver.bcd.plan_mb": nbytes / 1e6}


def setup_layers(spans):
    tot = tracing.Totals(spans)
    return {f"{name}_s": tot.time.get(name, 0.0) for name in
            ("problems.build", "precond.build", "operators.power_iter",
             "solver.bcd_plan", "solver.validate_config")}


def solve_layers(method, spans, iters, wall):
    """Per-iteration layer metrics of one traced solve."""
    tot = tracing.Totals(spans, exclude=("solver.validate_config",))
    k = max(iters, 1)

    def us(name, table=tot.time):
        return table.get(name, 0.0) / k * 1e6

    monitor = tot.time.get("monitor.phi", 0.0) + tot.time.get("monitor.feasibility", 0.0)
    out = {
        "operators.matvec.us": us("operators.matvec"),
        "operators.matvec.calls": tot.calls.get("operators.matvec", 0) / k,
        "operators.rmatvec.us": us("operators.rmatvec"),
        "operators.rmatvec.calls": tot.calls.get("operators.rmatvec", 0) / k,
        "prox.f_prox.us": us("prox.f_prox"),
        "monitor.phi.us": us("monitor.phi"),
        "monitor.us": monitor / k * 1e6,
        "monitor.share": monitor / wall,
        "solver.run.self_us": us("solver.run", tot.self_time),
    }
    if method == "pdhg":
        out["prox.conj_prox.us"] = us("prox.conj_prox")
        out["solver.pdhg_step.self_us"] = us("solver.pdhg_step", tot.self_time)
    else:
        out["solver.prepdhg_x_step.us"] = us("solver.prepdhg_x_step")
        out["solver.inner_bcd.us"] = us("solver.inner_bcd")
        out["solver.inner_bcd.self_us"] = us("solver.inner_bcd", tot.self_time)
        out["prox.conj_prox_scalar.us"] = us("prox.conj_prox_scalar")
        out["prox.conj_prox_scalar.calls"] = tot.calls.get("prox.conj_prox_scalar", 0) / k
    return {f"{name}.{method}": v for name, v in out.items()}


def traced_solve(problem, cfg, method):
    """One solve under the tracer; returns (wall, result, layers, spans).
    Every wrapped attribute is restored before returning."""
    tracer = tracing.Tracer()
    tracing.wrap_modules(tracer)
    tracing.wrap_problem(tracer, problem)
    try:
        gc.collect()
        t0 = _perf()
        res = tracer.call("solver.run", solver.run, problem, cfg)
        wall = _perf() - t0
    finally:
        tracer.restore()
    return wall, res, solve_layers(method, tracer.spans, res.outer_iters, wall), tracer.spans


def median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(w, seed, seconds, trace):
    inputs = w.make_inputs(seed)
    ref = reference(w, inputs, seed)
    probe = SpeedProbe(inputs.shape[0], *w.probe)

    # warm-up: lazy imports, first-call costs and caches, all untimed
    probe.time()
    inst, cfgs = setup(w, inputs, ref)
    for m in METHODS:
        solver.run(inst.problem, dataclasses.replace(
            cfgs[m], max_outer=WARM_ITERS, phi_star=None, tol_delta=None))

    start = _perf()   # --seconds covers the set-up repeats and the solves
    setup_s, setup_traced = [], []
    before = probe.time()
    while len(setup_s) < SETUP_MIN or (len(setup_s) < SETUP_MAX
                                       and sum(setup_s) < SETUP_BUDGET_S):
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.wrap_modules(tracer)
        gc.collect()
        t0 = _perf()
        try:
            inst, cfgs = setup(w, inputs, ref, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_s.append(_perf() - t0)
        if tracer is not None:
            setup_traced.append(setup_layers(tracer.spans))
    setup_scale = probe.scale(before, probe.time())

    problem = inst.problem
    runs = {m: [] for m in METHODS}        # (wall, scaled wall, alg time, iterations)
    traced = {m: [] for m in METHODS}      # (wall, layer metrics)
    answers = {m: None for m in METHODS}
    last_spans = {}
    attempted = failed = 0

    def account(m, res):
        nonlocal attempted, failed
        attempted += 1
        ok, ans = (False, {}) if res is None else w.check(inputs, m, res, ref)
        failed += not ok
        answers[m] = ans

    # After the first round the faster method repeats its solve about
    # sqrt(slow / fast) times per round: more samples for the short solve
    # without starving the long one.
    per_round = {m: 1 for m in METHODS}
    rnd = 0
    before = probe.time()
    while True:
        for m in (METHODS if rnd % 2 == 0 else METHODS[::-1]):
            for rep in range(per_round[m]):
                gc.collect()
                t0 = _perf()
                try:
                    res = solver.run(problem, cfgs[m])
                except Exception as exc:  # a raising solve is a failed operation
                    print(f"{w.name} {m}: solve raised {exc!r}", file=sys.stderr)
                    res = None
                wall = _perf() - t0
                after = probe.time()
                account(m, res)
                runs[m].append((wall, wall * probe.scale(before, after),
                                res.time_s if res else wall,
                                res.outer_iters if res else 0))
                before = after
                if trace and rep == 0:
                    try:
                        twall, tres, layers, spans = traced_solve(problem, cfgs[m], m)
                    except Exception as exc:
                        print(f"{w.name} {m}: traced solve raised {exc!r}", file=sys.stderr)
                        account(m, None)
                    else:
                        account(m, tres)
                        traced[m].append((twall, layers))
                        last_spans[m] = spans
                    before = probe.time()
        if rnd == 0:
            slowest = max(runs[m][0][0] for m in METHODS)
            per_round = {m: max(1, round(math.sqrt(slowest / runs[m][0][0])))
                         for m in METHODS}
        rnd += 1
        # stop when the next round, at this run's median speeds, would not fit
        next_round = sum(per_round[m] * statistics.median(r[0] for r in runs[m])
                         + (statistics.median(t[0] for t in traced[m]) if traced[m] else 0.0)
                         for m in METHODS)
        if _perf() - start + next_round > seconds:
            break

    walls = {m: statistics.median(r[0] for r in runs[m]) for m in METHODS}
    scaled = {m: statistics.median(r[1] for r in runs[m]) for m in METHODS}
    if not trace:
        metrics = {"setup_s": (statistics.median(setup_s) * setup_scale, "s")}
        for m in METHODS:
            metrics[f"solve_s.{m}"] = (scaled[m], "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        metrics = {k: (v, "s") for k, v in median_dict(setup_traced).items()}
        for k, v in bcd_static(inst, cfgs["iprepdhg"]).items():
            metrics[k] = (v, "MB" if k.endswith("_mb") else "count")
        for m in METHODS:
            if not traced[m]:
                continue
            for k, v in median_dict([t[1] for t in traced[m]]).items():
                unit = ("calls/iter" if ".calls" in k else
                        "ratio" if ".share" in k else "us")
                metrics[k] = (v, unit)
            iters = runs[m][-1][3]
            metrics[f"solver.iters.{m}"] = (iters, "count")
            metrics[f"solver.iter_us.{m}"] = (walls[m] / max(iters, 1) * 1e6, "us")
            metrics[f"solver.alg_share.{m}"] = (
                statistics.median(r[2] / r[0] for r in runs[m]), "ratio")
        metrics["trace.overhead"] = (
            sum(statistics.median(t[0] for t in traced[m]) for m in METHODS if traced[m])
            / sum(walls[m] for m in METHODS if traced[m]), "ratio")
        SPAN_DIR.mkdir(exist_ok=True)
        for m, spans in last_spans.items():
            tracing.write_spans(spans, SPAN_DIR / f"{w.name}.{m}.spans.csv")
    derived = {"ratio": scaled["iprepdhg"] / scaled["pdhg"], "walls": walls,
               "scale": statistics.median(r[1] / r[0] for m in METHODS for r in runs[m]),
               "rounds": rnd, "solves": {m: len(runs[m]) for m in METHODS},
               "setup_repeats": len(setup_s), "answers": answers}
    return metrics, attempted, failed, derived


def main(args):
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    src = Path(pdopt.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        print(f"pdopt was imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"pdopt source: {src}")
    print(f"workload {w.name}: seed {args.seed} (mirror {args.seed % 4}), "
          f"{args.seconds:g} s, trace {args.trace}")
    try:
        metrics, attempted, failed, derived = measure(
            w, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}, rounds {derived['rounds']}, "
          f"solves {derived['solves']}, set-up repeats {derived['setup_repeats']}")
    print("  raw wall medians: " + ", ".join(
        f"{m} {v:.4f} s" for m, v in derived["walls"].items())
          + f"; median speed scale {derived['scale']:.3f}")
    print(f"derived (not gated): solve_s.iprepdhg / solve_s.pdhg = {derived['ratio']:.3f}")
    for m, ans in derived["answers"].items():
        shown = ", ".join(f"{k} {v:.6g}" for k, v in (ans or {}).items())
        print(f"derived (not gated): {m} answer: {shown}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0
