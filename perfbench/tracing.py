"""Outside-in span tracing of pdopt's layers.

The tracer swaps timing wrappers in for attributes that the solver looks up
at call time (module functions, instance methods, one constructor), records
one span per call in memory and puts every attribute back on ``restore``.
No file of the program changes.

A span is ``(name, start, end, parent)``, with ``parent`` the index of the
enclosing span or -1.  Self time is a span's duration minus its direct
children's.
"""

import functools
import time

from pdopt import precond, problems, prox, solver

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _record(self, name, fn, args, kw):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = _perf()
        try:
            return fn(*args, **kw)
        finally:
            t1 = _perf()
            stack.pop()
            spans[idx] = (name, t0, t1, parent)

    def call(self, name, fn, *args, **kw):
        """Call ``fn`` inside a span of its own (for calls the benchmark makes)."""
        return self._record(name, fn, args, kw)

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a timing wrapper until ``restore``."""
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        record = self._record

        @functools.wraps(original)
        def timed(*args, **kw):
            return record(name, original, args, kw)

        setattr(owner, attr, timed)
        self._saved.append((owner, attr, own))

    def restore(self):
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


_MISSING = object()

# module attributes that run() and the builders look up at call time
MODULE_TARGETS = [
    (solver, "validate_config", "solver.validate_config"),
    (solver, "pdhg_step", "solver.pdhg_step"),
    (solver, "prepdhg_x_step", "solver.prepdhg_x_step"),
    (solver, "inner_bcd", "solver.inner_bcd"),
    (solver, "op_norm_sq_estimate", "operators.power_iter"),
    (precond, "op_norm_sq_estimate", "operators.power_iter"),
    (prox, "conj_prox", "prox.conj_prox"),
    (solver.BcdPlan, "__init__", "solver.bcd_plan"),
    (problems, "ct_block_precond", "precond.build"),
    (problems, "gram_precond", "precond.build"),
    (problems, "scaled_identity", "precond.build"),
]


def wrap_modules(tracer):
    for owner, attr, name in MODULE_TARGETS:
        tracer.wrap(owner, attr, name)


def wrap_problem(tracer, problem):
    """Wrap the instance attributes of one SaddleProblem."""
    tracer.wrap(problem.A, "matvec", "operators.matvec")
    tracer.wrap(problem.A, "rmatvec", "operators.rmatvec")
    tracer.wrap(problem.f, "prox", "prox.f_prox")
    tracer.wrap(problem.g, "conj_prox_scalar", "prox.conj_prox_scalar")
    tracer.wrap(problem, "phi", "monitor.phi")
    if problem.feasibility is not None:
        tracer.wrap(problem, "feasibility", "monitor.feasibility")


class Totals:
    """Per-name call counts, total time and self time of a span list.

    Spans under ``exclude`` (and the excluded span itself) are left out, so a
    solve's per-iteration counts do not include the power iteration that
    ``run()`` repeats inside ``validate_config``.
    """

    def __init__(self, spans, exclude=()):
        n = len(spans)
        skip = [False] * n
        child = [0.0] * n
        for i, (name, t0, t1, parent) in enumerate(spans):
            skip[i] = name in exclude or (parent >= 0 and skip[parent])
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls, self.time, self.self_time = {}, {}, {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            if skip[i]:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.time[name] = self.time.get(name, 0.0) + (t1 - t0)
            self.self_time[name] = self.self_time.get(name, 0.0) + (t1 - t0 - child[i])


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        base = spans[0][1] if spans else 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(f"{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")
