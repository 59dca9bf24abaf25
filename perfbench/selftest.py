"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks that the traced run's per-iteration call counts are exact and
repeat, that the static BCD counts agree with the operators they come from,
that tracing puts every attribute back, and that the committed references
match the inputs the workloads make.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import run

_ERROR = run.prepare()
if _ERROR:
    sys.exit(_ERROR)

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from pdopt import problems, solver  # noqa: E402
from pdopt.operators import Grad2D  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import METHODS, WORKLOADS, _impulse_noise, _smooth_image  # noqa: E402

# conj_prox_scalar calls per outer iteration: four colour blocks with p=1 on
# tvl1-*, two blocks with p=2 on emd-32, one diagonal plus four Gram blocks
# on ct-16
SCALAR_PROX_CALLS = {"tvl1-64": 4, "tvl1-256": 4, "emd-32": 4, "ct-16": 5}
SHORT = 25   # outer iterations of the short traced solves


def _short_setup(name, seed=0):
    w = WORKLOADS[name]
    inputs = w.make_inputs(seed)
    inst, cfgs = bench.setup(w, inputs, bench.reference(w, inputs, seed))
    short = {m: dataclasses.replace(c, max_outer=SHORT, phi_star=None, tol_delta=None)
             for m, c in cfgs.items()}
    return inst, short


def _counts(layers):
    return {k: v for k, v in layers.items() if ".calls." in k}


def _snapshot(problem):
    targets = [(owner, attr) for owner, attr, _ in tracing.MODULE_TARGETS]
    return ([id(getattr(owner, attr)) for owner, attr in targets],
            [{k: id(v) for k, v in vars(o).items()} for o in
             (problem, problem.A, problem.f, problem.g)])


class CallCounts(unittest.TestCase):
    def test_counts_are_exact_and_repeat(self):
        for name, want in SCALAR_PROX_CALLS.items():
            inst, cfgs = _short_setup(name)
            for m in METHODS:
                first = _counts(bench.traced_solve(inst.problem, cfgs[m], m)[2])
                second = _counts(bench.traced_solve(inst.problem, cfgs[m], m)[2])
                self.assertEqual(first, second, (name, m))
                for key, value in first.items():
                    self.assertEqual(value, round(value), (name, key))
            layers = bench.traced_solve(inst.problem, cfgs["iprepdhg"], "iprepdhg")[2]
            self.assertEqual(layers["prox.conj_prox_scalar.calls.iprepdhg"], want, name)

    def test_power_iteration_is_not_counted_per_iteration(self):
        inst, cfgs = _short_setup("tvl1-64")
        layers = bench.traced_solve(inst.problem, cfgs["pdhg"], "pdhg")[2]
        # pdhg_step does one matvec and one rmatvec, phi one more matvec
        self.assertEqual(layers["operators.matvec.calls.pdhg"], 2)
        self.assertEqual(layers["operators.rmatvec.calls.pdhg"], 1)


class StaticBcdCounts(unittest.TestCase):
    def test_counts_match_the_gram_operators(self):
        for name, gram_rows in (("tvl1-64", Grad2D(64, 64)), ("ct-16", Grad2D(16, 16))):
            inst, cfgs = _short_setup(name)
            plan = solver.validate_config(inst.problem, cfgs["iprepdhg"])["plan"]
            gram_blocks = sum(len(seg[-1]) for seg in plan.segments if seg[0] == "gram")
            got = bench.bcd_static(inst, cfgs["iprepdhg"])
            # each Gram row enters one block's forward and one block's
            # transposed product per epoch
            self.assertEqual(got["solver.bcd.spmv_per_epoch"], 2 * gram_blocks)
            self.assertEqual(got["solver.bcd.nnz_per_epoch"],
                             2 * gram_rows.to_sparse().nnz)
            self.assertGreater(got["solver.bcd.plan_mb"], 0)
        self.assertEqual(gram_blocks, 4)


class Restore(unittest.TestCase):
    def test_attributes_restored_after_traced_run(self):
        inst, cfgs = _short_setup("ct-16")
        before = _snapshot(inst.problem)
        for m in METHODS:
            bench.traced_solve(inst.problem, cfgs[m], m)
        self.assertEqual(_snapshot(inst.problem), before)

    def test_attributes_restored_when_the_solve_raises(self):
        inst, cfgs = _short_setup("emd-32")
        before = _snapshot(inst.problem)
        bad = dataclasses.replace(cfgs["pdhg"], p=0)
        with self.assertRaises(solver.ConfigError):
            bench.traced_solve(inst.problem, bad, "pdhg")
        self.assertEqual(_snapshot(inst.problem), before)

    def test_self_time_and_exclusion(self):
        spans = [("solver.run", 0.0, 10.0, -1),
                 ("solver.validate_config", 0.0, 2.0, 0),
                 ("operators.matvec", 0.5, 1.0, 1),
                 ("operators.matvec", 3.0, 4.0, 0)]
        tot = tracing.Totals(spans, exclude=("solver.validate_config",))
        self.assertEqual(tot.calls, {"solver.run": 1, "operators.matvec": 1})
        self.assertEqual(tot.self_time["solver.run"], 7.0)


class Inputs(unittest.TestCase):
    def test_noise_matches_the_acceptance_draw(self):
        clean = _smooth_image(64)
        np.testing.assert_array_equal(_impulse_noise(clean, 0.15, 11),
                                      problems.add_impulse_noise(clean, 0.15, seed=11))

    def test_references_match_every_mirror(self):
        for w in WORKLOADS.values():
            for seed in range(4):
                bench.reference(w, w.make_inputs(seed), seed)


class EndToEnd(unittest.TestCase):
    def test_runs_print_the_declared_metrics(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(WORKLOADS))
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", "emd-32",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in declared[kind]})

    def test_missing_source_is_refused(self):
        saved = run.ROOT
        run.ROOT = Path(__file__).resolve().parent / "no-such-checkout"
        try:
            self.assertIsNotNone(run.prepare())
        finally:
            run.ROOT = saved


if __name__ == "__main__":
    unittest.main()
