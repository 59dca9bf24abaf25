import ast
import csv
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdopt import cli, gridio
from pdopt.cli import (_FLOAT_KEYS, _INT_KEYS, CliError, build_problem,
                       build_solver_config, main, parse_config,
                       read_config_file)


class _Args:
    def __init__(self, config=None, overrides=()):
        self.config = config
        self.overrides = list(overrides)


@pytest.fixture
def noisy_pgm(tmp_path):
    rng = np.random.default_rng(0)
    img = np.kron(rng.integers(0, 2, (2, 2)).astype(float), np.ones((4, 4)))
    path = tmp_path / "img.pgm"
    gridio.save_pgm(str(path), img)
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing

def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = tvl1   # comment\nlam=2.0\n\ntau=0.05\n")
    cfg = parse_config(_Args(config=str(cfgfile), overrides=["lam=3.5"]))
    assert cfg == {"problem": "tvl1", "lam": 3.5, "tau": 0.05}


def test_defaults_from_problem(noisy_pgm):
    cfg = parse_config(_Args(overrides=["problem=tvl1", f"input={noisy_pgm}"]))
    inst = build_problem(cfg)
    sc = build_solver_config(inst, cfg)
    assert sc.algorithm == "iprepdhg" and sc.inner == "bcd"
    assert sc.p == 1 and sc.tau == 0.01
    assert sc.tol_residual == 1e-8


def test_pdhg_with_inner_is_rejected(noisy_pgm, tmp_path, capsys):
    code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "algorithm=pdhg", "inner=bcd"])
    assert code == 3
    assert "pdhg takes no inner iterator" in capsys.readouterr().err


def test_missing_problem_key():
    with pytest.raises(CliError) as err:
        build_problem({})
    assert "problem" in str(err.value)


def test_unknown_key_reports_line(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("problem=tvl1\nwibble=3\n")
    with pytest.raises(CliError) as err:
        read_config_file(str(cfgfile))
    assert ":2:" in str(err.value) and "wibble" in str(err.value)


def test_type_errors_are_line_precise(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("lam=abc\n")
    with pytest.raises(CliError) as err:
        read_config_file(str(cfgfile))
    assert ":1:" in str(err.value) and "float" in str(err.value)


def test_bad_override_token():
    with pytest.raises(CliError):
        parse_config(_Args(overrides=["no-equals-sign"]))


@pytest.mark.parametrize("key", ["rows=8", "cols=8", "budget_seconds=1"])
def test_keys_no_command_reads_are_unknown(noisy_pgm, tmp_path, capsys, key):
    code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "max_outer=5", key])
    assert code == 3
    assert "unknown key" in capsys.readouterr().err


def test_every_known_key_is_read():
    # a key is read when its name appears as a string constant in cli.py
    # outside the four tables that declare the keys
    tables = {"_FLOAT_KEYS", "_INT_KEYS", "_LIST_KEYS", "_STR_KEYS"}
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in tables for t in stmt.targets):
            continue
        read |= {node.value for node in ast.walk(stmt)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(cli._KNOWN_KEYS - read) == []


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--jobs", "2"], "--jobs"),    # only compare runs jobs
    (["solve", "--bogus"], "--bogus"),
    (["frobnicate"], "frobnicate"),
], ids=["jobs-outside-compare", "unknown-flag", "unknown-command"])
def test_usage_errors_are_validation_errors(noisy_pgm, tmp_path, capsys, argv,
                                            flag):
    # argparse's own exit status, 2, means not converged
    tail = ["--output", str(tmp_path), "problem=tvl1", f"input={noisy_pgm}",
            "max_outer=5"]
    assert main(argv + tail) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and flag in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == 0
    assert "--jobs" in capsys.readouterr().out


_FINITE = st.floats(allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(floats=st.dictionaries(st.sampled_from(sorted(_FLOAT_KEYS)), _FINITE),
       ints=st.dictionaries(st.sampled_from(sorted(_INT_KEYS)), st.integers()),
       lists=st.fixed_dictionaries({}, optional={
           "taus": st.lists(_FINITE, min_size=1, max_size=5),
           "ps": st.lists(st.integers(), min_size=1, max_size=5),
           "seeds": st.lists(st.integers(), min_size=1, max_size=5)}))
def test_config_file_round_trips(floats, ints, lists):
    # key=value lines, floats written with repr and lists comma-joined,
    # read back as the same values (inf, -0.0 and huge ints included)
    values = {**floats, **ints, **lists}
    lines = [f"{key}={','.join(map(repr, v)) if isinstance(v, list) else repr(v)}"
             for key, v in values.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        got = read_config_file(path)
    assert got == values
    for key, v in values.items():       # and the same types and signs
        for a, b in zip(got[key] if isinstance(v, list) else [got[key]],
                        v if isinstance(v, list) else [v]):
            assert type(a) is type(b) and repr(a) == repr(b)


# ---------------------------------------------------------------------------
# solve command

def test_solve_writes_artifacts(noisy_pgm, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["solve", "--output", out, "problem=tvl1",
                 f"input={noisy_pgm}", "noise=0.15", "lam=1.0",
                 "tol_residual=1e-9", "max_outer=50000", "prefix=t"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "status=converged" in printed and "final_delta=" in printed
    assert os.path.exists(os.path.join(out, "t_trace.csv"))
    assert os.path.exists(os.path.join(out, "t_solution.csv"))
    assert os.path.exists(os.path.join(out, "t_solution.pgm"))
    grid = gridio.load_grid_csv(os.path.join(out, "t_solution.csv"))
    assert grid.shape == (8, 8)


def test_solve_unreadable_input_is_io_error(tmp_path, capsys):
    code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                 "input=/no/such/file.pgm"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["lam=-1", "noise=2", "input={tmp}/inf.csv"])
def test_solve_bad_problem_data_is_validation_error(noisy_pgm, tmp_path, bad,
                                                    capsys):
    # a builder's ValueError is one error line and exit 3, before any
    # iteration runs; the last input= token overrides the first
    grid = gridio.load_pgm(noisy_pgm)
    grid[2, 3] = np.inf
    gridio.save_grid_csv(str(tmp_path / "inf.csv"), grid)
    code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "max_outer=100000",
                 bad.format(tmp=tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: problem tvl1: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_solve_iteration_cap_exit_code(noisy_pgm, tmp_path, capsys):
    code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "max_outer=1", "tol_residual=1e-14"])
    assert code == 2
    assert "status=not-converged" in capsys.readouterr().out


def test_solve_deterministic_without_time_stamps(noisy_pgm, tmp_path, capsys):
    argv = ["solve", "problem=tvl1", f"input={noisy_pgm}", "noise=0.15",
            "max_outer=40", "tol_residual=1e-14", "time_stamps=off",
            "prefix=d"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(argv + ["--output", out1])
    main(argv + ["--output", out2])
    capsys.readouterr()
    b1 = open(os.path.join(out1, "d_trace.csv"), "rb").read()
    b2 = open(os.path.join(out2, "d_trace.csv"), "rb").read()
    assert b1 == b2
    assert b1.startswith(b"k,obj,delta,feas,dz_norm,err_ratio,lyapunov,time_s")


def test_solve_emd_solution_shape(tmp_path, capsys):
    r0 = np.zeros((4, 4)); r0[0, 0] = 1.0
    r1 = np.zeros((4, 4)); r1[3, 3] = 1.0
    p0, p1 = str(tmp_path / "r0.csv"), str(tmp_path / "r1.csv")
    gridio.save_grid_csv(p0, r0)
    gridio.save_grid_csv(p1, r1)
    code = main(["solve", "--output", str(tmp_path), "problem=emd",
                 f"input={p0}", f"input2={p1}", "max_outer=20000",
                 "tol_residual=1e-9", "prefix=e"])
    assert code == 0
    capsys.readouterr()
    flux = gridio.load_grid_csv(os.path.join(tmp_path, "e_solution.csv"))
    assert flux.shape == (8, 4)     # two channels stacked


def test_solve_graphcut_writes_artifacts(tmp_path, capsys):
    # the foreground colour on the left, the background colour on the right
    img = np.zeros((4, 6, 3))
    img[:, :3] = (0.1, 0.2, 0.9)
    img[:, 3:] = (0.1, 0.8, 0.2)
    np.save(tmp_path / "img.npy", img)
    code = main(["solve", "--output", str(tmp_path), "problem=graphcut",
                 f"input={tmp_path / 'img.npy'}", "alpha=0.5", "beta=5",
                 "mu_f=0.1,0.2,0.9", "mu_b=0.1,0.8,0.2", "tol_residual=1e-9",
                 "max_outer=20000", "prefix=g"])
    assert code == 0
    assert "status=converged" in capsys.readouterr().out
    for name in ("g_trace.csv", "g_solution.csv", "g_solution.pgm"):
        assert (tmp_path / name).exists()
    want = np.zeros((4, 6))
    want[:, :3] = 1.0
    u = gridio.load_grid_csv(str(tmp_path / "g_solution.csv"))
    np.testing.assert_allclose(u, want, atol=1e-6)
    assert gridio.load_pgm(str(tmp_path / "g_solution.pgm")).shape == (4, 6)


def test_solve_ct_with_and_without_matrix_file(tmp_path, capsys):
    # the ray matrix saved to a coordinate file and read back with matrix=
    # is the one built from angles= and detectors=, so both solves write
    # the same bytes
    from pdopt.problems import synth_line_integral_matrix
    phantom = np.zeros((4, 4))
    phantom[1:3, 1:3] = 1.0
    gridio.save_grid_csv(str(tmp_path / "ph.csv"), phantom)
    gridio.save_coo_matrix(str(tmp_path / "R.coo"),
                           synth_line_integral_matrix(4, 4, 6, 4, seed=0))
    common = ["solve", "--output", str(tmp_path), "problem=ct",
              f"input={tmp_path / 'ph.csv'}", "tol_residual=1e-9",
              "max_outer=20000", "time_stamps=off"]
    assert main(common + ["angles=6", "detectors=4", "prefix=synth"]) == 0
    assert main(common + [f"matrix={tmp_path / 'R.coo'}", "prefix=file"]) == 0
    assert capsys.readouterr().out.count("status=converged") == 2
    for name in ("trace.csv", "solution.csv", "solution.pgm"):
        synth = (tmp_path / f"synth_{name}").read_bytes()
        assert synth == (tmp_path / f"file_{name}").read_bytes()
    assert gridio.load_grid_csv(str(tmp_path / "synth_solution.csv")).shape == (4, 4)


def test_coo_matrix_round_trip_keeps_the_bits(tmp_path):
    import scipy.sparse as sp
    mat = sp.random(7, 5, density=0.4, random_state=3, format="csr")
    mat.data[0] = 0.1 + 0.2         # a value whose repr needs 17 digits
    gridio.save_coo_matrix(str(tmp_path / "m.coo"), mat)
    back = gridio.load_coo_matrix(str(tmp_path / "m.coo"))
    assert back.shape == mat.shape
    assert (back != mat).nnz == 0
    assert np.array_equal(back.data, mat.data)


def test_solve_unknown_problem_is_validation_error(noisy_pgm, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--output", str(out), "problem=bogus",
                 f"input={noisy_pgm}"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown problem 'bogus'")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("line", ["log_every=0", "max_outer=-1",
                                  "tol_delta=1e-6", "max_seconds=nan"])
def test_solve_bad_run_control_is_validation_error(noisy_pgm, tmp_path, line,
                                                   capsys):
    # one error line and exit 3 before any iteration or artifact, also when
    # the field comes from a config file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem=tvl1\ninput={noisy_pgm}\n{line}\n")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfgfile), "--output", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert line.split("=")[0] in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_solve_emd_nan_grid_spacing_is_validation_error(tmp_path, capsys):
    r0 = np.zeros((4, 4)); r0[0, 0] = 1.0
    r1 = np.zeros((4, 4)); r1[3, 3] = 1.0
    p0, p1 = str(tmp_path / "r0.csv"), str(tmp_path / "r1.csv")
    gridio.save_grid_csv(p0, r0)
    gridio.save_grid_csv(p1, r1)
    code = main(["solve", "--output", str(tmp_path), "problem=emd",
                 f"input={p0}", f"input2={p1}", "h=nan", "max_outer=2000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# compare command

def test_compare_grid_and_best_marking(noisy_pgm, tmp_path, capsys):
    out = str(tmp_path)
    code = main(["compare", "--output", out, "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,iprepdhg_bcd",
                 "taus=0.1,0.01", "ps=1,2", "tol_residual=1e-7",
                 "max_outer=20000", "prefix=c"])
    assert code == 0
    capsys.readouterr()
    lines = open(os.path.join(out, "c_compare.csv")).read().strip().split("\n")
    assert lines[0] == ("method,params,status,outer_iters,time_s,"
                        "final_delta,best,error")
    rows = [l.split(",") for l in lines[1:]]
    # pdhg reads tau only: one row per tau; iprepdhg one per (tau, p)
    assert [(r[0], r[1]) for r in rows] == [
        ("pdhg", "algorithm=pdhg tau=0.1"),
        ("pdhg", "algorithm=pdhg tau=0.01"),
        ("iprepdhg_bcd", "algorithm=iprepdhg_bcd tau=0.1 p=1"),
        ("iprepdhg_bcd", "algorithm=iprepdhg_bcd tau=0.1 p=2"),
        ("iprepdhg_bcd", "algorithm=iprepdhg_bcd tau=0.01 p=1"),
        ("iprepdhg_bcd", "algorithm=iprepdhg_bcd tau=0.01 p=2")]
    for method in ("pdhg", "iprepdhg_bcd"):
        marked = [r for r in rows if r[0] == method and r[6] == "1"]
        assert len(marked) == 1
        assert marked[0][2] == "converged"


def test_compare_requires_two_methods(noisy_pgm, tmp_path, capsys):
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg"])
    assert code == 3


def test_compare_records_crashes_per_row(noisy_pgm, tmp_path, capsys):
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,iprepdhg_bcd",
                 "taus=-1.0,0.01", "max_outer=2000", "prefix=x"])
    assert code == 0
    capsys.readouterr()
    lines = open(os.path.join(tmp_path, "x_compare.csv")).read().strip().split("\n")
    assert len(lines) == 1 + 2 * 2
    bad = [l for l in lines[1:] if "tau=-1.0" in l]
    assert len(bad) == 2
    assert all(",error," in l for l in bad)     # negative tau recorded per row
    good = [l for l in lines[1:] if "tau=0.01" in l]
    assert all(",error," not in l for l in good)


def test_compare_records_unknown_method_per_row(noisy_pgm, tmp_path, capsys):
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,bogus", "max_outer=50",
                 "prefix=u"])
    assert code == 0
    capsys.readouterr()
    with open(tmp_path / "u_compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(r) == 8 for r in rows)
    assert rows[1][:4] == ["pdhg", "algorithm=pdhg tau=0.01", "not-converged", "50"]
    assert rows[2][:7] == ["bogus", "algorithm=bogus tau=0.01", "error",
                           "", "", "", ""]
    # the message lists the known methods, commas and all, in one field
    assert rows[2][7] == ("unknown method 'bogus'; known: pdhg, dp_pdhg, "
                          "prepdhg, iprepdhg_bcd, iprepdhg_fista, "
                          "iprepdhg_proxgrad")


@pytest.mark.filterwarnings("ignore:zero row sums")
def test_compare_diagonal_and_exact_preconditioned_rows(noisy_pgm, tmp_path,
                                                         capsys):
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=dp_pdhg,prepdhg",
                 "taus=0.1,0.01", "tol_residual=1e-7", "max_outer=20000",
                 "prefix=e"])
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "e_compare.csv").read_text().strip().split("\n")
    rows = [l.split(",") for l in lines[1:]]
    # pock_diagonal's metrics take no tau: one dp_pdhg row
    assert [(r[0], r[1]) for r in rows] == [
        ("dp_pdhg", "algorithm=dp_pdhg"),
        ("prepdhg", "algorithm=prepdhg tau=0.1"),
        ("prepdhg", "algorithm=prepdhg tau=0.01")]
    assert all(r[2] == "converged" and r[7] == "" for r in rows)
    for method in ("dp_pdhg", "prepdhg"):
        assert sum(r[6] == "1" for r in rows if r[0] == method) == 1


def test_compare_ct_rows_use_the_recommended_block_preconditioner(tmp_path,
                                                                 capsys):
    # ct recommends ct_block_precond's metrics; iprepdhg_bcd sweeps them,
    # where Gram(tau A A^T) over the stacked operator has no block ordering
    phantom = np.zeros((8, 8))
    phantom[2:6, 2:6] = 1.0
    gridio.save_grid_csv(str(tmp_path / "ph.csv"), phantom)
    code = main(["compare", "--output", str(tmp_path), "problem=ct",
                 f"input={tmp_path / 'ph.csv'}", "angles=6", "detectors=8",
                 "methods=pdhg,iprepdhg_bcd", "tol_residual=1e-7",
                 "max_outer=20000", "prefix=ct"])
    assert code == 0
    capsys.readouterr()
    with open(tmp_path / "ct_compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["pdhg", "iprepdhg_bcd"]
    assert all(r["status"] == "converged" and r["error"] == "" for r in rows)


def test_compare_ct_rows_build_the_block_preconditioner_at_their_tau(tmp_path,
                                                                    capsys):
    phantom = np.zeros((8, 8))
    phantom[2:6, 2:6] = 1.0
    gridio.save_grid_csv(str(tmp_path / "ph.csv"), phantom)
    code = main(["compare", "--output", str(tmp_path), "problem=ct",
                 f"input={tmp_path / 'ph.csv'}", "angles=6", "detectors=8",
                 "methods=pdhg,iprepdhg_bcd", "taus=1.0,0.1",
                 "tol_residual=1e-7", "max_outer=20000", "prefix=cttau"])
    assert code == 0
    capsys.readouterr()
    with open(tmp_path / "cttau_compare.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["method"] == "iprepdhg_bcd"]
    assert [r["params"] for r in rows] == [
        "algorithm=iprepdhg_bcd tau=1.0 p=1", "algorithm=iprepdhg_bcd tau=0.1 p=1"]
    assert all(r["status"] == "converged" for r in rows)
    assert rows[0]["outer_iters"] != rows[1]["outer_iters"]


@pytest.mark.parametrize("bad", ["taus=abc", "ps=1.5", "taus=0.1,,0.2"])
def test_compare_malformed_list_is_validation_error(noisy_pgm, tmp_path,
                                                    capsys, bad):
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,iprepdhg_bcd",
                 "max_outer=5", bad])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        f"error: command line: key '{bad.split('=')[0]}' expects a comma-separated")


def test_compare_unwritable_csv_is_io_error(noisy_pgm, tmp_path, monkeypatch,
                                           capsys):
    from pdopt import solver
    calls = []
    solve = solver.run

    def counting(*args, **kw):
        calls.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(solver, "run", counting)
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,iprepdhg_bcd",
                 "max_outer=5", "prefix=nodir/x"])
    assert code == 4
    assert "cannot write" in capsys.readouterr().err
    assert calls == []          # the path fails before any solve runs


def test_compare_validates_each_row_once(noisy_pgm, tmp_path, monkeypatch,
                                         capsys):
    from pdopt import solver
    calls = []
    validate = solver.validate_config

    def counting(problem, config):
        calls.append(config.algorithm)
        return validate(problem, config)

    monkeypatch.setattr(solver, "validate_config", counting)
    code = main(["compare", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "methods=pdhg,iprepdhg_bcd",
                 "taus=0.1,0.01", "max_outer=20", "prefix=v"])
    assert code == 0
    capsys.readouterr()
    assert sorted(calls) == ["iprepdhg"] * 2 + ["pdhg"] * 2


def test_solve_validates_once(noisy_pgm, tmp_path, monkeypatch, capsys):
    from pdopt import solver
    calls = []
    validate = solver.validate_config

    def counting(problem, config):
        calls.append(config.algorithm)
        return validate(problem, config)

    monkeypatch.setattr(solver, "validate_config", counting)
    for algorithm in ("iprepdhg", "pdhg"):
        calls.clear()
        code = main(["solve", "--output", str(tmp_path), "problem=tvl1",
                     f"input={noisy_pgm}", f"algorithm={algorithm}",
                     "max_outer=5", "prefix=once"])
        assert code in (0, 2)
        capsys.readouterr()
        assert calls == [algorithm]


def test_compare_jobs_flag_then_config_file_then_one(noisy_pgm, tmp_path,
                                                    monkeypatch, capsys):
    from pdopt import cli
    pools = []

    class RecordingPool(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    cfgfile = tmp_path / "run.cfg"
    body = (f"problem=tvl1\ninput={noisy_pgm}\nmethods=pdhg,iprepdhg_bcd\n"
            "max_outer=20\n")
    cfgfile.write_text(body + "jobs=2\n")
    head = ["compare", "--config", str(cfgfile), "--output", str(tmp_path)]
    assert main(head) == 0
    assert pools == [2]                     # from the config file
    assert main(head + ["--jobs", "1"]) == 0
    assert pools == [2]                     # the flag wins
    assert main(head + ["--jobs", "3"]) == 0
    assert pools == [2, 3]
    cfgfile.write_text(body)
    assert main(head) == 0
    assert pools == [2, 3]                  # neither given: one job
    capsys.readouterr()


# ---------------------------------------------------------------------------
# validate + oracle commands

def test_validate_single_suite(capsys):
    code = main(["validate", "--suite", "moreau", "seeds=1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS moreau margin=")


def test_validate_unknown_suite(capsys):
    assert main(["validate", "--suite", "bogus"]) == 3


def test_validate_malformed_seeds_is_validation_error(capsys):
    assert main(["validate", "--suite", "moreau", "seeds=1,x"]) == 3
    assert capsys.readouterr().err.startswith(
        "error: command line: key 'seeds' expects a comma-separated list of int")


def test_validate_all_suites(capsys):
    code = main(["validate", "seeds=1"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 7
    assert all(line.startswith("PASS ") for line in out)


def test_oracle_command(noisy_pgm, tmp_path, capsys):
    code = main(["oracle", "--output", str(tmp_path), "problem=tvl1",
                 f"input={noisy_pgm}", "tol=1e-10", "prefix=o"])
    assert code == 0
    out = capsys.readouterr().out
    assert "phi_star=" in out and "certified=True" in out
    assert os.path.exists(os.path.join(tmp_path, "o_oracle_solution.csv"))


def test_oracle_past_the_desk_scale_guard_is_validation_error(tmp_path, capsys):
    # a 90x90 TV-L1 has m + n = 24300 > 20000: reference_solve refuses it
    path = str(tmp_path / "big.csv")
    gridio.save_grid_csv(path, np.random.default_rng(5).random((90, 90)))
    code = main(["oracle", "--output", str(tmp_path), "problem=tvl1",
                 f"input={path}"])
    assert code == 3
    assert "desk-scale only (m+n=24300 > 20000)" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "tvl1_oracle_solution.csv"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_diverged_exit_code(tmp_path, capsys):
    blob = np.exp(-np.arange(8.0) ** 2 / 6.0)
    p0, p1 = str(tmp_path / "r0.csv"), str(tmp_path / "r1.csv")
    gridio.save_grid_csv(p0, np.outer(blob, blob))
    gridio.save_grid_csv(p1, np.outer(blob[::-1], blob))
    code = main(["solve", "--output", str(tmp_path), "problem=emd",
                 f"input={p0}", f"input2={p1}", "algorithm=iprepdhg",
                 "inner=proxgrad", "gamma=1000", "max_outer=3000"])
    assert code == 5
    out = capsys.readouterr().out
    assert "status=diverged" in out
    assert int(out.split("outer_iters=")[1].split()[0]) < 100
