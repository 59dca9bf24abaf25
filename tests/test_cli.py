import os

import numpy as np
import pytest

from pdopt import gridio
from pdopt.cli import (CliError, build_problem, build_solver_config, main,
                       parse_config, read_config_file)


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


def test_pdhg_with_inner_is_rejected(noisy_pgm):
    cfg = parse_config(_Args(overrides=["problem=tvl1", f"input={noisy_pgm}",
                                        "algorithm=pdhg", "inner=bcd"]))
    inst = build_problem(cfg)
    with pytest.raises(CliError) as err:
        build_solver_config(inst, cfg)
    assert err.value.exit_code == 3


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
    assert len(lines) == 1 + 2 * 4          # full tau x p grid per method
    rows = [l.split(",") for l in lines[1:]]
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
