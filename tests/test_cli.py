import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from su11squeeze import cli, config, discretize, evolution, evolve, kernels, oracle
from su11squeeze.config import FORMATS, ExperimentConfig, build_config, config_layers
from su11squeeze.profiles import PROFILES


def read_csv(path):
    comments = []
    with open(path, newline="") as fh:
        rows = [line for line in fh]
    data_lines = []
    for line in rows:
        if line.startswith("#"):
            comments.append(line.strip())
        else:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    header, body = parsed[0], parsed[1:]
    return header, body, comments


def simulate_in_subprocess(argv, tmp_path):
    """``simulate`` in a fresh interpreter, so numpy's warnings reach its stderr."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run([sys.executable, "-m", "su11squeeze.cli", "simulate", *argv,
                           "--output", str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})


def constant_config_with(line):
    """A short constant-profile config file whose last line is ``line``; no key is set twice."""
    key = line.partition("=")[0].strip()
    base = [f"{k} = {v}" for k, v in (("profile", "constant"), ("t_final", 1), ("n_steps", 10)) if k != key]
    return "\n".join([*base, line, ""])


ORACLE_RUN = ["simulate", "--preset", "fig4", "--t-final", "1", "--n-steps", "1000", "--oracle-check"]


class TestSimulate:
    def test_constant_profile_yields_zero_squeezing(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        code = cli.main(["simulate", "--profile", "constant", "--t-final", "5",
                         "--n-steps", "500", "--output", str(out)])
        assert code == 0
        header, body, _ = read_csv(out)
        assert header == list(cli.BASE_COLUMNS)
        r_col = header.index("r")
        assert all(float(row[r_col]) == 0.0 for row in body)
        assert "wrote" in capsys.readouterr().out

    def test_identical_configs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--profile", "relaxing_pulse", "--B", "1.5",
                "--t-final", "10", "--n-steps", "2000"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_round_trips(self, tmp_path):
        out = tmp_path / "run.json"
        code = cli.main(["simulate", "--profile", "sudden_jump", "--omega1", "1.5",
                         "--t-final", "2", "--n-steps", "400",
                         "--format", "json", "--output", str(out)])
        assert code == 0
        records = json.loads(out.read_text())
        assert isinstance(records, list)
        assert set(records[0]) == set(cli.BASE_COLUMNS)
        assert records[-1]["t"] == pytest.approx(2.0)

    def test_fingerprint_appends_z_columns(self, tmp_path):
        out = tmp_path / "fp.csv"
        code = cli.main(["simulate", "--profile", "sudden_jump", "--omega1", "1.5",
                         "--t-final", "2", "--n-steps", "400", "--fingerprint",
                         "--output", str(out)])
        assert code == 0
        header, body, _ = read_csv(out)
        assert header[-2:] == ["re_z", "im_z"]
        for row in body:
            r = float(row[header.index("r")])
            phi = float(row[header.index("phi")])
            assert float(row[-2]) == pytest.approx(r * math.cos(phi), abs=1e-12)
            assert float(row[-1]) == pytest.approx(r * math.sin(phi), abs=1e-12)

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = cli.main(["simulate", "--preset", "fig1", "--n-steps", "3000",
                         "--t-final", "15", "--output", str(out)])
        assert code == 0
        header, body, _ = read_csv(out)
        omega_col = header.index("omega")
        assert any(float(row[omega_col]) > 1.01 for row in body)

    def test_config_file_layering(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# reference run\n"
            "profile = parametric_resonance\n"
            "epsilon = 1.96\n"
            "omega_l = 1.04\n"
            "t_final = 4\n"
            "n_steps = 800\n"
        )
        out = tmp_path / "pr.csv"
        code = cli.main(["simulate", "--config", str(cfg), "--epsilon", "2.0",
                         "--output", str(out)])
        assert code == 0  # flag override wins over the file value
        header, body, _ = read_csv(out)
        assert len(body) > 0

    def test_auto_steps_runs_the_doubling_loop(self, tmp_path):
        out = tmp_path / "auto.csv"
        code = cli.main(["simulate", "--profile", "relaxing_pulse", "--B", "1.5",
                         "--t-final", "10", "--n-steps", "auto", "--tol", "1e-4",
                         "--n-start", "500", "--output", str(out)])
        assert code == 0
        header, body, _ = read_csv(out)
        assert len(body) == 500  # the common comparison grid

    def test_oracle_check_passes_on_healthy_run(self, tmp_path, capsys):
        out = tmp_path / "jump.csv"
        code = cli.main(["simulate", "--profile", "sudden_jump", "--omega1", "1.3",
                         "--t-final", "2", "--n-steps", "2000",
                         "--oracle-check",
                         "--output", str(out)])
        assert code == 0
        assert "oracle check passed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--profile", "relaxing_pulse"],              # missing B
        ["simulate", "--profile", "constant", "--t-final", "-1"],
        ["simulate", "--profile", "constant", "--scaling", "half", "--n-steps", "0"],
        ["simulate", "--preset", "fig1", "--B", "-2"],
        ["simulate", "--preset", "fig1", "--t-final", "inf"],
        ["simulate", "--preset", "fig1", "--omega0", "inf"],
        ["simulate", "--preset", "fig2", "--epsilon", "nan"],
        ["simulate", "--profile", "constant", "--tol", "0"],
        ["simulate", "--profile", "constant", "--t-final", "1", "--n-steps", "10", "--record-every", "0"],
        ["simulate", "--profile", "constant", "--omega0", "0"],
        ["simulate", "--preset", "fig4", "--t-final", "1", "--n-steps", "10", "--hold-low", "0"],
        ["simulate", "--profile", "sudden_jump", "--omega1", "-1.5", "--t-final", "1", "--n-steps", "10"],
        ["simulate", "--profile", "constant", "--t-final", "1", "--n-start", "50"],
        ["converge", "--profile", "constant", "--t-final", "1", "--n-steps", "50"],
        ["simulate", "--profile", "constant", "--t-final", "1", "--n-steps", "auto", "--record-every", "7"],
        ["converge", "--profile", "constant", "--t-final", "1", "--n-steps", "1000", "--record-every", "3"],
    ])
    def test_config_errors_exit_2(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "omega0 = abc", "t_final = abc", "n_start = abc",
        "lambda = abc", "omega0 = auto",
    ])
    def test_config_file_values_of_the_wrong_type_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(constant_config_with(line))
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "record_every = 2.5", "n_steps = 1000.5", "n_start = 500.5",
    ])
    def test_config_file_non_integral_values_in_integer_fields_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(constant_config_with(line))
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_config_file_integral_float_is_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("profile = constant\nt_final = 1\nn_steps = 1e3\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 0
        assert "(1000 records, n_steps=1000)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, content, message", [
        ("--config", b"\xff\xfe\n", ":1: not UTF-8 text"),
        ("--config", b"profile = constant  # fine\n\xff = 1\n", ":2: not UTF-8 text"),
        ("--table", b"0 1\n\xff 1\n", ":2: not UTF-8 text"),
        ("--table", b"0 1\n1 x\n", ":2: could not convert string to float: 'x'"),
        ("--config", b"t_final = 1\npreset = fig9\n",
         ":2: unknown preset 'fig9'; choose from fig1, fig2, fig4, fig5"),
    ], ids=["config_first_line", "config_later_line", "table_bytes", "table_cell", "config_preset"])
    def test_an_unreadable_file_exits_2_naming_its_line(self, flag, content, message, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_bytes(content)
        argv = ["simulate", flag, str(path), "--t-final", "1", "--n-steps", "10",
                *(["--profile", "tabulated"] if flag == "--table" else ["--preset", "fig1"]),
                "--output", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        assert f"configuration error: {path}{message}\n" == capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["0", "5.5"])
    def test_a_numeric_looking_table_names_a_file(self, value, tmp_path, capsys, monkeypatch):
        # table = 0 once named descriptor 0: the table came from stdin, which was then closed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stdin.txt").write_text("0 1\n10 1.5\n")
        (tmp_path / "t.cfg").write_text(f"profile = tabulated\ntable = {value}\nt_final = 1\nn_steps = 10\n")
        saved = os.dup(0)
        try:
            with open(tmp_path / "stdin.txt") as fh:
                os.dup2(fh.fileno(), 0)
            code = cli.main(["simulate", "--config", "t.cfg", "--output", "x.csv"])
            unread = os.lseek(0, 0, os.SEEK_CUR) == 0
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert code == 2 and unread
        assert capsys.readouterr().err.endswith(f"No such file or directory: {value!r}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_a_numeric_looking_output_names_a_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run = "profile = sudden_jump\nomega1 = 1.5\nt_final = 1\nn_steps = 100\noutput = 7\n"
        (tmp_path / "a.cfg").write_text(run)
        (tmp_path / "b.cfg").write_text(run)
        assert cli.main(["simulate", "--config", "a.cfg"]) == 0
        assert read_csv(tmp_path / "7")[0] == list(cli.BASE_COLUMNS)
        assert cli.main(["compare", "--config-a", "a.cfg", "--config-b", "b.cfg"]) == 0
        assert read_csv(tmp_path / "7")[0] == ["t", "r_a", "r_b", "r_diff"]

    @pytest.mark.parametrize("lines, key", [
        ("n_steps = 10\nn_steps = 20", "n_steps"),
        ("lambda = 0.1\nlam = 0.2", "lam"),
    ], ids=["same_name", "alias"])
    def test_a_config_file_that_sets_a_key_twice_exits_2(self, lines, key, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"profile = constant\nt_final = 1\n{lines}\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert f"{cfg}: {key!r} is set twice, on lines 3 and 4" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_strong_squeezing_beyond_alpha_rounding_to_one(self, tmp_path):
        # r reaches ~31 on the square wave at t = 200, where |alpha| = tanh(r)
        # rounds to 1 in double precision; r = asinh|q| stays exact
        out = tmp_path / "x.csv"
        code = cli.main(["simulate", "--preset", "fig4", "--t-final", "200",
                         "--n-steps", "400000", "--output", str(out)])
        assert code == 0
        header, body, _ = read_csv(out)
        defects = [float(row[header.index("norm_defect")]) for row in body]
        assert max(defects) <= 1e-10
        assert float(body[-1][header.index("r")]) > 31.0

    @pytest.mark.parametrize("command, labels", [
        (["simulate"], [""]),
        (["converge"], [""]),
        (["compare"], ["[a] ", "[b] "]),
        (["sweep", "--sweep-param", "lam", "--sweep-values", "0.5,0"], ["[lam=0.5] ", "[lam=0] "]),
    ], ids=["simulate", "converge", "compare", "sweep"])
    def test_norm_defect_gate_reads_unrecorded_steps(self, command, labels, tmp_path, capsys, monkeypatch):
        fold = kernels.fold_ladder

        def worse_between_records(*args):
            *columns, _ = fold(*args)
            return (*columns, 1e-6)

        monkeypatch.setattr(kernels, "fold_ladder", worse_between_records)
        code = cli.main(command + ["--profile", "constant", "--t-final", "1",
                                   "--n-steps", "100", "--output", str(tmp_path / "x.csv")])
        assert code == 3
        out, err = capsys.readouterr()
        # each run's error carries the label of its stdout lines; sweep keeps value order
        assert err.splitlines() == [f"{label}error: norm defect 1.000e-06 exceeds 1e-10" for label in labels]
        if command[0] == "sweep":
            assert [line.split()[0] for line in out.splitlines()] == ["[lam=0.5]", "[lam=0]"]

    def test_explicit_omega0_of_one_holds_for_tabulated_profiles(self, tmp_path):
        table = tmp_path / "t.dat"
        table.write_text("0 2.0\n1 2.5\n2 2.0\n")
        run = ["--profile", "tabulated", "--table", str(table), "--t-final", "2", "--n-steps", "2000"]
        cfg = tmp_path / "one.cfg"
        cfg.write_text("omega0 = 1\n")

        def final_r(path):
            header, body, _ = read_csv(path)
            return float(body[-1][header.index("r")])

        finals = {}
        for name, extra in {"unset": [], "first": ["--omega0", "2"], "flag": ["--omega0", "1"],
                            "file": ["--config", str(cfg)]}.items():
            out = tmp_path / f"{name}.csv"
            assert cli.main(["simulate", *run, *extra, "--output", str(out)]) == 0
            finals[name] = final_r(out)
        assert cli.main(["sweep", *run, "--sweep-param", "omega0", "--sweep-values", "1",
                         "--output", str(tmp_path / "s.csv")]) == 0
        finals["sweep"] = final_r(tmp_path / "s_omega01.csv")
        # unset means the table's first omega; an explicit 1 is kept from every source
        assert finals["unset"] == finals["first"]
        assert finals["flag"] == finals["file"] == finals["sweep"]
        assert abs(finals["flag"] - finals["unset"]) > 0.5

    @pytest.mark.parametrize("argv", [
        # omega0 = 1e-300 beside the absolute omega_l = 1.04 puts omega/omega0
        # near 1e284: one step overflows |p|^2, two overflow p itself
        ["--n-steps", "1", "--epsilon", "7.024474751815672e+291"],
        ["--n-steps", "2", "--epsilon", "1.4048949503631344e+292"],
    ])
    def test_fold_beyond_double_range_exits_3(self, argv, tmp_path, capsys):
        code = cli.main(["simulate", "--preset", "fig2", "--t-final", "1.5", "--omega0", "1e-300",
                         "--oracle-check", "--output", str(tmp_path / "x.csv")] + argv)
        assert code == 3
        assert "simulation error" in capsys.readouterr().err

    def test_diverged_oracle_fails_the_check(self, tmp_path, capsys, monkeypatch):
        # with no bound on the substep angle, RK4 at dt*omega0 ~ 1e197 overflows
        # its determinant to inf, which the oracle must reject
        monkeypatch.setattr(oracle, "THETA_MAX", math.inf)
        code = cli.main(["simulate", "--profile", "constant", "--omega0", "1e200",
                         "--t-final", "1", "--n-steps", "1000",
                         "--oracle-check", "--output", str(tmp_path / "x.csv")])
        assert code == 4
        assert "oracle check failed: RK4 norm loss inf" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, n_sub", [
        (["--preset", "fig4", "--n-steps", "2"], 15_000),  # omega*tau = 15
        (["--preset", "fig5", "--n-steps", "10"], 12_480),
    ], ids=["fig4", "fig5"])
    def test_a_coarse_ladder_is_checked(self, argv, n_sub, tmp_path, capsys):
        code = cli.main(["simulate", *argv, "--oracle-check", "--output", str(tmp_path / "x.csv")])
        assert code == 0
        assert f"\noracle check passed: fidelity 1.00000000 (n_sub={n_sub}, pair error" in capsys.readouterr().out

    def test_a_substep_count_past_float_range_exits_4(self, tmp_path):
        run = simulate_in_subprocess(["--profile", "constant", "--t-final", "1e308", "--n-steps", "1",
                                      "--oracle-check"], tmp_path)
        assert run.returncode == 4
        assert run.stdout.splitlines()[-1] == ("oracle check failed: max(omega)*tau = 1e+308 takes more RK4 "
                                               "substeps per segment than a float holds")
        assert run.stderr == ""
        assert len(read_csv(tmp_path / "x.csv")[1]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["--preset", "fig2", "--t-final", "1.5", "--omega0", "1e-300", "--n-steps", "1",
          "--epsilon", "7.024474751815672e+291"], 3),
        (["--preset", "fig2", "--omega0", "1e150", "--t-final", "1", "--n-steps", "100",
          "--oracle-check"], 4),
    ], ids=["fold_overflow", "oracle_overflow"])
    def test_overflow_prints_no_numpy_warning(self, argv, code, tmp_path):
        run = simulate_in_subprocess(argv, tmp_path)
        assert run.returncode == code
        assert "RuntimeWarning" not in run.stderr

    def test_nan_profile_sample_is_refused_by_discretize(self, tmp_path):
        # cos(epsilon*omega0*t) overflows its argument to inf from step 89 on
        run = simulate_in_subprocess(["--preset", "fig2", "--n-steps", "100", "--t-final", "1e308"], tmp_path)
        assert run.returncode == 3
        assert "profile sample omega_89 = nan" in run.stderr
        assert "RuntimeWarning" not in run.stderr

    def test_underflowing_pulse_runs_silently(self, tmp_path):
        # -t/B overflows to -inf inside exp, which gives the exact 0
        run = simulate_in_subprocess(["--profile", "relaxing_pulse", "--B", "1e-320", "--t-final", "1",
                                      "--n-steps", "10"], tmp_path)
        assert run.returncode == 0
        assert run.stderr == ""

    def test_fig4_preset_passes_the_oracle_check(self, tmp_path, capsys):
        # r = 4.87 at t = 30, wider than a number basis of 4096 levels holds
        code = cli.main(["simulate", "--preset", "fig4", "--oracle-check", "--output", str(tmp_path / "x.csv")])
        assert code == 0
        assert re.search(r"\noracle check passed: fidelity 1\.00000000 \(n_sub=1, pair error \S+\)\n",
                         capsys.readouterr().out)

    def test_squeezing_beyond_the_resolvable_fidelity_exits_4(self, tmp_path, capsys, monkeypatch):
        # r = 31.2 at t = 200: the closed form's rounding bound alone exceeds 1e-3
        def no_work(*args):
            raise AssertionError("RK4 ran where its verdict cannot be read")

        monkeypatch.setattr(oracle, "heisenberg", no_work)
        out = tmp_path / "x.csv"
        code = cli.main(["simulate", "--preset", "fig4", "--t-final", "200", "--n-steps", "400000",
                         "--oracle-check", "--output", str(out)])
        assert code == 4
        assert "oracle check failed: cannot resolve the fidelity at r = 31.22" in capsys.readouterr().out
        header, body, _ = read_csv(out)
        assert len(body) == 5000 and float(body[-1][header.index("r")]) > 31.0

    @pytest.mark.parametrize("line", ["oracle_dim = 64", "oracle_dt_sub = 0.001"])
    def test_a_config_file_naming_a_removed_oracle_key_exits_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"profile = constant\nt_final = 1\nn_steps = 10\noracle_check = true\n{line}\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        key = line.split()[0]
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_pair_error_sees_what_fidelity_does_not(self, tmp_path, capsys, monkeypatch):
        def pair_error(argv):
            assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 0
            found = re.search(r"oracle check passed: fidelity (\S+) \(n_sub=\d+, pair error (\S+)\)",
                              capsys.readouterr().out)
            return found[1], float(found[2])

        healthy = pair_error(ORACLE_RUN)
        integrate_pair = oracle.heisenberg

        def one_sample_off(dprofile, n_sub):
            samples = dprofile.samples.copy()
            samples[500] *= 1.0 + 1e-6
            return integrate_pair(dataclasses.replace(dprofile, samples=samples), n_sub)

        monkeypatch.setattr(oracle, "heisenberg", one_sample_off)
        perturbed = pair_error(ORACLE_RUN)
        assert healthy[0] == perturbed[0] == "1.00000000"
        assert healthy[1] <= 1e-11
        assert perturbed[1] >= 1e-9

    @pytest.mark.parametrize("command", [
        ["simulate"], ["converge"], ["compare"],
        ["sweep", "--sweep-param", "omega0", "--sweep-values", "1,2"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    def test_unwritable_output_exits_2(self, command, where, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the ladder was folded before the output was checked")

        monkeypatch.setattr(kernels, "fold_ladder", no_work)
        folder = tmp_path / "missing" if where == "missing_directory" else tmp_path
        if command[0] != "sweep":
            bad = folder / "x.csv"
        else:  # the first file lies in the missing directory; the second file is the directory
            bad = folder / ("x_omega01.csv" if where == "missing_directory" else "x_omega02.csv")
        if where == "a_directory":
            bad.mkdir()
        code = cli.main(command + ["--profile", "constant", "--t-final", "1",
                                   "--n-steps", "100", "--output", str(folder / "x.csv")])
        assert code == 2
        assert f"cannot write output {bad}" in capsys.readouterr().err

    def test_nonpositive_tabulated_sample_exits_3(self, tmp_path, capsys):
        table = tmp_path / "dip.dat"
        table.write_text("0.0 1.0\n1.0 -0.2\n2.0 1.0\n")
        code = cli.main(["simulate", "--profile", "tabulated", "--table", str(table),
                         "--t-final", "2", "--n-steps", "100",
                         "--output", str(tmp_path / "dip.csv")])
        assert code == 3
        assert "simulation error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--profile", "sudden_jump", "--omega1", "2", "--t-final", "1", "--n-steps", "100000000000"],
         "n_steps = 100000000000"),
        (["--preset", "fig1"], "the configured n_steps"),
    ], ids=["flag", "preset"])
    def test_out_of_memory_exits_3_naming_n_steps(self, argv, named, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError subclass when it cannot allocate the ladder;
        # whether it can depends on the machine, so the test does not allocate
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "discretize", out_of_memory)
        code = cli.main(["simulate", *argv, "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"simulation error: out of memory for {named}; lower n_steps\n"

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--n-steps", "10000000000000000000"], "n_steps = 10000000000000000000"),
        (["converge", "--n-start", "10000000000000000000"], "the configured n_steps"),
        (["simulate", "--config", "{cfg}"], "the configured n_steps"),
    ], ids=["simulate", "converge", "file"])
    def test_a_ladder_numpy_cannot_size_exits_3(self, argv, named, tmp_path, capsys):
        # N >= 2**60 is past what numpy can size, so nothing is allocated
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_steps = 1e19\n")
        argv = [arg.format(cfg=cfg) for arg in argv]
        assert cli.main([*argv, "--preset", "fig4", "--output", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == f"simulation error: out of memory for {named}; lower n_steps\n"


def _libm_digest():
    """Digest of the elementary functions a run's bytes go through, on fixed arguments."""
    x = np.linspace(-4.0, 4.0, 16384)
    z = x + 1j * x[::-1]
    parts = (np.cos(x), np.sin(x), np.exp(x), np.arcsinh(x), np.arctan2(x, x[::-1]), np.abs(z), z / z[::-1].conj())
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


#: The libm digest of the platform the output digests below were taken on
#: (x86-64 with AVX-512, numpy 2.4).  numpy's sin, cos and exp may round
#: differently on other instruction sets or numpy versions, and with them
#: every output byte, so there the digests say nothing.
LIBM_DIGEST = "9354bf85dd302feffe42ae70115279ea2b8477a8e1259c6621ae589bc030c585"


class TestOutputsOfRuns:
    """A run of equal samples folds as one segment; a ladder without one writes the bytes it always did."""

    # sha256 of the files written before runs were folded as one segment
    @pytest.mark.parametrize("preset, flags, digest", [
        ("fig1", [], "0b2a7f2aeb7bd1dafe28ca3ff7a964d35d4c0494565b80d363d0c20a7e86d92c"),
        ("fig2", [], "30cea265823cb73a7e768c8a8003e2c276f86ea7e176cf5243a7bc20c88ec615"),
        ("fig2", ["--record-every", "1"], "d8a61800409defb34421b6c6fbd50bdcf1e8a3fed6a18c3aae77dd3fdceb29ff"),
    ], ids=["fig1", "fig2", "fig2_dense"])
    def test_a_ladder_without_equal_neighbours_keeps_its_bytes(self, preset, flags, digest, tmp_path):
        if _libm_digest() != LIBM_DIGEST:
            pytest.skip("numpy's elementary functions round differently here than where the digests were taken")
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--preset", preset, *flags, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # Before runs were folded as one segment: the sha256 of the t and omega columns
    # ("t,omega" lines), and r at every 500th record and the last
    SQUARE_WAVES = {
        "fig4": ("bb283604705bbfd79ab7114fb10ac3cf3f6530518c14a93622a8080fb5275408",
                 [0.0037499405865540946, 0.5742981805524857, 1.1694773797334195, 1.62186027168233,
                  2.0273253266381768, 2.432790378449281, 2.8382554287476154, 3.2491685299392525,
                  3.84455960644599, 4.429874345682328, 4.865580674931703]),
        "fig5": ("ce307697f5d50e94a0a46df90f5ba657fadef74653f4ee574d92ef71f77f3dfd",
                 [0.0009790981728733002, 0.15688283060207112, 0.3137656689733318, 0.47064850596769336,
                  0.6275313400146284, 0.7843814924181141, 0.9364210507907368, 1.0820980000935594,
                  1.2261041590173363, 1.3741856162359902, 1.5296076391505673]),
    }

    @pytest.mark.parametrize("preset", sorted(SQUARE_WAVES))
    def test_a_square_wave_records_the_same_steps_and_moves_r_by_rounding(self, preset, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--preset", preset, "--output", str(out)]) == 0
        header, body, _ = read_csv(out)
        digest, r_then = self.SQUARE_WAVES[preset]
        assert len(body) == 5000
        assert hashlib.sha256("\n".join(f"{row[0]},{row[1]}" for row in body).encode()).hexdigest() == digest
        r_now = [float(row[header.index("r")]) for row in body[::500] + body[-1:]]
        np.testing.assert_allclose(r_now, r_then, rtol=1e-11, atol=0)
        assert max(float(row[header.index("norm_defect")]) for row in body) <= 1e-13


class TestConverge:
    def test_constant_profile_report(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = cli.main(["converge", "--profile", "constant", "--t-final", "3",
                         "--n-steps", "500", "--tol", "1e-8", "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "converged=true" in stdout
        _, _, comments = read_csv(out)
        assert any("converge N=" in c for c in comments)
        assert any("converged=true" in c for c in comments)

    def test_json_report(self, tmp_path):
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--profile", "relaxing_pulse", "--B", "1.5",
                         "--t-final", "6", "--n-steps", "500", "--tol", "1e-4",
                         "--format", "json", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["converged"] is True
        assert payload["report"]["history"]
        assert payload["records"]

    def test_a_tolerance_from_a_flag_or_a_file_writes_the_same_bytes(self, tmp_path, capsys):
        # both are the float 1.0, so both reports print tol=1.0
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol = 1\n")
        run = ["converge", "--preset", "fig4", "--t-final", "1", "--n-start", "1000"]
        assert cli.main([*run, "--tol", "1", "--output", str(tmp_path / "flag.csv")]) == 0
        assert cli.main([*run, "--config", str(cfg), "--output", str(tmp_path / "file.csv")]) == 0
        flag, file = (tmp_path / "flag.csv").read_bytes(), (tmp_path / "file.csv").read_bytes()
        assert b"# converged=true n_final=2000 tol=1.0\r\n" in flag
        assert flag == file

    def test_n_start_flag_sets_where_the_doubling_starts(self, tmp_path, capsys):
        # fig4 fixes n_steps = 60000, which the explicit --n-start overrides
        code = cli.main(["converge", "--preset", "fig4", "--t-final", "1", "--n-start", "1000",
                         "--tol", "1e-3", "--output", str(tmp_path / "conv.csv")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("converge N=2000 ")

    @pytest.mark.parametrize("lines, flags, first", [
        ("n_start = 1000\n", [], 2000),                 # the file's start wins over the preset's N
        ("", [], 120000),                                # the preset's N is the start
        ("n_steps = 3000\n", [], 6000),                 # so is the file's
        ("n_start = 5000\n", ["--n-steps", "1000"], 2000),  # a flag wins over the file
    ], ids=["file_n_start", "preset_n_steps", "file_n_steps", "flag_over_file"])
    def test_config_file_sets_where_the_doubling_starts(self, lines, flags, first, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset = fig4\nt_final = 1\n" + lines)
        code = cli.main(["converge", "--config", str(cfg), *flags, "--tol", "1e-3",
                         "--output", str(tmp_path / "conv.csv")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(f"converge N={first} ")

    def test_a_config_file_with_both_starts_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the ladder was folded before the start was checked")

        monkeypatch.setattr(kernels, "fold_ladder", no_work)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset = fig4\nn_steps = 3000\nn_start = 1000\n")
        code = cli.main(["converge", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sets both n_steps and n_start" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [["--n-start", "50"], ["--n-steps", "1000", "--n-start", "1000"]],
                             ids=["start_below_100", "n_steps_and_n_start"])
    def test_a_start_that_cannot_hold_exits_2_before_any_work(self, flags, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the ladder was folded before the start was checked")

        monkeypatch.setattr(kernels, "fold_ladder", no_work)
        code = cli.main(["converge", "--preset", "fig1", *flags, "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_record_every_is_refused_as_converge_own(self, where, tmp_path, capsys, monkeypatch):
        # fig1 fixes n_steps, so the run is valid until converge makes it auto
        def no_work(*args):
            raise AssertionError("the ladder was folded before record_every was checked")

        monkeypatch.setattr(kernels, "fold_ladder", no_work)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset = fig1\nrecord_every = 5\n")
        argv = ["--preset", "fig1", "--record-every", "5"] if where == "flag" else ["--config", str(cfg)]
        assert cli.main(["converge", *argv, "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: converge records 500 instants and takes no --record-every\n"
        assert not (tmp_path / "x.csv").exists()

    def test_doubling_stops_before_a_level_past_the_norm_defect_gate(self, tmp_path, capsys, monkeypatch):
        # the gate lies between the defects of two levels: the doubling ends on the lower one.
        # A resonance has no two equal samples, so its rounding, and with it the defect, moves
        # from level to level; a run of equal samples folds exactly at every level.
        profile = PROFILES["parametric_resonance"](2.04, 1.04)
        levels = [1000 * 2 ** k for k in range(6)]
        defects = [evolve(discretize(profile, 1.0, n), record_every=n // 500).max_norm_defect for n in levels]
        k = next(k for k in range(1, len(levels)) if defects[k] > max(defects[:k]))
        monkeypatch.setattr(evolution, "NORM_DEFECT_MAX", math.sqrt(max(defects[:k]) * defects[k]))
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--profile", "parametric_resonance", "--epsilon", "2.04", "--omega-l", "1.04",
                         "--t-final", "1", "--n-start", "1000", "--tol", "1e-300", "--format", "json",
                         "--output", str(out)])
        assert code == 0
        stdout, stderr = capsys.readouterr()
        assert f"converged=false n_final={levels[k - 1]} " in stdout
        assert stderr.startswith(f"warning: step doubling stopped at n_steps={levels[k - 1]} before reaching tol=")
        report = json.loads(out.read_text())["report"]
        assert [n for n, _ in report["history"]] == levels[1:k]
        assert report["converged"] is False

    @pytest.mark.parametrize("cause", ["cap", "defect"])
    def test_a_doubling_stopped_at_its_first_level_says_why(self, cause, tmp_path, capsys, monkeypatch):
        # with no level compared there is no |dr| to print, so the line ends on the cause
        if cause == "cap":
            monkeypatch.setattr(cli, "auto_converge", functools.partial(evolution.auto_converge, cap=1000))
            why = "hit the cap (1000)"
        else:  # the second level reads a defect past the gate
            def worse_at_2000(dprof, **kwargs):
                traj = evolve(dprof, **kwargs)
                return dataclasses.replace(traj, max_norm_defect=1e-6) if dprof.n_steps == 2000 else traj

            monkeypatch.setattr(evolution, "evolve", worse_at_2000)
            why = "n_steps=2000 has norm defect 1.000e-06 > 1e-10"
        code = cli.main(["converge", "--profile", "relaxing_pulse", "--B", "1.5", "--t-final", "1",
                         "--n-start", "1000", "--tol", "1e-300", "--output", str(tmp_path / "c.csv")])
        assert code == 0
        assert capsys.readouterr().err == ("warning: step doubling stopped at n_steps=1000 before reaching "
                                           f"tol=1e-300; last max |dr| = nan; {why}\n")

    def test_oracle_check_passes(self, tmp_path, capsys):
        code = cli.main(["converge", "--preset", "fig4", "--t-final", "1", "--n-steps", "1000",
                         "--oracle-check", "--output", str(tmp_path / "conv.csv")])
        assert code == 0
        assert "\noracle check passed: fidelity 1.00000000" in capsys.readouterr().out


class TestCompare:
    def test_self_comparison_is_identical(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("profile = sudden_jump\nomega1 = 1.5\nt_final = 2\nn_steps = 400\n")
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare", "--config-a", str(cfg), "--config-b", str(cfg),
                         "--output", str(out)])
        assert code == 0
        assert "verdict: identical" in capsys.readouterr().out
        header, body, comments = read_csv(out)
        assert header == ["t", "r_a", "r_b", "r_diff"]
        diff_col = header.index("r_diff")
        assert all(float(row[diff_col]) == 0.0 for row in body)
        assert any("identical" in c for c in comments)

    def test_grid_mismatch_exits_2(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("profile = constant\nt_final = 2\nn_steps = 400\n")
        b.write_text("profile = constant\nt_final = 2\nn_steps = 500\n")
        code = cli.main(["compare", "--config-a", str(a), "--config-b", str(b),
                         "--output", str(tmp_path / "c.csv")])
        assert code == 2
        # as many records, at other instants: steps 3, 6, 9, 10 of 10 and 2, 4, 6, 8 of 8
        a.write_text("profile = constant\nt_final = 2\nn_steps = 10\nrecord_every = 3\n")
        b.write_text("profile = constant\nt_final = 2\nn_steps = 8\nrecord_every = 2\n")
        code = cli.main(["compare", "--config-a", str(a), "--config-b", str(b),
                         "--output", str(tmp_path / "c.csv")])
        assert code == 2

    def test_equal_instants_that_round_apart_share_the_grid(self, tmp_path, capsys):
        # both record at k*t_final/500, but as rec*tau at N = 2000 and at N = 3000,
        # which round apart by an ulp at some k; the table takes side a's t
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        run = "t_final = 10\nn_steps = auto\ntol = 1e-1\n"
        a.write_text(f"preset = fig5\n{run}n_start = 1000\n")
        b.write_text(f"preset = fig2\n{run}n_start = 1500\n")
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b), "--output", str(out)]) == 0
        t_a, t_b = (cli.run_trajectory(build_config(config_layers(config_file=str(path)))).records.t
                    for path in (a, b))
        assert not np.array_equal(t_a, t_b)
        _, body, _ = read_csv(out)
        assert [float(row[0]) for row in body] == t_a.tolist()

    @pytest.mark.parametrize("argv, calls", [
        (["compare", "--config-a", "{c}", "--config-b", "{c}"], 2),
        (["converge", "--config", "{c}", "--n-start", "1000", "--tol", "1e-3"], 1),
        (["sweep", "--config", "{c}", "--sweep-param", "t_final", "--sweep-values", "1,2"], 1),
    ], ids=["compare", "converge", "sweep"])
    def test_each_config_file_is_parsed_once_per_flag(self, tmp_path, monkeypatch, argv, calls):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("profile = sudden_jump\nomega1 = 1.5\nt_final = 1\nn_steps = 1000\n")
        parsed = []
        load = config.load_config_file
        monkeypatch.setattr(config, "load_config_file", lambda path: parsed.append(path) or load(path))
        argv = [arg.format(c=cfg) for arg in argv] + ["--output", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert parsed == [str(cfg)] * calls

    def test_square_wave_beats_flat_profile(self, tmp_path, capsys):
        a = tmp_path / "ja.cfg"
        b = tmp_path / "flat.cfg"
        a.write_text("profile = janszky_adam\nomega1 = 1.5\nt_final = 12\nn_steps = 6000\n")
        b.write_text("profile = constant\nt_final = 12\nn_steps = 6000\n")
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare", "--config-a", str(a), "--config-b", str(b),
                         "--output", str(out)])
        assert code == 0
        assert "A dominates after transient" in capsys.readouterr().out

    def test_narrow_band_presets_favor_the_square_wave(self, tmp_path, capsys):
        out = tmp_path / "fig5_vs_fig2.csv"
        code = cli.main(["compare", "--preset-a", "fig5", "--preset-b", "fig2",
                         "--output", str(out)])
        assert code == 0
        assert "verdict: A dominates after transient" in capsys.readouterr().out

    def test_resonant_beats_detuned_at_late_times(self, tmp_path, capsys):
        a = tmp_path / "resonant.cfg"
        b = tmp_path / "detuned.cfg"
        a.write_text("preset = fig2\n")  # eps = 2.04, unbounded growth
        b.write_text("preset = fig2\nepsilon = 1.96\n")  # bounded beats
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare", "--config-a", str(a), "--config-b", str(b),
                         "--output", str(out)])
        assert code == 0
        assert "verdict: A dominates" in capsys.readouterr().out

    def test_json_compare_round_trips(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("profile = sudden_jump\nomega1 = 1.5\nt_final = 2\nn_steps = 400\n")
        out = tmp_path / "cmp.json"
        code = cli.main(["compare", "--config-a", str(cfg), "--config-b", str(cfg),
                         "--output", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "identical"
        assert payload["records"][0]["r_diff"] == 0.0

    def test_output_and_format_come_from_the_config_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a default compare.csv would land here
        run = "profile = sudden_jump\nomega1 = 1.5\nt_final = 2\nn_steps = 400\n"
        out = tmp_path / "x.json"
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(f"{run}format = json\noutput = {out}\n")
        b.write_text(f"{run}format = json\noutput = {out}\n")
        assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 0
        assert json.loads(out.read_text())["verdict"] == "identical"
        assert not (tmp_path / "compare.csv").exists()
        # one file setting a key is enough; flags still win over both files
        b.write_text(run)
        assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b),
                         "--output", "flag.csv", "--format", "csv"]) == 0
        assert read_csv(tmp_path / "flag.csv")[0] == ["t", "r_a", "r_b", "r_diff"]
        assert cli.main(["compare", "--config-a", str(b), "--config-b", str(a)]) == 0
        assert json.loads(out.read_text())["verdict"] == "identical"
        assert not (tmp_path / "compare.csv").exists()

    def test_config_flag_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # one --config cannot say which run it configures
        def no_work(*args):
            raise AssertionError("the ladder was folded before --config was refused")

        monkeypatch.setattr(kernels, "fold_ladder", no_work)
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_steps = 0\n")
        with pytest.raises(SystemExit) as exc:  # compare has no --config: argparse finds two it could mean
            cli.main(["compare", "--config", str(bad), "--preset-a", "fig4", "--preset-b", "fig4",
                      "--output", str(tmp_path / "cmp.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--config-a" in err and "--config-b" in err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    @pytest.mark.parametrize("key,value_b,flag", [("output", "y.json", "z.json"), ("format", "csv", "json")])
    def test_config_files_that_disagree_on_the_output_exit_2(self, tmp_path, monkeypatch, capsys,
                                                             key, value_b, flag):
        monkeypatch.chdir(tmp_path)
        run = "profile = sudden_jump\nomega1 = 1.5\nt_final = 2\nn_steps = 400\n"
        settings_a = {"output": "x.json", "format": "json"}
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(run + "".join(f"{k} = {v}\n" for k, v in settings_a.items()))
        b.write_text(run + "".join(f"{k} = {v}\n" for k, v in {**settings_a, key: value_b}.items()))
        assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 2
        assert f"set different {key} values" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]  # refused before any work
        assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b), f"--{key}", flag]) == 0

    def test_oracle_check_passes_on_both_runs(self, tmp_path, capsys):
        code = cli.main(["compare", "--preset-a", "fig4", "--preset-b", "fig1", "--t-final", "1",
                         "--n-steps", "1000", "--oracle-check", "--output", str(tmp_path / "cmp.csv")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "\n[a] oracle check passed: fidelity 1.00000000" in stdout
        assert "\n[b] oracle check passed: fidelity 1.00000000" in stdout


class TestSweep:
    def test_one_file_per_value(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = cli.main(["sweep", "--profile", "parametric_resonance", "--omega-l", "1.04",
                         "--sweep-param", "epsilon", "--sweep-values", "1.96,2.04",
                         "--t-final", "4", "--n-steps", "800", "--output", str(out)])
        assert code == 0
        assert (tmp_path / "res_epsilon1.96.csv").exists()
        assert (tmp_path / "res_epsilon2.04.csv").exists()
        stdout = capsys.readouterr().out
        assert "[epsilon=1.96]" in stdout
        assert "[epsilon=2.04]" in stdout

    def test_repeated_sweep_value_exits_2(self, tmp_path, capsys):
        code = cli.main(["sweep", "--profile", "constant", "--sweep-param", "omega0",
                         "--sweep-values", "2,1,2", "--t-final", "1",
                         "--n-steps", "100", "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "repeats a value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_equal_values_spelled_differently_are_distinct(self, tmp_path, capsys):
        code = cli.main(["sweep", "--profile", "constant", "--sweep-param", "omega0",
                         "--sweep-values", "2,2.0", "--t-final", "1",
                         "--n-steps", "100", "--output", str(tmp_path / "s.csv")])
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == ["s_omega02.0.csv", "s_omega02.csv"]
        assert capsys.readouterr().out.count("wrote") == 2

    @pytest.mark.parametrize("preset,param", [("fig2", "B"), ("fig4", "epsilon"), ("fig1", "omega1")])
    def test_parameter_the_profile_does_not_take_exits_2(self, preset, param, tmp_path, capsys):
        code = cli.main(["sweep", "--preset", preset, "--sweep-param", param,
                         "--sweep-values", "1,2", "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert f"takes no parameter {param!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,param", [
        (["simulate", "--preset", "fig2", "--B", "3"], "B"),
        (["converge", "--preset", "fig1", "--epsilon", "2.0"], "epsilon"),
        (["compare", "--preset-a", "fig5", "--preset-b", "fig2", "--omega1", "1.2"], "omega1"),
        (["simulate", "--profile", "constant", "--hold-low", "2"], "hold_low"),
        # a preset's own parameters are not dropped when --profile names another kind
        (["simulate", "--preset", "fig2", "--profile", "sudden_jump", "--omega1", "1.5"], "epsilon"),
    ])
    def test_other_commands_refuse_a_parameter_the_profile_does_not_take(self, argv, param,
                                                                         tmp_path, capsys):
        code = cli.main([*argv, "--t-final", "5", "--n-steps", "1000",
                         "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"takes no parameter {param!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("param", ["t_final", "lam", "omega0"])
    def test_run_parameters_and_omega0_sweep_any_profile(self, param, tmp_path, capsys):
        code = cli.main(["sweep", "--profile", "sudden_jump", "--omega1", "1.5", "--sweep-param", param,
                         "--sweep-values", "1,2", "--t-final", "1", "--n-steps", "100",
                         "--output", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 2

    def test_a_capped_doubling_is_one_line_under_its_label(self, tmp_path, capsys, monkeypatch):
        # 1000 -> 2000 -> 4000 -> 8000 steps, then the cap; a tol of 1e-300 is never met, since
        # a pulse has no two equal samples, so r moves from level to level by its step error
        monkeypatch.setattr(cli, "auto_converge", functools.partial(evolution.auto_converge, cap=8000))
        flags = ["--profile", "relaxing_pulse", "--B", "1.5", "--t-final", "1", "--n-steps", "auto",
                 "--n-start", "1000", "--tol", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a Python warning would reach the user's stderr
            assert cli.main(["sweep", *flags, "--sweep-param", "B", "--sweep-values", "1.5,1.6",
                             "--output", str(tmp_path / "s.csv")]) == 0
            sweep = capsys.readouterr()
            assert cli.main(["simulate", *flags, "--output", str(tmp_path / "x.csv")]) == 0
            simulate = capsys.readouterr()
        notice = "warning: step doubling stopped at n_steps=8000 before reaching tol=1e-300; last max |dr| = "
        lines = sweep.err.splitlines()
        assert len(lines) == 2
        for line, value in zip(lines, ("1.5", "1.6")):
            assert line.startswith(f"[B={value}] {notice}")
        assert simulate.err.startswith(notice) and simulate.err.count("\n") == 1
        assert "n_steps=8000" in simulate.out
        with pytest.warns(RuntimeWarning, match=r"step-doubling stopped .*: hit the cap"):  # the API still warns
            cli.auto_converge(PROFILES["relaxing_pulse"](1.5), 1.0, 1e-300, n_start=1000)

    def test_bad_sweep_values_exit_2(self, tmp_path):
        code = cli.main(["sweep", "--profile", "constant", "--sweep-param", "omega0",
                         "--sweep-values", "1.0,zebra", "--t-final", "1",
                         "--n-steps", "100", "--output", str(tmp_path / "s.csv")])
        assert code == 2


def reference_table(path, fmt, columns, cols, comments=(), extra=None):
    """The csv.writer / json.dump writer that ``cli.write_table`` must match byte for byte."""
    rows = np.column_stack(cols).tolist()
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for line in comments:
                fh.write(f"# {line}\r\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
    else:
        records = [dict(zip(columns, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records if extra is None else {**extra, "records": records}, fh)
            fh.write("\n")


#: Values whose repr or json spelling is easy to get wrong.
_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, 9999999999999998.0, 0.1,
            1.7976931348623157e308, math.nan, math.inf, -math.inf]
_EXTRAS = [None, {"verdict": "mixed ordering after transient"},
           {"report": {"history": [[10000, 1e-3], [20000, 2.5e-6]], "converged": True,
                       "n_final": 20000, "tol": 1e-5}}]


class TestWriteTable:
    def assert_matches_reference(self, tmp_path, fmt, cols, extra, comments=("c 1", "tol=1e-05")):
        columns = [f"col{i}" for i in range(len(cols))]
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        cli.write_table(str(got), fmt, columns, [cols], comments=comments, extra=extra)
        reference_table(str(want), fmt, columns, cols, comments=comments, extra=extra)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("extra", _EXTRAS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_sample_across_blocks(self, fmt, extra, seed, tmp_path):
        rng = np.random.default_rng(seed)
        for n_cols in (4, 11, 13):  # compare's table, the trajectory and the fingerprinted one
            n = 2 * (cli.WRITE_BLOCK_VALUES // n_cols) + 37  # two block boundaries and a short block
            cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n) for _ in range(n_cols - 1)]
            cols.append(np.linspace(0.0, 150.0, n))
            for col in cols[:3]:  # scatter the awkward values, some in each block
                col[rng.integers(0, n, 60)] = rng.choice(_AWKWARD, 60)
            self.assert_matches_reference(tmp_path, fmt, cols, extra)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("extra", _EXTRAS)
    def test_zero_rows(self, fmt, extra, tmp_path):
        self.assert_matches_reference(tmp_path, fmt, [np.empty(0), np.empty(0)], extra)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(0, 9), st.integers(1, 4)),
           values=st.lists(st.one_of(st.floats(), st.sampled_from(_AWKWARD)), min_size=36, max_size=36),
           fmt=st.sampled_from(FORMATS), extra=st.sampled_from(_EXTRAS))
    def test_any_floats_in_small_blocks(self, shape, values, fmt, extra, tmp_path, monkeypatch):
        n_rows, n_cols = shape
        monkeypatch.setattr(cli, "WRITE_BLOCK_VALUES", 4 * n_cols)  # 4 rows a block: up to 3 blocks
        flat = np.array(values[:n_rows * n_cols])
        self.assert_matches_reference(tmp_path, fmt, list(flat.reshape(n_cols, n_rows)), extra)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_scratch_is_small_and_does_not_grow_with_the_table(self, fmt, tmp_path):
        # the --oracle-check workload's table: fig4, t = 10, N = 20000, 5000 rows of 11 columns
        cfg = build_config(config_layers("fig4", overrides={"t_final": 10.0, "n_steps": 20000}))
        columns, (cols,) = cli.trajectory_table(cli.run_trajectory(cfg))
        assert (len(cols[0]), len(cols)) == (5000, 11)
        long_cols = [np.tile(c, 30) for c in cols]
        path = str(tmp_path / f"t.{fmt}")
        cli.write_table(path, fmt, columns, [cols])  # first use builds the formatter's tables
        peaks = []
        tracemalloc.start()
        try:
            for table in (cols, long_cols):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                cli.write_table(path, fmt, columns, [table])
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 2.0, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.25, peaks


class TestStream:
    """``simulate`` with a fixed N writes each fold call's block of records before folding the next."""

    # (block, widest) as in tests/test_evolution.py: a small kernels.BLOCK puts even
    # record_every = BLOCK + 3 on three fold calls; the ladder ends mid-chunk
    @pytest.mark.parametrize("block,widest", [(kernels.BLOCK, 7), (4 * kernels.CHUNK, 4 * kernels.CHUNK + 3)],
                             ids=["BLOCK", "small"])
    @pytest.mark.parametrize("every", ["1", "7", "BLOCK+3", "n"])
    @pytest.mark.parametrize("fmt, fingerprint", [("csv", False), ("json", False), ("csv", True)],
                             ids=["csv", "json", "fingerprint"])
    def test_streamed_file_equals_the_table_of_evolve(self, block, widest, every, fmt, fingerprint,
                                                      tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK", block)
        n = 2 * widest * block + 5 * kernels.CHUNK + 7
        record_every = {"1": 1, "7": 7, "BLOCK+3": block + 3, "n": n}[every]
        fold, calls = kernels.fold_ladder, []

        def counted(*args):
            calls.append(len(args[0]))
            return fold(*args)

        monkeypatch.setattr(kernels, "fold_ladder", counted)
        flags = ["--n-steps", str(n), "--record-every", str(record_every), "--lambda", "-0.4",
                 "--format", fmt] + (["--fingerprint"] if fingerprint else [])
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        assert cli.main(["simulate", "--preset", "fig2", *flags, "--output", str(got)]) == 0
        assert len(calls) == -(-n // (record_every * block)) and (len(calls) >= 3 or every in ("BLOCK+3", "n"))
        overrides = {"n_steps": n, "record_every": record_every, "lam": -0.4}
        cfg = build_config(config_layers("fig2", overrides=overrides))
        traj = evolve(discretize(cfg.to_profile(), cfg.t_final, n), record_every, lam=-0.4)
        cli.write_table(str(want), fmt, *cli.trajectory_table(traj, fingerprint))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fault, code", [("nan", 3), ("memory", 3), ("disk_full", 2)])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_run_that_fails_mid_stream_leaves_no_file(self, fault, code, existing, tmp_path, capsys,
                                                        monkeypatch):
        # the ladder spans three fold calls, so the first block is on disk when the second fails
        from su11squeeze import floatfmt

        out = tmp_path / "x.csv"
        fold, format_repr, on_disk = kernels.fold_ladder, floatfmt.format_repr, []

        def second_call_fails(*args):
            rec, p, q, defect, worst = fold(*args)
            on_disk.append(out.exists() and out.stat().st_size)
            if len(on_disk) == 2 and fault == "nan":
                defect[3] = math.nan
            if len(on_disk) == 2 and fault == "memory":
                raise MemoryError
            return rec, p, q, defect, worst

        def disk_full(*args, **kwargs):
            if len(on_disk) == 2:
                raise OSError(28, "No space left on device")
            return format_repr(*args, **kwargs)

        monkeypatch.setattr(kernels, "fold_ladder", second_call_fails)
        if fault == "disk_full":
            monkeypatch.setattr(floatfmt, "format_repr", disk_full)
        if existing:
            out.write_text("an earlier table\n")
        assert cli.main(["simulate", "--profile", "constant", "--t-final", "1", "--n-steps",
                         str(3 * kernels.BLOCK), "--record-every", "1", "--output", str(out)]) == code
        assert len(on_disk) == 2 and on_disk[1] > 0  # the first block was written
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write output" if code == 2 else "simulation error")

    @pytest.mark.parametrize("kind", ["fifo", "symlink"])
    def test_a_run_that_fails_mid_stream_removes_only_a_regular_file(self, kind, tmp_path, monkeypatch):
        # a FIFO, or a symlink and the file it points to, outlive the failed run
        fold, calls = kernels.fold_ladder, []

        def second_call_fails(*args):
            rec, p, q, defect, worst = fold(*args)
            calls.append(1)
            if len(calls) == 2:
                defect[3] = math.nan
            return rec, p, q, defect, worst

        monkeypatch.setattr(kernels, "fold_ladder", second_call_fails)
        out, target, read = tmp_path / "x.csv", tmp_path / "target.csv", []
        if kind == "fifo":
            os.mkfifo(out)
            reader = threading.Thread(target=lambda: read.append(out.read_bytes()))
            reader.start()
        else:
            out.symlink_to(target)
        argv = ["simulate", "--profile", "constant", "--t-final", "1", "--n-steps", str(3 * kernels.BLOCK),
                "--record-every", "1", "--output", str(out)]
        try:
            assert cli.main(argv) == 3
        finally:
            if kind == "fifo":
                reader.join(timeout=60)
        assert len(calls) == 2
        if kind == "fifo":
            assert stat.S_ISFIFO(os.lstat(out).st_mode)
            assert read[0].startswith(b"t,omega,")
        else:
            assert out.is_symlink() and os.readlink(out) == str(target)
            assert target.read_bytes().startswith(b"t,omega,")

    def test_a_failure_in_the_first_fold_call_leaves_an_existing_file(self, tmp_path, monkeypatch):
        # the file is opened only once the first block of records is there
        fold = kernels.fold_ladder

        def overflowed(*args):
            rec, p, q, defect, worst = fold(*args)
            defect[0] = math.inf
            return rec, p, q, defect, worst

        monkeypatch.setattr(kernels, "fold_ladder", overflowed)
        out = tmp_path / "x.csv"
        out.write_text("an earlier table\n")
        assert cli.main(["simulate", "--profile", "constant", "--t-final", "1", "--n-steps", "100",
                         "--output", str(out)]) == 3
        assert out.read_text() == "an earlier table\n"

    @pytest.mark.parametrize("fingerprint", [False, True], ids=["11_columns", "13_columns"])
    def test_each_fold_block_is_written_in_even_parts(self, fingerprint, tmp_path, monkeypatch):
        # ceil(rows * columns / WRITE_BLOCK_VALUES) format calls per block of records, none a short tail
        from su11squeeze import floatfmt

        fmt_repr, rows = floatfmt.format_repr, []

        def counted(values, *args, **kwargs):
            rows.append(values.shape[0])
            return fmt_repr(values, *args, **kwargs)

        monkeypatch.setattr(floatfmt, "format_repr", counted)
        n, n_cols = 150_000, 13 if fingerprint else 11
        assert cli.main(["simulate", "--preset", "fig2", "--record-every", "1", "--output", str(tmp_path / "d.csv")]
                        + (["--fingerprint"] if fingerprint else [])) == 0
        blocks = [kernels.BLOCK] * (n // kernels.BLOCK) + [n % kernels.BLOCK]
        want = []
        for size in blocks:
            parts = -(-size * n_cols // cli.WRITE_BLOCK_VALUES)
            want += [len(part) for part in np.array_split(np.arange(size), parts)]
        assert sum(want) == n
        assert sorted(rows) == sorted(want)
        if not fingerprint:
            assert len(rows) == 202

    def test_peak_memory_does_not_grow_with_the_record_count(self, tmp_path):
        # beyond the ladder's samples (8 B per step) the run holds one block of records
        def peak(n):
            tracemalloc.start()
            try:
                code = cli.main(["simulate", "--preset", "fig2", "--n-steps", str(n), "--record-every", "1",
                                 "--output", str(tmp_path / f"{n}.csv")])
                return code, tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        peak(20_000)  # first use builds the formatter's tables
        (code_a, small), (code_b, large) = peak(150_000), peak(600_000)
        assert code_a == code_b == 0
        assert large - small <= 8 * 450_000 / 1e6 + 1.0, (small, large)

    @pytest.mark.parametrize("argv, code", [
        (["converge", "--preset", "fig4", "--t-final", "1", "--n-start", "1000", "--tol", "1e-3",
          "--oracle-check"], 0),
        (["converge", "--profile", "constant", "--omega0", "1e12", "--t-final", "1", "--n-start", "1000",
          "--tol", "1e-3", "--oracle-check"], 4),  # 1e15 substeps at theta = 1e-3 lose 1.4e-5 of the norm
    ], ids=["passes", "oracle_fails"])
    def test_a_reader_that_goes_away_costs_no_traceback(self, argv, code, tmp_path):
        # the reader closes the pipe after converge's first report line (unbuffered stdout: the
        # next print fails), or before any (block-buffered: the flush at the end fails); the run
        # still writes its table, gates it and runs the oracle, and exits with its own code
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = tmp_path / "x.csv"
        for unbuffered, lines_read in (("1", 1), ("", 0)):
            env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.Popen([sys.executable, "-m", "su11squeeze.cli", *argv, "--output", str(out)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for _ in range(lines_read):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == code, err
            assert "Traceback" not in err and "BrokenPipeError" not in err, err
            assert len(read_csv(out)[1]) == 500
            out.unlink()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


#: The help text each configuration flag has, by field.
_FLAG_HELP = {
    "omega0": "reference frequency (default 1.0)",
    "B": "relaxing-pulse width parameter",
    "epsilon": "modulation rate in units of omega0",
    "omega_l": "extreme frequency of the cosine modulation",
    "omega1": "second frequency of jump/square-wave profiles",
    "hold_low": "square-wave dwell at omega0",
    "hold_high": "square-wave dwell at omega1",
    "table": "two-column (t, omega) file for tabulated profiles",
    "tol": "convergence tolerance used with --n-steps auto",
    "n_start": "starting N for step doubling",
    "lam": "quadrature angle (default 0)",
    "rule": "ladder sampling rule",
    "oracle_check": "check the vacuum's image against RK4 on (a, a+) by closed-form fidelity, to r ~ 14.6",
    "fingerprint": "append re_z/im_z fingerprint columns",
}


def test_every_config_field_has_a_flag(capsys):
    # one flag per field, in field order, with the help text it had; each takes text, which config types
    wanted = {f.name for f in dataclasses.fields(ExperimentConfig)}
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        flags = {a.dest for a in parser._actions if a.option_strings}
        assert wanted <= flags, (name, sorted(wanted - flags))
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        (group,) = [g for g in parser._action_groups if g.title == "experiment configuration"]
        by_field = {a.dest: a for a in group._group_actions if a.dest != "config"}
        assert list(by_field) == [f.name for f in dataclasses.fields(ExperimentConfig)], name
        for field, action in by_field.items():
            flag = "--lambda" if field == "lam" else "--" + field.replace("_", "-")
            assert action.option_strings == [flag]
            assert action.help == _FLAG_HELP.get(field), field
            assert action.type is None, field
            assert action.choices == config.CHOICES.get(field), field  # the table validate reads
            assert f"  {flag}" in text, (name, flag)
        assert (by_field["n_steps"].metavar, by_field["record_every"].metavar) == ("N|auto", "K|auto")
        assert ("--config " in text) == (name != "compare"), name


def test_every_factory_parameter_is_a_config_field_and_a_flag():
    # config.to_profile hands the fields to each factory by parameter name
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in commands.choices["simulate"]._actions if a.option_strings}
    (sweep_param,) = [a for a in commands.choices["sweep"]._actions if a.dest == "sweep_param"]
    for kind, factory in PROFILES.items():
        params = set(inspect.signature(factory).parameters)
        assert params <= fields & flags, (kind, sorted(params - (fields & flags)))
        numbers = {name for name in params if name != "table"}  # the one text parameter
        assert numbers <= set(sweep_param.choices), (kind, sorted(numbers - set(sweep_param.choices)))


@pytest.mark.parametrize("key, flag, value", [
    ("table", "--table", "0"), ("output", "--output", "7"), ("profile", "--profile", "constant"),
    ("scaling", "--scaling", "half"), ("rule", "--rule", "midpoint"), ("format", "--format", "json"),
    ("omega0", "--omega0", "2.5"), ("t_final", "--t-final", "2"), ("n_steps", "--n-steps", "400"),
    ("lam", "--lambda", "-0.3"), ("record_every", "--record-every", "7"), ("tol", "--tol", "1e-3"),
    ("tol", "--tol", "1"), ("n_steps", "--n-steps", "1e3"), ("record_every", "--record-every", "2.0"),
    ("n_start", "--n-start", "1e4"), ("oracle_check", "--oracle-check", "true"),
])
def test_a_file_line_and_its_flag_give_the_same_config(key, flag, value, tmp_path):
    # a file's value is typed by its field, as the flag's is: output = 7 names a file, as --output 7 does,
    # and tol = 1 is the float 1.0, as --tol 1 is; a bool flag takes no value
    base = {"profile": "tabulated" if key == "table" else "constant", "t_final": "1", "n_steps": "10"}
    base.pop(key, None)
    if key == "n_start":
        base["n_steps"] = "auto"
    lines = "".join(f"{k} = {v}\n" for k, v in base.items())
    (tmp_path / "base.cfg").write_text(lines)
    (tmp_path / "line.cfg").write_text(f"{lines}{key} = {value}\n")
    flags = [flag] if key == "oracle_check" else [flag, value]
    args = cli.build_parser().parse_args(["simulate", "--config", str(tmp_path / "base.cfg"), *flags])
    by_flag = build_config(cli._layers(args))
    by_line = build_config(config_layers(config_file=str(tmp_path / "line.cfg")))
    for f in dataclasses.fields(ExperimentConfig):
        assert repr(getattr(by_line, f.name)) == repr(getattr(by_flag, f.name)), f.name


# Values that no numeric flag accepts, drawn for about one flag in four; the
# rest are values the flag may take.  Flags that set the amount of work
# (t_final, n_steps) draw from a capped range; the others may be huge.  Text
# that is no number ("abc", "", "auto") is drawn for the float flags too, and
# --n-steps may ask for more steps than numpy can size (exit 3); integral
# floats such as 1e3 are valid integers.
_REJECTED = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-1e300"])
_NOT_NUMBERS = st.sampled_from(["abc", "", "auto"])


def _or_rejected(*valid, rejected=_REJECTED):
    return st.integers(0, 3).flatmap(lambda i: rejected if i == 0 else st.one_of(*valid))


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False).map(repr)


_INTEGRAL_FLOATS = st.sampled_from(["1e3", "2.0"])

_FUZZ_FLAGS = {
    "--t-final": _or_rejected(_floats(1e-300, 5.0), rejected=_REJECTED | _NOT_NUMBERS),
    "--n-steps": _or_rejected(st.integers(1, 2000).map(str), _INTEGRAL_FLOATS,
                              rejected=_REJECTED | st.just("10000000000000000000")),
    "--omega0": _or_rejected(_floats(1e-300, 1e300), rejected=_REJECTED | _NOT_NUMBERS),
    "--epsilon": _or_rejected(_floats(1e-300, 1e300), rejected=_REJECTED | _NOT_NUMBERS),
    "--record-every": _or_rejected(st.integers(1, 10**30).map(str), _INTEGRAL_FLOATS),
}


# fig2's own t_final and n_steps would set a large amount of work, so these
# two flags are always given
_ALWAYS = ("--t-final", "--n-steps")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries(
    {flag: _FUZZ_FLAGS[flag] for flag in _ALWAYS},
    optional={flag: strategy for flag, strategy in _FUZZ_FLAGS.items() if flag not in _ALWAYS}))
def test_fuzzed_flags_exit_with_a_documented_code(values, tmp_path, capsys):
    argv = ["simulate", "--preset", "fig2", "--oracle-check", "--output", str(tmp_path / "f.csv")]
    argv += [f"{flag}={value}" for flag, value in values.items()]  # "=" keeps "-1" a value
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a value its type cannot parse
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3, 4), argv
