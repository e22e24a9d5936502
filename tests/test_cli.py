import argparse
import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from su11squeeze import cli, kernels, oracle
from su11squeeze.config import FORMATS, ExperimentConfig
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
                         "--oracle-check", "--oracle-dim", "64",
                         "--output", str(out)])
        assert code == 0
        assert "oracle check passed" in capsys.readouterr().out

    def test_oracle_check_fails_when_basis_is_too_small(self, tmp_path, capsys):
        out = tmp_path / "tight.csv"
        code = cli.main(["simulate", "--profile", "janszky_adam", "--omega1", "1.5",
                         "--t-final", "8", "--n-steps", "8000",
                         "--oracle-check", "--oracle-dim", "16",
                         "--output", str(out)])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["simulate", "--profile", "relaxing_pulse"],              # missing B
        ["simulate", "--profile", "constant", "--t-final", "-1"],
        ["simulate", "--profile", "constant", "--scaling", "half", "--n-steps", "0"],
        ["simulate", "--preset", "fig1", "--B", "-2"],
        ["simulate", "--preset", "fig1", "--t-final", "inf"],
        ["simulate", "--preset", "fig1", "--omega0", "inf"],
        ["simulate", "--preset", "fig2", "--epsilon", "nan"],
        *[ORACLE_RUN + ["--oracle-dim", dim] for dim in ("0", "3")],
        *[ORACLE_RUN + ["--oracle-dt-sub", dt] for dt in ("0", "-1", "1")],  # tau = 0.001
        ["simulate", "--profile", "constant", "--t-final", "1", "--n-start", "50"],
        ["converge", "--profile", "constant", "--t-final", "1", "--n-steps", "50"],
        ["simulate", "--profile", "constant", "--t-final", "1", "--n-steps", "auto", "--record-every", "7"],
        ["converge", "--profile", "constant", "--t-final", "1", "--n-steps", "1000", "--record-every", "3"],
    ])
    def test_config_errors_exit_2(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "omega0 = abc", "oracle_dim = abc", "t_final = abc", "n_start = abc",
        "lambda = abc", "omega0 = auto",
    ])
    def test_config_file_values_of_the_wrong_type_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"profile = constant\nt_final = 1\nn_steps = 10\n{line}\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "record_every = 2.5", "n_steps = 1000.5", "n_start = 500.5", "oracle_dim = 64.5",
    ])
    def test_config_file_non_integral_values_in_integer_fields_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"profile = constant\nt_final = 1\nn_steps = 10\n{line}\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_config_file_integral_float_is_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("profile = constant\nt_final = 1\nn_steps = 1e3\n")
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 0
        assert "(1000 records, n_steps=1000)" in capsys.readouterr().out

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
                         "--oracle-check", "--oracle-dim", "5",
                         "--output", str(tmp_path / "x.csv")] + argv)
        assert code == 3
        assert "simulation error" in capsys.readouterr().err

    def test_diverged_oracle_fails_the_check(self, tmp_path, capsys):
        # RK4 at dt*omega0 ~ 1e197 overflows to nan, which the oracle must reject
        code = cli.main(["simulate", "--profile", "constant", "--omega0", "1e200",
                         "--t-final", "1", "--n-steps", "1000",
                         "--oracle-check", "--oracle-dim", "64", "--output", str(tmp_path / "x.csv")])
        assert code == 4
        assert "oracle check failed: RK4 norm loss nan" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["--preset", "fig2", "--t-final", "1.5", "--omega0", "1e-300", "--n-steps", "1",
          "--epsilon", "7.024474751815672e+291"], 3),
        (["--preset", "fig2", "--omega0", "1e150", "--t-final", "1", "--n-steps", "100",
          "--oracle-check", "--oracle-dim", "8"], 4),
    ], ids=["fold_overflow", "oracle_overflow"])
    def test_overflow_prints_no_numpy_warning(self, argv, code, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        run = subprocess.run([sys.executable, "-m", "su11squeeze.cli", "simulate", *argv,
                              "--output", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == code
        assert "RuntimeWarning" not in run.stderr

    def test_vacuum_wider_than_the_largest_basis_exits_4(self, tmp_path, capsys):
        # r = 4.87 at t = 30: the vacuum's image does not fit in 4096 levels
        code = cli.main(["simulate", "--preset", "fig4", "--oracle-check", "--output", str(tmp_path / "x.csv")])
        assert code == 4
        assert "at dim=4096; state too wide for the truncated basis" in capsys.readouterr().out

    def test_pair_error_sees_what_fidelity_does_not(self, tmp_path, capsys, monkeypatch):
        def pair_error(argv):
            assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 0
            found = re.search(r"oracle check passed: fidelity (\S+) \(dim=\d+, pair error (\S+)\)",
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

    @pytest.mark.parametrize("param", ["t_final", "lam", "omega0"])
    def test_run_parameters_and_omega0_sweep_any_profile(self, param, tmp_path, capsys):
        code = cli.main(["sweep", "--profile", "sudden_jump", "--omega1", "1.5", "--sweep-param", param,
                         "--sweep-values", "1,2", "--t-final", "1", "--n-steps", "100",
                         "--output", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 2

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
        cli.write_table(str(got), fmt, columns, cols, comments=comments, extra=extra)
        reference_table(str(want), fmt, columns, cols, comments=comments, extra=extra)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("extra", _EXTRAS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_sample_across_blocks(self, fmt, extra, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n = 2 * cli.WRITE_BLOCK_ROWS + 37
        cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n) for _ in range(5)]
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
        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 4)  # 0 to 3 block boundaries
        n_rows, n_cols = shape
        flat = np.array(values[:n_rows * n_cols])
        self.assert_matches_reference(tmp_path, fmt, list(flat.reshape(n_cols, n_rows)), extra)


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_every_config_field_has_a_flag():
    wanted = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"preset"}
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        flags = {a.dest for a in parser._actions if a.option_strings}
        assert wanted <= flags, (name, sorted(wanted - flags))


def test_every_factory_parameter_is_a_config_field_and_a_flag():
    # config.to_profile hands the fields to each factory by parameter name
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in commands.choices["simulate"]._actions if a.option_strings}
    for kind, factory in PROFILES.items():
        params = set(inspect.signature(factory).parameters)
        assert params <= fields & flags, (kind, sorted(params - (fields & flags)))


# Values that no numeric flag accepts, drawn for about one flag in four; the
# rest are values the flag may take.  Flags that set the amount of work
# (t_final, n_steps, oracle_dim, oracle_dt_sub) draw from a capped range; the
# others may be huge.
_REJECTED = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-1e300"])


def _or_rejected(*valid):
    return st.integers(0, 3).flatmap(lambda i: _REJECTED if i == 0 else st.one_of(*valid))


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False).map(repr)


_FUZZ_FLAGS = {
    "--t-final": _or_rejected(_floats(1e-300, 5.0)),
    "--n-steps": _or_rejected(st.integers(1, 2000).map(str)),
    "--omega0": _or_rejected(_floats(1e-300, 1e300)),
    "--epsilon": _or_rejected(_floats(1e-300, 1e300)),
    "--record-every": _or_rejected(st.integers(1, 10**30).map(str)),
    "--oracle-dim": _or_rejected(st.sampled_from(["3", "4", "100000"]), st.integers(5, 64).map(str)),
    "--oracle-dt-sub": _or_rejected(st.just("1e300"), _floats(1e-3, 10.0)),
}


# fig2's own t_final, n_steps and unpinned oracle basis would set a large
# amount of work, so these three flags are always given
_ALWAYS = ("--t-final", "--n-steps", "--oracle-dim")


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
