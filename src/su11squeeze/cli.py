"""Command-line front end: simulate | sweep | converge | compare.

Exit codes: 0 success, 2 configuration error (an unwritable output or a repeated
sweep value is one), 3 simulation error, 4 oracle mismatch.  Output is CSV or
JSON, the bytes ``csv.writer`` and ``json.dump`` write (full double precision
through shortest round-trip reprs), formatted in row blocks straight from the
column arrays; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import analysis
from .config import FORMATS, PRESETS, ExperimentConfig, build_config, profile_parameters
from .errors import (
    ConfigError,
    InvalidAccumulatorError,
    LeakageError,
    ProfileDomainError,
    TableRangeError,
)
from .evolution import SCALINGS, FockState, Trajectory, apply_to_state, auto_converge, evolve
# integrate has no caller here, but perfbench/spans.py wraps it as cli.integrate
from .oracle import evolve_vacuum, fidelity, integrate, pair_error
from .profiles import KINDS, RULES, discretize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_ORACLE = 4

ORACLE_FIDELITY_MIN = 0.999
NORM_DEFECT_MAX = 1e-10

BASE_COLUMNS = ("t", "omega", "re_alpha", "im_alpha", "abs_alpha",
                "r", "vartheta", "phi", "variance", "mean_n", "norm_defect")

#: Rows per ``write`` call: larger blocks gain no speed, and a whole table would hold all its text.
WRITE_BLOCK_ROWS = 1024

#: Sweep parameters that every profile kind accepts because the run, not the profile, reads them.
_RUN_SWEEP_PARAMS = ("t_final", "lam")

#: Configuration fields that a command-line flag sets (each command picks presets itself).
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "preset")


# ---------------------------------------------------------------------------
# table assembly and writers
# ---------------------------------------------------------------------------

def trajectory_table(traj: Trajectory, fingerprint: bool = False):
    """Column names and 1-D float arrays in the fixed order (plus re_z/im_z when fingerprinting)."""
    rec = traj.records
    columns = list(BASE_COLUMNS)
    a = rec.alpha
    cols = [rec.t, rec.omega, a.real, a.imag, np.hypot(a.real, a.imag),
            rec.r, rec.vartheta, rec.phi, rec.variance, rec.mean_n, rec.norm_defect]
    if fingerprint:
        columns += ["re_z", "im_z"]
        cols += [rec.r * np.cos(rec.phi), rec.r * np.sin(rec.phi)]
    return columns, cols


def write_table(path: str, fmt: str, columns, cols, comments=(), extra: dict | None = None):
    """Write equal-length columns, in row blocks, as ``csv.writer`` or ``json.dump`` would."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                fh.write("".join(f"# {line}\r\n" for line in comments) + ",".join(columns) + "\r\n")
                row, sep, tail = ",".join(["%s"] * len(columns)) + "\r\n", "", ""
            else:
                fh.write("[" if extra is None else json.dumps({**extra, "records": []})[:-2])
                row = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in columns) + "}"
                sep, tail = ", ", "]\n" if extra is None else "]}\n"
                cols = [c if np.isfinite(c).all() else np.array([json.dumps(v) for v in c.tolist()])
                        for c in cols]  # json spells nan and +-inf NaN and Infinity
            for lo in range(0, len(cols[0]), WRITE_BLOCK_ROWS):
                block = [c[lo:lo + WRITE_BLOCK_ROWS].tolist() for c in cols]
                fh.write((sep if lo else "") + sep.join(row % vals for vals in zip(*block)))
            fh.write(tail)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def run_trajectory(cfg: ExperimentConfig) -> Trajectory:
    profile = cfg.to_profile()
    if cfg.n_steps == "auto":
        return auto_converge(profile, cfg.t_final, cfg.tol, n_start=cfg.n_start,
                             rule=cfg.rule, lam=cfg.lam, scaling=cfg.scaling)
    record_every = None if cfg.record_every == "auto" else cfg.record_every
    dprof = discretize(profile, cfg.t_final, cfg.n_steps, rule=cfg.rule)
    return evolve(dprof, record_every=record_every, lam=cfg.lam, scaling=cfg.scaling)


def _verify(cfg: ExperimentConfig, traj: Trajectory, announce=print) -> int:
    """Gate the norm defect over every step, then cross-check the vacuum's image against RK4 if asked.

    The oracle is :func:`oracle.evolve_vacuum`, RK4 on the Heisenberg pair; the
    passed line also prints its pair error against ``traj.final``, which is
    not gated.

    ``announce(line, file=None)`` prints like ``print``, under the run's label if it has one.
    """
    worst = traj.max_norm_defect  # over every step, recorded or not
    if not worst <= NORM_DEFECT_MAX:  # a nan fails too
        announce(f"error: norm defect {worst:.3e} exceeds {NORM_DEFECT_MAX:g}", file=sys.stderr)
        return EXIT_SIMULATION
    if not cfg.oracle_check:
        return EXIT_OK
    dprof = discretize(cfg.to_profile(), cfg.t_final, traj.n_steps_used, rule=cfg.rule)
    dt_sub = cfg.oracle_dt_sub if cfg.oracle_dt_sub is not None else dprof.tau / 4.0
    if dt_sub > dprof.tau:
        raise ConfigError(f"oracle_dt_sub {dt_sub} exceeds the ladder step tau = {dprof.tau}")
    try:
        oracle_state, diag, (u, v) = evolve_vacuum(dprof, dt_sub, dim=cfg.oracle_dim)
        method_state = apply_to_state(traj.final, FockState.vacuum(), n_max=diag.dim - 1)
    except LeakageError as exc:
        announce(f"oracle check failed: {exc}")
        return EXIT_ORACLE
    fid = fidelity(method_state.normalized(), oracle_state)
    if not fid >= ORACLE_FIDELITY_MIN:  # a diverged integration gives nan
        announce(f"oracle mismatch: fidelity {fid:.8f} < {ORACLE_FIDELITY_MIN} "
                 f"(dim={diag.dim}, leakage={diag.leakage:.2e})")
        return EXIT_ORACLE
    announce(f"oracle check passed: fidelity {fid:.8f} "
             f"(dim={diag.dim}, pair error {pair_error(u, v, traj.final):.1e})")
    return EXIT_OK


def run_single(cfg: ExperimentConfig, announce=print) -> int:
    traj = run_trajectory(cfg)
    columns, cols = trajectory_table(traj, fingerprint=cfg.fingerprint)
    write_table(cfg.output, cfg.format, columns, cols)
    announce(f"wrote {cfg.output} ({len(traj.records)} records, n_steps={traj.n_steps_used})")
    return _verify(cfg, traj, announce)


def _check_output(path: str) -> str:
    """Refuse, before any work runs, an output that names a directory or lies in a missing one."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write output {path}: it is a directory or lies in a missing one")
    return path


def _overrides(args: argparse.Namespace) -> dict:
    return {key: value for key in _CONFIG_KEYS if (value := getattr(args, key, None)) is not None}


def _config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = build_config(preset=args.preset, config_file=args.config, overrides=_overrides(args))
    _check_output(cfg.output)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    return run_single(_config(args))


def cmd_sweep(args) -> int:
    tokens = [tok.strip() for tok in args.sweep_values.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--sweep-values is empty")
    if len(set(tokens)) < len(tokens):
        raise ConfigError(f"--sweep-values repeats a value: {args.sweep_values}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from exc

    base = _overrides(args)
    jobs = []
    for token, value in zip(tokens, values):
        overrides = dict(base)
        overrides[args.sweep_param] = value
        cfg = build_config(preset=args.preset, config_file=args.config, overrides=overrides)
        if args.sweep_param not in (*_RUN_SWEEP_PARAMS, *profile_parameters(cfg.profile)):
            raise ConfigError(f"profile {cfg.profile!r} takes no parameter {args.sweep_param!r}")
        stem, ext = os.path.splitext(cfg.output)
        cfg.output = _check_output(f"{stem}_{args.sweep_param}{token}{ext}")
        jobs.append((token, cfg))

    messages: dict[str, list] = {token: [] for token, _ in jobs}  # (line, file) in order

    def run(job):
        token, cfg = job
        return token, run_single(cfg, lambda line, file=None: messages[token].append((line, file)))

    with ThreadPoolExecutor(max_workers=min(4, len(jobs))) as pool:
        results = dict(pool.map(run, jobs))

    code = EXIT_OK
    for token, _ in jobs:
        for line, file in messages[token]:
            print(f"[{args.sweep_param}={token}] {line}", file=file)
        if results[token] != EXIT_OK and code == EXIT_OK:
            code = results[token]
    return code


def cmd_converge(args) -> int:
    cfg = _config(args)
    if isinstance(cfg.n_steps, int):  # a fixed N is where the doubling starts
        cfg = dataclasses.replace(cfg, n_steps="auto", n_start=cfg.n_steps).validate()
    traj = run_trajectory(cfg)
    report_lines = [f"converge N={n} max_dr={diff!r}" for n, diff in traj.convergence_history]
    report_lines.append(f"converged={str(traj.converged).lower()} n_final={traj.n_steps_used} tol={cfg.tol!r}")
    for line in report_lines:
        print(line)
    columns, cols = trajectory_table(traj, fingerprint=cfg.fingerprint)
    extra = {"report": {
        "history": [[n, diff] for n, diff in traj.convergence_history],
        "converged": traj.converged,
        "n_final": traj.n_steps_used,
        "tol": cfg.tol,
    }}
    write_table(cfg.output, cfg.format, columns, cols, comments=report_lines, extra=extra)
    print(f"wrote {cfg.output} ({len(traj.records)} records)")
    return _verify(cfg, traj)


def _compare_config(args, suffix: str) -> ExperimentConfig:
    preset = getattr(args, f"preset_{suffix}")
    config_file = getattr(args, f"config_{suffix}")
    return build_config(preset=preset, config_file=config_file, overrides=_overrides(args))


def cmd_compare(args) -> int:
    cfg_a = _compare_config(args, "a")
    cfg_b = _compare_config(args, "b")
    if cfg_a.t_final != cfg_b.t_final:
        raise ConfigError(f"t_final differs: {cfg_a.t_final} vs {cfg_b.t_final}")
    out = _check_output(args.output or "compare.csv")
    traj_a = run_trajectory(cfg_a)
    traj_b = run_trajectory(cfg_b)
    t_a, t_b = traj_a.records.t, traj_b.records.t
    if t_a.shape != t_b.shape or not np.array_equal(t_a, t_b):
        raise ConfigError("record grids differ; match n_steps and record_every")
    r_a, r_b = traj_a.records.r, traj_b.records.r
    verdict = _compare_verdict(cfg_a, cfg_b, t_a, r_a, r_b)

    write_table(out, args.format or "csv", ["t", "r_a", "r_b", "r_diff"], [t_a, r_a, r_b, r_a - r_b],
                comments=[f"verdict: {verdict}"], extra={"verdict": verdict})
    print(f"verdict: {verdict}")
    print(f"wrote {out} ({len(t_a)} records)")
    codes = [_verify(cfg, traj, lambda line, file=None: print(f"[{side}] {line}", file=file))
             for side, cfg, traj in (("a", cfg_a, traj_a), ("b", cfg_b, traj_b))]
    return next((code for code in codes if code != EXIT_OK), EXIT_OK)  # the first failure decides


def _compare_verdict(cfg_a, cfg_b, times, r_a, r_b) -> str:
    if np.array_equal(r_a, r_b):
        return "identical"
    period_a = cfg_a.to_profile().period
    period_b = cfg_b.to_profile().period
    transient = max(period_a or 0.0, period_b or 0.0) or times[-1] / 10.0
    bar_a = analysis.trailing_mean(times, r_a, period_a or 0.0)
    bar_b = analysis.trailing_mean(times, r_b, period_b or 0.0)
    mask = times > transient
    if not np.any(mask):
        return "window too short for a verdict"
    da = bar_a[mask] - bar_b[mask]
    if np.all(da >= 0.0):
        return "A dominates after transient"
    if np.all(da <= 0.0):
        return "B dominates after transient"
    late = times >= 0.75 * times[-1]
    dl = bar_a[late] - bar_b[late]
    if np.all(dl > 0.0):
        return "A dominates at late times"
    if np.all(dl < 0.0):
        return "B dominates at late times"
    return "mixed ordering after transient"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_or_auto(text: str):
    return text if text == "auto" else int(text)


def _add_config_flags(parser: argparse.ArgumentParser):
    grp = parser.add_argument_group("experiment configuration")
    grp.add_argument("--config", help="flat key = value configuration file")
    grp.add_argument("--profile", choices=KINDS)
    grp.add_argument("--omega0", type=float, help="reference frequency (default 1.0)")
    grp.add_argument("--B", type=float, help="relaxing-pulse width parameter")
    grp.add_argument("--epsilon", type=float, help="modulation rate in units of omega0")
    grp.add_argument("--omega-l", type=float, dest="omega_l", help="extreme frequency of the cosine modulation")
    grp.add_argument("--omega1", type=float, help="second frequency of jump/square-wave profiles")
    grp.add_argument("--hold-low", type=float, dest="hold_low", help="square-wave dwell at omega0")
    grp.add_argument("--hold-high", type=float, dest="hold_high", help="square-wave dwell at omega1")
    grp.add_argument("--table", help="two-column (t, omega) file for tabulated profiles")
    grp.add_argument("--t-final", type=float, dest="t_final")
    grp.add_argument("--n-steps", type=_int_or_auto, dest="n_steps", metavar="N|auto")
    grp.add_argument("--tol", type=float, help="convergence tolerance used with --n-steps auto")
    grp.add_argument("--n-start", type=int, dest="n_start", help="starting N for step doubling")
    grp.add_argument("--lambda", type=float, dest="lam", help="quadrature angle (default 0)")
    grp.add_argument("--scaling", choices=tuple(SCALINGS))
    grp.add_argument("--record-every", type=_int_or_auto, dest="record_every", metavar="K|auto")
    grp.add_argument("--rule", choices=RULES, help="ladder sampling rule")
    grp.add_argument("--output")
    grp.add_argument("--format", choices=FORMATS)
    grp.add_argument("--oracle-check", dest="oracle_check", action="store_const", const=True,
                     help="validate the vacuum's image against RK4 on the Heisenberg pair (a, a+)")
    grp.add_argument("--oracle-dim", type=int, dest="oracle_dim",
                     help="pin the number basis the oracle's vacuum image is compared in")
    grp.add_argument("--oracle-dt-sub", type=float, dest="oracle_dt_sub",
                     help="oracle RK4 substep on the Heisenberg pair (default tau/4)")
    grp.add_argument("--fingerprint", action="store_const", const=True,
                     help="append re_z/im_z fingerprint columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11squeeze",
        description="Squeezing dynamics of a frequency-modulated oscillator via su(1,1) step composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and write it out")
    p_sim.add_argument("--preset", choices=sorted(PRESETS))
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run one trajectory per parameter value")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS))
    p_sweep.add_argument("--sweep-param", required=True, dest="sweep_param",
                         choices=("B", "epsilon", "omega_l", "omega1", "hold_low", "hold_high",
                                  *_RUN_SWEEP_PARAMS, "omega0"))
    p_sweep.add_argument("--sweep-values", required=True, dest="sweep_values",
                         help="comma-separated numeric values")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("converge", help="step-doubling convergence study")
    p_conv.add_argument("--preset", choices=sorted(PRESETS))
    _add_config_flags(p_conv)
    p_conv.set_defaults(func=cmd_converge)

    p_cmp = sub.add_parser("compare", help="run two configurations on a common grid")
    p_cmp.add_argument("--preset-a", dest="preset_a", choices=sorted(PRESETS))
    p_cmp.add_argument("--preset-b", dest="preset_b", choices=sorted(PRESETS))
    p_cmp.add_argument("--config-a", dest="config_a")
    p_cmp.add_argument("--config-b", dest="config_b")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProfileDomainError, TableRangeError, InvalidAccumulatorError, LeakageError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
