"""Command-line front end: simulate | sweep | converge | compare.

Exit codes: 0 success, 2 configuration error (an unwritable output, a repeated
sweep value or a parameter the profile does not take is one), 3 simulation
error, 4 oracle mismatch.  Output is CSV or JSON, the bytes ``csv.writer`` and
``json.dump`` write (full double precision through shortest round-trip reprs).
``write_table`` formats them block by block straight from the column arrays,
through :mod:`floatfmt`'s vectorized Ryū formatter; identical configurations
produce byte-identical files.  With a fixed ``n_steps``, ``simulate`` and each
``sweep`` run stream: every block of records goes from the fold to the file as
soon as the fold produces it.  A reader that closes stdout early costs the
lines it does not read, not the run or its exit code.

Importing this module loads numpy with one OpenBLAS thread, unless numpy is
loaded already or one of ``BLAS_THREAD_VARIABLES`` is set: the CLI makes no
BLAS call (``oracle.heisenberg`` multiplies its 2x2 pairs elementwise), and
starting the worker pool took about a third of the import.  OpenBLAS reads
the variable once, while numpy loads, so it is set for that import alone and
``os.environ`` is left as it was found; a user's own setting always wins.
What only some commands run loads when they first run it: ``concurrent.futures``
(``sweep``), :mod:`oracle` (``--oracle-check``) and :mod:`analysis` (``compare``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import os
import stat
import sys
import warnings
from importlib import import_module

#: The variables that set OpenBLAS's thread count; with any of them set, the user's choice stands.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from .config import CHOICES, PRESETS, SWEEP_PARAMS, ExperimentConfig, build_config, config_layers
from .errors import (
    ConfigError,
    InvalidAccumulatorError,
    LeakageError,
    ProfileDomainError,
    TableRangeError,
)
# apply_to_state has no caller here, but perfbench/spans.py wraps it as a cli attribute
from .evolution import (CONVERGE_RECORDS, NORM_DEFECT_MAX, RecordStream, Trajectory, apply_to_state, auto_converge,
                        evolve)
from .profiles import discretize

#: Attributes that load their module on first access (PEP 562): ``sweep`` builds its pool through
#: ``cli.ThreadPoolExecutor``, and perfbench/spans.py wraps all three as cli attributes.
_LAZY = {"ThreadPoolExecutor": "concurrent.futures", "integrate": ".oracle", "fidelity": ".oracle"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name], __package__), name)
    globals()[name] = value  # later lookups skip this function
    return value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_ORACLE = 4

ORACLE_FIDELITY_MIN = 0.999

BASE_COLUMNS = ("t", "omega", "re_alpha", "im_alpha", "abs_alpha",
                "r", "vartheta", "phi", "variance", "mean_n", "norm_defect")

#: Values that ``write_table`` formats in one call and writes in one ``write``: a block of R rows
#: and C columns goes out in ``ceil(R * C / WRITE_BLOCK_VALUES)`` parts whose row counts differ by
#: at most one, so a part holds fewer than ``WRITE_BLOCK_VALUES + C`` values and none is a short tail.
#: Each call has a fixed cost of some 250 numpy calls, which larger parts spread thinner; the
#: scratch, about 0.15 kB per value (1.2 MB for a CSV table, 1.3 MB for JSON, traced), bounds them.
WRITE_BLOCK_VALUES = 8192

#: Configuration fields that a command-line flag sets (each command picks presets itself).
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _say(line: str, file=None):
    """``print``, except that a reader who has gone away costs the line, not the run.

    Once a write to the stream fails with ``BrokenPipeError``, the stream's
    descriptor is pointed at the null device, so that later lines, and the
    flush at exit, drop quietly while the command finishes its work.
    """
    stream = sys.stdout if file is None else file
    try:
        print(line, file=stream)
    except BrokenPipeError:
        _drop(stream)


def _flush():
    """Flush stdout and stderr as :func:`_say` prints: a closed reader drops what is left."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            _drop(stream)


def _drop(stream):
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


# ---------------------------------------------------------------------------
# table assembly and writers
# ---------------------------------------------------------------------------

def _column_names(fingerprint: bool):
    return list(BASE_COLUMNS) + (["re_z", "im_z"] if fingerprint else [])


def _record_columns(rec, fingerprint: bool):
    """The table's 1-D float columns of a record array (or a block of one), in the fixed order."""
    a = rec.alpha
    cols = [rec.t, rec.omega, a.real, a.imag, np.hypot(a.real, a.imag),
            rec.r, rec.vartheta, rec.phi, rec.variance, rec.mean_n, rec.norm_defect]
    if fingerprint:
        cols += [rec.r * np.cos(rec.phi), rec.r * np.sin(rec.phi)]
    return cols


def trajectory_table(traj: Trajectory, fingerprint: bool = False):
    """Column names and the table as one block of 1-D float columns (plus re_z/im_z when fingerprinting)."""
    return _column_names(fingerprint), [_record_columns(traj.records, fingerprint)]


def write_table(path: str, fmt: str, columns, blocks, comments=(), extra: dict | None = None):
    """Write a table as ``csv.writer`` or ``json.dump`` would, one block of rows as it comes.

    ``blocks`` yields, in row order, lists of equal-length 1-D columns, one
    per name in ``columns``; a table held in memory is a single block.  Each
    block is formatted and written before the next is asked for, so a
    stream of blocks is never held whole.  The file is opened once the
    first block is there; if anything raises after that (a write error, or
    an error in the code that yields the blocks), the partial file is
    removed, and a write error is raised as a :class:`ConfigError`.  Only a
    regular file named by ``path`` itself is removed: a device, a FIFO or a
    symlink (and the file it points to) stays, with whatever was written.
    """
    if fmt == "csv":
        head = "".join(f"# {line}\r\n" for line in comments) + ",".join(columns)
        lead = ["\r\n"] + [","] * (len(columns) - 1)  # the row break ends the line before
        first, close, tail = lead[0], "", "\r\n"
    else:
        import json  # here, not with the module: only the JSON writer needs it

        head = "[" if extra is None else json.dumps({**extra, "records": []})[:-2]
        lead = [f", {json.dumps(name)}: " for name in columns]
        lead[0] = "}, {" + lead[0][2:]
        first, close = lead[0][3:], "}"  # close ends the last record
        tail = "]\n" if extra is None else "]}\n"
    blocks = iter(blocks)
    block = next(blocks, None)  # the file is opened once the first block is there
    blocks = itertools.chain(() if block is None else (block,), blocks)
    del block  # the writer holds each block only while it writes it
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
    removable = stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not os.path.islink(path)
    try:
        with fh:
            fh.write(head.encode("utf-8"))
            if _write_blocks(fh, fmt, lead, first, blocks):
                tail = close + tail
            fh.write(tail.encode("utf-8"))
    except BaseException as exc:
        if removable:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
        raise


def _write_blocks(fh, fmt, lead, first, blocks) -> int:
    """The rows of :func:`write_table`, each block in ``ceil(values / WRITE_BLOCK_VALUES)`` even parts.

    A part is one byte matrix: per value, the text that comes before it (a
    separator, a key) right-aligned in a fixed slot, then the value's repr
    from :func:`floatfmt.format_repr`.  A mask of the bytes in use drops the
    padding, and the part goes out in one ``write``.  The first value of the
    table takes only the tail of its row's leading text.  Returns the number
    of rows written.
    """
    # imported here, not with the module: compiling it would add ~6 ms to every start-up
    # that runs without cached bytecode, and only writing needs it
    from . import floatfmt

    nonfinite = floatfmt.CSV_NONFINITE if fmt == "csv" else floatfmt.JSON_NONFINITE
    pad = -(-max(len(text) for text in lead) // 8) * 8  # keeps each value's slot 8-byte aligned
    raw = [np.frombuffer(piece.encode("utf-8"), dtype=np.uint8) for piece in lead]
    # the leading texts hold no NUL (json.dumps escapes it) and format_repr zeroes the bytes
    # past each value's text, so the bytes in use are the nonzero ones
    skip = slice(pad - len(lead[0]), pad - len(first))  # what the table's first row leaves out
    text = None
    n_rows = 0
    for cols in blocks:
        size = len(cols[0])
        if not size:
            continue
        parts = -(-size * len(cols) // WRITE_BLOCK_VALUES)
        rows = -(-size // parts)  # the parts' rows differ by at most one: no short tail
        if text is None or text.shape[0] < rows:
            text = np.zeros((rows, len(lead), pad + floatfmt.WIDTH), dtype=np.uint8)
            for c, piece in enumerate(raw):
                text[:, c, pad - len(piece):pad] = piece
        for k in range(parts):
            lo, hi = size * k // parts, size * (k + 1) // parts
            values = np.column_stack([c[lo:hi] for c in cols])
            part = text[:len(values)]
            slots = part[:, :, pad:].reshape(-1, floatfmt.WIDTH)  # a view: the text lands in place
            floatfmt.format_repr(values, nonfinite, out=slots)
            del values, slots
            if not n_rows:
                part[0, 0, skip] = 0
            fh.write(part[part != 0])
            if not n_rows:
                part[0, 0, pad - len(raw[0]):pad] = raw[0]
            n_rows += len(part)
        del cols  # before the next block is made
    return n_rows


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _ladder_run(cfg: ExperimentConfig):
    """The arguments of :func:`evolve` and :class:`RecordStream` for a fixed ``n_steps``.

    That is the discretized ladder, the record cadence, ``lam`` and the
    scaling, in their positional order.
    """
    record_every = None if cfg.record_every == "auto" else cfg.record_every
    return (discretize(cfg.to_profile(), cfg.t_final, cfg.n_steps, rule=cfg.rule),
            record_every, cfg.lam, cfg.scaling)


def run_trajectory(cfg: ExperimentConfig) -> Trajectory:
    """Fold the configured ladder into a :class:`Trajectory`, by step doubling with ``--n-steps auto``."""
    if cfg.n_steps == "auto":
        return auto_converge(cfg.to_profile(), cfg.t_final, cfg.tol, n_start=cfg.n_start,
                             rule=cfg.rule, lam=cfg.lam, scaling=cfg.scaling)
    return evolve(*_ladder_run(cfg))


def _verify(cfg: ExperimentConfig, traj, announce=_say) -> int:
    """Report a stopped doubling, gate the norm defect over every step, then cross-check the vacuum's image.

    A doubling that stopped before ``tol`` (``converged is False``: at its
    cap, or before a level past the norm-defect gate) is one line on
    stderr that ends on the trajectory's ``stop_reason``, not a Python
    warning, and it leaves the exit code alone.

    The oracle is :func:`oracle.heisenberg` at :func:`oracle.pair_substeps`.
    The check passes at :func:`oracle.vacuum_fidelity` less its rounding
    bound ``>= ORACLE_FIDELITY_MIN``; where the bound alone reaches ``1 -
    ORACLE_FIDELITY_MIN`` it fails unresolved, without RK4.  The passed line
    also prints the pair error, which is not gated.  ``traj`` is a
    :class:`Trajectory` or a :class:`RecordStream` whose blocks are written.
    ``announce(line, file=None)`` prints like ``print``, under the run's label if it has one.
    """
    if traj.converged is False:
        last = traj.convergence_history[-1][1] if traj.convergence_history else math.nan
        announce(f"warning: step doubling stopped at n_steps={traj.n_steps_used} before reaching "
                 f"tol={cfg.tol:g}; last max |dr| = {last:.3e}; {traj.stop_reason}", file=sys.stderr)
    worst = traj.max_norm_defect  # over every piece of the fold, recorded or not
    if not worst <= NORM_DEFECT_MAX:  # a nan fails too
        announce(f"error: norm defect {worst:.3e} exceeds {NORM_DEFECT_MAX:g}", file=sys.stderr)
        return EXIT_SIMULATION
    if not cfg.oracle_check:
        return EXIT_OK
    from . import oracle

    p, q = traj.final
    bound = oracle.FIDELITY_ROUNDING * abs(p) ** 2  # the fold has refused an overflowing |p|^2
    if not bound < 1.0 - ORACLE_FIDELITY_MIN:
        announce(f"oracle check failed: cannot resolve the fidelity at r = {math.asinh(abs(q)):.4g}: its "
                 f"rounding bound {bound:.1e} reaches {1.0 - ORACLE_FIDELITY_MIN:.0e}")
        return EXIT_ORACLE
    dprof = discretize(cfg.to_profile(), cfg.t_final, traj.n_steps_used, rule=cfg.rule)
    try:
        n_sub = oracle.pair_substeps(dprof)
        u, v, _ = oracle.heisenberg(dprof, n_sub)
    except (ValueError, LeakageError) as exc:
        announce(f"oracle check failed: {exc}")
        return EXIT_ORACLE
    fid = oracle.vacuum_fidelity(u, v, p, q)
    if not fid - bound >= ORACLE_FIDELITY_MIN:  # a nan fails too
        announce(f"oracle mismatch: fidelity {fid:.8f} - {bound:.1e} < {ORACLE_FIDELITY_MIN} (n_sub={n_sub})")
        return EXIT_ORACLE
    announce(f"oracle check passed: fidelity {fid:.8f} "
             f"(n_sub={n_sub}, pair error {oracle.pair_error(u, v, p, q):.1e})")
    return EXIT_OK


def run_single(cfg: ExperimentConfig, announce=_say) -> int:
    """Fold the configured ladder and write its table, then gate the run with :func:`_verify`.

    With a fixed ``n_steps`` the table is streamed: each block of records
    goes from the fold to the file before the next is folded, so the run
    holds one block of records, not all of them.  With ``auto`` the
    doubling's last trajectory is written as one block.
    """
    if cfg.n_steps == "auto":
        run = run_trajectory(cfg)
        records, n_records = (run.records,), len(run.records)
    else:  # the stream alone holds the ladder, so it can free the samples after the last fold
        run = RecordStream(*_ladder_run(cfg))
        records, n_records = run.blocks(), run.n_records
    write_table(cfg.output, cfg.format, _column_names(cfg.fingerprint),
                (_record_columns(block, cfg.fingerprint) for block in records))
    announce(f"wrote {cfg.output} ({n_records} records, n_steps={run.n_steps_used})")
    return _verify(cfg, run, announce)


def _check_output(path: str) -> str:
    """Refuse, before any work runs, an output that names a directory or lies in a missing one."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write output {path}: it is a directory or lies in a missing one")
    return path


def _layers(args: argparse.Namespace, side: str = "") -> list:
    """The layers of the run that ``--preset<side>`` and ``--config<side>`` name, the flags on top."""
    return config_layers(getattr(args, f"preset{side}"), getattr(args, f"config{side}"),
                         {key: getattr(args, key) for key in _CONFIG_KEYS})


def _config(layers) -> ExperimentConfig:
    cfg = build_config(layers)
    _check_output(cfg.output)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    return run_single(_config(_layers(args)))


def cmd_sweep(args) -> int:
    tokens = [tok.strip() for tok in args.sweep_values.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--sweep-values is empty")
    if len(set(tokens)) < len(tokens):
        raise ConfigError(f"--sweep-values repeats a value: {args.sweep_values}")

    layers = _layers(args)
    jobs = []
    for token in tokens:
        cfg = build_config([*layers, ("--sweep-values", {args.sweep_param: token})])
        stem, ext = os.path.splitext(cfg.output)
        cfg.output = _check_output(f"{stem}_{args.sweep_param}{token}{ext}")
        jobs.append((token, cfg))

    messages: dict[str, list] = {token: [] for token, _ in jobs}  # (line, file) in order

    def run(token, cfg):
        return run_single(cfg, lambda line, file=None: messages[token].append((line, file)))

    # one worker runs the values in order, so the sweep holds one run's working set at a time; the
    # pool is looked up on the module, where a wrapper that replaced cli.ThreadPoolExecutor sits
    with sys.modules[__name__].ThreadPoolExecutor(max_workers=1) as pool:
        runs = [pool.submit(run, token, cfg) for token, cfg in jobs]
    codes = [future.result() for future in runs]  # all have run; the first value that raised raises here

    for token, _ in jobs:
        for line, file in messages[token]:
            _say(f"[{args.sweep_param}={token}] {line}", file=file)
    return next((code for code in codes if code != EXIT_OK), EXIT_OK)  # the first failure decides


def _doubling_start(layers, cfg: ExperimentConfig) -> int:
    """Where ``converge`` doubles from when ``cfg`` fixes ``n_steps``.

    The highest layer that sets a fixed ``n_steps`` or an ``n_start`` names
    the start; one layer setting both is a configuration error.
    """
    for source, keys in reversed(layers):
        fixed = keys.get("n_steps", "auto") != "auto"
        if fixed and "n_start" in keys:
            raise ConfigError(f"{source} sets both n_steps and n_start, and converge takes one: "
                              "each sets where the doubling starts")
        if fixed or "n_start" in keys:
            return cfg.n_steps if fixed else cfg.n_start
    return cfg.n_steps


def cmd_converge(args) -> int:
    layers = _layers(args)
    cfg = _config(layers)
    if cfg.record_every != "auto":
        raise ConfigError(f"converge records {CONVERGE_RECORDS} instants and takes no --record-every")
    if isinstance(cfg.n_steps, int):  # converge always doubles: a fixed N names where it starts
        cfg = dataclasses.replace(cfg, n_steps="auto", n_start=_doubling_start(layers, cfg)).validate()
    traj = run_trajectory(cfg)
    report_lines = [f"converge N={n} max_dr={diff!r}" for n, diff in traj.convergence_history]
    report_lines.append(f"converged={str(traj.converged).lower()} n_final={traj.n_steps_used} tol={cfg.tol!r}")
    for line in report_lines:
        _say(line)
    columns, blocks = trajectory_table(traj, fingerprint=cfg.fingerprint)
    extra = {"report": {
        "history": [[n, diff] for n, diff in traj.convergence_history],
        "converged": traj.converged,
        "n_final": traj.n_steps_used,
        "tol": cfg.tol,
    }}
    write_table(cfg.output, cfg.format, columns, blocks, comments=report_lines, extra=extra)
    _say(f"wrote {cfg.output} ({len(traj.records)} records)")
    return _verify(cfg, traj)


def _compare_output(args, files):
    """The output path and format of ``compare``: the flag, else the config files' value, else the default.

    ``files`` holds the keys of each side's ``--config-a``/``--config-b`` file layer: only what the
    files set counts, and two files that set different values are a configuration error.
    """
    chosen = {}
    for key, default in (("output", "compare.csv"), ("format", "csv")):
        values = [keys[key] for keys in files if key in keys]
        flag = getattr(args, key)
        if flag is None and len(set(values)) > 1:
            raise ConfigError(f"--config-a and --config-b set different {key} values: "
                              f"{values[0]!r} vs {values[1]!r}")
        chosen[key] = flag if flag is not None else values[0] if values else default
    return _check_output(chosen["output"]), chosen["format"]


def cmd_compare(args) -> int:
    paths, sides = (args.config_a, args.config_b), (_layers(args, "_a"), _layers(args, "_b"))
    cfg_a, cfg_b = (build_config(layers) for layers in sides)
    if cfg_a.t_final != cfg_b.t_final:
        raise ConfigError(f"t_final differs: {cfg_a.t_final} vs {cfg_b.t_final}")
    out, fmt = _compare_output(args, [dict(layers).get(path, {}) for layers, path in zip(sides, paths)])
    traj_a = run_trajectory(cfg_a)
    traj_b = run_trajectory(cfg_b)
    t_a, t_b = traj_a.records.t, traj_b.records.t
    # one instant k*t_final/n_records, reached as rec*tau at two N, may round a few ulps apart
    if t_a.shape != t_b.shape or not np.allclose(t_a, t_b, rtol=4.0 * np.finfo(np.float64).eps, atol=0.0):
        raise ConfigError("record grids differ; match n_steps and record_every")
    r_a, r_b = traj_a.records.r, traj_b.records.r
    verdict = _compare_verdict(cfg_a, cfg_b, t_a, r_a, r_b)

    write_table(out, fmt, ["t", "r_a", "r_b", "r_diff"], [[t_a, r_a, r_b, r_a - r_b]],
                comments=[f"verdict: {verdict}"], extra={"verdict": verdict})
    _say(f"verdict: {verdict}")
    _say(f"wrote {out} ({len(t_a)} records)")
    codes = [_verify(cfg, traj, lambda line, file=None: _say(f"[{side}] {line}", file=file))
             for side, cfg, traj in (("a", cfg_a, traj_a), ("b", cfg_b, traj_b))]
    return next((code for code in codes if code != EXIT_OK), EXIT_OK)  # the first failure decides


def _compare_verdict(cfg_a, cfg_b, times, r_a, r_b) -> str:
    if np.array_equal(r_a, r_b):
        return "identical"
    from . import analysis

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

def _add_config_flags(parser: argparse.ArgumentParser, config_file: bool = True):
    """One flag per :class:`ExperimentConfig` field, with the field's help and metavar, each taking
    the text that :mod:`config` types."""
    grp = parser.add_argument_group("experiment configuration")
    if config_file:  # compare names one file per run instead
        grp.add_argument("--config", help="flat key = value configuration file")
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        if f.type == "bool":
            grp.add_argument(flag, dest=f.name, action="store_const", const="true", **f.metadata)
        else:
            grp.add_argument(flag, dest=f.name, choices=CHOICES.get(f.name), **f.metadata)


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
                         choices=SWEEP_PARAMS)
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
    _add_config_flags(p_cmp, config_file=False)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # _verify reports a stopped doubling under the run's label
            warnings.filterwarnings("ignore", "step-doubling stopped", RuntimeWarning)
            return args.func(args)
    except ConfigError as exc:
        _say(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProfileDomainError, TableRangeError, InvalidAccumulatorError, LeakageError) as exc:
        _say(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except MemoryError:  # every command has --n-steps and --n-start; name the one that sized the ladder
        key = next((key for key in ("n_steps", "n_start") if getattr(args, key) not in (None, "auto")), None)
        asked = f"{key} = {getattr(args, key)}" if key else "the configured n_steps"
        _say(f"simulation error: out of memory for {asked}; lower {key or 'n_steps'}", file=sys.stderr)
        return EXIT_SIMULATION
    finally:  # a block-buffered stdout meets a closed reader here, not in _say
        _flush()


if __name__ == "__main__":
    sys.exit(main())
