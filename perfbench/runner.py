"""Runs one workload's passes in a fresh interpreter and writes what it measured.

Usage: python3 perfbench/runner.py SPEC_JSON RESULT_JSON

``run.py`` starts this as a child process, so that ``peak_rss_mb`` is the
peak resident memory of the program's work alone.  Every command goes
through ``su11squeeze.cli.main(argv)`` in process.  The loop is closed, one
client on one thread: the next command starts when the previous one has
returned.  Passes repeat until the next one would end after the deadline;
there is always at least one.  In a traced run, untraced and traced passes
alternate, so that their difference is the tracing overhead.  Each pass
first deletes the outputs of the pass before, so that every pass writes
new files, as a first run does.

Between commands the runner times a fixed calibration loop.  The speed of a
shared VM drifts by tens of percent over minutes, and the mean of the
run's loop times tracks it: the run's ``speed_factor`` takes every time to
the reference speed at which the loop takes ``CAL_REF_S``.  A single loop
time also swings by up to 1.5x from second to second; commands of several
seconds average that out, so one factor per run fits them better than a
factor per command.  The loop runs in this process, right after each
command, so it cannot tell machine drift from a program change that slows
what follows a command: pool, numba or OpenMP threads still spinning, or a
much larger heap.  Such a change slows the loop as well and reads as a
faster machine.  ``run.py`` therefore also reports the unscaled times
(``wall.run_s``, ``wall.simulate_s``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import spans
import workloads

#: The calibration loop mixes pure-Python complex arithmetic (as in the
#: fold) with small numpy updates of a 256-vector (as in the RK4 sweep);
#: either part alone tracked only one of the two.  CAL_REF_S is its median
#: time on a 2-vCPU Xeon VM, the reference speed every time is scaled to.
CAL_PY_ITERATIONS = 15_000
CAL_NP_ITERATIONS = 750
CAL_REPEATS = 3
CAL_REF_S = 0.012
_CAL_DIAG = np.linspace(1.0, 2.0, 256)
_CAL_STATE = np.linspace(0.0, 1.0, 256) + 0j


def _call(main, argv) -> tuple:
    """(exit code, stdout, error) of one CLI invocation."""
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed benchmark
        code = 1
        error = traceback.format_exc(limit=-3)
    return code, buf.getvalue(), error


def calibrate() -> float:
    """Median time of the calibration loop over CAL_REPEATS runs: the machine's current speed."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        acc = 0j
        for i in range(CAL_PY_ITERATIONS):
            acc = acc * 0.999 + complex(i, 1.0) / (i + 1.5)
        v = _CAL_STATE
        for _ in range(CAL_NP_ITERATIONS):
            k = -1j * (_CAL_DIAG * v)
            k[2:] += 0.5 * v[:-2]
            v = v + 1e-4 * k
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(cmds, tracer=None) -> dict:
    """One closed-loop pass: each command's wall time, and the calibration times around them."""
    from su11squeeze import cli

    for cmd in cmds:
        for out in cmd.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out.path)
    results = []
    cal = [calibrate()]
    if tracer is not None:
        tracer.install()
    try:
        for cmd in cmds:
            t0 = time.perf_counter()
            if tracer is None:
                outcome = _call(cli.main, cmd.argv)
            else:
                outcome = tracer.command(cmd.kind, lambda: _call(cli.main, cmd.argv))
            results.append((time.perf_counter() - t0, outcome))
            cal.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    commands = [
        {"kind": cmd.kind, "seconds": seconds, "code": code, "stdout": out, "error": err,
         "sha256": [checks.file_sha256(o.path) for o in cmd.outputs]}
        for cmd, (seconds, (code, out, err)) in zip(cmds, results)
    ]
    return {"traced": tracer is not None, "commands": commands, "cal_s": cal}


def speed_factor(cal_times) -> float:
    """The factor that takes times measured while the loop took ``cal_times`` to the reference speed."""
    return CAL_REF_S / statistics.mean(cal_times)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from su11squeeze import cli, kernels

    work = spec["work"]
    cmds = workloads.commands(spec["workload"], spec["seed"], work)
    _call(cli.main, workloads.WARMUP + ("--output", os.path.join(work, "warmup.csv")))

    passes, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cmds))
        if spec["trace"]:
            tracer = spans.Tracer()
            passes.append(run_pass(cmds, tracer))
            traced.append(tracer.spans)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    factor = speed_factor([t for p in passes for t in p["cal_s"]])

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    result = {
        "backend": kernels.active_backend(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": numba_version,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_factor": factor,
        "passes": passes,
        "layers": [spans.pass_metrics(s, factor) for s in traced],
        "spans": [spans.span_records(s) for s in traced],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
