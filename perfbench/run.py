"""Layered CLI benchmark of su11squeeze.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figures|dense|oracle --seed N --seconds S --trace 0|1

Measures ``setup_s`` (a fresh interpreter importing ``su11squeeze.cli``,
median of several launches), then runs the workload's commands in a child
process (``runner.py``) for about ``S`` seconds and checks every output
(``checks.py``).  Times are scaled to a reference machine speed by a
calibration loop timed between commands (see ``runner.py``).  With
``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones from the span
tracer (``spans.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment and every metric by name with its unit.  The full result,
spans included, is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from runner import speed_factor
from spans import median_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_LAUNCHES = 7
TIME_LIMIT_S = 170.0
#: Times the import in the fresh interpreter, then the calibration loop in
#: the same process right after it.  Interpreter start and exit are left out:
#: they cost the same for every version of the program.
SETUP_CODE = """
import time
start = time.perf_counter()
import su11squeeze.cli
seconds = time.perf_counter() - start
import runner
print(seconds, runner.calibrate())
"""


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; "unknown" if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(env: dict) -> float:
    """Median time of fresh interpreters importing the CLI, after one warm launch.

    Each launch is scaled to the reference machine speed by the calibration
    loop it runs right after the import.  A launch takes a few tenths of a
    second, short enough for one loop time to stand for its speed.
    """
    env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(ROOT / "perfbench")]))
    scaled = []
    for _ in range(SETUP_LAUNCHES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                             timeout=60, capture_output=True, text=True).stdout.split()
        seconds, cal_s = float(out[-2]), float(out[-1])
        scaled.append(seconds * speed_factor([cal_s]))
    return statistics.median(scaled[1:])


def check_commands(cmds, passes) -> tuple:
    """(attempted, failed, problems) over every command of every pass."""
    disk = {o.path: checks.check_output(o) for c in cmds for o in c.outputs}
    shas = {path: checks.file_sha256(path) for path in disk}
    attempted, failed, problems = 0, 0, []
    for p in passes:
        for cmd, res in zip(cmds, p["commands"]):
            attempted += 1
            problem = None
            if res["code"] != 0:
                problem = f"exit {res['code']}" + (f"\n{res['error']}" if res["error"] else "")
            else:
                problem = checks.check_stdout(cmd, res["stdout"])
                for out, sha in zip(cmd.outputs, res["sha256"]):
                    problem = problem or disk[out.path]
                    if problem is None and sha != shas[out.path]:
                        problem = f"{out.path}: bytes differ between passes"
            if problem:
                failed += 1
                problems.append(f"{' '.join(cmd.argv)}: {problem}")
    return attempted, failed, problems


def command_medians(passes) -> list:
    """Each command's median wall time across passes, as measured."""
    times = [[c["seconds"] for c in p["commands"]] for p in passes]
    return [statistics.median(column) for column in zip(*times)]


def kind_seconds(passes, factor: float) -> dict:
    """Per command kind, the summed median times of its commands, times ``factor``."""
    out = {}
    for cmd, seconds in zip(passes[0]["commands"], command_medians(passes)):
        out[cmd["kind"]] = out.get(cmd["kind"], 0.0) + seconds * factor
    return out


def wall_seconds(passes) -> dict:
    """``run_s`` and ``simulate_s`` as measured, without the speed scaling."""
    return {"wall.run_s": sum(command_medians(passes)),
            "wall.simulate_s": kind_seconds(passes, 1.0)["simulate"]}


def end_to_end(result: dict, setup_s: float) -> tuple:
    """End-to-end metrics, plus the unscaled times and the command kinds other than simulate."""
    passes = [p for p in result["passes"] if not p["traced"]]
    factor = result["speed_factor"]
    kinds = kind_seconds(passes, factor)
    metrics = {
        "setup_s": setup_s,
        "run_s": sum(command_medians(passes)) * factor,
        "simulate_s": kinds["simulate"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = wall_seconds(passes)
    extra.update({f"cmd.{k}_s": v for k, v in kinds.items() if k != "simulate"})
    return metrics, extra


def per_layer(result: dict) -> dict:
    """Per-layer medians over traced passes, with tracing overhead, unscaled and command-kind times."""
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    factor = result["speed_factor"]
    metrics = median_metrics(result["layers"])
    # the median traced pass is what the self times split; the overhead
    # compares the same statistic as ``run_s``
    metrics["trace.run_s"] = factor * statistics.median(
        sum(c["seconds"] for c in p["commands"]) for p in traced)
    metrics["trace.overhead_s"] = factor * (sum(command_medians(traced)) - sum(command_medians(plain)))
    metrics.update(wall_seconds(plain))
    kinds = kind_seconds(plain, factor)
    for kind in ("converge", "sweep", "compare"):
        metrics[f"cmd.{kind}_s"] = kinds.get(kind, 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "su11squeeze" / "cli.py").is_file() or not spec_file.is_file():
        print("error: no su11squeeze sources (src/su11squeeze) or BENCHMARK.json in this checkout",
              file=sys.stderr)
        return 2
    wanted = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work, out_dir = ROOT / ".bench_work", ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out_dir.mkdir(exist_ok=True)
    try:
        setup_s = measure_setup(env) if not args.trace else None
        spec = {"root": str(ROOT), "work": str(work), "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        (work / "spec.json").write_text(json.dumps(spec))
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "runner.py"),
                        str(work / "spec.json"), str(work / "result.json")],
                       cwd=ROOT, env=env, check=True, timeout=budget)
        result = json.loads((work / "result.json").read_text())
        cmds = workloads.commands(args.workload, args.seed, str(work))
        attempted, failed, problems = check_commands(cmds, result["passes"])
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        computed, extra = per_layer(result), {}
    else:
        computed, extra = end_to_end(result, setup_s)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    environment = {
        "git_sha": git_sha(ROOT),
        "backend": result["backend"],
        "python": result["python"],
        "numpy": result["numpy"],
        "numba": result["numba"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    passes = len(result["passes"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {passes} passes, "
          f"{attempted} commands, {failed} failed")
    print("environment " + json.dumps(environment))
    print("pass wall s " + " ".join(
        f"{sum(c['seconds'] for c in p['commands']):.4f}{'*' if p['traced'] else ''}"
        for p in result["passes"]) + f"  (* traced), speed factor {result['speed_factor']:.4f}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:<36} {value:.6g} s")
    print(f"  {'failed_frac':<36} {failed / attempted:.6g} ({failed}/{attempted})")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, "metrics": metrics, "other_s": extra,
              "problems": problems, "spans": result["spans"],
              "speed_factor": result["speed_factor"],
              "passes": [{"traced": p["traced"], "cal_s": p["cal_s"],
                          "commands": [{k: c[k] for k in ("kind", "seconds")} for c in p["commands"]]}
                         for p in result["passes"]]}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
