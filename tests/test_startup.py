"""What importing the package and the CLI loads, each in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

import su11squeeze
from su11squeeze import cli

THREADS = "import os; print(len(os.listdir('/proc/self/task')))"
linux_threads = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")


def run(code, **variables):
    """Run ``code`` in a fresh interpreter without the BLAS thread variables, plus ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}
    return subprocess.run([sys.executable, "-c", code], env={**env, **variables}, check=True,
                          capture_output=True, text=True).stdout


def test_the_package_loads_no_numpy():
    assert run("import sys, su11squeeze; print('numpy' in sys.modules)") == "False\n"


def test_every_exported_name_and_submodule_resolves():
    code = ("import json, su11squeeze as sq\n"
            "names = [*sq.__all__, 'oracle', 'cli']\n"
            "print(json.dumps([[n, n in dir(sq), getattr(sq, n) is not None] for n in names]))\n"
            "print(sq.oracle.vacuum_fidelity.__module__, sq.__version__)\n"
            "try:\n"
            "    sq.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    listed, origin, missing = run(code).splitlines()
    listed = json.loads(listed)
    assert len(listed) == len(su11squeeze.__all__) + 2
    assert all(seen and bound for _, seen, bound in listed), listed
    assert origin == "su11squeeze.oracle 0.1.0"
    assert missing == "module 'su11squeeze' has no attribute 'no_such_name'"


@linux_threads
def test_the_cli_loads_numpy_with_one_thread_and_leaves_the_environment_as_it_was():
    code = ("import os; env = dict(os.environ)\n"
            "import su11squeeze.cli\n"
            f"print(dict(os.environ) == env); {THREADS}\n")
    assert run(code).split() == ["True", "1"]


@linux_threads
@pytest.mark.parametrize("setting", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, {}],
                         ids=["openblas_variable", "omp_variable", "numpy_first"])
def test_a_users_setting_or_an_earlier_numpy_wins(setting):
    # with no variable set, numpy imported first has started its pool before the CLI loads
    first = "" if setting else "import numpy\n"
    code = ("import os; env = dict(os.environ)\n"
            f"{first}import su11squeeze.cli\n"
            f"print(dict(os.environ) == env); {THREADS}\n")
    unchanged, threads = run(code, **setting).split()
    assert unchanged == "True"
    assert threads == run(f"import numpy; {THREADS}", **setting).strip()  # numpy's own count


def test_json_and_the_formatter_load_when_a_table_is_written(tmp_path):
    code = ("import sys, numpy as np, su11squeeze.cli as cli\n"
            "loaded = lambda: [m in sys.modules for m in ('json', 'su11squeeze.floatfmt')]\n"
            "print(loaded())\n"
            f"cli.write_table({str(tmp_path / 'x.csv')!r}, 'csv', ['t'], [[np.ones(3)]]); print(loaded())\n"
            f"cli.write_table({str(tmp_path / 'x.json')!r}, 'json', ['t'], [[np.ones(3)]]); print(loaded())\n")
    assert run(code).splitlines() == ["[False, False]", "[False, True]", "[True, True]"]


def test_the_cli_does_not_load_the_reference_recurrence():
    assert run("import sys, su11squeeze.cli; print('su11squeeze.core' in sys.modules)") == "False\n"
