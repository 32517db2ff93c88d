"""What importing gridfort does to the process: it loads numpy's and
scipy's OpenBLAS with one thread, so no worker pool starts, every process
the verification forks copies a single-threaded one, and the environment is
left as the caller set it. It loads them with the cyclic garbage collector
paused, freezes what is alive when they are loaded, and leaves the collector
on or off as the caller had it. Each check runs in a fresh interpreter,
since this one loaded numpy before it imported gridfort."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import FIXTURES

REPO = Path(__file__).resolve().parent.parent
BLAS_THREADS = "OPENBLAS_NUM_THREADS"

counts_threads = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                    reason="threads are counted in /proc/self/task")

# the process's threads and the variable, as seen after the import
IMPORT_CHILD = textwrap.dedent(f"""
    import os
    import gridfort.cli
    print(len(os.listdir("/proc/self/task")), os.environ.get("{BLAS_THREADS}"))
""")

# the collector's state and the frozen object count after the import; the
# first argument, if "off", disables the collector before it
GC_CHILD = textwrap.dedent("""
    import gc, sys
    if sys.argv[1:] == ["off"]:
        gc.disable()
    import gridfort.cli
    print(gc.isenabled(), gc.get_freeze_count() > 0)
""")

# a design run that notes the process's threads at every os.fork
FORK_CHILD = textwrap.dedent("""
    import os, sys
    import gridfort.cli

    threads = []
    real_fork = os.fork

    def fork():
        threads.append(len(os.listdir("/proc/self/task")))
        return real_fork()

    os.fork = fork
    code = gridfort.cli.main(sys.argv[1:])
    print(*threads)
    sys.exit(code)
""")


def run_child(script: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter whose environment has no
    ``OPENBLAS_NUM_THREADS`` apart from what ``env`` sets."""
    child_env = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    child_env.update(env, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=child_env, timeout=300)


@counts_threads
def test_import_leaves_one_thread_and_the_environment_as_it_was():
    done = run_child(IMPORT_CHILD)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["1", "None"]


@counts_threads
def test_a_value_the_caller_set_is_kept():
    done = run_child(IMPORT_CHILD, **{BLAS_THREADS: "2"})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split()[1] == "2"


@counts_threads
def test_every_fork_of_a_design_run_copies_one_thread(tmp_path):
    # the CI's case30 config: 20 scenarios at seed 3, whose verification
    # has enough distinct damage sets to fork at two jobs
    shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "network": "case30.json", "output_dir": "out", "seed": 3,
        "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 20},
        "design": {"critical_fraction": 0.98, "total_fraction": 0.3},
        "solver": {"rel_gap": 1e-6},
    }))
    done = run_child(FORK_CHILD, "design", "--config", str(cfg), "--jobs", "2")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    threads = done.stdout.splitlines()[-1].split()
    assert threads and set(threads) == {"1"}


def test_import_freezes_what_it_loaded_and_collects_again():
    done = run_child(GC_CHILD)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["True", "True"]


def test_a_collector_the_caller_disabled_stays_disabled():
    done = run_child(GC_CHILD, "off")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["False", "True"]
