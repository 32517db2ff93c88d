"""Verification fan-out: distinct damage sets dealt round-robin over this
process and forked helpers, with results, failures and outputs that do not
depend on ``jobs``."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import pytest

import gridfort.cli
from gridfort import DamageScenario, InfeasibleDesignError
from gridfort.cli import main
from gridfort.decomposition import Verdict, evaluate_distinct
from gridfort.milp import SolverError

from conftest import FIXTURES

REPO = Path(__file__).resolve().parent.parent
# case30 with eight sampled scenarios over eight damage sets: three SBD
# iterations verifying 7, 6 and 5 sets, so every --jobs 2 or 3 run forks
CASE30_CONFIG = {
    "network": "case30.json", "output_dir": "out", "seed": 2,
    "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 8},
    "design": {"critical_fraction": 0.98, "total_fraction": 0.3},
    "solver": {"rel_gap": 1e-6},
}


def case30_config(tmp_path: Path) -> Path:
    shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CASE30_CONFIG))
    return path


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the helpers this process forks during the test."""
    pids = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def distinct_scenarios(n: int) -> list[DamageScenario]:
    """``n`` scenarios over ``n`` damage sets, then a repeat of each."""
    first = [DamageScenario(i, frozenset({f"L{i}"} if i else ())) for i in range(n)]
    return first + [DamageScenario(s.id + n, s.damaged_line_ids) for s in first]


def toy_verdict(scen: DamageScenario) -> Verdict:
    return Verdict(scen.id, scen.id % 3 != 1, scen.id / 100.0, 0.5)


def logging_evaluate(log: Path):
    """``toy_verdict`` that appends "pid scenario-id" to ``log`` per call."""

    def wrapped(scen):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {scen.id}\n")
        return toy_verdict(scen)

    return wrapped


class TestEvaluateDistinct:

    @pytest.mark.parametrize("jobs,n,shares", [
        (2, 4, 2), (3, 9, 3), (3, 5, 2), (2, 3, 1), (1, 9, 1), (10**9, 6, 3)])
    def test_deals_sets_round_robin(self, tmp_path, forks, jobs, n, shares):
        """``min(jobs, n // 2)`` processes, the set at position i solved by
        share ``i % shares``, this process holding share 0."""
        scens = distinct_scenarios(n)
        log = tmp_path / "calls.txt"
        got = evaluate_distinct(scens, logging_evaluate(log), jobs)
        assert len(forks) == shares - 1
        assert_reaped(forks)
        assert list(got) == [s.id for s in scens]
        for scen in scens:  # the first of its damage set's verdict, restated
            assert got[scen.id] == replace(toy_verdict(scens[scen.id % n]),
                                           scenario_id=scen.id)
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, sid = map(int, line.split())
            by_pid.setdefault(pid, []).append(sid)
        assert sorted(by_pid.pop(os.getpid())) == list(range(0, n, shares))
        assert sorted(map(sorted, by_pid.values())) == [
            list(range(k, n, shares)) for k in range(1, shares)]

    def test_one_job_takes_the_serial_path(self, forks):
        evaluate_distinct(distinct_scenarios(8), toy_verdict, 1)
        assert forks == []

    @pytest.mark.parametrize("failing", [{1}, {1, 2}, {2, 3}, {0, 5}, {4}, {5}])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_raises_the_first_failure_in_list_order(self, forks, failing, jobs):
        def evaluate(scen):
            if scen.id in failing:
                raise ValueError(f"scenario {scen.id} failed")
            return toy_verdict(scen)

        scens = distinct_scenarios(6)
        with pytest.raises(ValueError) as serial:
            evaluate_distinct(scens, evaluate, 1)
        with pytest.raises(ValueError) as fanned:
            evaluate_distinct(scens, evaluate, jobs)
        assert str(fanned.value) == str(serial.value) == f"scenario {min(failing)} failed"
        assert len(forks) == jobs - 1
        assert_reaped(forks)

    def test_failure_that_cannot_be_pickled_keeps_its_name(self, forks):
        def evaluate(scen):
            if scen.id == 1:
                raise InfeasibleDesignError(1, "no design serves scenario 1")
            return toy_verdict(scen)

        with pytest.raises(RuntimeError, match=r"^InfeasibleDesignError: no design "
                                               r"serves scenario 1$"):
            evaluate_distinct(distinct_scenarios(4), evaluate, 2)
        assert_reaped(forks)

    @pytest.mark.parametrize("end,how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(3), "exit status 3"),
    ], ids=["killed", "exited"])
    def test_helper_without_a_result_is_a_solver_error(self, forks, end, how):
        parent = os.getpid()

        def evaluate(scen):
            if os.getpid() != parent:
                end()
            return toy_verdict(scen)

        with pytest.raises(SolverError) as exc:
            evaluate_distinct(distinct_scenarios(4), evaluate, 2)
        assert len(forks) == 1
        assert str(exc.value) == (f"verification helper process {forks[0]} ended "
                                  f"without a result ({how})")
        assert_reaped(forks)

    def test_interrupted_parent_kills_and_reaps_its_helpers(self, forks):
        parent = os.getpid()

        def evaluate(scen):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            evaluate_distinct(distinct_scenarios(6), evaluate, 3)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2
        assert_reaped(forks)


class TestCommands:

    def run(self, capfd, argv):
        code = main(argv)
        out, err = capfd.readouterr()
        return code, out, err

    def test_outputs_do_not_depend_on_jobs(self, tmp_path, capfd, forks):
        cfg = case30_config(tmp_path)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        runs = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            base = ["--config", str(cfg), "--jobs", str(jobs)]
            before = len(forks)
            result = [self.run(capfd, ["design", *base, "--out", str(out / "design")])]
            designed = out / "design" / "design.json"
            for command in ("evaluate", "validate"):
                for design in (designed, empty):
                    result.append(self.run(capfd, [
                        command, *base, "--design", str(design),
                        "--out", str(out / f"{command}-{design.stem}")]))
            files = {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in sorted(out.rglob("*.json")) if p.name != "sbd_log.json"}
            log = json.loads((out / "design" / "sbd_log.json").read_text())
            for rec in log["iterations"]:
                for key in ("wall_time_s", "verify_s", "build_s", "solve_s"):
                    rec.pop(key)
            runs[jobs] = (result, files, log)
            assert (len(forks) > before) == (jobs > 1)
        assert_reaped(forks)
        assert len(runs[1][1]) == 6
        codes = [code for code, _, _ in runs[1][0]]
        assert codes == [0, 0, 0, 0, 1]  # the empty design leaves violations
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_large_jobs_start_few_processes(self, tmp_path, capfd, forks):
        cfg = case30_config(tmp_path)
        code, _, _ = self.run(capfd, ["design", "--config", str(cfg), "--jobs", "1000000"])
        assert code == 0
        # at most one process per two of the 7, 6, 5 and 1 sets solved
        assert 0 < len(forks) <= 2 + 2 + 1
        assert_reaped(forks)

    def test_helper_failure_is_reported_as_at_one_job(self, tmp_path, capfd, monkeypatch):
        cfg = case30_config(tmp_path)
        design = tmp_path / "empty.json"
        design.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        real = gridfort.cli.evaluate_design
        parent = os.getpid()
        raised_in = tmp_path / "raised.txt"

        def failing(design, network, scen, *args, **kwargs):
            # the damage sets at positions 1 and 2 (scenario 2 repeats the
            # baseline's set, so it is never solved)
            if scen.id in (1, 3):
                with open(raised_in, "a") as fh:
                    fh.write(f"{os.getpid() != parent}\n")
                raise SolverError(f"evaluation of scenario {scen.id} ended error")
            return real(design, network, scen, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "evaluate_design", failing)
        results = {}
        for jobs in (1, 2):
            argv = ["evaluate", "--config", str(cfg), "--design", str(design),
                    "--jobs", str(jobs), "--out", str(tmp_path / f"out{jobs}")]
            results[jobs] = self.run(capfd, argv)
        assert results[1] == (4, "", "solver failure: evaluation of scenario 1 "
                                     "ended error\n")
        assert results[2] == results[1]
        # at two jobs the helper (odd positions) raised for scenario 1, the
        # first in list order, and this process for scenario 3
        assert sorted(raised_in.read_text().splitlines()) == ["False", "False", "True"]


CHILD = textwrap.dedent("""
    import os, signal, sys
    import gridfort.cli
    import gridfort.decomposition

    mode = sys.argv[1]
    parent = os.getpid()
    real = gridfort.cli.evaluate_design

    def patched(design, network, scen, *args, **kwargs):
        if os.getpid() != parent and mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != parent and mode == "fail":
            raise gridfort.cli.SolverError(f"scenario {scen.id} failed")
        return real(design, network, scen, *args, **kwargs)

    # verification calls the decomposition's name, the audit the CLI's
    gridfort.cli.evaluate_design = gridfort.decomposition.evaluate_design = patched
    code = gridfort.cli.main(sys.argv[2:])
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    sys.exit(code)
""")


class TestProcesses:
    """Runs in a fresh interpreter: exit codes, stderr and left-over children
    as a user sees them."""

    @pytest.mark.parametrize("command,mode", [
        ("design", "ok"), ("evaluate", "ok"), ("evaluate", "fail"),
        ("evaluate", "kill"), ("design", "kill")])
    def test_exit_code_stderr_and_no_child_left(self, tmp_path, command, mode):
        cfg = case30_config(tmp_path)
        argv = [command, "--config", str(cfg), "--jobs", "2"]
        if command == "evaluate":
            design = tmp_path / "empty.json"
            design.write_text(json.dumps(
                {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
            argv += ["--design", str(design)]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", CHILD, mode, *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.stdout.splitlines()[-1] == "no child left"
        if mode == "ok":
            assert (done.returncode, done.stderr) == (0, "")
            return
        assert done.returncode == 4
        assert "Traceback" not in done.stderr
        pattern = (r"solver failure: scenario \d+ failed\n" if mode == "fail" else
                   r"solver failure: verification helper process \d+ ended "
                   r"without a result \(killed by signal 9\)\n")
        assert re.fullmatch(pattern, done.stderr)
