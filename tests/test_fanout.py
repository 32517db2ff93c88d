"""The fork fan-out: verification's distinct damage sets and the sweep's
cells dealt over this process and forked helpers, each taking the next item
nobody has taken, with results, failures and outputs that do not depend on
``jobs``."""

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
# case30 with eight sampled scenarios over eight damage sets: two SBD
# iterations verifying 7 and 6 sets, so every --jobs 2 or 3 run forks
CASE30_CONFIG = {
    "network": "case30.json", "output_dir": "out", "seed": 2,
    "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 8},
    "design": {"critical_fraction": 0.98, "total_fraction": 0.3},
    "solver": {"rel_gap": 1e-6},
}
# case30 with twelve sampled scenarios: three SBD iterations verifying 9, 8
# and 6 sets
CASE30_THREE_ITERATIONS = {
    **CASE30_CONFIG, "seed": 0,
    "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 12},
    "design": {"critical_fraction": 0.98, "total_fraction": 0.7},
}


def case30_config(tmp_path: Path, config: dict = CASE30_CONFIG) -> Path:
    shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def case5_sweep_config(tmp_path: Path) -> Path:
    """A 2x2 sweep on case5 over four damage sets, writing to ``sweep/``."""
    shutil.copy(FIXTURES / "case5.json", tmp_path / "case5.json")
    (tmp_path / "damage.json").write_text(json.dumps({
        "seed": 0, "per_line_probability": None,
        "scenarios": [{"id": i, "damaged_line_ids": d}
                      for i, d in enumerate([[], ["L1"], ["L3"], ["L1", "L3"]])]}))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "network": "case5.json", "output_dir": "sweep", "scenarios_file": "damage.json",
        "design": {"critical_fraction": 0.98, "total_fraction": 0.0},
        "sweep": {"total_fractions": [0.0, 0.3], "mg_variable_cost_rates": [250.0, 1000.0]},
    }))
    return path


def sweep_outputs(out: Path) -> dict:
    """``sweep.csv`` and the cell files under ``out``, without their times."""
    files = {"sweep.csv": [",".join(line.split(",")[:-1])
                           for line in (out / "sweep.csv").read_text().splitlines()]}
    for path in sorted((out / "cells").iterdir()):
        row = json.loads(path.read_text())
        row.pop("solve_time_s")
        files[path.name] = row
    return files


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


def wait_for(condition, what: str, seconds: float = 60.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def meeting_evaluate(log: Path, processes: int):
    """``toy_verdict`` that appends "pid scenario-id" to ``log`` per call. A
    process's first call waits until ``processes`` processes have logged
    one, so every process takes a set, whatever the timing."""

    def pids():
        return {line.split()[0] for line in log.read_text().splitlines()}

    def wrapped(scen):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {scen.id}\n")
        wait_for(lambda: len(pids()) >= processes, "every process to take a set")
        return toy_verdict(scen)

    return wrapped


class TestEvaluateDistinct:

    @pytest.mark.parametrize("jobs,n,processes", [
        (2, 4, 2), (3, 9, 3), (3, 5, 2), (2, 3, 1), (1, 9, 1), (10**9, 6, 3),
        (8, 400, 8)])
    def test_deals_sets_round_robin(self, tmp_path, forks, jobs, n, processes):
        """``min(jobs, n // 2)`` processes, each taking sets, and every set
        solved exactly once; eight processes on 400 sets would solve some
        set twice if two of them could take the same position."""
        scens = distinct_scenarios(n)
        log = tmp_path / "calls.txt"
        got = evaluate_distinct(scens, meeting_evaluate(log, processes), jobs)
        assert len(forks) == processes - 1
        assert_reaped(forks)
        assert list(got) == [s.id for s in scens]
        for scen in scens:  # the first of its damage set's verdict, restated
            assert got[scen.id] == replace(toy_verdict(scens[scen.id % n]),
                                           scenario_id=scen.id)
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(sid for _, sid in calls) == list(range(n))
        assert {pid for pid, _ in calls} == {os.getpid(), *forks}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solves_the_lowest_id_of_each_set(self, tmp_path, forks, jobs):
        """Ids in reverse list order, each set's higher id first: the lowest
        id of each set is solved, and its verdict restated under the other."""
        scens = distinct_scenarios(4)[::-1]
        log = tmp_path / "calls.txt"
        got = evaluate_distinct(scens, meeting_evaluate(log, jobs), jobs)
        assert len(forks) == jobs - 1
        calls = [int(line.split()[1]) for line in log.read_text().splitlines()]
        assert sorted(calls) == [0, 1, 2, 3]
        assert list(got) == [s.id for s in scens]
        lowest = {s.damaged_line_ids: s for s in scens if s.id < 4}
        for scen in scens:
            assert got[scen.id] == replace(toy_verdict(lowest[scen.damaged_line_ids]),
                                           scenario_id=scen.id)

    @pytest.mark.parametrize("ids", [[0, 1, 1], [1, 0, 1], [0, 1, 2, 1]])
    def test_repeated_id_is_an_error(self, ids):
        """A repeated id would leave one verdict for two scenarios."""
        scens = [DamageScenario(i, frozenset({f"L{n}"} if n else ()))
                 for n, i in enumerate(ids)]
        with pytest.raises(ValueError, match="^duplicate scenario id 1$"):
            evaluate_distinct(scens, toy_verdict, 1)

    def test_raises_the_first_failure_in_id_order(self):
        def evaluate(scen):
            if scen.damaged_line_ids & {"L1", "L2"}:
                raise ValueError(f"scenario {scen.id} failed")
            return toy_verdict(scen)

        with pytest.raises(ValueError, match="^scenario 1 failed$"):
            evaluate_distinct(distinct_scenarios(3)[::-1], evaluate, 1)

    def test_one_job_takes_the_serial_path(self, forks):
        evaluate_distinct(distinct_scenarios(8), toy_verdict, 1)
        assert forks == []

    @pytest.mark.parametrize("failing", [{1}, {1, 2}, {2, 3}, {0, 5}, {4}, {5}])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_raises_the_first_failure_in_list_order(self, tmp_path, forks, failing,
                                                    jobs):
        def failing_after(meet):
            def evaluate(scen):
                meet(scen)
                if scen.id in failing:
                    raise ValueError(f"scenario {scen.id} failed")
                return toy_verdict(scen)

            return evaluate

        scens = distinct_scenarios(6)
        with pytest.raises(ValueError) as serial:
            evaluate_distinct(scens, failing_after(toy_verdict), 1)
        with pytest.raises(ValueError) as fanned:
            evaluate_distinct(
                scens, failing_after(meeting_evaluate(tmp_path / "calls.txt", jobs)), jobs)
        assert str(fanned.value) == str(serial.value) == f"scenario {min(failing)} failed"
        assert len(forks) == jobs - 1
        assert_reaped(forks)

    def test_failure_that_cannot_be_pickled_keeps_its_name(self, tmp_path, forks):
        parent = os.getpid()
        meet = meeting_evaluate(tmp_path / "calls.txt", 2)

        def evaluate(scen):
            verdict = meet(scen)
            if os.getpid() != parent:
                raise InfeasibleDesignError(scen.id, "no design serves the helper's set")
            return verdict

        with pytest.raises(RuntimeError, match=r"^InfeasibleDesignError: no design "
                                               r"serves the helper's set$"):
            evaluate_distinct(distinct_scenarios(4), evaluate, 2)
        assert_reaped(forks)

    @pytest.mark.parametrize("end,how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(3), "exit status 3"),
    ], ids=["killed", "exited"])
    def test_helper_without_a_result_is_a_solver_error(self, tmp_path, forks, end,
                                                       how):
        parent = os.getpid()
        meet = meeting_evaluate(tmp_path / "calls.txt", 2)

        def evaluate(scen):
            verdict = meet(scen)
            if os.getpid() != parent:
                end()
            return verdict

        with pytest.raises(SolverError) as exc:
            evaluate_distinct(distinct_scenarios(4), evaluate, 2)
        assert len(forks) == 1
        assert str(exc.value) == (f"helper process {forks[0]} ended without a "
                                  f"result ({how})")
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
        cfg = case30_config(tmp_path, CASE30_THREE_ITERATIONS)
        code, _, _ = self.run(capfd, ["design", "--config", str(cfg), "--jobs", "1000000"])
        assert code == 0
        log = json.loads((tmp_path / "out" / "sbd_log.json").read_text())
        assert [rec["verify_solves"] for rec in log["iterations"]] == [9, 8, 6]
        # at most one process per two of the sets solved: 9, 8 and 6 by the
        # three verifications; the audit solves none, as the final master's
        # points cover its scenarios 2, 6, 11 and 12
        assert 0 < len(forks) <= 3 + 3 + 2
        assert_reaped(forks)

    def test_helper_failure_is_reported_as_at_one_job(self, tmp_path, capfd, monkeypatch):
        cfg = case30_config(tmp_path)
        design = tmp_path / "empty.json"
        design.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        real = gridfort.cli.evaluate_design
        parent = os.getpid()
        raised_in = tmp_path / "raised.txt"
        taken = tmp_path / "taken"

        def failing(design, template, scen, *args, **kwargs):
            # the damage sets at positions 1 and 2 (scenario 2 repeats the
            # baseline's set, so it is never solved); at two jobs, scenario
            # 1's waits until the other process has taken scenario 3's
            if scen.id == 3:
                taken.touch()
            if scen.id == 1 and jobs == 2:
                wait_for(taken.exists, "scenario 3's set to be taken")
            if scen.id in (1, 3):
                with open(raised_in, "a") as fh:
                    fh.write(f"{os.getpid() != parent}\n")
                raise SolverError(f"evaluation of scenario {scen.id} ended error")
            return real(design, template, scen, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "evaluate_design", failing)
        results = {}
        for jobs in (1, 2):
            argv = ["evaluate", "--config", str(cfg), "--design", str(design),
                    "--jobs", str(jobs), "--out", str(tmp_path / f"out{jobs}")]
            results[jobs] = self.run(capfd, argv)
        assert results[1] == (4, "", "solver failure: evaluation of scenario 1 "
                                     "ended error\n")
        assert results[2] == results[1]
        # at two jobs the helper raised for one of scenarios 1 and 3 and this
        # process for the other, and scenario 1's failure, the first in list
        # order, is the one reported
        assert sorted(raised_in.read_text().splitlines()) == ["False", "False", "True"]

    def test_sweep_forks_at_most_one_helper_per_further_cell(self, tmp_path, capfd,
                                                             forks):
        cfg = case5_sweep_config(tmp_path)
        code, out, _ = self.run(capfd, ["sweep", "--config", str(cfg), "--jobs", "64"])
        assert (code, out) == (0, f"wrote {tmp_path / 'sweep' / 'sweep.csv'} "
                                  f"(4 cells, 0 failed)\n")
        assert 0 < len(forks) <= 3
        assert_reaped(forks)


CHILD = textwrap.dedent("""
    import os, signal, sys, time
    import gridfort.cli
    import gridfort.decomposition

    mode, handshake = sys.argv[1:3]
    parent = os.getpid()
    real = gridfort.cli.evaluate_design

    def patched(design, template, scen, *args, **kwargs):
        # in "kill" and "fail" mode a helper ends in the first set it takes,
        # and this process goes on once one has
        if mode != "ok" and os.getpid() != parent:
            open(handshake, "w").close()
            if mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise gridfort.cli.SolverError(f"scenario {scen.id} failed")
        while mode != "ok" and not os.path.exists(handshake):
            time.sleep(0.01)
        return real(design, template, scen, *args, **kwargs)

    # verification calls the decomposition's name, the audit the CLI's
    gridfort.cli.evaluate_design = gridfort.decomposition.evaluate_design = patched
    code = gridfort.cli.main(sys.argv[3:])
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    sys.exit(code)
""")


CHILD_ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))
KILLED_HELPER = (r"solver failure: helper process \d+ ended without a result "
                 r"\(killed by signal 9\)\n")
SLOW_CELL_S = 2.0

# a sweep whose cells note "start"/"done", pid, gamma and rate in a log; in
# "kill" mode a helper dies in the first cell it takes, in "slow" mode each
# cell first sleeps; either way this process goes on once a helper has a cell
SWEEP_CHILD = textwrap.dedent(f"""
    import os, signal, sys, time
    import gridfort.cli

    mode, log = sys.argv[1:3]
    parent = os.getpid()
    real = gridfort.cli._sweep_cell

    def note(what, params):
        with open(log, "a") as fh:
            fh.write(f"{{what}} {{os.getpid()}} {{params.total_fraction}} "
                     f"{{params.mg_rate_override}}\\n")

    def helper_started():
        with open(log) as fh:
            return any(int(line.split()[1]) != parent for line in fh)

    def patched(network, scens, params, options):
        note("start", params)
        if mode == "kill" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        while not helper_started():
            time.sleep(0.01)
        if mode == "slow":
            time.sleep({SLOW_CELL_S})
        row = real(network, scens, params, options)
        note("done", params)
        return row

    gridfort.cli._sweep_cell = patched
    code = gridfort.cli.main(sys.argv[3:])
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    sys.exit(code)
""")


def logged(log: Path) -> list[tuple[str, int, tuple[float, float]]]:
    """(what, pid, (gamma, rate)) of every line of a SWEEP_CHILD log."""
    if not log.exists():
        return []
    return [(what, int(pid), (float(gamma), float(rate)))
            for what, pid, gamma, rate in map(str.split, log.read_text().splitlines())]


def alive(pid: int) -> bool:
    """Whether ``pid`` runs: neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


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
        done = subprocess.run(
            [sys.executable, "-c", CHILD, mode, str(tmp_path / "handshake"), *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=300)
        assert done.stdout.splitlines()[-1] == "no child left"
        if mode == "ok":
            assert (done.returncode, done.stderr) == (0, "")
            return
        assert done.returncode == 4
        assert "Traceback" not in done.stderr
        pattern = (r"solver failure: scenario \d+ failed\n" if mode == "fail" else
                   KILLED_HELPER)
        assert re.fullmatch(pattern, done.stderr)

    def test_sweep_with_a_killed_cell_helper(self, tmp_path):
        """Exit 4 and the other cells on disk; a rerun completes the sweep."""
        cfg = case5_sweep_config(tmp_path)
        log = tmp_path / "cells.log"
        done = subprocess.run(
            [sys.executable, "-c", SWEEP_CHILD, "kill", str(log),
             "sweep", "--config", str(cfg), "--jobs", "2"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=300)
        assert done.returncode == 4
        assert re.fullmatch(KILLED_HELPER, done.stderr)
        assert done.stdout.splitlines()[-1] == "no child left"
        calls = logged(log)
        (killed,) = ({cell for what, _, cell in calls if what == "start"}
                     - {cell for what, _, cell in calls if what == "done"})
        out = tmp_path / "sweep"
        rows = [json.loads(p.read_text()) for p in (out / "cells").glob("*.json")]
        assert len(rows) == 3
        assert all(row["status"] == "ok" for row in rows)
        assert killed not in {(row["gamma"], row["mg_cost_per_kw"]) for row in rows}

        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
        assert main(["sweep", "--config", str(cfg), "--jobs", "1",
                     "--out", str(tmp_path / "serial")]) == 0
        assert sweep_outputs(out) == sweep_outputs(tmp_path / "serial")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_killed_sweep_leaves_nothing_running(self, tmp_path):
        """A SIGKILLed sweep: its helpers finish and write the cells they
        are on, take no other, and end."""
        cfg = case5_sweep_config(tmp_path)
        log = tmp_path / "cells.log"
        sweep = subprocess.Popen(
            [sys.executable, "-c", SWEEP_CHILD, "slow", str(log),
             "sweep", "--config", str(cfg), "--jobs", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=CHILD_ENV)
        try:
            wait_for(lambda: len({pid for _, pid, _ in logged(log)}) == 2,
                     "both processes to start a cell")
            sweep.kill()
            sweep.wait(timeout=60)
            started = [cell for what, _, cell in logged(log) if what == "start"]
            helpers = {pid for _, pid, _ in logged(log)} - {sweep.pid}
            # the in-flight cells take SLOW_CELL_S, then a few tenths
            wait_for(lambda: not any(map(alive, helpers)), "the helpers to end",
                     seconds=SLOW_CELL_S + 30)
        finally:
            sweep.kill()
            sweep.wait(timeout=60)
            for pid in {pid for _, pid, _ in logged(log)} - {sweep.pid}:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
        calls = logged(log)
        assert [cell for what, _, cell in calls if what == "start"] == started
        by_helpers = {what: {cell for w, pid, cell in calls if w == what and pid in helpers}
                      for what in ("start", "done")}
        assert by_helpers["done"] == by_helpers["start"]
        rows = [json.loads(p.read_text())
                for p in (tmp_path / "sweep" / "cells").glob("*.json")]
        on_disk = {(row["gamma"], row["mg_cost_per_kw"]) for row in rows}
        assert by_helpers["done"] <= on_disk
        assert on_disk <= {cell for what, _, cell in calls if what == "done"}
