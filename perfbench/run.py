"""gridfort benchmark: design runs through the CLI, timed end to end or traced
layer by layer.

    python3 perfbench/run.py --workload case30-s100 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, end-to-end metrics

Run from the root of a source checkout; the program is imported from
``src/``. Workloads are defined in ``workloads.json``. Each keeps its
instance fixed (network, scenario draw and targets) and uses ``--seed`` to
shuffle the order of buses, lines, loads and microgrids in the network
document the program reads. The optimum does not depend on that order, so
the reference cost is checked on every seed; seed 0 keeps the document
order as generated.

Load model: a closed loop with one client. CLI runs go back to back, each
in a child process started by this process, until the next one would end
after ``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics, medians over the runs:
``run_s`` (end of set-up to the CLI's return), ``setup_s`` (process start to
the first ``sbd_design`` call), ``cpu_s`` (user plus system time of the run's
process tree) and ``peak_rss_mb`` (largest peak RSS of any process in it).
Set-up is also sampled by extra runs that stop at the end of set-up, so that
every run reports a median of at least seven.

``--trace 1`` alternates plain and traced CLI runs and prints the per-layer
metrics of ``spans.layer_metrics``, plus the tracing overhead: traced minus
plain ``run_s``.

Every CLI run is checked: exit code 0, a clean audit row per scenario, the
same ``design.json`` bytes on every run of one seed and the reference cost.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from feedergen import feeder  # noqa: E402
from spans import layer_metrics  # noqa: E402

MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here: no result is printed."""


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def network_text(wl: dict, seed: int) -> str:
    source = wl["network"]
    if "fixture" in source:
        path = ROOT / source["fixture"]
        if not path.is_file():
            raise BenchError(f"network fixture not found: {path}")
        doc = json.loads(path.read_text())
    else:
        doc = feeder(source["generator_seed"])
    if seed:
        rng = random.Random(seed)
        for section in ("buses", "lines", "loads", "microgrids"):
            rng.shuffle(doc[section])
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def prepare(wl: dict, seed: int, workdir: Path) -> Path:
    """Write the network and run configuration of one seed; returns the config."""
    if not (SRC / "gridfort" / "cli.py").is_file():
        raise BenchError(f"gridfort sources not found under {SRC}")
    workdir.mkdir(parents=True)
    (workdir / "network.json").write_text(network_text(wl, seed))
    config = {"network": "network.json", "output_dir": "out", **wl["config"]}
    path = workdir / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return path


def warm_up() -> None:
    """Import the program once, untimed, so byte-code and page caches are warm."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import gridfort.cli", str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import gridfort from {SRC}:\n{done.stderr}")


def _reap(proc: subprocess.Popen) -> tuple:
    """Wait for the child and return (resource usage, killed). A child that
    outlives CHILD_TIMEOUT_S is killed with its whole session."""
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, killed.is_set()


def run_cli(config: Path, out: Path, mode: str) -> dict:
    """One ``gridfort design`` run in a child process; returns its timings
    and outputs."""
    out.mkdir(parents=True)
    result = out / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, str(SRC), "--",
           "design", "--config", str(config), "--out", str(out)]
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=so, stderr=se,
                                start_new_session=True)
        usage, killed = _reap(proc)
    run = {"out": out, "returncode": proc.returncode, "ok": False}
    if killed or not result.is_file():
        run["problem"] = "child timed out" if killed else "no child result"
        return run
    child = json.loads(result.read_text())
    run.update(
        exit_code=child["exit_code"],
        setup_s=child["setup_end"] - start if "setup_end" in child else None,
        run_s=child["end"] - child["setup_end"] if "setup_end" in child else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        trace=child.get("trace"),
    )
    return run


def check(wl: dict, run: dict, first_design: dict) -> str | None:
    """Problem with one CLI run's outputs, or None when they are correct."""
    if "problem" in run:
        return run["problem"]
    if run["returncode"] != 0 or run["exit_code"] != 0:
        return f"exit code {run['returncode']}"
    try:
        return _check_outputs(wl, run["out"], first_design)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def _check_outputs(wl: dict, out: Path, first_design: dict) -> str | None:
    rows = json.loads((out / "audit.json").read_text())
    expected = wl["config"]["fragility"]["scenario_count"] + 1
    dirty = [r["scenario_id"] for r in rows if r["violations"] or not r["radial"]]
    if len(rows) != expected or dirty:
        return f"audit has {len(rows)} rows, dirty scenarios {dirty}"
    text = (out / "design.json").read_text()
    first_design.setdefault("text", text)
    if text != first_design["text"]:
        return "design.json differs between runs of one seed"
    cost = json.loads(text)["cost"]["total"]
    if cost != wl["reference"]["cost"]:
        return f"cost {cost} differs from reference {wl['reference']['cost']}"
    return None


def measure(name: str, wl: dict, seed: int, seconds: float, trace: bool) -> dict:
    """All CLI runs of one benchmark run; returns the result object."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _measure(name, wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name: str, wl: dict, seed: int, seconds: float, trace: bool,
             workdir: Path) -> dict:
    config = prepare(wl, seed, workdir)
    warm_up()
    plan = ["run"] + (["trace"] if trace else [])
    plain, traced, problems, round_s = [], [], [], []
    first_design: dict = {}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for mode in plan:
            k = len(plain) + len(traced)
            run = run_cli(config, workdir / f"{k:03d}-{mode}", mode)
            problem = check(wl, run, first_design)
            if problem is None:
                run["ok"] = True
            else:
                problems.append(f"{mode} run {k}: {problem}")
                print(f"check failed: {mode} run {k}: {problem}", file=sys.stderr)
            (traced if mode == "trace" else plain).append(run)
        round_s.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(round_s) > seconds:
            break
    setups = [r for r in plain if r.get("setup_s") is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        run = run_cli(config, workdir / f"{len(setups):03d}-setup", "setup")
        if run.get("setup_s") is None:
            problems.append(f"set-up run: {run.get('problem', 'no set-up mark')}")
            break
        setups.append(run)

    attempted = len(plain) + len(traced)
    failed = sum(1 for r in plain + traced if not r["ok"])
    timed = [r for r in plain if r.get("run_s") is not None]
    if not timed or (trace and not any(r.get("trace") for r in traced)):
        raise BenchError(f"{name}: no run could be measured: {problems}")
    e2e = {
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    print(f"== {name}, seed {seed}: {len(timed)} timed runs, "
          f"{len(setups)} set-ups, fail_rate {failed}/{attempted}")
    for metric, value in e2e.items():
        values = [r[metric] for r in (setups if metric == "setup_s" else timed)]
        print(f"  {metric:<12} {value:10.4f} {END_TO_END_UNITS[metric]:<3} median of "
              f"{len(values)}: " + " ".join(f"{v:.4f}" for v in values))
    if trace:
        metrics = traced_metrics(plain, traced, WORK / f"spans-{name}-seed{seed}.json")
        for metric, value in metrics.items():
            print(f"  {metric:<38} {value:14.6f} {metric_unit(metric)}")
        payload = {m: {"value": v, "unit": metric_unit(m)} for m, v in metrics.items()}
    else:
        payload = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in e2e.items()}
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": payload}


def traced_metrics(plain: list, traced: list, spans_file: Path) -> dict:
    good = [r for r in traced if r.get("trace")]
    per_run = [layer_metrics(r["trace"]) for r in good]
    metrics = {m: statistics.median(p[m] for p in per_run) for m in per_run[0]}
    traced_run_s = statistics.median(r["run_s"] for r in good)
    timed = [r for r in plain if r["ok"]]
    baseline = statistics.median(r["run_s"] for r in timed) if timed else traced_run_s
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead_s"] = traced_run_s - baseline
    spans_file.write_text(json.dumps(good[-1]["trace"]) + "\n")
    print(f"  spans of the last traced run: {spans_file.relative_to(ROOT)}")
    return metrics


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gridfort benchmark")
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
        names = [args.workload] if args.workload else list(workloads)
        unknown = [n for n in names if n not in workloads]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; known: {list(workloads)}")
        results = [measure(n, workloads[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
