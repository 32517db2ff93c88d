"""The benchmark's own tests. From the root of the checkout:

    python3 -m pytest perfbench -q

They run the benchmark as the driver does, in child processes, and take a
few minutes. Two traced runs of one workload and seed must give identical
counts, so that later changes may claim these counts exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from feedergen import feeder_json  # noqa: E402

REPEATABLE_COUNTS = ("milp.lp_solves", "milp.nodes", "decomposition.iterations",
                     "formulation.build_master_calls", "formulation.cycle_cuts")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_feeder_is_seeded_and_sized():
    from gridfort import load_network
    from gridfort.formulation import DesignParams, master_dimensions

    assert feeder_json(5) == feeder_json(5)
    assert feeder_json(5) != feeder_json(6)
    network = load_network(feeder_json(5))
    dims = master_dimensions(network, [], DesignParams())
    assert dims["nodes"] == 59
    assert dims["first_stage_variables"] == 31


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        record = WORKLOADS[entry["name"]]
        assert entry["why"] == record["why"]
        assert record["pinned_seed"] != record["held_out_seed"]


def test_end_to_end_result_line():
    result = result_of(bench("--workload", "case30-s100", "--seed", "1",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for spec in BENCHMARK["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"], spec["name"]
    for name in REPEATABLE_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["milp.lp_solves"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "case30-s100", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
