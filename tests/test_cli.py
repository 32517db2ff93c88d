import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gridfort.cli
import gridfort.decomposition
from gridfort import (
    DamageScenario,
    DesignParams,
    FragilityParams,
    SolverOptions,
    sample_scenarios,
    save_scenarios,
)
from gridfort.cli import main
from gridfort.decomposition import Verdict
from gridfort.validate import audit

from conftest import FIXTURES

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, **overrides) -> Path:
    shutil.copy(FIXTURES / "case5.json", tmp_path / "case5.json")
    cfg = {
        "network": "case5.json",
        "output_dir": "out",
        "seed": 42,
        "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 4},
        "design": {"critical_fraction": 0.98, "total_fraction": 0.0},
        "solver": {"rel_gap": 1e-6},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestScenariosCommand:
    def test_writes_count_plus_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, fragility={
            "line_failure_prob_override": 0.2, "scenario_count": 50})
        assert main(["scenarios", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "scenarios.json").read_text())
        assert len(doc["scenarios"]) == 51
        assert doc["scenarios"][0] == {"damaged_line_ids": [], "id": 0}

    def test_zero_probability_single_scenario(self, tmp_path):
        cfg = write_config(tmp_path, fragility={
            "line_failure_prob_override": 0.0, "scenario_count": 1})
        assert main(["scenarios", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "scenarios.json").read_text())
        assert len(doc["scenarios"]) == 2
        assert all(not s["damaged_line_ids"] for s in doc["scenarios"])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["scenarios", "--config", str(cfg)])
        first = (tmp_path / "out" / "scenarios.json").read_bytes()
        main(["scenarios", "--config", str(cfg)])
        assert (tmp_path / "out" / "scenarios.json").read_bytes() == first

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}")
        assert main(["scenarios", "--config", str(path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["scenarios", "--config", str(tmp_path / "nope.json")]) == 2

    def test_non_object_config_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('["network"]')
        assert main(["scenarios", "--config", str(path)]) == 2


class TestConfigKeys:
    @pytest.mark.parametrize("overrides,key", [
        ({"solvr": {"time_limit": 0}}, "solvr"),
        ({"vns": {"max_iterations": 5}}, "vns"),
        ({"sweep": {"total_fraction": [0.1], "mg_variable_cost_rates": [100.0]}},
         "total_fraction"),
        ({"jobs": 0}, "jobs"),
        ({"sweep": ["total_fractions"]}, "sweep"),
        ({"solver": {"time_limit": -1}}, "time_limit"),
        ({"solver": {"node_limit": -1}}, "node_limit"),
    ], ids=["misspelled-section", "removed-vns-section", "misspelled-sweep-key",
            "zero-jobs", "sweep-not-an-object", "negative-time-limit",
            "negative-node-limit"])
    def test_bad_key_is_an_input_error(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        assert main(["design", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [None, ""])
    def test_empty_scenarios_file_means_sampled_scenarios(self, tmp_path, value):
        cfg = write_config(tmp_path, scenarios_file=value)
        assert main(["design", "--config", str(cfg)]) == 0

    def test_zero_jobs_flag_is_an_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["scenarios", "--solver", "external"],
    ], ids=["scenarios-solver"])
    def test_flag_without_effect_is_a_usage_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        (tmp_path / "design.json").write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        argv = [str(tmp_path / a) if a == "design.json" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDesignCommand:
    def test_intact_scenarios_give_zero_cost(self, tmp_path, capsys):
        cfg = write_config(tmp_path, fragility={
            "line_failure_prob_override": 0.0, "scenario_count": 2})
        assert main(["design", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "design.json").read_text())
        assert doc["built_lines"] == []
        assert doc["hardened_lines"] == []
        assert doc["cost"]["total"] == 0.0
        assert (tmp_path / "out" / "sbd_log.json").exists()
        assert (tmp_path / "out" / "audit.json").exists()

    def test_hand_fixture_hardens_l1(self, tmp_path, capsys):
        scen_path = tmp_path / "scens.json"
        scen_path.write_text(json.dumps({
            "seed": 0, "per_line_probability": None,
            "scenarios": [
                {"id": 0, "damaged_line_ids": []},
                {"id": 1, "damaged_line_ids": ["L1"]},
            ],
        }))
        cfg = write_config(tmp_path, scenarios_file="scens.json")
        assert main(["design", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "design.json").read_text())
        assert doc["hardened_lines"] == ["L1"]
        assert doc["cost"]["total"] == 50_000.0
        out = capsys.readouterr().out
        assert "hardened lines" in out
        assert "audit clean" in out

    def test_infeasible_targets_exit_3(self, tmp_path, capsys):
        net_doc = json.loads((FIXTURES / "case5.json").read_text())
        net_doc["microgrids"] = []
        for line in net_doc["lines"]:
            line["hardenable"] = False
            line["harden_cost"] = 0.0
        scen_path = tmp_path / "scens.json"
        scen_path.write_text(json.dumps({
            "seed": 0, "per_line_probability": None,
            "scenarios": [
                {"id": 0, "damaged_line_ids": []},
                {"id": 1, "damaged_line_ids": ["L1"]},
            ],
        }))
        cfg = write_config(tmp_path, network="bare.json",
                           scenarios_file="scens.json")
        (tmp_path / "bare.json").write_text(json.dumps(net_doc))
        assert main(["design", "--config", str(cfg)]) == 3

    def test_design_file_bytes_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "design.json").read_bytes()
        shutil.rmtree(tmp_path / "out")
        assert main(["design", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "design.json").read_bytes() == first

    def test_audit_solves_only_the_final_master_scenarios(self, tmp_path, monkeypatch):
        """Each final-master damage set without a verified twin is solved
        once; the others are restated from the final verification."""
        damage = [[], ["L1", "L3"], ["L1"], []]
        write_scenarios(tmp_path / "scens.json", damage)
        cfg = write_config(tmp_path, scenarios_file="scens.json")
        real = gridfort.cli.evaluate_design
        solved = []

        def counting(design, network, scenario, *args, **kwargs):
            solved.append(scenario.id)
            return real(design, network, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "evaluate_design", counting)
        assert main(["design", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "out" / "sbd_log.json").read_text())["iterations"][-1]
        verified = {frozenset(damage[int(sid)]) for sid in final["verdicts"]}
        master = final["active_scenarios"]
        expected = {}
        for sid in sorted(master):
            if frozenset(damage[sid]) not in verified:
                expected.setdefault(frozenset(damage[sid]), sid)
        # the input covers both cases: a master scenario with a verified twin
        # (0, undamaged like 3) and one without (1)
        assert 0 < len(expected) < len(master)
        assert sorted(solved) == sorted(expected.values())
        rows = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert [r["scenario_id"] for r in rows] == list(range(len(damage)))

    def test_design_audit_equals_validate_audit(self, tmp_path):
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        cfg = write_config(
            tmp_path, network="case30.json",
            design={"critical_fraction": 0.98, "total_fraction": 0.3},
        )
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg)]) == 0
        log = json.loads((out / "sbd_log.json").read_text())
        assert len(log["iterations"]) >= 2
        assert main(["validate", "--config", str(cfg), "--design",
                     str(out / "design.json"), "--out", str(tmp_path / "validated")]) == 0
        assert ((tmp_path / "validated" / "audit.json").read_bytes()
                == (out / "audit.json").read_bytes())


class TestIterationLog:
    def test_records_verification_solves_and_time(self, tmp_path):
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        network = gridfort.cli.load_network_file(tmp_path / "case30.json")
        sampled = sample_scenarios(network, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        scens = sampled + [DamageScenario(s.id + 10, s.damaged_line_ids)
                           for s in sampled if not s.is_baseline]
        (tmp_path / "scens.json").write_text(save_scenarios(scens))
        cfg = write_config(
            tmp_path, network="case30.json", scenarios_file="scens.json",
            design={"critical_fraction": 0.98, "total_fraction": 0.3},
        )
        assert main(["design", "--config", str(cfg)]) == 0
        log = json.loads((tmp_path / "out" / "sbd_log.json").read_text())
        assert len(log["iterations"]) >= 2
        for rec in log["iterations"]:
            remaining = [s for s in scens if s.id not in rec["active_scenarios"]]
            assert rec["verify_solves"] == len({s.damaged_line_ids for s in remaining})
            assert rec["verify_solves"] < len(remaining) == len(rec["verdicts"])
            assert 0.0 < rec["verify_s"] <= rec["wall_time_s"]


    def test_records_build_and_solve_time(self, tmp_path):
        write_scenarios(tmp_path / "scens.json", [[], ["L1"], ["L3"]])
        cfg = write_config(tmp_path, scenarios_file="scens.json",
                           design={"critical_fraction": 0.98, "total_fraction": 0.9})
        assert main(["design", "--config", str(cfg)]) == 0
        log = json.loads((tmp_path / "out" / "sbd_log.json").read_text())
        assert len(log["iterations"]) >= 2
        for rec in log["iterations"]:
            assert rec["build_s"] > 0.0 and rec["solve_s"] > 0.0
            assert rec["build_s"] + rec["solve_s"] + rec["verify_s"] <= rec["wall_time_s"]


    def test_records_master_solves_and_cuts_added(self, tmp_path, monkeypatch):
        masters, solves = [], []
        real_build = gridfort.decomposition.build_master
        real_solve = gridfort.decomposition.solve

        def recording_build(*args, **kwargs):
            master = real_build(*args, **kwargs)
            masters.append(master)
            return master

        def recording_solve(model, options=None):
            solves.append(model)
            return real_solve(model, options)

        monkeypatch.setattr(gridfort.decomposition, "build_master", recording_build)
        monkeypatch.setattr(gridfort.decomposition, "solve", recording_solve)
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        cfg = write_config(tmp_path, network="case30.json",
                           design={"critical_fraction": 0.98, "total_fraction": 0.3})
        assert main(["design", "--config", str(cfg)]) == 0
        log = json.loads((tmp_path / "out" / "sbd_log.json").read_text())["iterations"]
        assert len(log) >= 2
        design_master = masters[0]
        assert (sum(rec["master_solves"] for rec in log)
                == sum(model is design_master.model for model in solves))
        assert all(rec["master_solves"] >= 1 for rec in log)
        assert sum(rec["cuts_added"] for rec in log) == len(design_master.cycles)
        assert log[0]["cuts_added"] > 0  # the seeded cycle basis

    def test_records_the_final_master_solve(self, tmp_path, monkeypatch):
        masters, finals = [], []
        real_build = gridfort.decomposition.build_master
        real_solve = gridfort.decomposition.solve_with_cycle_cuts

        def recording_build(*args, **kwargs):
            master = real_build(*args, **kwargs)
            masters.append(master)
            return master

        def recording_solve(master, options=None):
            sol = real_solve(master, options)
            if master is masters[0]:  # the design master, built first
                finals.append(sol)
            return sol

        monkeypatch.setattr(gridfort.decomposition, "build_master", recording_build)
        monkeypatch.setattr(gridfort.decomposition, "solve_with_cycle_cuts",
                            recording_solve)
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        cfg = write_config(tmp_path, network="case30.json", seed=2,
                           fragility={"line_failure_prob_override": 0.2,
                                      "scenario_count": 8},
                           design={"critical_fraction": 0.98, "total_fraction": 0.3})
        fields = ("master_bound", "master_gap", "master_nodes")
        logged = {}
        for jobs in (1, 2):
            masters.clear()
            finals.clear()
            out = tmp_path / f"jobs{jobs}"
            assert main(["design", "--config", str(cfg), "--jobs", str(jobs),
                         "--out", str(out)]) == 0
            log = json.loads((out / "sbd_log.json").read_text())["iterations"]
            assert len(log) == len(finals) >= 2
            for rec, sol in zip(log, finals):
                assert tuple(rec[f] for f in fields) == (sol.bound, sol.gap, sol.nodes)
                assert rec["master_bound"] <= sol.objective
                assert 0.0 <= rec["master_gap"] <= 1e-6  # the configured rel_gap
            logged[jobs] = [[rec[f] for f in fields] for rec in log]
        assert logged[1] == logged[2]


class TestSolverFailures:
    def test_time_limit_exits_4_without_traceback(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        cfg = write_config(
            tmp_path, network="case30.json",
            fragility={"line_failure_prob_override": 0.2, "scenario_count": 3},
            design={"critical_fraction": 0.98, "total_fraction": 0.3},
            solver={"rel_gap": 1e-6, "time_limit": 0},
        )
        assert main(["design", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("solver failure:") for line in err)
        assert not (tmp_path / "out" / "design.json").exists()

    def test_removed_feasibility_tolerance_is_an_input_error(self, tmp_path):
        cfg = write_config(tmp_path, solver={"feas_tol": 1e-6})
        assert main(["design", "--config", str(cfg)]) == 2


class TestEvaluateAndValidate:
    def _designed(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out" / "design.json"

    def test_evaluate_own_scenarios_all_feasible(self, tmp_path, capsys):
        cfg, design = self._designed(tmp_path)
        assert main(["evaluate", "--config", str(cfg),
                     "--design", str(design)]) == 0
        verdicts = json.loads((tmp_path / "out" / "evaluation.json").read_text())
        assert all(v["feasible"] for v in verdicts)
        assert "0 infeasible" in capsys.readouterr().out

    def test_evaluate_empty_design_reports_shortfall(self, tmp_path, capsys):
        cfg, design = self._designed(tmp_path)
        design.write_text(json.dumps({
            "built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        harsh = tmp_path / "harsh.json"
        harsh.write_text(json.dumps({
            "seed": 0, "per_line_probability": None,
            "scenarios": [
                {"id": 0, "damaged_line_ids": []},
                {"id": 1, "damaged_line_ids": ["L1"]},
            ],
        }))
        code = main(["evaluate", "--config", str(cfg), "--design", str(design),
                     "--scenarios", str(harsh)])
        assert code == 0
        verdicts = json.loads((tmp_path / "out" / "evaluation.json").read_text())
        assert any(not v["feasible"] for v in verdicts)
        bad = [v for v in verdicts if not v["feasible"]][0]
        assert bad["shortfall_critical"] > 0.9

    def test_summary_ignores_feasible_point_fractions(self, tmp_path, monkeypatch,
                                                     capsys):
        """A feasible verdict's fractions are one arbitrary feasible point's,
        so verdicts that differ only there print the same summary."""
        cfg = write_config(tmp_path)
        design = tmp_path / "design.json"
        design.write_text("{}")

        def summary(critical, total):
            verdicts = [Verdict(0, True, critical, total),
                        Verdict(1, False, 0.5, 0.2, shortfall_critical=0.48,
                                shortfall_total=0.1)]
            monkeypatch.setattr(gridfort.cli, "_verdicts", lambda *args: verdicts)
            assert main(["evaluate", "--config", str(cfg), "--design", str(design)]) == 0
            return capsys.readouterr().out

        first = summary(1.0, 0.335)
        assert first == summary(0.99, 0.9)
        assert "1 infeasible, worst shortfall critical/total 0.4800/0.1000" in first

    def test_evaluate_out_of_sample_scenarios(self, tmp_path):
        cfg, design = self._designed(tmp_path)
        fresh = write_config(tmp_path, seed=777)
        assert main(["scenarios", "--config", str(fresh), "--seed", "777",
                     "--out", str(tmp_path / "fresh")]) == 0
        code = main(["evaluate", "--config", str(cfg), "--design", str(design),
                     "--scenarios", str(tmp_path / "fresh" / "scenarios.json")])
        assert code == 0

    def test_validate_clean_design_exits_0(self, tmp_path):
        cfg, design = self._designed(tmp_path)
        assert main(["validate", "--config", str(cfg),
                     "--design", str(design)]) == 0

    def test_malformed_design_exits_2(self, tmp_path):
        cfg, design = self._designed(tmp_path)
        design.write_text("not json")
        assert main(["evaluate", "--config", str(cfg),
                     "--design", str(design)]) == 2


class TestDesignFile:
    """A --design document that does not fit the network is an input error
    naming the field, for evaluate and validate alike."""

    @pytest.mark.parametrize("command", ["evaluate", "validate"])
    @pytest.mark.parametrize("doc,field", [
        ([], "JSON object"),
        ({"microgrid_steps": [1]}, "microgrid_steps"),
        ({"microgrid_steps": {"mg_c1": 5}}, "microgrid_steps.mg_c1"),
        ({"microgrid_steps": {"mg_c1": 2.7}}, "microgrid_steps.mg_c1"),
        ({"microgrid_steps": {"mg_c1": True}}, "microgrid_steps.mg_c1"),
        ({"microgrid_steps": {"mg_c1": -1}}, "microgrid_steps.mg_c1"),
        ({"microgrid_steps": {"nope": 1}}, "nope"),
        ({"built_lines": "L1"}, "built_lines"),
        ({"built_lines": ["NOPE"]}, "built_lines"),
        ({"built_lines": ["L1"]}, "built_lines"),
        ({"hardened_lines": [1]}, "hardened_lines"),
        ({"hardened_lines": ["NOPE"]}, "hardened_lines"),
        ({"hardened_lines": ["L2"]}, "hardened_lines"),
    ], ids=["list", "steps-list", "steps-above-max", "steps-fraction", "steps-flag",
            "steps-negative", "unknown-microgrid", "built-string", "built-unknown",
            "built-existing", "hardened-number", "hardened-unknown",
            "hardened-undamageable"])
    def test_is_an_input_error(self, tmp_path, capsys, command, doc, field):
        cfg = write_config(tmp_path)
        design = tmp_path / "design.json"
        design.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--design", str(design)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert field in err
        assert not (tmp_path / "out").exists()

    def test_full_microgrid_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path)
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"hardened_lines": ["L1"],
                                      "microgrid_steps": {"mg_c1": 1}}))
        assert main(["evaluate", "--config", str(cfg), "--design", str(design)]) == 0


def write_scenarios(path: Path, damage: list[list[str]]) -> Path:
    """Scenario file with ids 0, 1, ... carrying the given damage sets."""
    path.write_text(json.dumps({
        "seed": 0, "per_line_probability": None,
        "scenarios": [{"id": i, "damaged_line_ids": d} for i, d in enumerate(damage)],
    }))
    return path


class TestScenarioIds:
    @pytest.mark.parametrize("command", ["design", "evaluate", "validate"])
    def test_duplicate_id_is_an_input_error(self, tmp_path, capsys, command):
        scens = write_scenarios(tmp_path / "scens.json", [[], ["L1"], ["L3"]])
        doc = json.loads(scens.read_text())
        doc["scenarios"][2]["id"] = 1
        scens.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, scenarios_file="scens.json")
        design = tmp_path / "design.json"
        design.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        argv = [command, "--config", str(cfg)]
        if command != "design":
            argv += ["--design", str(design), "--scenarios", str(scens)]
        assert main(argv) == 2
        assert "duplicate scenario id 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _bus_without_phases(tmp_path):
    doc = json.loads((FIXTURES / "case5.json").read_text())
    del doc["buses"][1]["phases"]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    return {"network": "bad.json"}


def _bases_without_base_kva(tmp_path):
    doc = json.loads((FIXTURES / "case5.json").read_text())
    del doc["bases"]["base_kva"]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    return {"network": "bad.json"}


def _null_base_kva(tmp_path):
    doc = json.loads((FIXTURES / "case5.json").read_text())
    doc["bases"]["base_kva"] = None
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    return {"network": "bad.json"}


def _scenario_file(doc):
    def overrides(tmp_path):
        (tmp_path / "scens.json").write_text(json.dumps(doc))
        return {"scenarios_file": "scens.json"}
    return overrides


class TestMalformedInput:
    """Each document names its malformed field and the run exits 2, without
    a traceback."""

    @pytest.mark.parametrize("overrides,field", [
        (lambda _: {"jobs": [1]}, "jobs"),
        (lambda _: {"seed": [1]}, "seed"),
        (lambda _: {"network": 5}, "network"),
        (lambda _: {"fragility": [1]}, "fragility"),
        (lambda _: {"sweep": {"total_fractions": 5, "mg_variable_cost_rates": [1.0]}},
         "total_fractions"),
        (_bus_without_phases, "phases"),
        (_bases_without_base_kva, "base_kva"),
        (_null_base_kva, "base_kva"),
        (lambda _: {"solver": {"time_limit": "x"}}, "time_limit"),
        (lambda _: {"solver": {"rel_gap": "x"}}, "rel_gap"),
        (lambda _: {"design": {"critical_fraction": "x"}}, "critical_fraction"),
        (lambda _: {"fragility": {"scenario_count": "3"}}, "scenario_count"),
        (_scenario_file({"seed": 0}), "scenarios"),
        (_scenario_file({"scenarios": [{"id": 0}]}), "damaged_line_ids"),
        (lambda _: {"seed": 42.9}, "seed"),
        (lambda _: {"seed": "7"}, "seed"),
        (lambda _: {"jobs": 2.5}, "jobs"),
        (lambda _: {"jobs": True}, "jobs"),
        (lambda _: {"sweep": {"total_fractions": "12"}}, "total_fractions"),
        (lambda _: {"sweep": {"total_fractions": [True]}}, "total_fractions"),
        (lambda _: {"fragility": [["scenario_count", 2],
                                  ["line_failure_prob_override", 0.2]]}, "fragility"),
        (lambda _: {"design": []}, "design"),
        (lambda _: {"solver": 0}, "solver"),
        (lambda _: {"sweep": False}, "sweep"),
        (lambda _: {"solver": {"backend": "gurobi"}}, "backend"),
        (_scenario_file({"scenarios": [{"id": None, "damaged_line_ids": []}]}),
         "scenario entry 0"),
        (_scenario_file({"scenarios": [{"id": 0, "damaged_line_ids": []},
                                       {"id": 1.7, "damaged_line_ids": []}]}),
         "scenario entry 1"),
        (_scenario_file({"scenarios": [{"id": 0, "damaged_line_ids": []},
                                       {"id": True, "damaged_line_ids": []}]}),
         "scenario entry 1"),
        (_scenario_file({"scenarios": [{"id": 0, "damaged_line_ids": []},
                                       {"id": 1, "damaged_line_ids": [["L1"]]}]}),
         "scenario entry 1"),
    ], ids=["config-jobs", "config-seed", "config-network", "config-fragility",
            "config-sweep-axis", "network-bus-phases", "network-base-kva",
            "network-null-base-kva", "solver-time-limit", "solver-rel-gap",
            "design-critical-fraction", "fragility-scenario-count",
            "scenarios-key", "scenario-damage", "config-seed-fraction",
            "config-seed-string", "config-jobs-fraction", "config-jobs-flag",
            "config-sweep-axis-string", "config-sweep-axis-flag",
            "config-fragility-pairs", "config-design-list", "config-solver-number",
            "config-sweep-false", "solver-unknown-backend", "scenario-null-id",
            "scenario-fractional-id", "scenario-bool-id", "scenario-nested-line-id"])
    def test_is_an_input_error(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides(tmp_path))
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,overrides,flag", [
        ("scenarios", {"network": ""}, None),
        ("design", {"network": ""}, None),
        ("design", {"scenarios_file": "sd"}, None),
        ("evaluate", {}, "--design"),
        ("validate", {}, "--design"),
    ], ids=["scenarios-network", "design-network", "design-scenarios-file",
            "evaluate-design", "validate-design"])
    def test_directory_is_an_input_error(self, tmp_path, capsys, command, overrides,
                                         flag):
        """A path that names a directory: "" is the config's own directory."""
        (tmp_path / "sd").mkdir()
        cfg = write_config(tmp_path, **overrides)
        argv = [command, "--config", str(cfg)]
        if flag:
            argv += [flag, str(tmp_path / "sd")]
        directory = tmp_path if overrides.get("network") == "" else tmp_path / "sd"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert f"'{directory}'" in err
        assert not (tmp_path / "out").exists()


class TestExternalInfeasibility:
    def test_infeasible_verification_matches_builtin(self, tmp_path, monkeypatch):
        """An external solver proves a verification infeasible through its
        status line; the best-effort answer equals the built-in one."""
        fake = Path(__file__).parent / "fake_solver.py"
        monkeypatch.setenv("GRIDFORT_SOLVER_CMD",
                           f"{sys.executable} {fake} {{model}} {{solution}}")
        scens = write_scenarios(tmp_path / "scens.json", [[], ["L1"]])
        cfg = write_config(tmp_path)
        design = tmp_path / "design.json"
        design.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": [], "microgrid_steps": {}}))
        files = {}
        for backend in ("builtin", "external"):
            out = tmp_path / backend
            assert main(["evaluate", "--config", str(cfg), "--design", str(design),
                         "--scenarios", str(scens), "--solver", backend,
                         "--out", str(out)]) == 0
            files[backend] = (out / "evaluation.json").read_bytes()
        assert files["external"] == files["builtin"]
        assert [v["feasible"] for v in json.loads(files["external"])] == [True, False]


class TestDistinctDamage:
    """evaluate and validate solve each distinct damage set once and write
    the same bytes as solving every scenario on its own."""

    DAMAGE = [[], ["L1"], ["L3"], ["L1"], [], ["L1", "L3"], ["L3"], ["L1"]]

    @pytest.mark.parametrize("command,output", [
        ("evaluate", "evaluation.json"), ("validate", "audit.json")])
    def test_equals_scenario_by_scenario(self, tmp_path, monkeypatch, command, output):
        scens_path = write_scenarios(tmp_path / "scens.json", self.DAMAGE)
        cfg_path = write_config(tmp_path)
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": ["L3"], "microgrid_steps": {}}))

        cfg = gridfort.cli.load_config(cfg_path)
        network = gridfort.cli.load_network_file(cfg.network)
        design = gridfort.cli.design_from_file(design_path, network, cfg.design)
        real = gridfort.cli.evaluate_design
        verdicts = [real(design, network, s, cfg.design, cfg.solver)
                    for s in gridfort.cli.load_scenarios_file(scens_path, network)]
        reports = [audit(v.state, network, cfg.design, design) for v in verdicts]
        if command == "evaluate":
            rows, code = [v.to_dict() for v in verdicts], 0
        else:
            rows = [r.to_dict() for r in reports]
            code = 0 if all(r.clean for r in reports) else 1
        gridfort.cli._dump_json(rows, tmp_path / "expected.json")
        assert {v.feasible for v in verdicts} == {True, False}

        log = tmp_path / "solved.txt"

        def counting(design, network, scenario, *args, **kwargs):
            # a file, so that the calls of forked helper processes count too
            with open(log, "a") as fh:
                fh.write(",".join(sorted(scenario.damaged_line_ids)) + "\n")
            return real(design, network, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "evaluate_design", counting)
        # four damage sets over two processes
        assert main([command, "--config", str(cfg_path), "--design", str(design_path),
                     "--scenarios", str(scens_path), "--jobs", "2"]) == code
        assert sorted(log.read_text().splitlines()) == sorted(
            {",".join(sorted(d)) for d in self.DAMAGE})
        assert ((tmp_path / "out" / output).read_bytes()
                == (tmp_path / "expected.json").read_bytes())


    @pytest.mark.parametrize("command", ["design", "validate"])
    def test_audits_each_damage_set_once(self, tmp_path, monkeypatch, command):
        scens_path = write_scenarios(tmp_path / "scens.json", self.DAMAGE)
        cfg_path = write_config(tmp_path, scenarios_file="scens.json")
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(
            {"built_lines": [], "hardened_lines": ["L3"], "microgrid_steps": {}}))
        real_verdicts = gridfort.cli._verdicts
        real_audit = gridfort.cli.audit
        verdicts, audited = [], []

        def recording_verdicts(design, network, *args, **kwargs):
            result = real_verdicts(design, network, *args, **kwargs)
            verdicts.append((design, network, result))
            return result

        def counting_audit(state, *args, **kwargs):
            audited.append(state.scenario_id)
            return real_audit(state, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "_verdicts", recording_verdicts)
        monkeypatch.setattr(gridfort.cli, "audit", counting_audit)
        argv = [command, "--config", str(cfg_path)]
        if command == "validate":
            argv += ["--design", str(design_path), "--scenarios", str(scens_path)]
        assert main(argv) in (0, 1)
        assert len(self.DAMAGE) == 8
        assert sorted(audited) == [0, 1, 2, 5]  # the first of each damage set
        (design, network, result), = verdicts
        cfg = gridfort.cli.load_config(cfg_path)
        gridfort.cli._dump_json(
            [real_audit(v.state, network, cfg.design, design).to_dict() for v in result],
            tmp_path / "expected.json")
        assert ((tmp_path / "out" / "audit.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())


class TestSweepCommand:
    def test_grid_rows_equal_axis_product(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            fragility={"line_failure_prob_override": 0.0, "scenario_count": 1},
            sweep={"total_fractions": [0.0, 0.25, 0.5],
                   "mg_variable_cost_rates": [100.0, 500.0]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        header = lines[0].split(",")
        assert header[:4] == ["gamma", "mg_cost_per_kw", "status", "total_cost"]
        assert all(row.split(",")[2] == "ok" for row in lines[1:])

    def test_cells_resume_from_disk(self, tmp_path):
        cfg = write_config(
            tmp_path,
            fragility={"line_failure_prob_override": 0.0, "scenario_count": 1},
            sweep={"total_fractions": [0.0], "mg_variable_cost_rates": [100.0]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        cell = tmp_path / "out" / "cells" / "cell_g0_r0.json"
        marker = json.loads(cell.read_text())
        marker["total_cost"] = 123456.0
        cell.write_text(json.dumps(marker))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert "123456" in (tmp_path / "out" / "sweep.csv").read_text()

    def test_finished_cells_survive_a_crashing_cell(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            fragility={"line_failure_prob_override": 0.0, "scenario_count": 1},
            sweep={"total_fractions": [0.0, 0.25],
                   "mg_variable_cost_rates": [100.0, 500.0]},
        )
        real_cell = gridfort.cli._sweep_cell
        calls = []

        def crash_on_third(args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("cell crashed")
            return real_cell(args)

        monkeypatch.setattr(gridfort.cli, "_sweep_cell", crash_on_third)
        # pinned serial: a local function cannot be pickled to the cell pool
        with pytest.raises(RuntimeError, match="cell crashed"):
            main(["sweep", "--config", str(cfg), "--jobs", "1"])
        cells = tmp_path / "out" / "cells"
        assert sorted(p.name for p in cells.iterdir()) == [
            "cell_g0_r0.json", "cell_g0_r1.json"]
        assert json.loads((cells / "cell_g0_r1.json").read_text())["status"] == "ok"

    def test_crashing_cell_is_recorded_and_later_cells_run(self, tmp_path,
                                                           monkeypatch, capsys):
        cfg = write_config(
            tmp_path,
            fragility={"line_failure_prob_override": 0.0, "scenario_count": 1},
            sweep={"total_fractions": [0.0, 0.25],
                   "mg_variable_cost_rates": [100.0, 500.0]},
        )
        real = gridfort.cli.sbd_design

        def crash_one(network, scens, params, *args, **kwargs):
            if (params.total_fraction, params.mg_rate_override) == (0.0, 500.0):
                raise RuntimeError("cell crashed")
            return real(network, scens, params, *args, **kwargs)

        monkeypatch.setattr(gridfort.cli, "sbd_design", crash_one)
        # pinned serial: the patch and the captured stderr live in this process
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        cells = tmp_path / "out" / "cells"
        rows = {p.name: json.loads(p.read_text()) for p in cells.iterdir()}
        assert sorted(rows) == ["cell_g0_r0.json", "cell_g0_r1.json",
                                "cell_g1_r0.json", "cell_g1_r1.json"]
        crashed = rows.pop("cell_g0_r1.json")
        assert crashed["status"] == "error"
        assert crashed["message"] == "RuntimeError: cell crashed"
        assert all(row["status"] == "ok" for row in rows.values())
        captured = capsys.readouterr()
        assert "(4 cells, 1 failed)" in captured.out
        assert "RuntimeError: cell crashed" in captured.err

    def test_cell_builds_one_design_master(self, tmp_path, monkeypatch):
        """The kW tie-break continues on the cost pass's master; only
        verification models are built besides it."""
        scens = write_scenarios(tmp_path / "scens.json", [[], ["L1"], ["L3"], ["L1", "L3"]])
        real = gridfort.decomposition.build_master
        masters = []

        def counting(*args, fixed_design=None, **kwargs):
            if fixed_design is None:
                masters.append(args)
            return real(*args, fixed_design=fixed_design, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "build_master", counting)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              mg_rate_override=250.0)
        row = gridfort.cli._sweep_cell((str(FIXTURES / "case5.json"), str(scens),
                                        params, SolverOptions(rel_gap=1e-6)))
        assert row["status"] == "ok"
        assert len(masters) == 1

    def test_sweep_without_axes_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_failed_cells_recorded_not_omitted(self, tmp_path):
        net_doc = json.loads((FIXTURES / "case5.json").read_text())
        net_doc["microgrids"] = []
        for line in net_doc["lines"]:
            line["hardenable"] = False
            line["harden_cost"] = 0.0
        (tmp_path / "bare.json").write_text(json.dumps(net_doc))
        (tmp_path / "scens.json").write_text(json.dumps({
            "seed": 0, "per_line_probability": None,
            "scenarios": [
                {"id": 0, "damaged_line_ids": []},
                {"id": 1, "damaged_line_ids": ["L1"]},
            ],
        }))
        cfg = write_config(
            tmp_path, network="bare.json", scenarios_file="scens.json",
            sweep={"total_fractions": [0.0, 0.5],
                   "mg_variable_cost_rates": [100.0]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert all(row.split(",")[2] == "infeasible" for row in lines[1:])

    def test_external_backend_through_env_command(self, tmp_path, monkeypatch):
        import sys

        fake = Path(__file__).parent / "fake_solver.py"
        monkeypatch.setenv("GRIDFORT_SOLVER_CMD",
                           f"{sys.executable} {fake} {{model}} {{solution}}")
        cfg = write_config(tmp_path, fragility={
            "line_failure_prob_override": 0.0, "scenario_count": 1})
        assert main(["design", "--config", str(cfg), "--solver", "external"]) == 0
        doc = json.loads((tmp_path / "out" / "design.json").read_text())
        assert doc["cost"]["total"] == 0.0

    @pytest.mark.parametrize("n_gamma,n_rate", [(5, 5), (9, 9)])
    def test_published_grid_sizes(self, tmp_path, n_gamma, n_rate):
        cfg = write_config(
            tmp_path,
            design={"critical_fraction": 0.0, "total_fraction": 0.0},
            fragility={"line_failure_prob_override": 0.0, "scenario_count": 1},
            sweep={
                "total_fractions": [i / (2 * n_gamma) for i in range(n_gamma)],
                "mg_variable_cost_rates": [100.0 * (i + 1) for i in range(n_rate)],
            },
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + n_gamma * n_rate

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_config(
            tmp_path,
            fragility={"line_failure_prob_override": 0.2, "scenario_count": 2},
            sweep={"total_fractions": [0.0, 0.5],
                   "mg_variable_cost_rates": [200.0]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        serial = (tmp_path / "out" / "sweep.csv").read_text()
        shutil.rmtree(tmp_path / "out")
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
        parallel = (tmp_path / "out" / "sweep.csv").read_text()

        def strip_time(text):
            return [",".join(r.split(",")[:-1]) for r in text.splitlines()]

        assert strip_time(serial) == strip_time(parallel)


class TestBenchmarkTracerHooks:
    """The benchmark's tracer (perfbench/spans.py) wraps gridfort functions by
    module attribute; a rename must fail here, not silently zero its metrics."""

    def test_traced_design_run_sees_verification_and_audit(self, tmp_path):
        # the worst-damage scenario 1 enters the master and no verified
        # scenario shares its damage, so the audit must solve it again
        write_scenarios(tmp_path / "scens.json", [[], ["L1", "L3"], ["L1"], []])
        cfg = write_config(tmp_path, scenarios_file="scens.json")
        script = textwrap.dedent("""
            import json, sys
            from spans import Recorder, install, layer_metrics
            import gridfort.cli

            rec = Recorder()
            install(rec)
            code = gridfort.cli.main(sys.argv[1:])
            print(json.dumps({"code": code, "metrics": layer_metrics(rec.to_dict())}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), str(REPO / "perfbench")]))
        done = subprocess.run(
            [sys.executable, "-c", script, "design", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["code"] == 0
        assert result["metrics"]["decomposition.verify_calls"] > 0
        assert result["metrics"]["cli.audit_resolve_calls"] > 0


class TestRuntimeDependencies:
    def test_design_runs_without_networkx(self, tmp_path):
        """numpy and scipy are the whole runtime: a design run succeeds with
        networkx made unimportable."""
        cfg = write_config(tmp_path)
        script = textwrap.dedent("""
            import sys
            sys.modules["networkx"] = None
            import gridfort.cli
            sys.exit(gridfort.cli.main(sys.argv[1:]))
        """)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script, "design", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "audit clean" in done.stdout
