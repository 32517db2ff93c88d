"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass lines.
"""

import json
import math
import time

import pytest

from gridfort import (
    DesignParams,
    FragilityParams,
    InfeasibleDesignError,
    ScenarioTemplate,
    SolverOptions,
    build_master,
    evaluate_design,
    load_network_file,
    recompute_voltages,
    sample_scenarios,
    sbd_design,
)
from gridfort.cli import main
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import make_design
from gridfort.fragility import load_scenarios_file
from gridfort.validate import audit, check_radiality

from conftest import FIXTURES
from netgen import enumerate_optimum, random_instance

EXACT = SolverOptions(rel_gap=1e-9)
N_ORACLE_INSTANCES = 20
ORACLE_SEEDS = range(100, 100 + 3 * N_ORACLE_INSTANCES)


def _sbd_cost(net, scens, params):
    try:
        design, _ = sbd_design(ScenarioTemplate(net, params), scens, EXACT)
        return design.cost.total, design
    except InfeasibleDesignError:
        return math.inf, None


@pytest.fixture(scope="module")
def oracle_runs():
    """Tiny random instances solved three ways, plus their operation states."""
    runs = []
    t0 = time.monotonic()
    for seed in ORACLE_SEEDS:
        if len(runs) >= N_ORACLE_INSTANCES:
            break
        net, scens, params = random_instance(seed)
        oracle = enumerate_optimum(net, scens, params, EXACT)
        sbd, design = _sbd_cost(net, scens, params)
        template = ScenarioTemplate(net, params)
        master = build_master(template, scens)
        sol = solve_with_cycle_cuts(master, EXACT)
        extensive = (master.design_from_solution(sol).cost.total
                     if sol.status == "optimal" else math.inf)
        states = []
        if design is not None:
            for scen in scens:
                verdict = evaluate_design(design, template, scen, EXACT)
                assert verdict.feasible
                states.append((net, params, design, verdict.state))
        runs.append({
            "seed": seed, "oracle": oracle, "sbd": sbd,
            "extensive": extensive, "states": states, "network": net,
            "scenarios": scens, "params": params,
        })
    return {"runs": runs, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    """The 4x4 sensitivity sweep on the 30-bus feeder, run through the CLI."""
    out = tmp_path_factory.mktemp("sweep")
    cfg = {
        "network": str(FIXTURES / "case30.json"),
        "output_dir": str(out),
        "seed": 3,
        "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 3},
        "design": {"critical_fraction": 0.98},
        "solver": {"rel_gap": 1e-6},
        "sweep": {"total_fractions": [0.1, 0.25, 0.4, 0.5],
                  "mg_variable_cost_rates": [100.0, 400.0, 800.0, 1500.0]},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.monotonic()
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "2"]) == 0
    elapsed = time.monotonic() - t0
    rows = []
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    for raw in lines[1:]:
        rows.append(dict(zip(header, raw.split(","))))
    return {"rows": rows, "out": out, "elapsed": elapsed, "config": cfg}


class TestOracleEquivalence:
    def test_sbd_matches_exhaustive_enumeration(self, oracle_runs):
        runs = oracle_runs["runs"]
        assert len(runs) >= N_ORACLE_INSTANCES
        feasible = 0
        for run in runs:
            if math.isinf(run["oracle"]):
                assert math.isinf(run["sbd"]), f"seed {run['seed']}"
            else:
                rel = abs(run["sbd"] - run["oracle"]) / max(1.0, run["oracle"])
                assert rel <= 1e-6, f"seed {run['seed']}"
                feasible += 1
        assert oracle_runs["elapsed"] < 300.0
        print(f"\n[PASS] oracle equivalence: {len(runs)} instances "
              f"({feasible} feasible) in {oracle_runs['elapsed']:.1f}s")

    def test_sbd_matches_extensive_form(self, oracle_runs):
        for run in oracle_runs["runs"]:
            if math.isinf(run["extensive"]):
                assert math.isinf(run["sbd"]), f"seed {run['seed']}"
            else:
                assert run["sbd"] == run["extensive"], f"seed {run['seed']}"
        print(f"[PASS] extensive-form equivalence: exact cost match on "
              f"{len(oracle_runs['runs'])} instances")


class TestPhysicalSoundness:
    def test_thermal_circle_never_violated(self, oracle_runs):
        checked = 0
        worst = 0.0
        for run in oracle_runs["runs"]:
            for net, params, design, state in run["states"]:
                for (lid, phase), flow in state.flows.items():
                    if lid not in state.closed_lines:
                        continue
                    cap = net.lines[lid].capacity_pu[phase]
                    worst = max(worst, abs(flow) / cap)
                    checked += 1
        assert checked > 0
        assert worst <= 1.0 + 1e-9
        print(f"\n[PASS] thermal soundness: {checked} line-phase flows, "
              f"max utilization {worst:.9f}")

    def test_radiality_across_suite(self, oracle_runs):
        count = 0
        for run in oracle_runs["runs"]:
            for net, params, design, state in run["states"]:
                ok, witness = check_radiality(state, net)
                assert ok, f"cycle {witness} in seed {run['seed']}"
                count += 1
        assert count > 0
        print(f"[PASS] radiality: {count} scenario operations, all forests")


class TestVoltageFidelity:
    def test_recomputed_voltages_match_and_stay_in_band(self, sweep_artifacts):
        net = load_network_file(FIXTURES / "case30.json")
        scens = load_scenarios_file(sweep_artifacts["out"] / "scenarios.json", net)
        worst_disc = 0.0
        worst_util = 0.0
        v_lo, v_hi = math.inf, -math.inf
        designs_checked = 0
        for cell in sorted((sweep_artifacts["out"] / "cells").glob("*.json")):
            doc = json.loads(cell.read_text())
            if doc.get("status") != "ok":
                continue
            params = DesignParams(
                critical_fraction=0.98, total_fraction=doc["gamma"],
                mg_rate_override=doc["mg_cost_per_kw"])
            design = make_design(net, params, doc["design"]["built_lines"],
                                 doc["design"]["hardened_lines"],
                                 doc["design"]["microgrid_steps"])
            designs_checked += 1
            template = ScenarioTemplate(net, params)
            for scen in scens:
                verdict = evaluate_design(design, template, scen, EXACT)
                assert verdict.feasible
                state = verdict.state
                radial, witness = check_radiality(state, net)
                assert radial, witness
                for (lid, phase), flow in state.flows.items():
                    if lid in state.closed_lines:
                        worst_util = max(
                            worst_util, abs(flow) / net.lines[lid].capacity_pu[phase]
                        )
                volts, disc = recompute_voltages(state, net)
                worst_disc = max(worst_disc, disc)
                for _, v_sq in volts.items():
                    mag = math.sqrt(max(v_sq, 0.0))
                    v_lo, v_hi = min(v_lo, mag), max(v_hi, mag)
        assert designs_checked == 16
        assert worst_disc <= 1e-6
        assert worst_util <= 1.0 + 1e-9
        assert 0.95 <= v_lo and v_hi <= 1.05
        print(f"\n[PASS] voltage fidelity: max discrepancy {worst_disc:.2e} pu, "
              f"magnitudes in [{v_lo:.4f}, {v_hi:.4f}], max utilization "
              f"{worst_util:.4f}, all radial, over {designs_checked} "
              f"accepted designs")


class TestMonotonicity:
    N = 10

    def _costs(self, make_params):
        rows = []
        found = 0
        for seed in range(500, 600):
            if found >= self.N:
                break
            net, scens, params = random_instance(seed)
            lo, hi = make_params(params)
            c_lo, _ = _sbd_cost(net, scens, lo)
            c_hi, _ = _sbd_cost(net, scens, hi)
            rows.append((seed, c_lo, c_hi))
            found += 1
        return rows

    def test_cost_non_decreasing_in_critical_fraction(self):
        from dataclasses import replace

        rows = self._costs(lambda p: (replace(p, critical_fraction=0.8),
                                      replace(p, critical_fraction=1.0)))
        for seed, lo, hi in rows:
            assert hi >= lo - 1e-9, f"seed {seed}: {lo} -> {hi}"
        print(f"\n[PASS] monotone in critical fraction: {len(rows)} instances")

    def test_cost_non_decreasing_in_total_fraction(self):
        from dataclasses import replace

        rows = self._costs(lambda p: (replace(p, total_fraction=0.1),
                                      replace(p, total_fraction=0.5)))
        for seed, lo, hi in rows:
            assert hi >= lo - 1e-9, f"seed {seed}: {lo} -> {hi}"
        print(f"[PASS] monotone in total fraction: {len(rows)} instances")

    def test_cost_non_decreasing_under_scenario_growth(self):
        rows = []
        for seed in range(700, 800):
            if len(rows) >= self.N:
                break
            net, scens, params = random_instance(seed)
            if len(scens) < 3:
                continue
            c_small, _ = _sbd_cost(net, scens[:2], params)
            c_full, _ = _sbd_cost(net, scens, params)
            rows.append((seed, c_small, c_full))
        for seed, small, full in rows:
            assert full >= small - 1e-9, f"seed {seed}: {small} -> {full}"
        print(f"[PASS] monotone under scenario growth: {len(rows)} instances")


class TestNetworkedMicrogridBenefit:
    def test_joint_design_beats_separate(self):
        t0 = time.monotonic()
        params = DesignParams(critical_fraction=0.98, total_fraction=0.2)
        costs = {}
        for tag, scen_file in (
            ("feeder_a", "feeder_a_scenarios.json"),
            ("feeder_b", "feeder_b_scenarios.json"),
            ("feeders_joint", "joint_scenarios.json"),
        ):
            net = load_network_file(FIXTURES / f"{tag}.json")
            scens = load_scenarios_file(FIXTURES / scen_file, net)
            template = ScenarioTemplate(net, params)
            design, _ = sbd_design(template, scens, EXACT)
            costs[tag] = design.cost.total
            for scen in scens:
                verdict = evaluate_design(design, template, scen, EXACT)
                assert verdict.feasible
        separate = costs["feeder_a"] + costs["feeder_b"]
        ratio = costs["feeders_joint"] / separate
        elapsed = time.monotonic() - t0
        assert ratio <= 0.95
        assert elapsed < 600.0
        print(f"\n[PASS] networked-microgrid benefit: joint "
              f"${costs['feeders_joint']/1e3:.0f}k vs separate "
              f"${separate/1e3:.0f}k (ratio {ratio:.3f}) in {elapsed:.1f}s")


class TestSensitivityTrends:
    def test_line_count_non_decreasing_in_total_fraction(self, sweep_artifacts):
        rows = sweep_artifacts["rows"]
        assert len(rows) == 16
        assert all(r["status"] == "ok" for r in rows)
        rates = sorted({float(r["mg_cost_per_kw"]) for r in rows})
        for rate in rates:
            col = sorted(
                (float(r["gamma"]), int(r["hardened_lines"]) + int(r["new_lines"]))
                for r in rows if float(r["mg_cost_per_kw"]) == rate
            )
            counts = [n for _, n in col]
            assert counts == sorted(counts), f"rate {rate}: {col}"
        assert sweep_artifacts["elapsed"] < 1200.0
        print(f"\n[PASS] line count non-decreasing in served fraction "
              f"(sweep took {sweep_artifacts['elapsed']:.1f}s)")

    def test_microgrid_kw_non_increasing_in_cost(self, sweep_artifacts):
        rows = sweep_artifacts["rows"]
        gammas = sorted({float(r["gamma"]) for r in rows})
        for gamma in gammas:
            row = sorted(
                (float(r["mg_cost_per_kw"]), float(r["microgrid_kw"]))
                for r in rows if float(r["gamma"]) == gamma
            )
            kws = [kw for _, kw in row]
            assert kws == sorted(kws, reverse=True), f"gamma {gamma}: {row}"
        print("[PASS] tie-break microgrid kW non-increasing in $/kW")


class TestFragilityStatistics:
    def test_sampler_mean_within_three_sigma(self):
        import fixturegen

        # a 200-span damageable feeder, per the published damage statistics
        doc = {
            "bases": {"base_kva": 1000.0, "base_kv": 12.47},
            "buses": [{"id": "sub", "phases": "a", "is_substation": True}],
            "lines": [],
            "loads": [{"id": "ld", "bus": "n1",
                       "demand_kva": {"a": {"re": 5.0, "im": 0.0}}}],
            "microgrids": [],
        }
        prev = "sub"
        for i in range(1, 201):
            doc["buses"].append({"id": f"n{i}", "phases": "a"})
            doc["lines"].append({
                "id": f"L{i:03d}", "from": prev, "to": f"n{i}", "phases": "a",
                "length_km": 0.1, "impedance": fixturegen._z1(0.2, 0.4),
                "capacity_kva": 400.0, "damageable": True,
            })
            prev = f"n{i}"
        from gridfort import load_network

        net = load_network(json.dumps(doc))
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=50, seed=20260811))
        fractions = [len(s.damaged_line_ids) / 200.0 for s in scens[1:]]
        assert len(fractions) == 50
        mean = sum(fractions) / len(fractions)
        sigma_mean = math.sqrt(0.2 * 0.8 / 200.0) / math.sqrt(50.0)
        assert abs(mean - 0.2) <= 3.0 * sigma_mean
        print(f"\n[PASS] fragility statistics: mean damaged fraction "
              f"{mean:.4f} within 3 sigma of 0.2")


class TestDeterminism:
    def test_identical_seeds_identical_design_bytes(self, tmp_path):
        cfg = {
            "network": str(FIXTURES / "case30.json"),
            "seed": 11,
            "fragility": {"line_failure_prob_override": 0.2, "scenario_count": 2},
            "design": {"critical_fraction": 0.98, "total_fraction": 0.3,
                       "mg_rate_override": 300.0},
            "solver": {"rel_gap": 1e-6},
        }
        digests = []
        for run in ("one", "two"):
            out = tmp_path / run
            cfg["output_dir"] = str(out)
            cfg_path = tmp_path / f"config_{run}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["design", "--config", str(cfg_path)]) == 0
            digests.append((out / "design.json").read_bytes())
        assert digests[0] == digests[1]
        scen_bytes = [
            (tmp_path / run / "audit.json").read_bytes() for run in ("one", "two")
        ]
        assert scen_bytes[0] == scen_bytes[1]
        print("\n[PASS] determinism: identical seeds give byte-identical "
              "design and audit files")
