import math
from collections import Counter
from dataclasses import replace

import pytest

from gridfort import (
    DamageScenario,
    DesignParams,
    FragilityParams,
    InfeasibleDesignError,
    SolverOptions,
    build_master,
    evaluate_design,
    sample_scenarios,
    sbd_design,
    separate_cycles,
)
import gridfort.decomposition
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import make_design
from gridfort.milp import SolverError, solve

from conftest import c, load_doc, two_bus_doc, z1
from netgen import enumerate_optimum, random_instance

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())


class TestSbd:
    def test_undamaged_scenarios_cost_nothing(self, case5):
        scens = [BASELINE, DamageScenario(1, frozenset()),
                 DamageScenario(2, frozenset())]
        params = DesignParams(critical_fraction=1.0, total_fraction=0.5)
        design, state = sbd_design(case5, scens, params, EXACT)
        assert design.cost.total == 0.0
        assert len(state.iterations) == 1

    def test_dominant_scenario_keeps_active_set_small(self, case5):
        scens = [
            BASELINE,
            DamageScenario(1, frozenset({"L1"})),
            DamageScenario(2, frozenset({"L1", "L3"})),
        ]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design, state = sbd_design(case5, scens, params, EXACT)
        assert set(state.active) <= {0, 2}
        # the dominant scenario alone prices the design
        single = sbd_design(case5, [BASELINE, scens[2]], params, EXACT)[0]
        assert design.cost.total == single.cost.total == pytest.approx(50_000.0)

    def test_cost_non_decreasing_across_iterations(self, case5):
        # conflicting scenarios force two iterations
        scens = [
            BASELINE,
            DamageScenario(1, frozenset({"L1"})),
            DamageScenario(2, frozenset({"L3"})),
        ]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.9)
        design, state = sbd_design(case5, scens, params, EXACT)
        costs = [r.cost for r in state.iterations]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
        assert len(state.iterations) >= 2

    def test_only_the_final_verification_keeps_operating_points(self, case30):
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        _, state = sbd_design(case30, scens, params, EXACT)
        *earlier, last = state.iterations
        assert earlier and all(rec.verdicts for rec in state.iterations)
        assert all(v.state is None for rec in earlier for v in rec.verdicts.values())
        assert all(v.state is not None and v.state.scenario_id == sid
                   for sid, v in last.verdicts.items())

    def test_unattainable_targets_name_a_scenario(self):
        doc = two_bus_doc()
        doc["loads"][0]["is_critical"] = True
        doc["lines"][0]["damageable"] = True  # not hardenable, no microgrid
        net = load_doc(doc)
        scens = [BASELINE, DamageScenario(1, frozenset({"l1"}))]
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        with pytest.raises(InfeasibleDesignError) as err:
            sbd_design(net, scens, params, EXACT)
        assert err.value.scenario_id == 1

    def test_matches_extensive_form_on_random_instances(self):
        checked = 0
        for seed in range(40):
            net, scens, params = random_instance(seed)
            try:
                design, _ = sbd_design(net, scens, params, EXACT)
                sbd_cost = design.cost.total
            except InfeasibleDesignError:
                sbd_cost = math.inf
            master = build_master(net, scens, params)
            sol = solve_with_cycle_cuts(master, EXACT)
            ext_cost = (master.design_from_solution(sol).cost.total
                        if sol.status == "optimal" else math.inf)
            assert sbd_cost == ext_cost, f"seed {seed}"
            if math.isfinite(sbd_cost):
                checked += 1
            if checked >= 8:
                break
        assert checked >= 8

    def test_existing_microgrid_stays_committed_in_evaluation(self):
        # an already-built unit must keep serving when a design is evaluated,
        # even though designs only record candidate decisions
        doc = two_bus_doc()
        doc["lines"][0].update(damageable=True)
        doc["loads"][0].update(is_critical=True)
        doc["microgrids"] = [{"id": "mg0", "bus": "b1", "step_capacity_kva": 100.0,
                              "max_steps": 1, "is_existing": True}]
        net = load_doc(doc)
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        design, state = sbd_design(
            net, [BASELINE, DamageScenario(1, frozenset({"l1"}))], params, EXACT)
        assert design.cost.total == 0.0  # the existing unit rides through
        verdict = evaluate_design(design, net,
                                  DamageScenario(1, frozenset({"l1"})),
                                  params, EXACT)
        assert verdict.feasible

    def test_free_microgrids_leave_lines_unbuilt(self, case5):
        # with microgrid costs zeroed and positive line costs, an optimum with
        # no built or hardened lines exists whenever microgrids alone satisfy
        # the targets
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              mg_fixed_cost_override=0.0, mg_rate_override=0.0)
        design, _ = sbd_design(case5, scens, params, EXACT)
        assert design.cost.total == 0.0
        assert design.built_lines == ()
        assert design.hardened_lines == ()


class TestDistinctDamage:
    """Verification solves each distinct damage set once and restates the
    answer under every scenario id that shares it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_scenario_by_scenario_verification(self, case30, monkeypatch, jobs):
        sampled = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        # the same damage again under new ids, the baseline's included
        scens = sampled + [DamageScenario(s.id + 10, s.damaged_line_ids)
                           for s in sampled]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        real = gridfort.decomposition.evaluate_design
        calls = []

        def recording(design, network, scenario, *args, **kwargs):
            calls.append((design, scenario))
            return real(design, network, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "evaluate_design", recording)
        _, state = sbd_design(case30, scens, params, EXACT, jobs=jobs)
        monkeypatch.undo()

        per_iteration = []  # (design, scenarios verified), in iteration order
        for design, scen in calls:
            if not per_iteration or per_iteration[-1][0] is not design:
                per_iteration.append((design, []))
            per_iteration[-1][1].append(scen)
        assert len(state.iterations) >= 2
        assert len(per_iteration) == len(state.iterations)
        for rec, (design, verified) in zip(state.iterations, per_iteration):
            remaining = [s for s in scens if s.id not in rec.active]
            solved = Counter(s.damaged_line_ids for s in verified)
            assert set(solved) == {s.damaged_line_ids for s in remaining}
            assert set(solved.values()) == {1}
            assert rec.verify_solves == len(solved) < len(remaining)
            assert sorted(rec.verdicts) == sorted(s.id for s in remaining)
            final = rec is state.iterations[-1]
            for scen in remaining:
                alone = real(design, case30, scen, params, EXACT)
                got = rec.verdicts[scen.id]
                assert got.to_dict() == alone.to_dict()
                if final:
                    assert got.state.scenario_id == scen.id
                    assert got.state == alone.state


class TestEvaluateDesign:
    def test_baseline_always_feasible(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.5)
        verdict = evaluate_design(make_design(case5, params, [], [], {}),
                                  case5, BASELINE, params, EXACT)
        assert verdict.feasible
        assert verdict.critical_fraction >= 0.98
        assert verdict.total_fraction >= 0.5

    def test_microgrid_island_serves_critical(self, case5):
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        design = make_design(case5, params, [], [], {"mg_c1": 1})
        harsh = DamageScenario(5, frozenset({"L1", "L3"}))
        verdict = evaluate_design(design, case5, harsh, params, EXACT)
        assert verdict.feasible
        assert verdict.critical_fraction == pytest.approx(1.0)

    def test_empty_design_on_severed_critical_reports_shortfall(self, case5):
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        design = make_design(case5, params, [], [], {})
        harsh = DamageScenario(5, frozenset({"L1"}))
        verdict = evaluate_design(design, case5, harsh, params, EXACT)
        assert not verdict.feasible
        assert verdict.shortfall_critical == pytest.approx(1.0)
        assert verdict.critical_fraction == pytest.approx(0.0)

    def test_returns_operation_state(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        verdict = evaluate_design(
            design, case5, DamageScenario(1, frozenset({"L1"})), params, EXACT)
        assert verdict.feasible
        assert "L1" in verdict.state.closed_lines
        assert "crit_c1" in verdict.state.served_loads

    def test_order_independent(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        scens = [DamageScenario(1, frozenset({"L1"})),
                 DamageScenario(2, frozenset({"L3"}))]
        fwd = [evaluate_design(design, case5, s, params, EXACT).to_dict()
               for s in scens]
        rev = [evaluate_design(design, case5, s, params, EXACT).to_dict()
               for s in reversed(scens)]
        assert fwd == list(reversed(rev))


def tree_solution_master(net, close):
    params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
    master = build_master(net, [BASELINE], params)
    blk = master.blocks[0]
    for lid in net.lines:
        if lid in blk.vars.bs:
            val = 1.0 if lid in close else 0.0
            if master.model.lb[blk.vars.bs[lid]] != master.model.ub[blk.vars.bs[lid]]:
                master.model.fix_variable(blk.vars.bs[lid], val)
    sol = solve(master.model, EXACT)
    assert sol.status == "optimal"
    return master, sol


class TestSeparateCycles:
    def _ring(self, n, switched=True):
        doc = two_bus_doc()
        doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
        doc["buses"] += [{"id": f"n{i}", "phases": "a"} for i in range(1, n)]
        ids = ["sub"] + [f"n{i}" for i in range(1, n)]
        doc["lines"] = [
            {"id": f"e{i}", "from": ids[i], "to": ids[(i + 1) % n], "phases": "a",
             "length_km": 0.5, "impedance": z1(0.2, 0.4), "capacity_kva": 400.0,
             "has_switch": switched}
            for i in range(n)
        ]
        doc["loads"] = [{"id": "ld", "bus": ids[1],
                         "demand_kva": {"a": c(10.0, 0.0)}}]
        return load_doc(doc)

    def test_tree_certifies_empty(self, case5):
        master, sol = tree_solution_master(case5, set(case5.lines))
        assert separate_cycles(sol, master, 0) == []

    def test_closed_triangle_found(self):
        net = self._ring(3)
        master, sol = tree_solution_master(net, {"e0", "e1", "e2"})
        cycles = separate_cycles(sol, master, 0)
        assert len(cycles) == 1
        assert len(cycles[0]) == 3

    def test_two_disjoint_rings_found_in_one_pass(self):
        doc = two_bus_doc()
        doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
        doc["buses"] += [{"id": f"a{i}", "phases": "a"} for i in range(4)]
        doc["buses"] += [{"id": f"b{i}", "phases": "a"} for i in range(4)]
        a = [f"a{i}" for i in range(4)]
        b = [f"b{i}" for i in range(4)]
        doc["lines"] = (
            [{"id": f"ra{i}", "from": a[i], "to": a[(i + 1) % 4], "phases": "a",
              "length_km": 0.5, "impedance": z1(0.2, 0.4), "capacity_kva": 400.0,
              "has_switch": True} for i in range(4)]
            + [{"id": f"rb{i}", "from": b[i], "to": b[(i + 1) % 4], "phases": "a",
                "length_km": 0.5, "impedance": z1(0.2, 0.4),
                "capacity_kva": 400.0, "has_switch": True} for i in range(4)]
            + [{"id": "sa", "from": "sub", "to": "a0", "phases": "a",
                "length_km": 0.5, "impedance": z1(0.2, 0.4),
                "capacity_kva": 400.0},
               {"id": "sb", "from": "sub", "to": "b0", "phases": "a",
                "length_km": 0.5, "impedance": z1(0.2, 0.4),
                "capacity_kva": 400.0}]
        )
        doc["loads"] = [{"id": "ld", "bus": "a1",
                         "demand_kva": {"a": c(10.0, 0.0)}}]
        net = load_doc(doc)
        master, sol = tree_solution_master(net, set(net.lines))
        cycles = separate_cycles(sol, master, 0)
        assert len(cycles) == 2
        assert sorted(len(cyc) for cyc in cycles) == [4, 4]

    def test_cut_loop_terminates_with_forest(self):
        net = self._ring(4)
        params = DesignParams(critical_fraction=0.0, total_fraction=1.0)
        master = build_master(net, [BASELINE], params)
        sol = solve_with_cycle_cuts(master, EXACT)
        assert sol.status == "optimal"
        assert separate_cycles(sol, master, 0) == []


class TestDesignSearchEquivalence:
    def test_branch_search_detects_infeasibility(self):
        doc = two_bus_doc()
        doc["loads"][0]["is_critical"] = True
        doc["lines"][0]["damageable"] = True
        net = load_doc(doc)
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        with pytest.raises(InfeasibleDesignError) as err:
            sbd_design(net, [DamageScenario(1, frozenset({"l1"}))], params, EXACT)
        assert err.value.scenario_id == 1


def _limit_hits(monkeypatch, first=math.inf):
    """The first ``first`` solves keep their values but report that a limit
    stopped them."""
    import dataclasses

    import gridfort.decomposition as dec

    real = dec.solve
    calls = []

    def limited(model, options=None):
        sol = real(model, options)
        calls.append(sol.status)
        if len(calls) > first:
            return sol
        return dataclasses.replace(sol, status="feasible_limit")

    monkeypatch.setattr(dec, "solve", limited)


class TestSolverLimits:
    """A limit hit is never a proof: neither a design nor an infeasible verdict."""

    def test_master_time_limit_raises_solver_error(self, case5):
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        with pytest.raises(SolverError, match="master solve"):
            sbd_design(case5, scens, params, SolverOptions(time_limit=0.0))

    def test_master_limit_with_incumbent_raises_solver_error(self, case5, monkeypatch):
        _limit_hits(monkeypatch)
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        with pytest.raises(SolverError, match="feasible_limit"):
            sbd_design(case5, scens, params, EXACT)

    def test_evaluation_limit_is_not_a_shortfall(self, case5, monkeypatch):
        # only the feasibility solve hits the limit; a best-effort solve
        # after it would report a shortfall the design may not have
        _limit_hits(monkeypatch, first=1)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        with pytest.raises(SolverError, match="^evaluation of scenario 1"):
            evaluate_design(design, case5, DamageScenario(1, frozenset({"L1"})),
                            params, EXACT)


class TestOracleAgreement:
    def test_sbd_matches_enumeration_on_small_instances(self):
        agreements = 0
        for seed in (3, 11, 19):
            net, scens, params = random_instance(seed)
            expected = enumerate_optimum(net, scens, params, EXACT)
            try:
                design, _ = sbd_design(net, scens, params, EXACT)
                got = design.cost.total
            except InfeasibleDesignError:
                got = math.inf
            if math.isinf(expected):
                assert math.isinf(got), f"seed {seed}"
            else:
                assert got == pytest.approx(expected, rel=1e-6), f"seed {seed}"
                agreements += 1
        assert agreements >= 1

    def test_sbd_matches_enumeration_on_two_phase_instances(self):
        """Coupled two-phase feeders exercise the imbalance bands and rotated
        mutual terms inside the oracle comparison."""
        agreements = 0
        for seed in (2, 7, 13, 21):
            net, scens, params = random_instance(seed, phases="ab")
            expected = enumerate_optimum(net, scens, params, EXACT)
            try:
                design, _ = sbd_design(net, scens, params, EXACT)
                got = design.cost.total
            except InfeasibleDesignError:
                got = math.inf
            if math.isinf(expected):
                assert math.isinf(got), f"seed {seed}"
            else:
                assert got == pytest.approx(expected, rel=1e-6), f"seed {seed}"
                agreements += 1
        assert agreements >= 1
