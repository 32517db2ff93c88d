import json
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
    load_network_file,
    sample_scenarios,
    save_scenarios,
    sbd_design,
    separate_cycles,
)
import gridfort.cli
import gridfort.decomposition
import gridfort.milp
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import MasterProblem, make_design
from gridfort.milp import SolverError, solve
from gridfort.model import adjacency, aggregate_parallel_edges, components
from gridfort.validate import audit

from conftest import FIXTURES, c, load_doc, two_bus_doc, two_rings_doc, z1
from netgen import enumerate_optimum, random_instance

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())


def assert_matches_extensive_form(phases: str) -> None:
    """SBD's cost equals the extensive form's, over every scenario at once,
    on at least 8 feasible ``netgen`` instances."""
    checked = 0
    for seed in range(40):
        net, scens, params = random_instance(seed, phases=phases)
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
        assert_matches_extensive_form("a")

    def test_matches_extensive_form_on_two_phase_instances(self):
        assert_matches_extensive_form("ab")

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
    def test_equals_scenario_by_scenario_verification(self, case30, monkeypatch,
                                                       tmp_path, jobs):
        sampled = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        # the same damage again under new ids, the baseline's included
        scens = sampled + [DamageScenario(s.id + 10, s.damaged_line_ids)
                           for s in sampled]
        by_id = {s.id: s for s in scens}
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        real = gridfort.decomposition.evaluate_design
        log = tmp_path / "calls.txt"
        designs = {}  # repr -> design, as this process saw them

        def recording(design, network, scenario, *args, **kwargs):
            designs.setdefault(repr(design), design)
            # a file, so that the calls of forked helper processes count too
            with open(log, "a") as fh:
                fh.write(json.dumps([repr(design), scenario.id]) + "\n")
            return real(design, network, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "evaluate_design", recording)
        _, state = sbd_design(case30, scens, params, EXACT, jobs=jobs)
        monkeypatch.undo()

        per_iteration = []  # (design, scenarios verified), in iteration order
        for line in log.read_text().splitlines():
            key, sid = json.loads(line)
            if not per_iteration or repr(per_iteration[-1][0]) != key:
                per_iteration.append((designs[key], []))
            per_iteration[-1][1].append(by_id[sid])
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

    def test_feasibility_jump_setting_changes_no_verdict(self, case30, monkeypatch):
        """HiGHS runs without its feasibility-jump heuristic. That may change
        the feasible point a verification returns, but no verdict: checked
        against the same solves with the option stripped, on the failing
        first-iteration design, for every distinct damage set."""
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=20, seed=1))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        real_evaluate = gridfort.decomposition.evaluate_design
        designs = []

        def recording(design, *args, **kwargs):
            designs.append(design)
            return real_evaluate(design, *args, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "evaluate_design", recording)
        _, state = sbd_design(case30, scens, params, EXACT)
        monkeypatch.undo()
        assert len(state.iterations) >= 2
        first = designs[0]
        distinct = list({s.damaged_line_ids: s for s in scens}.values())

        real_milp = gridfort.milp.scipy_milp
        passed = []

        def stripped(*args, options, **kwargs):
            passed.append(options.pop("mip_heuristic_run_feasibility_jump"))
            return real_milp(*args, options=options, **kwargs)

        monkeypatch.setattr(gridfort.milp, "scipy_milp", stripped)
        before = [evaluate_design(first, case30, s, params, EXACT) for s in distinct]
        monkeypatch.undo()
        after = [evaluate_design(first, case30, s, params, EXACT) for s in distinct]

        assert passed and all(value is False for value in passed)
        assert not all(v.feasible for v in after)
        for old, new in zip(before, after):
            assert (old.feasible, old.shortfall_critical, old.shortfall_total) == (
                new.feasible, new.shortfall_critical, new.shortfall_total)
            for verdict in (old, new):
                # an infeasible verdict's point misses the targets, nothing else
                missed = (set() if verdict.feasible
                          else {"critical_service", "total_service"})
                report = audit(verdict.state, case30, params, first)
                assert {v.kind for v in report.violations} <= missed


def meshed_triangle():
    """Switched triangle whose critical load at ``b`` exceeds one line's
    rating: it is served only with every line closed, which the radiality
    cut then forbids."""
    doc = two_bus_doc()
    doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True},
                    {"id": "a", "phases": "a"}, {"id": "b", "phases": "a"}]
    doc["lines"] = [
        {"id": f"l{i}", "from": f, "to": t, "phases": "a", "length_km": 1.0,
         "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "has_switch": True}
        for i, (f, t) in enumerate([("sub", "a"), ("a", "b"), ("sub", "b")])
    ]
    doc["loads"] = [{"id": "ld", "bus": "b", "demand_kva": {"a": c(600.0, 0.0)},
                     "is_critical": True}]
    return load_doc(doc)


class TestPersistentMaster:
    """The decomposition and the verification keep one model each, with the
    cuts found so far in it."""

    def _recording(self, monkeypatch, name):
        real = getattr(gridfort.decomposition, name)
        calls = []

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(gridfort.decomposition, name, recording)
        return calls

    def test_multi_iteration_run_builds_one_master(self, case30, monkeypatch):
        builds = self._recording(monkeypatch, "build_master")
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        _, state = sbd_design(case30, scens, params, EXACT)
        assert len(state.iterations) >= 2
        masters = [res for _, kwargs, res in builds if "fixed_design" not in kwargs]
        assert len(masters) == 1
        assert list(masters[0].blocks) == list(state.iterations[-1].active)

    def test_best_effort_solve_keeps_the_feasibility_cuts(self, monkeypatch):
        net = meshed_triangle()
        builds = self._recording(monkeypatch, "build_master")
        solves = []
        real_solve = gridfort.decomposition.solve

        def recording_solve(model, options=None):
            sol = real_solve(model, options)
            cuts = sum(con.name.startswith("cycle:") for con in model.constraints)
            solves.append((model, sol.status, cuts))
            return sol

        monkeypatch.setattr(gridfort.decomposition, "solve", recording_solve)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        verdict = evaluate_design(make_design(net, params, [], [], {}), net,
                                  BASELINE, params, EXACT)
        assert not verdict.feasible
        assert len(builds) == 1
        assert all(model is builds[0][2].model for model, _, _ in solves)
        statuses = [status for _, status, _ in solves]
        # the feasibility solve needs a cut before it can prove infeasibility
        first_infeasible = statuses.index("infeasible")
        assert first_infeasible >= 1
        cuts_found = solves[first_infeasible][2]
        assert cuts_found >= 1
        # the best-effort solve starts from those cuts
        assert solves[first_infeasible + 1][2] == cuts_found
        assert statuses[-1] == "optimal"


class TestCutPool:
    """The design master keeps one pool of cycles, each cut once in every
    block, and starts it with the reduced graph's cycle basis."""

    @staticmethod
    def recording_cuts(monkeypatch) -> list:
        """(master, scenario id, cycle) of every cut row, in the order cut."""
        cut_calls = []
        real_cut = MasterProblem.add_cycle_cut

        def recording_cut(master, cycle, sid):
            cut_calls.append((master, sid, tuple(cycle)))
            return real_cut(master, cycle, sid)

        monkeypatch.setattr(MasterProblem, "add_cycle_cut", recording_cut)
        return cut_calls

    def test_every_block_holds_the_pool_once(self, case30, monkeypatch):
        cut_calls = self.recording_cuts(monkeypatch)
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        _, state = sbd_design(case30, scens, params, EXACT)
        assert len(state.iterations) >= 2
        keys = [(id(m), sid, frozenset(cyc)) for m, sid, cyc in cut_calls]
        assert len(keys) == len(set(keys))
        # verification models hold one block each
        master, = {id(m): m for m, _, _ in cut_calls if len(m.blocks) > 1}.values()
        assert list(master.blocks) == list(state.iterations[-1].active)
        assert master.cycles
        held = {sid: [cyc for m, s, cyc in cut_calls if m is master and s == sid]
                for sid in master.blocks}
        assert held == {sid: master.cycles for sid in master.blocks}
        assert sum(rec.cuts_added for rec in state.iterations) == len(master.cycles)

    def test_a_cycle_found_in_two_blocks_is_pooled_once(self, monkeypatch):
        cut_calls = self.recording_cuts(monkeypatch)
        net = load_doc(two_rings_doc())
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(net, [BASELINE, DamageScenario(1, frozenset())], params)
        # both blocks are drawn to use every edge of ring a and none of ring b
        weight = {"a": -1.0, "b": 1.0}
        master.model.set_objective({
            ix: weight[u[0]]
            for blk in master.blocks.values() for (u, v), ix in blk.vars.bredge.items()
            if u[0] == v[0] and u[0] in weight})
        assert solve_with_cycle_cuts(master, EXACT).status == "optimal"
        ring_a, = master.cycles
        assert [(sid, cyc) for _, sid, cyc in cut_calls] == [(0, ring_a), (1, ring_a)]
        assert master.solves == 2

    @pytest.mark.parametrize("network", [
        lambda: load_network_file(FIXTURES / "case30.json"),
        lambda: load_doc(two_rings_doc()),
    ], ids=["case30", "two-rings"])
    def test_first_master_solve_carries_the_cycle_basis(self, network, monkeypatch):
        network = network()
        reduced = aggregate_parallel_edges(network)
        rank = (len(reduced.edges) - len(reduced.nodes)
                + len(components(adjacency(reduced.nodes, reduced.edges))))
        assert rank > 0
        first_rows = []
        real_solve = gridfort.decomposition.solve

        def recording_solve(model, options=None):
            if not first_rows:
                first_rows.append([n for n in model.row_names if n.startswith("cycle:")])
            return real_solve(model, options)

        monkeypatch.setattr(gridfort.decomposition, "solve", recording_solve)
        scens = sample_scenarios(network, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        _, state = sbd_design(network, scens, params, EXACT)
        per_block = Counter(name.rsplit(":s", 1)[1] for name in first_rows[0])
        assert per_block == {str(sid): rank for sid in state.iterations[0].active}
        assert state.iterations[0].cuts_added >= rank


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
        net = load_doc(two_rings_doc())
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


def least_kw_extensive(net, scens, params, budget: float) -> float:
    """The extensive form's least installed kW within ``budget`` k$, over
    every scenario at once."""
    master = build_master(net, scens, params)
    master.minimize_microgrid_kw(budget)
    sol = solve_with_cycle_cuts(master, EXACT)
    assert sol.status == "optimal"
    return master.design_from_solution(sol).microgrid_kw(net)


@pytest.fixture
def kw_budgets(monkeypatch):
    """The budget of every kW pass run while the fixture is active."""
    budgets = []
    real = MasterProblem.minimize_microgrid_kw

    def recording(self, cost_budget):
        budgets.append(cost_budget)
        return real(self, cost_budget)

    monkeypatch.setattr(MasterProblem, "minimize_microgrid_kw", recording)
    return budgets


class TestTieBreakOracle:
    """The kW pass, run on the cost pass's master, finds the extensive
    form's least-kW design under the same budget."""

    @pytest.mark.parametrize("rate", [100.0, 250.0, 1000.0])
    def test_sweep_cell_on_case5(self, tmp_path, case5, kw_budgets, rate):
        # at $250/kW the microgrid costs what hardening L1 does, a cost tie
        # that only the kW pass settles
        damage = [[], ["L1"], ["L3"], ["L1", "L3"]]
        scens = [DamageScenario(i, frozenset(d)) for i, d in enumerate(damage)]
        path = tmp_path / "scens.json"
        path.write_text(save_scenarios(scens))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              mg_rate_override=rate)
        row = gridfort.cli._sweep_cell(
            (str(FIXTURES / "case5.json"), str(path), params, EXACT))
        assert row["status"] == "ok"
        budget, = kw_budgets
        assert row["microgrid_kw"] == least_kw_extensive(case5, scens, params, budget)
        assert row["total_cost"] <= budget * 1000.0
        if rate == 250.0:
            assert row["microgrid_kw"] == 0.0
            assert row["hardened_lines"] == 1

    @pytest.mark.parametrize("free", [False, True], ids=["priced", "free"])
    def test_generated_instances(self, kw_budgets, free):
        """With every upgrade free, every feasible design ties on cost and
        the kW pass alone picks one, after the cost pass took any. Its
        design must verify on every scenario, so a kW pass that kept a
        design some scenario rejects fails here."""
        checked = 0
        for seed in range(40):
            net, scens, params = random_instance(seed)
            if not any(not g.is_existing for g in net.microgrids.values()):
                continue
            if free:
                params = replace(params, line_cost_scale=0.0, harden_cost_scale=0.0,
                                 mg_fixed_cost_override=0.0, mg_rate_override=0.0)
            kw_budgets.clear()
            try:
                design, _ = sbd_design(net, scens, params, EXACT, tie_break=True)
            except InfeasibleDesignError:
                continue
            budget, = kw_budgets
            assert design.microgrid_kw(net) == least_kw_extensive(
                net, scens, params, budget), f"seed {seed}"
            assert all(evaluate_design(design, net, s, params, EXACT).feasible
                       for s in scens), f"seed {seed}"
            checked += 1
            if checked >= 6:
                break
        assert checked >= 6
