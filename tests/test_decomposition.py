import json
import math
import random
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from gridfort import (
    DamageScenario,
    DesignParams,
    FragilityParams,
    InfeasibleDesignError,
    ScenarioTemplate,
    SolverOptions,
    build_master,
    evaluate_design,
    load_network_file,
    sample_scenarios,
    sbd_design,
    separate_cycles,
)
import gridfort.cli
import gridfort.decomposition
import gridfort.milp
from gridfort.decomposition import IterationRecord, solve_with_cycle_cuts
from gridfort.formulation import MasterProblem, make_design
from gridfort.milp import SolverError, solve
from gridfort.model import adjacency, aggregate_parallel_edges, components
from gridfort.validate import audit

from conftest import FIXTURES, c, load_doc, two_bus_doc, two_rings_doc, z1
from netgen import enumerate_optimum, random_instance

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())
SBD_LOG_DOC = Path(__file__).resolve().parent.parent / "docs" / "sbd_log.md"


def assert_matches_extensive_form(phases: str) -> None:
    """SBD's cost equals the extensive form's, over every scenario at once,
    on at least 8 feasible ``netgen`` instances."""
    checked = 0
    for seed in range(40):
        net, scens, params = random_instance(seed, phases=phases)
        try:
            design, _ = sbd_design(ScenarioTemplate(net, params), scens, EXACT)
            sbd_cost = design.cost.total
        except InfeasibleDesignError:
            sbd_cost = math.inf
        master = build_master(ScenarioTemplate(net, params), scens)
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
        design, state = sbd_design(ScenarioTemplate(case5, params), scens, EXACT)
        assert design.cost.total == 0.0
        assert len(state.iterations) == 1
        # without damage, the master holds the baseline alone
        assert state.iterations[0].active_scenarios == (0,)
        assert sorted(state.iterations[0].verdicts) == [1, 2]

    def test_dominant_scenario_keeps_active_set_small(self, case5):
        scens = [
            BASELINE,
            DamageScenario(1, frozenset({"L1"})),
            DamageScenario(2, frozenset({"L1", "L3"})),
        ]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        template = ScenarioTemplate(case5, params)
        design, state = sbd_design(template, scens, EXACT)
        assert set(state.iterations[-1].active_scenarios) <= {0, 2}
        # the dominant scenario alone prices the design
        single = sbd_design(template, [BASELINE, scens[2]], EXACT)[0]
        assert design.cost.total == single.cost.total == pytest.approx(50_000.0)

    def test_cost_non_decreasing_across_iterations(self, case5):
        # conflicting scenarios force two iterations
        scens = [
            BASELINE,
            DamageScenario(1, frozenset({"L1"})),
            DamageScenario(2, frozenset({"L3"})),
        ]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.9)
        design, state = sbd_design(ScenarioTemplate(case5, params), scens, EXACT)
        costs = [r.cost for r in state.iterations]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
        assert len(state.iterations) >= 2

    def test_only_the_final_verdicts_keep_operating_points(self, case30):
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        _, state = sbd_design(ScenarioTemplate(case30, params), scens, EXACT)
        *earlier, last = state.iterations
        assert earlier and all(rec.verdicts for rec in state.iterations)
        assert all(v.state is None for rec in state.iterations
                   for v in rec.verdicts.values())
        assert list(state.verdicts) == [s.id for s in scens]
        assert all(v.feasible and v.state.scenario_id == sid
                   for sid, v in state.verdicts.items())
        # off the final master, each is the final verification's verdict
        assert all(state.verdicts[sid] == v for sid, v in last.verdicts.items())

    def test_unattainable_targets_name_a_scenario(self):
        doc = two_bus_doc()
        doc["loads"][0]["is_critical"] = True
        doc["lines"][0]["damageable"] = True  # not hardenable, no microgrid
        net = load_doc(doc)
        scens = [BASELINE, DamageScenario(1, frozenset({"l1"}))]
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        with pytest.raises(InfeasibleDesignError) as err:
            sbd_design(ScenarioTemplate(net, params), scens, EXACT)
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
        design, state = sbd_design(ScenarioTemplate(net, params),
                                   [BASELINE, DamageScenario(1, frozenset({"l1"}))],
                                   EXACT)
        assert design.cost.total == 0.0  # the existing unit rides through
        verdict = evaluate_design(design, ScenarioTemplate(net, params),
                                  DamageScenario(1, frozenset({"l1"})), EXACT)
        assert verdict.feasible

    def test_existing_microgrid_beside_a_new_one(self):
        """case5's c1 holds an existing 3 x 10 kVA unit and a new unit of
        four 25 kVA steps. Islanded by damage on L1, c1's critical 80 kW
        needs two new steps with the existing unit (three steps give 75 kW
        without it), which is cheaper than hardening L1: the existing unit's
        capacity counts in full, and costs nothing."""
        doc = json.loads((FIXTURES / "case5.json").read_text())
        doc["microgrids"] = [
            {"id": "mg_c1", "bus": "c1", "step_capacity_kva": 25.0, "max_steps": 4,
             "fixed_cost": 5000.0, "variable_cost_rate": 100.0},
            {"id": "mg_old", "bus": "c1", "step_capacity_kva": 10.0, "max_steps": 3,
             "is_existing": True},
        ]
        net = load_doc(doc)
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"})),
                 DamageScenario(2, frozenset({"L3"})),
                 DamageScenario(3, frozenset({"L1", "L3"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        template = ScenarioTemplate(net, params)
        design, state = sbd_design(template, scens, EXACT)
        assert (design.built_lines, design.hardened_lines) == ((), ())
        assert design.microgrid_steps == (("mg_c1", 2),)
        assert design.cost.total == 10_000.0
        assert all(v.feasible for v in state.verdicts.values())
        master = build_master(template, scens)
        extensive = master.design_from_solution(solve_with_cycle_cuts(master, EXACT))
        assert extensive == design

    def test_free_microgrids_leave_lines_unbuilt(self, case5):
        # with microgrid costs zeroed and positive line costs, an optimum with
        # no built or hardened lines exists whenever microgrids alone satisfy
        # the targets
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              mg_fixed_cost_override=0.0, mg_rate_override=0.0)
        design, _ = sbd_design(ScenarioTemplate(case5, params), scens, EXACT)
        assert design.cost.total == 0.0
        assert design.built_lines == ()
        assert design.hardened_lines == ()


def star_doc(lines: dict[str, bool]) -> dict:
    """Radial lines ``id -> hardenable`` from the substation, each damageable
    and feeding a bus of its own with a critical load; no microgrid."""
    doc = two_bus_doc()
    doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
    doc["buses"] += [{"id": f"b{lid}", "phases": "a"} for lid in lines]
    doc["lines"] = [
        {"id": lid, "from": "sub", "to": f"b{lid}", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "damageable": True,
         "hardenable": hardenable, "harden_cost": 10_000.0}
        for lid, hardenable in lines.items()]
    doc["loads"] = [{"id": f"ld{lid}", "bus": f"b{lid}", "is_critical": True,
                     "demand_kva": {"a": c(50.0, 10.0)}} for lid in lines]
    return doc


class TestActiveSet:
    """The first master holds the most damaged scenario alone, and failing
    iteration k adds the lowest-id infeasible scenario of each damage set, at
    most 2**(k-1) of them."""

    # three iterations verifying 9, 8 and 6 damage sets; the second adds a
    # batch of two
    CASE30 = FragilityParams(line_failure_prob_override=0.2, scenario_count=12, seed=0)
    PARAMS = DesignParams(critical_fraction=0.98, total_fraction=0.7)

    def test_first_master_holds_no_baseline_block(self, case30, monkeypatch):
        first_blocks = []
        real = gridfort.decomposition.solve_with_cycle_cuts

        def recording(master, options=None):
            if not first_blocks:
                first_blocks.append(list(master.blocks))
            return real(master, options)

        monkeypatch.setattr(gridfort.decomposition, "solve_with_cycle_cuts", recording)
        scens = sample_scenarios(case30, self.CASE30)
        _, state = sbd_design(ScenarioTemplate(case30, self.PARAMS), scens, EXACT)
        worst = max(scens, key=lambda s: (len(s.damaged_line_ids), -s.id))
        assert worst.damaged_line_ids and worst.id != 0
        assert first_blocks == [[worst.id]]
        first = state.iterations[0]
        assert first.active_scenarios == (worst.id,)
        assert first.verdicts[0].feasible  # the baseline, verified

    def test_failing_iterations_add_doubling_batches(self, case30):
        scens = sample_scenarios(case30, self.CASE30)
        by_id = {s.id: s for s in scens}
        template = ScenarioTemplate(case30, self.PARAMS)
        _, state = sbd_design(template, scens, EXACT, jobs=1)
        sizes = []
        for k, (rec, nxt) in enumerate(zip(state.iterations, state.iterations[1:]), 1):
            infeasible = sorted(sid for sid, v in rec.verdicts.items() if not v.feasible)
            first = {}
            for sid in infeasible:
                first.setdefault(by_id[sid].damaged_line_ids, sid)
            added = list(nxt.active_scenarios[len(rec.active_scenarios):])
            assert nxt.active_scenarios[:len(rec.active_scenarios)] == rec.active_scenarios
            assert added == list(first.values())[:2 ** (k - 1)]
            sizes.append((len(added), len(first)))
        # iteration 1 adds one of several sets, iteration 2 a batch of two
        assert sizes[:2] == [(1, 3), (2, 2)]
        _, forked = sbd_design(template, scens, EXACT, jobs=3)
        assert ([rec.active_scenarios for rec in forked.iterations]
                == [rec.active_scenarios for rec in state.iterations])

    def test_master_points_pass_the_audit(self, case30):
        scens = sample_scenarios(case30, self.CASE30)
        design, state = sbd_design(ScenarioTemplate(case30, self.PARAMS), scens, EXACT)
        assert len(state.iterations) >= 3
        final = state.iterations[-1]
        assert list(state.verdicts) == [s.id for s in scens]
        assert (sorted(set(state.verdicts) - set(final.verdicts))
                == sorted(final.active_scenarios))
        for sid in final.active_scenarios:
            verdict = state.verdicts[sid]
            assert verdict.feasible and verdict.state.scenario_id == sid
            assert audit(verdict.state, case30, self.PARAMS, design).clean

    def test_a_twin_of_an_active_scenario_is_not_verified(self, case30, monkeypatch,
                                                           tmp_path):
        """A scenario damaged like one in the master takes its verdict from
        the master's point: adding a twin of every damaged scenario adds no
        verification solve, and moves neither the active sets nor the design."""
        scens = sample_scenarios(case30, self.CASE30)
        twin_of = {s.id + 100: s.id for s in scens if s.damaged_line_ids}
        with_twins = scens + [DamageScenario(tid, scens[sid].damaged_line_ids)
                              for tid, sid in twin_of.items()]
        template = ScenarioTemplate(case30, self.PARAMS)
        design, plain = sbd_design(template, scens, EXACT)
        real = gridfort.decomposition.evaluate_design
        log = tmp_path / "calls.txt"

        def recording(design, template, scenario, *args, **kwargs):
            # a file, so that the calls of forked helper processes count too
            with open(log, "a") as fh:
                fh.write(f"{scenario.id}\n")
            return real(design, template, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "evaluate_design", recording)
        for jobs in (1, 3):
            log.write_text("")
            got, state = sbd_design(template, with_twins, EXACT, jobs=jobs)
            assert got == design
            assert ([rec.active_scenarios for rec in state.iterations]
                    == [rec.active_scenarios for rec in plain.iterations])
            assert ([rec.verify_solves for rec in state.iterations]
                    == [rec.verify_solves for rec in plain.iterations])
            evaluated = [int(line) for line in log.read_text().split()]
            assert len(evaluated) == sum(rec.verify_solves for rec in state.iterations)
            assert not set(evaluated) & set(twin_of)
            final = state.iterations[-1]
            for sid in final.active_scenarios:
                twin = sid + 100
                assert state.verdicts[twin].to_dict() == {
                    **state.verdicts[sid].to_dict(), "scenario_id": twin}
                assert state.verdicts[twin].state == replace(
                    state.verdicts[sid].state, scenario_id=twin)
                assert final.verdicts[twin] == state.verdicts[twin]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_list_order_moves_nothing(self, case30, jobs):
        """The baseline first and the rest, twins included, shuffled: the same
        design, the same log apart from its times, and the same verdict and
        operating point for every id as on the list in id order."""
        scens = sample_scenarios(case30, self.CASE30)
        scens += [DamageScenario(s.id + 100, s.damaged_line_ids) for s in scens[1:]]
        shuffled = [scens[0], *random.Random(5).sample(scens[1:], len(scens) - 1)]
        template = ScenarioTemplate(case30, self.PARAMS)
        design, state = sbd_design(template, scens, EXACT)
        got, other = sbd_design(template, shuffled, EXACT, jobs=jobs)

        def untimed(st):
            return [{k: v for k, v in rec.items()
                     if k not in ("wall_time_s", "verify_s", "build_s", "solve_s")}
                    for rec in st.log_records()]

        assert len(state.iterations) >= 3
        assert got == design
        assert untimed(other) == untimed(state)
        assert list(other.verdicts) == [s.id for s in shuffled]
        for sid, verdict in state.verdicts.items():
            assert other.verdicts[sid].to_dict() == verdict.to_dict()
            assert other.verdicts[sid].state == verdict.state

    def test_unattainable_batch_names_its_lowest_id(self):
        """Iteration 2 adds scenarios 2 and 3 together, and neither can be
        served: the error names 2, the one a rule adding one scenario per
        iteration would have named. The loads are not critical and the total
        target asks for all of them, so no island cover row settles it before
        the master does."""
        doc = star_doc({"l1": True, "l2": True, "l3": False, "l4": False, "l5": True})
        for load in doc["loads"]:
            load["is_critical"] = False
        net = load_doc(doc)
        scens = [BASELINE,
                 DamageScenario(1, frozenset({"l1"})),
                 DamageScenario(2, frozenset({"l3"})),
                 DamageScenario(3, frozenset({"l4"})),
                 DamageScenario(4, frozenset({"l2", "l5"}))]
        params = DesignParams(critical_fraction=1.0, total_fraction=1.0)
        with pytest.raises(InfeasibleDesignError,
                           match=r"the master's scenarios \[4, 1, 2, 3\] cannot be "
                                 r"served together") as err:
            sbd_design(ScenarioTemplate(net, params), scens, EXACT)
        assert err.value.scenario_id == 2

    def test_unattainable_island_fails_before_any_solve(self, monkeypatch):
        """Scenarios 2 and 3 each cut a critical load off behind a line that
        cannot be hardened: the island cover rows name the lower id and the
        island's bus before the first master solve."""
        net = load_doc(star_doc({"l1": True, "l2": True, "l3": False, "l4": False,
                                 "l5": True}))
        scens = [BASELINE,
                 DamageScenario(1, frozenset({"l1"})),
                 DamageScenario(2, frozenset({"l3"})),
                 DamageScenario(3, frozenset({"l4"})),
                 DamageScenario(4, frozenset({"l2", "l5"}))]
        solves = []
        monkeypatch.setattr(gridfort.decomposition, "solve",
                            lambda *args: solves.append(args))
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        with pytest.raises(InfeasibleDesignError,
                           match=r"scenario 2 cuts buses \['bl3'\] off every "
                                 r"substation, and all upgrades together supply 0 of "
                                 r"the 0\.05 pu") as err:
            sbd_design(ScenarioTemplate(net, params), scens, EXACT)
        assert err.value.scenario_id == 2
        assert solves == []


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

        def recording(design, template, scenario, *args, **kwargs):
            designs.setdefault(repr(design), design)
            # a file, so that the calls of forked helper processes count too
            with open(log, "a") as fh:
                fh.write(json.dumps([repr(design), scenario.id]) + "\n")
            return real(design, template, scenario, *args, **kwargs)

        monkeypatch.setattr(gridfort.decomposition, "evaluate_design", recording)
        template = ScenarioTemplate(case30, params)
        _, state = sbd_design(template, scens, EXACT, jobs=jobs)
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
            remaining = [s for s in scens if s.id not in rec.active_scenarios]
            # a set in the master is proved by the master's own point
            active = {by_id[sid].damaged_line_ids for sid in rec.active_scenarios}
            solved = Counter(s.damaged_line_ids for s in verified)
            assert set(solved) == {s.damaged_line_ids for s in remaining} - active
            assert set(solved.values()) == {1}
            assert rec.verify_solves == len(solved) < len(remaining)
            assert sorted(rec.verdicts) == sorted(s.id for s in remaining)
            final = rec is state.iterations[-1]
            for scen in remaining:
                alone = real(design, template, scen, EXACT)
                got = rec.verdicts[scen.id]
                if scen.damaged_line_ids in active:
                    assert got.feasible and alone.feasible
                    continue
                assert got.to_dict() == alone.to_dict()
                assert got.state is None
                if final:
                    kept = state.verdicts[scen.id]
                    assert kept == got and kept.state.scenario_id == scen.id
                    assert kept.state == alone.state


def documented_fields(heading: str) -> set[str]:
    """The ``field`` column of the table under ``## heading`` in the
    ``sbd_log.json`` schema."""
    section = SBD_LOG_DOC.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)`", section, re.MULTILINE))


class TestLogSchema:
    def test_documented_fields_are_the_records_keys(self, case5):
        """Each table of the schema names exactly the keys its record
        writes, and an iteration record writes its dataclass fields."""
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        _, state = sbd_design(ScenarioTemplate(case5, params), scens, EXACT)
        record = state.iterations[0]
        assert (documented_fields("Iteration record") == set(record.to_dict())
                == {f.name for f in fields(IterationRecord)})
        verdict = state.verdicts[0]
        assert verdict.state is not None
        assert documented_fields("Verdict") == set(verdict.to_dict())


class TestEvaluateDesign:
    def test_baseline_always_feasible(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.5)
        verdict = evaluate_design(make_design(case5, params, [], [], {}),
                                  ScenarioTemplate(case5, params), BASELINE, EXACT)
        assert verdict.feasible
        assert verdict.critical_fraction >= 0.98
        assert verdict.total_fraction >= 0.5

    def test_microgrid_island_serves_critical(self, case5):
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        design = make_design(case5, params, [], [], {"mg_c1": 1})
        harsh = DamageScenario(5, frozenset({"L1", "L3"}))
        verdict = evaluate_design(design, ScenarioTemplate(case5, params), harsh, EXACT)
        assert verdict.feasible
        assert verdict.critical_fraction == pytest.approx(1.0)

    def test_empty_design_on_severed_critical_reports_shortfall(self, case5):
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        design = make_design(case5, params, [], [], {})
        harsh = DamageScenario(5, frozenset({"L1"}))
        verdict = evaluate_design(design, ScenarioTemplate(case5, params), harsh, EXACT)
        assert not verdict.feasible
        assert verdict.shortfall_critical == pytest.approx(1.0)
        assert verdict.critical_fraction == pytest.approx(0.0)

    def test_returns_operation_state(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        verdict = evaluate_design(design, ScenarioTemplate(case5, params),
                                  DamageScenario(1, frozenset({"L1"})), EXACT)
        assert verdict.feasible
        assert "L1" in verdict.state.closed_lines
        assert "crit_c1" in verdict.state.served_loads

    def test_order_independent(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        scens = [DamageScenario(1, frozenset({"L1"})),
                 DamageScenario(2, frozenset({"L3"}))]
        template = ScenarioTemplate(case5, params)
        fwd = [evaluate_design(design, template, s, EXACT).to_dict() for s in scens]
        rev = [evaluate_design(design, template, s, EXACT).to_dict()
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
        template = ScenarioTemplate(case30, params)
        _, state = sbd_design(template, scens, EXACT)
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
        before = [evaluate_design(first, template, s, EXACT) for s in distinct]
        monkeypatch.undo()
        after = [evaluate_design(first, template, s, EXACT) for s in distinct]

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
        _, state = sbd_design(ScenarioTemplate(case30, params), scens, EXACT)
        assert len(state.iterations) >= 2
        masters = [res for _, kwargs, res in builds if "fixed_design" not in kwargs]
        assert len(masters) == 1
        assert list(masters[0].blocks) == list(state.iterations[-1].active_scenarios)

    def test_best_effort_solve_keeps_the_feasibility_cuts(self, monkeypatch):
        net = meshed_triangle()
        builds = self._recording(monkeypatch, "build_master")
        solves = []
        real_solve = gridfort.decomposition.solve

        def recording_solve(model, options=None):
            sol = real_solve(model, options)
            cuts = sum(name.startswith("cycle:") for name in model.row_names)
            solves.append((model, sol.status, cuts))
            return sol

        monkeypatch.setattr(gridfort.decomposition, "solve", recording_solve)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        verdict = evaluate_design(make_design(net, params, [], [], {}),
                                  ScenarioTemplate(net, params), BASELINE, EXACT)
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
        _, state = sbd_design(ScenarioTemplate(case30, params), scens, EXACT)
        assert len(state.iterations) >= 2
        keys = [(id(m), sid, frozenset(cyc)) for m, sid, cyc in cut_calls]
        assert len(keys) == len(set(keys))
        # verification models hold one block each
        master, = {id(m): m for m, _, _ in cut_calls if len(m.blocks) > 1}.values()
        assert list(master.blocks) == list(state.iterations[-1].active_scenarios)
        assert master.cycles
        held = {sid: [cyc for m, s, cyc in cut_calls if m is master and s == sid]
                for sid in master.blocks}
        assert held == {sid: master.cycles for sid in master.blocks}
        assert sum(rec.cuts_added for rec in state.iterations) == len(master.cycles)

    def test_a_cycle_found_in_two_blocks_is_pooled_once(self, monkeypatch):
        cut_calls = self.recording_cuts(monkeypatch)
        net = load_doc(two_rings_doc())
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params),
                              [BASELINE, DamageScenario(1, frozenset())])
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
        _, state = sbd_design(ScenarioTemplate(network, params), scens, EXACT)
        per_block = Counter(name.rsplit(":s", 1)[1] for name in first_rows[0])
        assert per_block == {str(sid): rank for sid in state.iterations[0].active_scenarios}
        assert state.iterations[0].cuts_added >= rank


def tree_solution_master(net, close):
    params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
    master = build_master(ScenarioTemplate(net, params), [BASELINE])
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
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
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
            sbd_design(ScenarioTemplate(net, params),
                       [DamageScenario(1, frozenset({"l1"}))], EXACT)
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
            sbd_design(ScenarioTemplate(case5, params), scens,
                       SolverOptions(time_limit=0.0))

    def test_master_limit_with_incumbent_raises_solver_error(self, case5, monkeypatch):
        _limit_hits(monkeypatch)
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        with pytest.raises(SolverError, match="feasible_limit"):
            sbd_design(ScenarioTemplate(case5, params), scens, EXACT)

    def test_evaluation_limit_is_not_a_shortfall(self, case5, monkeypatch):
        # only the feasibility solve hits the limit; a best-effort solve
        # after it would report a shortfall the design may not have
        _limit_hits(monkeypatch, first=1)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        with pytest.raises(SolverError, match="^evaluation of scenario 1"):
            evaluate_design(design, ScenarioTemplate(case5, params),
                            DamageScenario(1, frozenset({"L1"})), EXACT)


class TestOracleAgreement:
    def test_sbd_matches_enumeration_on_small_instances(self):
        agreements = 0
        for seed in (3, 11, 19):
            net, scens, params = random_instance(seed)
            expected = enumerate_optimum(net, scens, params, EXACT)
            try:
                design, _ = sbd_design(ScenarioTemplate(net, params), scens, EXACT)
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
                design, _ = sbd_design(ScenarioTemplate(net, params), scens, EXACT)
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
    master = build_master(ScenarioTemplate(net, params), scens)
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
    def test_sweep_cell_on_case5(self, case5, kw_budgets, rate):
        # at $250/kW the microgrid costs what hardening L1 does, a cost tie
        # that only the kW pass settles
        damage = [[], ["L1"], ["L3"], ["L1", "L3"]]
        scens = [DamageScenario(i, frozenset(d)) for i, d in enumerate(damage)]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              mg_rate_override=rate)
        row = gridfort.cli._sweep_cell(case5, scens, params, EXACT)
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
                template = ScenarioTemplate(net, params)
                design, _ = sbd_design(template, scens, EXACT, tie_break=True)
            except InfeasibleDesignError:
                continue
            budget, = kw_budgets
            assert design.microgrid_kw(net) == least_kw_extensive(
                net, scens, params, budget), f"seed {seed}"
            assert all(evaluate_design(design, template, s, EXACT).feasible
                       for s in scens), f"seed {seed}"
            checked += 1
            if checked >= 6:
                break
        assert checked >= 6
