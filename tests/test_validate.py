import json

import pytest

from gridfort import (
    DamageScenario,
    DesignParams,
    OperationState,
    ScenarioTemplate,
    SolverOptions,
    Violation,
    audit,
    check_radiality,
    evaluate_design,
    recompute_voltages,
)
from gridfort.formulation import make_design
from gridfort.model import Phase

from conftest import c, load_doc, two_bus_doc, z1

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())
A = Phase.A


def state_for(net, closed, flows=None, voltages=None, served=(), dispatch=None,
              damaged=(), scenario_id=0):
    return OperationState(
        scenario_id=scenario_id,
        damaged_lines=frozenset(damaged),
        closed_lines=frozenset(closed),
        flows=flows or {},
        voltages=voltages or {},
        served_loads=frozenset(served),
        dispatch=dispatch or {},
    )


def three_bus_net(**line_overrides):
    doc = two_bus_doc()
    doc["bases"] = {"base_kva": 1000.0, "base_kv": 1.0}
    doc["buses"].append({"id": "b2", "phases": "a"})
    doc["lines"] = [
        {"id": "l1", "from": "sub", "to": "b1", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.01, 0.02), "capacity_kva": 500.0},
        {"id": "l2", "from": "b1", "to": "b2", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.01, 0.02), "capacity_kva": 500.0},
    ]
    for o in doc["lines"]:
        o.update(line_overrides)
    doc["loads"] = [{"id": "ld", "bus": "b2", "demand_kva": {"a": c(100.0, 50.0)}}]
    return load_doc(doc)


class TestRadiality:
    def test_spanning_tree_true(self, case5):
        state = state_for(case5, closed=set(case5.lines))
        ok, witness = check_radiality(state, case5)
        assert ok and witness is None

    def test_tree_plus_chord_false_with_cycle(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": "a"})
        doc["lines"] += [
            {"id": "l2", "from": "b1", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0},
            {"id": "l3", "from": "b2", "to": "sub", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
             "has_switch": True},
        ]
        net = load_doc(doc)
        ok, witness = check_radiality(state_for(net, {"l1", "l2", "l3"}), net)
        assert not ok
        assert len(witness) == 3

    def test_forest_allowed(self, case5):
        state = state_for(case5, closed={"L2", "L4"})  # two components
        ok, _ = check_radiality(state, case5)
        assert ok


class TestRecomputeVoltages:
    def test_zero_impedance_keeps_reference(self):
        net = three_bus_net(impedance=z1(0.0, 0.0))
        state = state_for(
            net, closed={"l1", "l2"},
            flows={("l1", A): 0.1 + 0.05j, ("l2", A): 0.1 + 0.05j},
        )
        volts, disc, flagged = recompute_voltages(state, net)
        assert volts[("b2", A)] == pytest.approx(1.0)
        assert flagged == []

    def test_single_line_drop(self):
        net = three_bus_net()
        state = state_for(
            net, closed={"l1", "l2"},
            flows={("l1", A): 0.1 + 0.05j, ("l2", A): 0.1 + 0.05j},
        )
        volts, disc, _ = recompute_voltages(state, net)
        # drop per line: 2 (0.01*0.1 + 0.02*0.05) = 0.004
        assert volts[("b1", A)] == pytest.approx(1.0 - 0.004, abs=1e-12)
        assert volts[("b2", A)] == pytest.approx(1.0 - 0.008, abs=1e-12)

    def test_matches_solver_voltages(self, case30):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.4)
        design = make_design(case30, params, [], ["T1"], {"mg_t8": 1})
        verdict = evaluate_design(design, ScenarioTemplate(case30, params),
                                  DamageScenario(1, frozenset({"T1"})), EXACT)
        assert verdict.feasible
        _, disc, _ = recompute_voltages(verdict.state, case30)
        assert disc <= 1e-6

    def test_island_without_source_flagged(self):
        net = three_bus_net()
        state = state_for(net, closed={"l2"},
                          flows={("l2", A): 0j})
        _, _, flagged = recompute_voltages(state, net)
        assert set(flagged) == {"b1", "b2"}

    def test_microgrid_island_anchored_at_state_level(self):
        doc = two_bus_doc()
        doc["bases"] = {"base_kva": 1000.0, "base_kv": 1.0}
        doc["buses"].append({"id": "b2", "phases": "a"})
        doc["lines"] = [
            {"id": "l1", "from": "sub", "to": "b1", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.01, 0.02),
             "capacity_kva": 500.0, "damageable": True},
            {"id": "l2", "from": "b1", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.01, 0.02),
             "capacity_kva": 500.0},
        ]
        doc["loads"] = [{"id": "ld", "bus": "b1", "demand_kva": {"a": c(50.0, 0.0)}}]
        doc["microgrids"] = [{"id": "mg", "bus": "b2", "step_capacity_kva": 100.0,
                              "max_steps": 1, "fixed_cost": 1000.0,
                              "variable_cost_rate": 10.0}]
        net = load_doc(doc)
        # islanded b1-b2 fed by the microgrid at b2; the island floats at 1.02
        state = state_for(
            net, closed={"l2"}, damaged={"l1"},
            flows={("l2", A): -0.05 + 0j},
            voltages={("b2", A): 1.02, ("b1", A): 1.02 - 0.001},
            served={"ld"}, dispatch={("b2", A): 0.05 + 0j},
        )
        volts, disc, flagged = recompute_voltages(state, net)
        assert flagged == []
        assert volts[("b2", A)] == pytest.approx(1.02)
        assert disc <= 1e-9


class TestAudit:
    def _solved_state(self, case5, scenario, design):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        verdict = evaluate_design(design, ScenarioTemplate(case5, params), scenario,
                                  EXACT)
        assert verdict.feasible
        return params, verdict.state

    def test_solver_solution_is_clean(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        params, state = self._solved_state(
            case5, DamageScenario(1, frozenset({"L1"})), design)
        report = audit(state, case5, params, design)
        assert report.clean
        assert report.radial
        assert report.worst_thermal_utilization <= 1.0 + 1e-9
        assert report.critical_fraction == pytest.approx(1.0)

    def test_constructed_thermal_violation(self):
        net = three_bus_net()
        cap = net.lines["l1"].capacity_pu[A]
        state = state_for(
            net, closed={"l1", "l2"},
            flows={("l1", A): complex(1.01 * cap, 0.0), ("l2", A): 0j},
            dispatch={("sub", A): complex(1.01 * cap, 0.0)},
        )
        report = audit(state, net, DesignParams(critical_fraction=0.0,
                                                total_fraction=0.0),
                       make_design(net, DesignParams(), [], [], {}))
        kinds = {v.kind for v in report.violations}
        assert "thermal" in kinds
        thermal = [v for v in report.violations if v.kind == "thermal"][0]
        assert thermal.magnitude == pytest.approx(0.01 * cap, rel=1e-6)

    def test_under_served_critical_reported(self, case5):
        params = DesignParams(critical_fraction=0.9, total_fraction=0.0)
        state = state_for(case5, closed=set(case5.lines), served=set())
        report = audit(state, case5, params,
                       make_design(case5, params, [], [], {}))
        resil = [v for v in report.violations if v.kind == "critical_service"]
        assert resil and resil[0].magnitude == pytest.approx(0.9)

    def test_damaged_unhardened_closed_line_flagged(self, case5):
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        state = state_for(case5, closed={"L1"}, damaged={"L1"})
        report = audit(state, case5, params,
                       make_design(case5, params, [], [], {}))
        kinds = {v.kind for v in report.violations}
        assert "damaged_line_closed" in kinds

    def test_hardened_damaged_line_may_close(self, case5):
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        state = state_for(case5, closed={"L1"}, damaged={"L1"})
        report = audit(state, case5, params, design)
        assert "damaged_line_closed" not in {v.kind for v in report.violations}

    def test_intact_switchless_line_open_flagged(self, case5):
        """L4 has no switch and is intact, so the model keeps it closed; a
        state that opens it, serving nothing, fails only on that."""
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        state = state_for(case5, closed=set(case5.lines) - {"L4"})
        report = audit(state, case5, params, make_design(case5, params, [], [], {}))
        assert report.violations == [Violation("switchless_line_open", "L4", 1.0)]

    @pytest.mark.parametrize("hardened", [["L1"], []])
    def test_damaged_switchless_line_open_unless_hardened(self, case5, hardened):
        """A damaged switchless line is closed exactly when hardened."""
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        state = state_for(case5, closed=set(case5.lines) - {"L1"}, damaged={"L1"})
        report = audit(state, case5, params, make_design(case5, params, [], hardened, {}))
        want = [Violation("switchless_line_open", "L1", 1.0)] if hardened else []
        assert report.violations == want

    def test_balance_residual_checked(self):
        net = three_bus_net()
        state = state_for(
            net, closed={"l1", "l2"},
            flows={("l1", A): 0.1 + 0.05j, ("l2", A): 0.1 + 0.05j},
            served={"ld"},
            dispatch={("sub", A): 0.1 + 0.049j},  # reactive slightly off
        )
        report = audit(state, net,
                       DesignParams(critical_fraction=0.0, total_fraction=0.0),
                       make_design(net, DesignParams(), [], [], {}))
        balance = [v for v in report.violations if v.kind == "balance"]
        assert balance and balance[0].magnitude == pytest.approx(0.001, abs=1e-9)

    def test_imbalance_violation_detected(self):
        doc = {
            "bases": {"base_kva": 1000.0, "base_kv": 1.0},
            "buses": [
                {"id": "sub", "phases": "abc", "is_substation": True},
                {"id": "b1", "phases": "abc"},
            ],
            "lines": [
                {"id": "l1", "from": "sub", "to": "b1", "phases": "abc",
                 "length_km": 1.0,
                 "impedance": [c(0.01, 0.02) if i == j else None
                               for i in range(3) for j in range(3)],
                 "capacity_kva": 1000.0, "is_transformer": True},
            ],
            "loads": [{"id": "ld", "bus": "b1",
                       "demand_kva": {p: c(100.0, 0.0) for p in "abc"}}],
            "microgrids": [],
        }
        # diagonal-only impedance entries are fine: declared pairs need i == j
        doc["lines"][0]["impedance"] = [
            c(0.01, 0.02) if i == j else c(0.0, 0.0)
            for i in range(3) for j in range(3)
        ]
        net = load_doc(doc)
        flows = {("l1", Phase.A): 0.2 + 0j, ("l1", Phase.B): 0.1 + 0j,
                 ("l1", Phase.C): 0.1 + 0j}
        state = state_for(net, closed={"l1"}, flows=flows,
                          dispatch={("sub", p): f for p, f in
                                    ((Phase.A, 0.2 + 0j), (Phase.B, 0.1 + 0j),
                                     (Phase.C, 0.1 + 0j))})
        report = audit(state, net,
                       DesignParams(critical_fraction=0.0, total_fraction=0.0,
                                    beta_transformer=0.15),
                       make_design(net, DesignParams(), [], [], {}))
        assert "imbalance" in {v.kind for v in report.violations}

    def test_generation_checked_against_the_design(self, case5):
        """A microgrid's dispatch audits clean under the design that builds
        it, and is flagged under one that builds nothing."""
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        built = make_design(case5, params, [], [], {"mg_c1": 1})
        params, state = self._solved_state(
            case5, DamageScenario(1, frozenset({"L1"})), built)
        assert audit(state, case5, params, built).clean
        gen = state.dispatch[("c1", A)]
        assert gen.real > 0.05
        report = audit(state, case5, params, make_design(case5, params, [], [], {}))
        assert [(v.kind, v.element) for v in report.violations] == [("generation", "c1:a")]
        assert report.violations[0].magnitude == pytest.approx(max(gen.real, gen.imag))

    @pytest.mark.parametrize("existing,steps,gen,excess", [
        (False, 1, complex(1.5, 0.0), 0.5),    # above one step's capacity
        (False, 1, complex(0.5, -0.2), 0.2),   # negative reactive dispatch
        (False, 0, complex(0.0, 0.3), 0.3),    # a unit the design does not build
        (True, 0, complex(0.9, 0.9), None),    # an existing unit counts in full
        (True, 0, complex(1.2, 0.0), 0.2),
    ], ids=["above-capacity", "negative-reactive", "unbuilt", "existing-in-full",
            "above-existing"])
    def test_generation_bounds(self, existing, steps, gen, excess):
        doc = two_bus_doc()
        doc["microgrids"] = [{"id": "g", "bus": "b1", "step_capacity_kva": 1000.0,
                              "max_steps": 1, "is_existing": existing}]
        if not existing:
            doc["microgrids"][0].update(fixed_cost=1.0, variable_cost_rate=1.0)
        net = load_doc(doc)
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        state = state_for(net, closed=set(), dispatch={("b1", A): gen})
        design = make_design(net, params, [], [], {} if existing else {"g": steps})
        flagged = [v for v in audit(state, net, params, design).violations
                   if v.kind == "generation"]
        if excess is None:
            assert flagged == []
        else:
            assert [v.element for v in flagged] == ["b1:a"]
            assert flagged[0].magnitude == pytest.approx(excess)

    @pytest.mark.parametrize("loaded", ["la", "lb"])
    def test_every_closed_parallel_line_is_checked(self, loaded):
        """Two equal closed lines sub-b1, one of them carrying the load: the
        state's voltage at b1 fits that line's drop and not the other's,
        whichever of the two sorts first. The sweep followed the first line
        alone, so the audit was clean when the loaded line sorted first."""
        doc = two_bus_doc()
        doc["bases"] = {"base_kva": 1000.0, "base_kv": 1.0}
        doc["lines"] = [{"id": lid, "from": "sub", "to": "b1", "phases": "a",
                         "length_km": 1.0, "impedance": z1(0.01, 0.02),
                         "capacity_kva": 500.0} for lid in ("la", "lb")]
        doc["loads"] = [{"id": "ld", "bus": "b1", "demand_kva": {"a": c(100.0, 50.0)}}]
        net = load_doc(doc)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        # drop on the loaded line: 2 (0.01*0.1 + 0.02*0.05) = 0.004
        state = state_for(net, closed={"la", "lb"},
                          flows={(loaded, A): 0.1 + 0.05j},
                          voltages={("sub", A): 1.0, ("b1", A): 0.996},
                          served={"ld"}, dispatch={("sub", A): 0.1 + 0.05j})
        report = audit(state, net, params, make_design(net, params, [], [], {}))
        assert [(v.kind, v.element) for v in report.violations] == [
            ("voltage_mismatch", "network")]
        assert report.violations[0].magnitude == pytest.approx(0.004, abs=1e-12)

    def test_report_serializes(self, case5):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        design = make_design(case5, params, [], ["L1"], {})
        params, state = self._solved_state(
            case5, DamageScenario(1, frozenset({"L1"})), design)
        report = audit(state, case5, params, design)
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        assert '"radial": true' in text
        assert json.loads(text) == report.to_dict()
