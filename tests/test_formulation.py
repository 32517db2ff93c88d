import math

import pytest
from hypothesis import given, settings, strategies as st

from collections import Counter

from gridfort import (
    DamageScenario,
    DesignParams,
    FragilityParams,
    ScenarioTemplate,
    SolverOptions,
    build_master,
    npv_capacity_cost,
    octagon_points,
    sample_scenarios,
    solve,
)
from gridfort.formulation import (
    ScenarioFormulation,
    _build_first_stage,
    design_cost,
    make_design,
    master_dimensions,
    microgrid_step_encoding,
    rotated_impedance,
)
from gridfort.milp import BINARY, MilpModel
from gridfort.model import Phase, aggregate_parallel_edges

from conftest import c, load_doc, two_bus_doc, two_rings_doc, z1

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())


class TestOctagon:
    def test_radius_and_diagonal_point(self):
        geo = octagon_points(1.0)
        assert geo.radius == pytest.approx(0.923880, abs=1e-6)
        assert geo.diagonal_points()[0] == (
            pytest.approx(0.653281, abs=1e-6),
            pytest.approx(0.653281, abs=1e-6),
        )

    def test_vertices_lie_on_capacity_circle(self):
        geo = octagon_points(1.0)
        v0 = geo.vertices()[0]
        assert v0[0] == pytest.approx(0.923880, abs=1e-6)
        assert v0[1] == pytest.approx(0.382683, abs=1e-6)
        for px, qx in geo.vertices():
            assert math.hypot(px, qx) == pytest.approx(1.0, abs=1e-12)
            # each vertex sits on exactly two octagon edges
            tight = sum(
                1 for a, b, rhs in geo.half_planes()
                if abs(a * px + b * qx - rhs) < 1e-9
            )
            assert tight == 2

    def test_homogeneity(self):
        one, two = octagon_points(1.0), octagon_points(2.0)
        assert two.radius == pytest.approx(2 * one.radius)
        assert two.diagonal_coord == pytest.approx(2 * one.diagonal_coord)
        for (a1, b1, r1), (a2, b2, r2) in zip(one.half_planes(), two.half_planes()):
            # every edge is tangent to the inner circle: normalized distance
            # equals the radius and scales with capacity
            d1 = r1 / math.hypot(a1, b1)
            d2 = r2 / math.hypot(a2, b2)
            assert d1 == pytest.approx(one.radius)
            assert d2 == pytest.approx(2 * d1)
        for (p1, q1), (p2, q2) in zip(one.vertices(), two.vertices()):
            assert (p2, q2) == (pytest.approx(2 * p1), pytest.approx(2 * q1))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            octagon_points(0.0)

    @given(st.floats(0.01, 100.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_octagon_contained_in_circle(self, cap, angle):
        """Any boundary point of the octagon obeys the true thermal circle."""
        geo = octagon_points(cap)
        # walk the ray at `angle` out to the octagon boundary
        dx, dy = math.cos(angle), math.sin(angle)
        t = min(
            rhs / (a * dx + b * dy)
            for a, b, rhs in geo.half_planes()
            if a * dx + b * dy > 1e-12
        )
        px, qx = t * dx, t * dy
        assert math.hypot(px, qx) <= cap * (1 + 1e-9)
        assert all(a * px + b * qx <= rhs + 1e-9 for a, b, rhs in geo.half_planes())


def single_line_net(capacity=1000.0, z=(0.01, 0.02), demand=(100.0, 50.0),
                    base_kv=1.0):
    """base_kv=1, base_kva=1000 makes 1 ohm exactly 1 pu."""
    doc = two_bus_doc()
    doc["bases"] = {"base_kva": 1000.0, "base_kv": base_kv}
    doc["lines"][0]["impedance"] = z1(*z)
    doc["lines"][0]["capacity_kva"] = capacity
    doc["loads"][0]["demand_kva"] = {"a": c(*demand)}
    return load_doc(doc)


def bare_block(net, params=None):
    model = MilpModel()
    params = params or DesignParams()
    fs = _build_first_stage(model, net)
    blk = ScenarioFormulation(model, net, params, aggregate_parallel_edges(net), fs)
    return model, blk


class TestThermalDirection:
    def feasible(self, p, q, e0, e1, capacity_kva=1000.0):
        net = single_line_net(capacity=capacity_kva)
        model, blk = bare_block(net)
        blk.add_thermal_direction_constraints("l1")
        model.fix_variable(blk.vars.e["l1"], 1.0)
        model.fix_variable(blk.vars.e0["l1"], e0)
        model.fix_variable(blk.vars.e1["l1"], e1)
        model.fix_variable(blk.vars.p[("l1", Phase.A)], p)
        model.fix_variable(blk.vars.q[("l1", Phase.A)], q)
        model.set_objective({})
        return solve(model, EXACT).status == "optimal"

    def test_no_direction_forces_zero_flow(self):
        assert self.feasible(0.0, 0.0, 0, 0)
        assert not self.feasible(0.05, 0.0, 0, 0)
        assert not self.feasible(0.0, -0.05, 0, 0)

    def test_diagonal_edge_of_octagon(self):
        # capacity 1.0 pu: (0.65, 0.65) inside, (0.7, 0.7) outside
        assert self.feasible(0.65, 0.65, 0, 1)
        assert not self.feasible(0.70, 0.70, 0, 1)

    def test_direction_sign_coupling(self):
        assert self.feasible(-0.3, -0.1, 1, 0)
        assert not self.feasible(-0.3, -0.1, 0, 1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_feasible_flows_obey_circle(self, radius_frac, angle):
        geo = octagon_points(1.0)
        p = radius_frac * math.cos(angle)
        q = radius_frac * math.sin(angle)
        if not all(a * p + b * q <= rhs - 1e-9 for a, b, rhs in geo.half_planes()):
            return  # only probing octagon-interior points
        e0, e1 = (1, 0) if (p < 0 or q < 0) else (0, 1)
        if (p < 0 or q < 0) and (p > 0 or q > 0):
            return  # mixed signs are excluded by direction coupling
        assert self.feasible(p, q, e0, e1)
        assert p * p + q * q <= 1.0 + 1e-9


def three_phase_net():
    doc = {
        "bases": {"base_kva": 1000.0, "base_kv": 1.0},
        "buses": [
            {"id": "sub", "phases": "abc", "is_substation": True},
            {"id": "b1", "phases": "abc"},
        ],
        "lines": [
            {"id": "l1", "from": "sub", "to": "b1", "phases": "abc",
             "length_km": 1.0,
             "impedance": [c(0.01, 0.02) if i == j else c(0.004, 0.008)
                           for i in range(3) for j in range(3)],
             "capacity_kva": 1000.0},
        ],
        "loads": [
            {"id": "ld", "bus": "b1",
             "demand_kva": {p: c(100.0, 30.0) for p in "abc"}},
        ],
        "microgrids": [],
    }
    return load_doc(doc)


class TestImbalance:
    def feasible(self, pa, pb, pc, beta=1.0, transformer=False):
        net = three_phase_net()
        params = DesignParams(beta_line=beta, beta_transformer=0.15)
        model, blk = bare_block(net, params)
        blk.add_imbalance_constraints("l1")
        for ph, val in zip((Phase.A, Phase.B, Phase.C), (pa, pb, pc)):
            model.fix_variable(blk.vars.p[("l1", ph)], val)
        model.set_objective({})
        return solve(model, EXACT).status == "optimal"

    def test_full_beta_band(self):
        # beta=1, 3 phases, total 0.3: each phase confined to [0, 0.2]
        assert self.feasible(0.2, 0.1, 0.0)
        assert not self.feasible(0.21, 0.05, 0.04)
        assert self.feasible(0.1, 0.1, 0.1)

    def test_transformer_band_balanced(self):
        net = three_phase_net()
        doc_beta = 0.15
        params = DesignParams(beta_transformer=doc_beta)
        model, blk = bare_block(net, params)
        object.__setattr__(net.lines["l1"], "is_transformer", True)
        blk.add_imbalance_constraints("l1")
        for ph in (Phase.A, Phase.B, Phase.C):
            model.fix_variable(blk.vars.p[("l1", ph)], 0.1)
        model.set_objective({})
        assert solve(model, EXACT).status == "optimal"

    def test_transformer_band_tight(self):
        assert not self.feasible(0.1, 0.1, 0.13, transformer=True, beta=0.15)

    def test_single_phase_line_unconstrained(self):
        net = single_line_net()
        model, blk = bare_block(net)
        rows = model.num_constraints
        blk.add_imbalance_constraints("l1")
        assert model.num_constraints == rows


class TestLoadGenerationBalance:
    def test_leaf_bus_flow_equals_served_demand(self):
        net = single_line_net(demand=(100.0, 50.0))
        params = DesignParams(critical_fraction=0.0, total_fraction=1.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        sol = solve(master.model, EXACT)
        assert sol.status == "optimal"
        blk = master.blocks[0]
        p = sol.values[blk.vars.p[("l1", Phase.A)]]
        q = sol.values[blk.vars.q[("l1", Phase.A)]]
        assert p == pytest.approx(0.1, abs=1e-9)
        assert q == pytest.approx(0.05, abs=1e-9)

    def test_dropped_load_means_dead_feeder(self):
        net = single_line_net(demand=(100.0, 50.0))
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        master.model.fix_variable(blk.vars.y["ld1"], 0.0)
        sol = solve(master.model, EXACT)
        assert sol.status == "optimal"
        assert sol.values[blk.vars.p[("l1", Phase.A)]] == pytest.approx(0.0, abs=1e-9)
        assert sol.values[blk.vars.sd_re[("b1", Phase.A)]] == pytest.approx(0.0)

    def test_microgrid_step_capacity_limits_generation(self):
        # islanded 60 kW load: 3 committed 20 kVA steps serve it, 2 cannot
        doc = two_bus_doc()
        doc["lines"][0].update(damageable=True)
        doc["microgrids"] = [{"id": "mg", "bus": "b1", "step_capacity_kva": 20.0,
                              "max_steps": 3, "fixed_cost": 1000.0,
                              "variable_cost_rate": 10.0}]
        doc["loads"][0].update(demand_kva={"a": c(60.0, 0.0)}, is_critical=True)
        net = load_doc(doc)
        scen = DamageScenario(1, frozenset({"l1"}))
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        template = ScenarioTemplate(net, params)
        for steps, expected in ((2, "infeasible"), (3, "optimal")):
            design = make_design(net, params, [], [], {"mg": steps})
            master = build_master(template, [scen], fixed_design=design)
            sol = solve(master.model, EXACT)
            assert sol.status == expected, steps
            if sol.status == "optimal":
                blk = master.blocks[1]
                assert sol.values[blk.vars.sg_re[("b1", Phase.A)]] == pytest.approx(0.06)


class TestResilience:
    def two_critical_net(self, kw=(350.0, 9.0)):
        doc = two_bus_doc()
        doc["loads"] = [
            {"id": "big", "bus": "b1", "is_critical": True,
             "demand_kva": {"a": c(kw[0], 0.0)}},
            {"id": "small", "bus": "b1", "is_critical": True,
             "demand_kva": {"a": c(kw[1], 0.0)}},
        ]
        doc["lines"][0]["capacity_kva"] = 1200.0
        return load_doc(doc)

    def test_lambda_098_requires_both_of_350_and_9(self):
        # 0.98 * 359 = 351.82 > 350: the big load alone does not satisfy it
        net = self.two_critical_net()
        template = ScenarioTemplate(net, DesignParams(critical_fraction=0.98,
                                                      total_fraction=0.0))
        master = build_master(template, [BASELINE])
        blk = master.blocks[0]
        master.model.fix_variable(blk.vars.y["small"], 0.0)
        assert solve(master.model, EXACT).status == "infeasible"
        master2 = build_master(template, [BASELINE])
        sol = solve(master2.model, EXACT)
        assert sol.status == "optimal"
        blk2 = master2.blocks[0]
        assert sol.values[blk2.vars.y["big"]] == 1.0
        assert sol.values[blk2.vars.y["small"]] == 1.0

    def test_lambda_one_forces_single_critical_load(self):
        net = single_line_net()
        doc_net = net  # single noncritical load: make it critical instead
        doc = two_bus_doc()
        doc["loads"][0]["is_critical"] = True
        net = load_doc(doc)
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        sol = solve(master.model, EXACT)
        assert sol.status == "optimal"
        assert sol.values[master.blocks[0].vars.y["ld1"]] == 1.0

    def test_gamma_zero_vacuous(self):
        net = single_line_net()
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        master.model.fix_variable(blk.vars.y["ld1"], 0.0)
        assert solve(master.model, EXACT).status == "optimal"


class TestVoltage:
    def test_closed_single_phase_drop(self):
        # z = 0.01 + 0.02j pu, flow 0.1 + 0.05j pu: drop = 2(0.001 + 0.001)
        net = single_line_net(z=(0.01, 0.02), demand=(100.0, 50.0))
        params = DesignParams(critical_fraction=0.0, total_fraction=1.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        sol = solve(master.model, EXACT)
        blk = master.blocks[0]
        v_sub = sol.values[blk.vars.v[("sub", Phase.A)]]
        v_b1 = sol.values[blk.vars.v[("b1", Phase.A)]]
        assert v_sub == pytest.approx(1.0)
        assert v_sub - v_b1 == pytest.approx(0.004, abs=1e-9)

    def test_zero_impedance_equalizes(self):
        net = single_line_net(z=(0.0, 0.0))
        params = DesignParams(critical_fraction=0.0, total_fraction=1.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        sol = solve(master.model, EXACT)
        blk = master.blocks[0]
        assert sol.values[blk.vars.v[("b1", Phase.A)]] == pytest.approx(1.0)

    def test_open_line_releases_band(self):
        doc = two_bus_doc()
        doc["lines"][0]["has_switch"] = True
        net = load_doc(doc)
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        master.model.fix_variable(blk.vars.bs["l1"], 0.0)  # switch open
        master.model.fix_variable(blk.vars.v[("b1", Phase.A)], params.vmin_sq)
        assert solve(master.model, EXACT).status == "optimal"

    def test_rotation_pattern(self):
        net = three_phase_net()
        line = net.lines["l1"]
        rot = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        z = line.z_pu[(Phase.A, Phase.B)]
        assert rotated_impedance(line, Phase.A, Phase.B) == pytest.approx(z * rot)
        assert rotated_impedance(line, Phase.A, Phase.C) == pytest.approx(
            z * rot.conjugate()
        )
        assert rotated_impedance(line, Phase.B, Phase.A) == pytest.approx(
            z * rot.conjugate()
        )
        assert rotated_impedance(line, Phase.B, Phase.C) == pytest.approx(z * rot)
        assert rotated_impedance(line, Phase.C, Phase.A) == pytest.approx(z * rot)
        assert rotated_impedance(line, Phase.C, Phase.B) == pytest.approx(
            z * rot.conjugate()
        )
        own = line.z_pu[(Phase.A, Phase.A)]
        assert rotated_impedance(line, Phase.A, Phase.A) == own


def triangle_net(extra_parallel=False):
    doc = two_bus_doc()
    doc["buses"].append({"id": "b2", "phases": "a"})
    doc["lines"][0]["has_switch"] = True
    doc["lines"] += [
        {"id": "l2", "from": "b1", "to": "b2", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "has_switch": True},
        {"id": "l3", "from": "b2", "to": "sub", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "has_switch": True},
    ]
    if extra_parallel:
        doc["lines"].append(
            {"id": "l3b", "from": "sub", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
             "has_switch": True})
    return load_doc(doc)


class TestCycleCut:
    def test_triangle_cut_rhs(self):
        net = triangle_net()
        params = DesignParams(critical_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        cycle = tuple(sorted(master.template.reduced.edges))
        cid = master.add_cycle_cut(cycle, 0)
        rows = master.model.rows()
        assert (rows.lo[cid], rows.hi[cid]) == (-math.inf, 2.0)
        assert rows.indptr[cid + 1] - rows.indptr[cid] == 3

    def test_cut_forbids_full_triangle(self):
        net = triangle_net()
        params = DesignParams(critical_fraction=0.0, total_fraction=1.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        for lid in ("l1", "l2", "l3"):
            master.model.fix_variable(blk.vars.bs[lid], 1.0)
        assert solve(master.model, EXACT).status == "optimal"
        master.add_cycle_cut(tuple(sorted(master.template.reduced.edges)), 0)
        assert solve(master.model, EXACT).status == "infeasible"

    def test_parallel_pair_links_to_one_reduced_edge(self):
        net = triangle_net(extra_parallel=True)
        params = DesignParams(critical_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        key = master.template.reduced.edge_of_line("l3")
        assert key == master.template.reduced.edge_of_line("l3b")
        sol_model = master.model
        bredge_ix = blk.vars.bredge[key]
        sol_model.fix_variable(blk.vars.bs["l3b"], 1.0)
        sol_model.set_objective({bredge_ix: 1.0})
        sol = solve(sol_model, EXACT)
        assert sol.values[bredge_ix] == pytest.approx(1.0)

    def test_non_cycle_rejected(self):
        net = triangle_net()
        params = DesignParams(critical_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        edges = sorted(master.template.reduced.edges)
        with pytest.raises(ValueError):
            master.add_cycle_cut(edges[:2], 0)

    @pytest.mark.parametrize("cycle,message", [
        ([("a0", "a1"), ("a1", "a2"), ("a0", "b0")], "unknown reduced edge ('a0', 'b0')"),
        ([("a0", "a1"), ("a1", "a2"), ("a2", "a3")],
         "edge set is not a simple cycle (node degree != 2)"),
        ([(f"{r}{i}", f"{r}{(i + 1) % 4}") for r in "ab" for i in range(4)],
         "edge set is not a single connected cycle"),
    ], ids=["unknown-edge", "open-path", "two-rings"])
    def test_pool_rejects_what_is_not_one_cycle(self, cycle, message):
        net = load_doc(two_rings_doc())
        master = build_master(ScenarioTemplate(net, DesignParams()), [BASELINE])
        with pytest.raises(ValueError) as info:
            master.pool_cycles([cycle])
        assert str(info.value) == message
        assert master.cycles == []

    def test_fully_closed_four_cycle_violates_cut_by_one(self):
        doc = two_bus_doc()
        doc["buses"] += [{"id": "b2", "phases": "a"}, {"id": "b3", "phases": "a"}]
        ring = [("sub", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "sub")]
        doc["lines"] = [
            {"id": f"r{i}", "from": u, "to": v, "phases": "a", "length_km": 1.0,
             "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "has_switch": True}
            for i, (u, v) in enumerate(ring)
        ]
        net = load_doc(doc)
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        for lid in net.lines:
            master.model.fix_variable(blk.vars.bs[lid], 1.0)
        sol = solve(master.model, EXACT)
        assert sol.status == "optimal"
        cycle = tuple(sorted(master.template.reduced.edges))
        lhs = sum(sol.values[blk.vars.bredge[e]] for e in cycle)
        assert lhs - (len(cycle) - 1) == pytest.approx(1.0)


class TestSwitchingDamage:
    def _master(self, case5, fix_harden=None):
        scens = [DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(case5, params), scens)
        blk = master.blocks[1]
        if fix_harden is not None:
            master.model.fix_variable(master.template.first_stage.harden["L1"], fix_harden)
        return master, blk

    def test_damaged_unhardened_line_forced_open(self, case5):
        master, blk = self._master(case5, fix_harden=0.0)
        master.model.fix_variable(blk.vars.e["L1"], 1.0)
        assert solve(master.model, EXACT).status == "infeasible"

    def test_damaged_hardened_line_energizes(self, case5):
        master, blk = self._master(case5, fix_harden=1.0)
        master.model.fix_variable(blk.vars.e["L1"], 1.0)
        assert solve(master.model, EXACT).status == "optimal"

    def test_unbuilt_candidate_stays_open(self):
        doc = two_bus_doc()
        doc["lines"].append({
            "id": "c1", "from": "sub", "to": "b1", "phases": "a",
            "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 100.0,
            "status": "candidate_new", "construction_cost": 1000.0,
        })
        net = load_doc(doc)
        params = DesignParams(critical_fraction=0.0, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), [BASELINE])
        blk = master.blocks[0]
        master.model.fix_variable(master.template.first_stage.build["c1"], 0.0)
        master.model.fix_variable(blk.vars.e["c1"], 1.0)
        assert solve(master.model, EXACT).status == "infeasible"


class TestMaster:
    def test_intact_baseline_costs_nothing(self, case5):
        params = DesignParams(critical_fraction=1.0, total_fraction=1.0)
        master = build_master(ScenarioTemplate(case5, params), [BASELINE])
        sol = solve(master.model, EXACT)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert master.design_from_solution(sol).cost.total == 0.0

    def test_harden_beats_microgrid_at_50k(self, case5, exact_options):
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        master = build_master(ScenarioTemplate(case5, params), scens)
        sol = solve(master.model, exact_options)
        design = master.design_from_solution(sol)
        assert design.hardened_lines == ("L1",)
        assert design.cost.total == pytest.approx(50_000.0)

    def test_microgrid_beats_harden_at_200k(self, case5, exact_options):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              harden_cost_scale=4.0)  # L1 hardening now $200k
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        master = build_master(ScenarioTemplate(case5, params), scens)
        sol = solve(master.model, exact_options)
        design = master.design_from_solution(sol)
        assert design.microgrid_steps == (("mg_c1", 1),)
        assert design.hardened_lines == ()
        assert design.cost.total == pytest.approx(125_000.0)

    def test_candidate_scenario_copies_fixed(self, case5):
        params = DesignParams()
        master = build_master(ScenarioTemplate(case5, params), [BASELINE])
        blk = master.blocks[0]
        for lid, line in case5.lines.items():
            hs = blk.vars.hs[lid]
            if not (line.hardenable and line.damageable and not line.is_candidate):
                assert master.model.lb[hs] == master.model.ub[hs] == 0.0
            bs = blk.vars.bs[lid]
            if not line.is_candidate and not line.has_switch:
                assert master.model.lb[bs] == master.model.ub[bs] == 1.0

    def test_empty_scenario_set_rejected(self, case5):
        with pytest.raises(ValueError):
            build_master(ScenarioTemplate(case5, DesignParams()), [])

    def test_homogeneity_of_costs(self, case5, exact_options):
        scens = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        base = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        scaled = DesignParams(critical_fraction=0.98, total_fraction=0.0,
                              harden_cost_scale=3.0, line_cost_scale=3.0,
                              mg_fixed_cost_override=75_000.0,
                              mg_rate_override=3000.0)
        sol1, sol2 = (solve(build_master(ScenarioTemplate(case5, p), scens).model,
                            exact_options) for p in (base, scaled))
        assert sol2.objective == pytest.approx(3.0 * sol1.objective, rel=1e-9)

    def test_adding_scenario_never_cheapens(self, case5, exact_options):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        s1 = [BASELINE, DamageScenario(1, frozenset({"L1"}))]
        s2 = s1 + [DamageScenario(2, frozenset({"L1", "L3"}))]
        template = ScenarioTemplate(case5, params)
        c1 = solve(build_master(template, s1).model, exact_options).objective
        c2 = solve(build_master(template, s2).model, exact_options).objective
        assert c2 >= c1 - 1e-9


class TestModelDimensions:
    def test_formula_matches_built_model(self, case5, case30):
        params = DesignParams()
        rings = load_doc(two_rings_doc())
        # ra0 carries a switch and sa does not: damage patches the sw row of
        # either and adds no row
        assert rings.lines["ra0"].has_switch and not rings.lines["sa"].has_switch
        for net, damage in ((case5, set()), (case30, set()), (case30, {"T1", "T5"}),
                            (rings, {"ra0", "sa"})):
            scens = [BASELINE, DamageScenario(1, frozenset(damage))]
            master = build_master(ScenarioTemplate(net, params), scens)
            dims = master_dimensions(net, scens, params)
            assert master.model.num_variables == dims["variables"]
            assert master.model.num_constraints == dims["constraints"]
            assert master.model.kinds.count(BINARY) == dims["binaries"]

    def test_formula_matches_built_model_with_an_existing_unit(self):
        """An existing unit adds no first-stage column or row; its bus keeps
        its gencap rows."""
        doc = two_bus_doc()
        doc["microgrids"] = [
            {"id": "mg", "bus": "b1", "step_capacity_kva": 25.0, "max_steps": 3},
            {"id": "old", "bus": "b1", "step_capacity_kva": 10.0, "max_steps": 4,
             "is_existing": True}]
        net = load_doc(doc)
        scens = [BASELINE, DamageScenario(1, frozenset())]
        master = build_master(ScenarioTemplate(net, DesignParams()), scens)
        dims = master_dimensions(net, scens, DesignParams())
        assert dims["first_stage_variables"] == 3
        assert master.model.num_variables == dims["variables"]
        assert master.model.num_constraints == dims["constraints"]
        assert master.model.kinds.count(BINARY) == dims["binaries"]

    def test_golden_counts_case5(self, case5):
        dims = master_dimensions(case5, [BASELINE], DesignParams())
        assert dims == {
            "variables": 62, "constraints": 78, "binaries": 25,
            "first_stage_variables": 3, "nodes": 5,
        }

    def test_golden_counts_case30(self, case30):
        scens = [BASELINE, DamageScenario(1, frozenset({"T1", "T5"}))]
        dims = master_dimensions(case30, scens, DesignParams())
        assert dims == {
            "variables": 1118, "constraints": 1882, "binaries": 372,
            "first_stage_variables": 16, "nodes": 30,
        }


class TestAddScenario:
    @pytest.mark.parametrize("objective,budget", [("cost", None), ("microgrid_kw", 300.0)])
    def test_grown_master_equals_built_master(self, case30, objective, budget):
        """A block added after the kW objective and its budget row gives the
        rows of a master built with the block first."""
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=2, seed=7))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        grown = build_master(ScenarioTemplate(case30, params), scens[:2])
        built = build_master(ScenarioTemplate(case30, params), scens)
        if objective == "microgrid_kw":
            grown.minimize_microgrid_kw(budget)
            built.minimize_microgrid_kw(budget)
        grown.add_scenario(scens[2])
        a, b = grown.model, built.model
        assert (a.var_names, a.lb, a.ub, a.kinds) == (b.var_names, b.lb, b.ub, b.kinds)
        assert a.objective == b.objective
        assert list(grown.blocks) == list(built.blocks) == [s.id for s in scens]

        def rows(model):
            block = model.rows()
            ptr, ix, data = block.indptr.tolist(), block.indices.tolist(), block.data.tolist()
            return Counter(
                (name, tuple(sorted(zip(ix[a:b], data[a:b]))), lo, hi)
                for name, a, b, lo, hi in zip(model.row_names, ptr, ptr[1:],
                                              block.lo.tolist(), block.hi.tolist()))

        assert rows(a) == rows(b)

    def test_duplicate_id_is_rejected(self, case5):
        master = build_master(ScenarioTemplate(case5, DesignParams()), [BASELINE])
        rows = master.model.num_constraints
        with pytest.raises(ValueError) as info:
            master.add_scenario(DamageScenario(0, frozenset({"L1"})))
        assert str(info.value) == "duplicate scenario id 0"
        assert master.model.num_constraints == rows


class TestCosts:
    def test_npv_single_period(self):
        assert npv_capacity_cost(7.0, 100.0, 0.5, 0) == pytest.approx(700.0)

    def test_npv_three_terms(self):
        got = npv_capacity_cost(1.0, 100.0, 0.1, 2)
        assert got == pytest.approx(100.0 * (1 + 1 / 1.1 + 1 / 1.21), abs=1e-3)
        assert got == pytest.approx(273.554, abs=1e-3)

    def test_npv_zero_rating(self):
        assert npv_capacity_cost(0.0, 100.0, 0.1, 10) == 0.0

    def test_design_cost_breakdown(self, case5):
        params = DesignParams()
        cb = design_cost(case5, params, [], ["L1"], {"mg_c1": 1})
        assert cb.hardening == 50_000.0
        assert cb.microgrid_fixed == 25_000.0
        assert cb.microgrid_capacity == 100_000.0
        assert cb.total == 175_000.0


class TestMicrogridStepEncoding:
    def _mg(self, max_steps=3, existing=False):
        doc = two_bus_doc()
        doc["microgrids"] = [{"id": "mg", "bus": "b1", "step_capacity_kva": 100.0,
                              "max_steps": max_steps, "fixed_cost": 25_000.0,
                              "variable_cost_rate": 100.0,
                              "is_existing": existing}]
        if existing:
            doc["microgrids"][0]["fixed_cost"] = 0.0
            doc["microgrids"][0]["variable_cost_rate"] = 0.0
        return load_doc(doc)

    def test_ordering_enforced(self):
        net = self._mg()
        model = MilpModel()
        vs = microgrid_step_encoding(model, net.microgrids["mg"])
        assert len(vs) == 3
        assert model.row_names == ["mgorder:mg:1", "mgorder:mg:2"]
        model.fix_variable(vs[0], 1.0)
        model.fix_variable(vs[1], 0.0)
        model.fix_variable(vs[2], 1.0)  # skipping a step is invalid
        model.set_objective({})
        assert solve(model, EXACT).status == "infeasible"

    def test_two_steps_cost_and_capacity(self):
        net = self._mg()
        params = DesignParams()
        cb = design_cost(net, params, [], [], {"mg": 2})
        # single-phase bus: per-step cost = rate * step kVA * 1 phase
        assert cb.microgrid_fixed == 25_000.0
        assert cb.microgrid_capacity == pytest.approx(2 * 100.0 * 100.0)
        design = make_design(net, params, [], [], {"mg": 2})
        assert design.microgrid_kw(net) == pytest.approx(200.0)

    def test_zero_steps_zero_cost(self):
        net = self._mg()
        cb = design_cost(net, DesignParams(), [], [], {"mg": 0})
        assert cb.total == 0.0

    def test_existing_unit_fully_committed(self):
        # an existing unit is no decision: it has no step columns or order
        # rows, and its full capacity is the constant of its bus's gencap rows
        net = self._mg(existing=True)
        master = build_master(ScenarioTemplate(net, DesignParams()), [BASELINE])
        model = master.model
        assert master.template.first_stage.steps == {}
        assert not any(n.startswith("mgstep:") for n in model.var_names)
        assert not any(n.startswith("mgorder:") for n in model.row_names)
        hi = dict(zip(model.row_names, model.rows().hi))
        full = 3 * net.microgrids["mg"].step_capacity_pu
        assert hi["gencapre:b1:a:s0"] == hi["gencapim:b1:a:s0"] == full
