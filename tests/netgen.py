"""Randomized tiny instances and the exhaustive first-stage enumeration oracle.

Instances are single-phase random trees with a handful of upgrade decisions
(candidate lines, hardenable segments, microgrid sizing steps), small enough
that every first-stage decision vector can be enumerated and checked by a
per-scenario feasibility solve.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from gridfort import (
    DamageScenario,
    DesignParams,
    SolverOptions,
    load_network,
)
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import ScenarioTemplate, build_master, make_design


def _c(re, im):
    return {"re": re, "im": im}


def _z1(re, im):
    return [_c(re, im)] + [None] * 8


def _z2(re, im):
    """Two-phase (ab) matrix with mutual coupling."""
    self_, mut = _c(re, im), _c(0.3 * re, 0.4 * im)
    return [self_, mut, None, mut, self_, None, None, None, None]


def random_instance(seed: int, max_decisions: int = 7, phases: str = "a"):
    """Returns (network, scenarios, params) with few enough first-stage
    decisions for exhaustive enumeration. ``phases="ab"`` builds a coupled
    two-phase feeder (imbalance bands and rotated mutual terms active)."""
    rng = random.Random(seed)
    z_for = _z1 if phases == "a" else _z2
    n_bus = rng.randint(4, 7)
    bus_ids = ["sub"] + [f"n{i}" for i in range(1, n_bus)]
    buses = [{"id": "sub", "phases": phases, "is_substation": True}]
    buses += [{"id": b, "phases": phases} for b in bus_ids[1:]]

    lines = []
    hardenable_budget = rng.randint(1, 3)
    for i, b in enumerate(bus_ids[1:], start=1):
        parent = bus_ids[rng.randrange(i)]
        damageable = rng.random() < 0.75
        hardenable = damageable and hardenable_budget > 0 and rng.random() < 0.8
        if hardenable:
            hardenable_budget -= 1
        lines.append({
            "id": f"L{i}", "from": parent, "to": b, "phases": phases,
            "length_km": round(rng.uniform(0.2, 1.0), 2),
            "impedance": z_for(0.2, 0.4),
            "capacity_kva": 400.0,
            "damageable": damageable,
            "hardenable": hardenable,
            "harden_cost": float(rng.randrange(30, 160) * 1000) if hardenable else 0.0,
            "has_switch": rng.random() < 0.3,
        })

    decisions = sum(1 for l in lines if l["hardenable"])
    n_cand = rng.randint(0, 2)
    for j in range(n_cand):
        if decisions >= max_decisions:
            break
        u, v = rng.sample(bus_ids, 2)
        lines.append({
            "id": f"C{j}", "from": u, "to": v, "phases": phases,
            "length_km": round(rng.uniform(0.2, 0.8), 2),
            "impedance": z_for(0.15, 0.3),
            "capacity_kva": 400.0,
            "status": "candidate_new",
            "construction_cost": float(rng.randrange(40, 200) * 1000),
        })
        decisions += 1

    loads = []
    crit_bus = rng.choice(bus_ids[1:])
    loads.append({
        "id": "crit", "bus": crit_bus, "is_critical": True,
        "demand_kva": {ph: _c(float(rng.randrange(30, 90)), 10.0)
                       for ph in phases},
    })
    for b in bus_ids[1:]:
        if b != crit_bus and rng.random() < 0.6:
            loads.append({
                "id": f"ld_{b}", "bus": b,
                "demand_kva": {ph: _c(float(rng.randrange(15, 60)), 5.0)
                               for ph in phases},
            })

    grids = []
    for j in range(rng.randint(0, 2)):
        if decisions >= max_decisions:
            break
        steps = rng.randint(1, min(2, max_decisions - decisions))
        grids.append({
            "id": f"mg{j}", "bus": rng.choice(bus_ids[1:]),
            "step_capacity_kva": float(rng.randrange(50, 150)),
            "max_steps": steps,
            "fixed_cost": float(rng.randrange(10, 30) * 1000),
            "variable_cost_rate": float(rng.randrange(200, 1500)),
        })
        decisions += steps

    doc = {
        "bases": {"base_kva": 1000.0, "base_kv": 12.47},
        "buses": buses, "lines": lines, "loads": loads, "microgrids": grids,
    }
    network = load_network(json.dumps(doc))

    damageable = sorted(network.damageable_lines())
    scenarios = [DamageScenario(0, frozenset())]
    for s in range(1, rng.randint(2, 4)):
        damaged = frozenset(l for l in damageable if rng.random() < 0.45)
        scenarios.append(DamageScenario(s, damaged))

    params = DesignParams(
        critical_fraction=rng.choice([0.9, 1.0]),
        total_fraction=rng.choice([0.0, 0.25, 0.4]),
    )
    return network, scenarios, params


def all_designs(network, params):
    """Every first-stage decision vector, cheapest first."""
    cands = sorted(l.id for l in network.lines.values() if l.is_candidate)
    hards = sorted(
        l.id for l in network.lines.values()
        if l.hardenable and l.damageable and not l.is_candidate
    )
    grids = sorted(
        (g.id, g.max_steps) for g in network.microgrids.values() if not g.is_existing
    )
    options = []
    for built in itertools.product((0, 1), repeat=len(cands)):
        for hardened in itertools.product((0, 1), repeat=len(hards)):
            for steps in itertools.product(
                *(range(ms + 1) for _, ms in grids)
            ):
                built_ids = [c for c, b in zip(cands, built) if b]
                hard_ids = [h for h, b in zip(hards, hardened) if b]
                step_map = {g: n for (g, _), n in zip(grids, steps)}
                options.append(make_design(network, params, built_ids, hard_ids, step_map))
    options.sort(key=lambda d: (d.cost.total, d.built_lines, d.hardened_lines,
                                d.microgrid_steps))
    return options


def scenario_feasible(template: ScenarioTemplate, scenario, design,
                      options: SolverOptions | None = None) -> bool:
    """Independent per-scenario feasibility check with the design pinned."""
    options = options or SolverOptions(rel_gap=1e-6)
    master = build_master(template, [scenario], fixed_design=design)
    sol = solve_with_cycle_cuts(master, options)
    return sol.status == "optimal"


def enumerate_optimum(network, scenarios, params,
                      options: SolverOptions | None = None) -> float:
    """Exhaustive minimum upgrade cost; designs are tried cheapest first, so
    the first one feasible for every scenario is the optimum. Returns inf
    when no decision vector satisfies the targets. One template serves every
    (design, scenario) check."""
    template = ScenarioTemplate(network, params)
    for design in all_designs(network, params):
        if all(scenario_feasible(template, s, design, options) for s in scenarios):
            return design.cost.total
    return math.inf
