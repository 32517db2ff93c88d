"""Seeded two-trunk feeder for the master-bound benchmark workload.

One three-phase substation feeds two case30-style trunks. Each trunk has
8 damageable, hardenable segments (2 of them switched), 21 single-phase
laterals, 2 critical trunk loads that double as microgrid sites, and one
express candidate line from the substation. A tie candidate joins the two
trunk ends. That is 59 buses and 31 first-stage binaries: 16 hardenable
segments, 3 candidate lines and 4 microgrids of 3 sizing steps each.

The same seed gives byte-identical JSON. Run as a script to print a feeder:

    python3 perfbench/feedergen.py --seed 7 > feeder.json
"""

from __future__ import annotations

import argparse
import json
import random

HARDEN_PER_KM = 620_000
NEW_SWITCH_COST = 25_000
N_TRUNK = 8
LATERAL_COUNTS = (3, 3, 3, 3, 3, 2, 2, 2)  # per trunk bus, 21 laterals per trunk


def _c(re: float, im: float) -> dict:
    return {"re": re, "im": im}


def _z1_phase(phase: str, re: float, im: float) -> list:
    out = [None] * 9
    out[{"a": 0, "b": 4, "c": 8}[phase]] = _c(re, im)
    return out


def _z3(self_re: float, self_im: float, mut_re: float, mut_im: float) -> list:
    return [_c(self_re, self_im) if i == j else _c(mut_re, mut_im)
            for i in range(3) for j in range(3)]


def _trunk(rng: random.Random, name: str, direction: float):
    """Buses, lines, loads and microgrids of one trunk named ``name``."""
    buses, lines, loads, grids = [], [], [], []
    switched = set(rng.sample(range(2, N_TRUNK + 1), 2))
    prev, x = "sub", 0.0
    for i in range(1, N_TRUNK + 1):
        bid = f"{name}t{i}"
        length = rng.choice((0.08, 0.1, 0.12))
        x += 1000.0 * length
        buses.append({"id": bid, "phases": "abc",
                      "coords": [round(direction * x, 3), 0.0]})
        lines.append({
            "id": f"{name.upper()}T{i}", "from": prev, "to": bid, "phases": "abc",
            "length_km": length, "impedance": _z3(0.2, 0.4, 0.05, 0.15),
            "capacity_kva": 500.0, "damageable": True, "hardenable": True,
            "has_switch": i in switched,
            "harden_cost": float(int(length * HARDEN_PER_KM)),
        })
        prev = bid

    gidx = rng.randrange(3)
    for i, count in enumerate(LATERAL_COUNTS, start=1):
        for j in range(count):
            phase = "abc"[gidx % 3]
            bid = f"{name}x{i}_{j}"
            buses.append({"id": bid, "phases": phase,
                          "coords": [round(direction * 100.0 * i, 3), 60.0 * (j + 1)]})
            lines.append({
                "id": f"{name.upper()}X{i}_{j}", "from": f"{name}t{i}", "to": bid,
                "phases": phase, "length_km": 0.1,
                "impedance": _z1_phase(phase, 0.3, 0.35),
                "capacity_kva": 200.0, "damageable": False,
            })
            p_kw = float(rng.randrange(15, 40))
            loads.append({
                "id": f"ld_{bid}", "bus": bid,
                "demand_kva": {phase: _c(p_kw, round(0.4 * p_kw, 3))},
            })
            gidx += 1

    crit_buses = sorted(rng.sample(range(3, N_TRUNK + 1), 2))
    for i in crit_buses:
        bid = f"{name}t{i}"
        per_phase = float(rng.randrange(25, 50))
        loads.append({
            "id": f"crit_{bid}", "bus": bid, "is_critical": True,
            "demand_kva": {ph: _c(per_phase, round(0.35 * per_phase, 3)) for ph in "abc"},
        })
        grids.append({
            "id": f"mg_{bid}", "bus": bid, "step_capacity_kva": 100.0, "max_steps": 3,
            "fixed_cost": 25_000.0, "variable_cost_rate": float(rng.randrange(250, 400)),
        })

    express_to = crit_buses[0]
    length = round(0.1 * express_to + 0.05, 3)
    lines.append({
        "id": f"{name.upper()}C1", "from": "sub", "to": f"{name}t{express_to}",
        "phases": "abc", "length_km": length,
        "impedance": _z3(0.15, 0.25, 0.04, 0.1), "capacity_kva": 500.0,
        "status": "candidate_new",
        "construction_cost": float(int(length * HARDEN_PER_KM) + NEW_SWITCH_COST),
    })
    return buses, lines, loads, grids


def feeder(seed: int) -> dict:
    rng = random.Random(seed)
    doc = {
        "bases": {"base_kva": 1000.0, "base_kv": 12.47},
        "buses": [{"id": "sub", "phases": "abc", "is_substation": True,
                   "coords": [0.0, 0.0]}],
        "lines": [], "loads": [], "microgrids": [],
    }
    for name, direction in (("a", 1.0), ("b", -1.0)):
        buses, lines, loads, grids = _trunk(rng, name, direction)
        doc["buses"] += buses
        doc["lines"] += lines
        doc["loads"] += loads
        doc["microgrids"] += grids
    tie_len = 0.3
    doc["lines"].append({
        "id": "TIE", "from": f"at{N_TRUNK}", "to": f"bt{N_TRUNK}", "phases": "abc",
        "length_km": tie_len, "impedance": _z3(0.15, 0.25, 0.04, 0.1),
        "capacity_kva": 500.0, "status": "candidate_new",
        "construction_cost": float(int(tie_len * HARDEN_PER_KM) + NEW_SWITCH_COST),
    })
    return doc


def feeder_json(seed: int) -> str:
    return json.dumps(feeder(seed), sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    print(feeder_json(parser.parse_args().seed), end="")
