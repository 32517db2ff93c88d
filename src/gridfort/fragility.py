"""Ice/wind storm fragility: sample sets of damaged lines.

Pole failures are uniform across the system; a span fails when either of
its two supporting poles fails, so the per-line failure probability is
1 - (1 - p)**2. Each damage scenario flips one weighted coin per damageable
line. Draws come from a counter-based stream keyed by (seed, scenario index)
with one variate per line in canonical id order, so generation is
order-independent, parallelizable by scenario, and common-random-numbers
comparisons across probabilities are variance-reduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridfort.model import Network, read_json

__all__ = [
    "FragilityParams",
    "DamageScenario",
    "line_failure_probability",
    "per_line_probability",
    "sample_scenarios",
    "save_scenarios",
    "load_scenarios",
    "load_scenarios_file",
]

BASELINE_ID = 0


@dataclass(frozen=True)
class FragilityParams:
    pole_failure_prob: float = 0.0
    line_failure_prob_override: float | None = None
    scenario_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, p in (
            ("pole_failure_prob", self.pole_failure_prob),
            ("line_failure_prob_override", self.line_failure_prob_override),
        ):
            if p is not None and not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.scenario_count < 1:
            raise ValueError(f"scenario_count must be >= 1, got {self.scenario_count}")
        if not 0 <= self.seed < 2 ** 64:  # the Philox key's range
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class DamageScenario:
    id: int
    damaged_line_ids: frozenset[str]

    @property
    def is_baseline(self) -> bool:
        return self.id == BASELINE_ID


def line_failure_probability(p_pole: float) -> float:
    """Probability that a span fails given uniform pole failure probability."""
    if not (0.0 <= p_pole <= 1.0):
        raise ValueError(f"pole failure probability must lie in [0, 1], got {p_pole}")
    return 1.0 - (1.0 - p_pole) ** 2


def per_line_probability(params: FragilityParams) -> float:
    if params.line_failure_prob_override is not None:
        return params.line_failure_prob_override
    return line_failure_probability(params.pole_failure_prob)


def _uniforms(seed: int, scenario_index: int, n: int) -> np.ndarray:
    """One uniform per line from the (seed, scenario index) substream.

    The scenario index selects a disjoint block of the counter-based Philox
    stream, so draws are independent of generation order, and the i-th
    variate always belongs to the i-th damageable line (canonical id order).
    """
    bits = np.random.Philox(key=seed)
    bits = bits.advance(scenario_index * (1 << 32))
    return np.random.Generator(bits).random(n)


def sample_scenarios(network: Network, params: FragilityParams) -> list[DamageScenario]:
    """Baseline plus ``scenario_count`` independently sampled damage scenarios."""
    prob = per_line_probability(params)
    damageable = sorted(network.damageable_lines())
    out = [DamageScenario(BASELINE_ID, frozenset())]
    for s in range(1, params.scenario_count + 1):
        u = _uniforms(params.seed, s, len(damageable))
        failed = frozenset(lid for lid, x in zip(damageable, u) if x < prob)
        out.append(DamageScenario(s, failed))
    return out


def save_scenarios(scenarios: list[DamageScenario], per_line_prob: float | None = None,
                   seed: int | None = None) -> str:
    doc = {
        "per_line_probability": per_line_prob,
        "scenarios": [
            {"damaged_line_ids": sorted(s.damaged_line_ids), "id": s.id}
            for s in scenarios
        ],
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_scenarios(text: str, network: Network | None = None) -> list[DamageScenario]:
    """Read a scenario file; ids must be unique, and with a network given,
    damage must be valid."""
    return _scenarios(json.loads(text), network)


def _scenarios(doc, network: Network | None) -> list[DamageScenario]:
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ValueError("scenario file must be an object with a 'scenarios' list")
    out = []
    seen: set[int] = set()
    for i, raw in enumerate(doc["scenarios"]):
        if not (isinstance(raw, dict) and {"id", "damaged_line_ids"} <= raw.keys()
                and isinstance(raw["id"], int) and not isinstance(raw["id"], bool)
                and isinstance(raw["damaged_line_ids"], list)
                and all(isinstance(x, str) for x in raw["damaged_line_ids"])):
            raise ValueError(f"scenario entry {i} needs an integer 'id' and a "
                             f"'damaged_line_ids' list of line ids")
        sid = raw["id"]
        if sid in seen:
            raise ValueError(f"duplicate scenario id {sid}")
        seen.add(sid)
        damaged = frozenset(raw["damaged_line_ids"])
        if network is not None:
            allowed = set(network.damageable_lines())
            bad = sorted(damaged - allowed)
            if bad:
                raise ValueError(
                    f"scenario {sid}: lines not damageable or unknown: {bad}"
                )
        out.append(DamageScenario(sid, damaged))
    if not out or not out[0].is_baseline or out[0].damaged_line_ids:
        raise ValueError("scenario file must start with the undamaged baseline (id 0)")
    return out


def load_scenarios_file(path: str | Path, network: Network | None = None):
    return _scenarios(read_json(path, "scenario file"), network)
