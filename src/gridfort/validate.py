"""Independent audit of a solved scenario operation: radiality, line states
(no damaged unhardened or unbuilt line closed, no line without a switch
open unless damaged and unhardened), true circular thermal limits (strictly
stronger than the solver's octagon), voltage recomputation in the same
linearized physics, generation within the design's microgrid capacity, flow
balance, and resilience accounting. Violations are data, not errors; each
has a ``kind`` (the README lists them), and reports serialize to JSON and
drive the CLI's nonzero-exit contract.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from gridfort.formulation import Design, DesignParams, rotated_impedance
from gridfort.model import Network, Phase, adjacency, components, cycle_basis

__all__ = [
    "OperationState",
    "Violation",
    "AuditReport",
    "check_radiality",
    "recompute_voltages",
    "served_fractions",
    "audit",
]

BALANCE_TOL = 1e-8
VOLTAGE_MATCH_TOL = 1e-6
THERMAL_TOL = 1e-9
FRACTION_TOL = 1e-9
IMBALANCE_TOL = 1e-8


@dataclass(frozen=True)
class OperationState:
    """Second-stage operating point of one scenario."""

    scenario_id: int
    damaged_lines: frozenset[str]
    closed_lines: frozenset[str]
    flows: dict[tuple[str, Phase], complex]          # per closed line and phase
    voltages: dict[tuple[str, Phase], float]         # squared magnitudes
    served_loads: frozenset[str]
    dispatch: dict[tuple[str, Phase], complex]       # generation per bus/phase


@dataclass(frozen=True)
class Violation:
    kind: str
    element: str
    magnitude: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class AuditReport:
    scenario_id: int
    radial: bool
    worst_thermal_utilization: float
    voltage_range: tuple[float, float]      # magnitudes, energized buses only
    critical_fraction: float
    total_fraction: float
    max_voltage_discrepancy: float
    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The report as JSON values: a row of ``audit.json``."""
        return {**vars(self), "voltage_range": list(self.voltage_range),
                "violations": [v.to_dict() for v in self.violations]}


def check_radiality(state: OperationState, network: Network):
    """True iff the closed-line subgraph, parallel lines collapsed, is a forest;
    returns a witness cycle (as reduced edge tuples) when it is not."""
    closed = (sorted((network.lines[lid].from_bus, network.lines[lid].to_bus))
              for lid in state.closed_lines)
    basis = cycle_basis(adjacency(network.buses, closed))
    if not basis:
        return True, None
    return False, tuple(basis[0])


def _island_anchor(component: set[str], network: Network):
    """Highest-capacity microgrid bus of an island, if the island has any."""
    best = None
    best_cap = -1.0
    for bid in sorted(component):
        cap = network.microgrid_capacity_pu(bid)
        if cap > best_cap and network.microgrids_at(bid):
            best, best_cap = bid, cap
    return best


def recompute_voltages(state: OperationState, network: Network):
    """Sweep the linear voltage drop over closed lines from each source,
    from the state's flows and the lines' impedances alone; ``audit``
    checks the result against the design's voltage band.

    Substation-fed components anchor at the substation reference; islands
    anchor at their largest microgrid bus, using the state's value for that
    bus when available (the optimization does not pin island voltage levels)
    and the substation reference otherwise. Of parallel closed lines the
    sweep goes on over the first; each other gives its far bus one more
    voltage, for the discrepancy only. An island without a source gets no
    voltage. Returns (voltages keyed by (bus, phase), max discrepancy
    against the state's voltages).
    """
    lines_between: dict[tuple[str, str], list[str]] = {}
    for lid in sorted(state.closed_lines):
        line = network.lines[lid]
        key = tuple(sorted((line.from_bus, line.to_bus)))
        lines_between.setdefault(key, []).append(lid)
    adj = adjacency(network.buses, lines_between)

    voltages: dict[tuple[str, Phase], float] = {}
    swept: list[tuple[tuple[str, Phase], float]] = []  # over every closed line
    for component in components(adj):
        subs = sorted(b for b in component if network.buses[b].is_substation)
        if subs:
            # the optimization pins substation voltages, so this is an
            # absolute cross-check
            anchors = [(b, network.buses[b].v_ref) for b in subs]
        else:
            anchor = _island_anchor(component, network)
            if anchor is None:
                continue  # de-energized island: no physical voltage
            # islands carry no absolute reference in the optimization; anchor
            # at the state's own level (per phase) so the sweep checks the
            # relative drops, falling back to the nominal reference
            anchors = [(anchor, None)]
        seen: set[str] = set()
        queue: deque[str] = deque()
        for bid, ref in anchors:
            for k in network.buses[bid].phases:
                if ref is not None:
                    voltages[(bid, k)] = ref
                else:
                    voltages[(bid, k)] = state.voltages.get((bid, k), 1.0)
            seen.add(bid)
            queue.append(bid)
        while queue:
            bid = queue.popleft()
            for nb in sorted(adj[bid]):
                if nb in seen:
                    continue
                for lid in lines_between[tuple(sorted((bid, nb)))]:
                    line = network.lines[lid]
                    for k in line.phases:
                        drop = 0.0
                        for k2 in line.phases:
                            z = rotated_impedance(line, k, k2)
                            s = state.flows.get((lid, k2), 0j)
                            drop += 2.0 * (z.real * s.real + z.imag * s.imag)
                        # drop is V_from - V_to along the line's declared direction
                        v = voltages[(bid, k)] + (-drop if line.from_bus == bid else drop)
                        voltages.setdefault((nb, k), v)  # the sweep goes on from the first
                        swept.append(((nb, k), v))
                seen.add(nb)
                queue.append(nb)

    discrepancy = 0.0
    for key, v in [*voltages.items(), *swept]:
        if key in state.voltages:
            discrepancy = max(discrepancy, abs(v - state.voltages[key]))
    return voltages, discrepancy


def served_fractions(state: OperationState, network: Network) -> tuple[float, float]:
    """The shares of critical and of total real demand ``state`` serves."""
    crit_served = crit_total = served = total = 0.0
    for load in network.loads.values():
        d = load.total_real_pu()
        on = load.id in state.served_loads
        total += d
        served += d if on else 0.0
        if load.is_critical:
            crit_total += d
            crit_served += d if on else 0.0
    return (
        crit_served / crit_total if crit_total > 0 else 1.0,
        served / total if total > 0 else 1.0,
    )


def audit(state: OperationState, network: Network, params: DesignParams,
          design: Design) -> AuditReport:
    """Full independent check of one scenario operation under a design."""
    violations: list[Violation] = []

    radial, witness = check_radiality(state, network)
    if not radial:
        violations.append(Violation("radiality", f"cycle:{witness}", float(len(witness))))

    hardened = set(design.hardened_lines)
    built = set(design.built_lines)
    for lid in sorted(state.closed_lines):
        line = network.lines[lid]
        if lid in state.damaged_lines and lid not in hardened:
            violations.append(Violation("damaged_line_closed", lid, 1.0))
        if line.is_candidate and lid not in built:
            violations.append(Violation("unbuilt_line_closed", lid, 1.0))
    # the model forces a line without a switch closed when it is intact
    # (sw: eline = bline = 1) or damaged and hardened (dmg: eline = hline)
    for lid in sorted(network.lines):
        if (not network.lines[lid].has_switch and lid not in state.closed_lines
                and (lid not in state.damaged_lines or lid in hardened)):
            violations.append(Violation("switchless_line_open", lid, 1.0))

    worst_util = 0.0
    for (lid, k), s in sorted(state.flows.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        line = network.lines[lid]
        if lid not in state.closed_lines:
            if abs(s) > BALANCE_TOL:
                violations.append(Violation("flow_on_open_line", f"{lid}:{k.value}", abs(s)))
            continue
        cap = line.capacity_pu[k]
        util = abs(s) / cap
        worst_util = max(worst_util, util)
        if util > 1.0 + THERMAL_TOL:
            violations.append(
                Violation("thermal", f"{lid}:{k.value}", (util - 1.0) * cap)
            )

    for lid in sorted(state.closed_lines):
        line = network.lines[lid]
        n = len(line.phases)
        if n < 2:
            continue
        beta = params.beta_for(line)
        for comp in ("real", "imag"):
            flows = [getattr(state.flows.get((lid, k), 0j), comp) for k in line.phases]
            tot = sum(flows)
            for k, f in zip(line.phases, flows):
                hi = (1.0 + beta) * tot - n * f
                lo = n * f - (1.0 - beta) * tot
                worst = min(hi, lo)
                if worst < -IMBALANCE_TOL:
                    violations.append(
                        Violation("imbalance", f"{lid}:{comp}:{k.value}", -worst)
                    )

    vmin_mag, vmax_mag = math.sqrt(params.vmin_sq), math.sqrt(params.vmax_sq)
    # de-energized islands are legal states (forced-closed lines downstream
    # of damage); recompute_voltages gives them no voltage to check
    recomputed, discrepancy = recompute_voltages(state, network)
    if discrepancy > VOLTAGE_MATCH_TOL:
        violations.append(Violation("voltage_mismatch", "network", discrepancy))
    v_lo, v_hi = math.inf, -math.inf
    for (bid, k), v_sq in sorted(recomputed.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        mag = math.sqrt(max(v_sq, 0.0))
        v_lo, v_hi = min(v_lo, mag), max(v_hi, mag)
        if mag < vmin_mag - VOLTAGE_MATCH_TOL or mag > vmax_mag + VOLTAGE_MATCH_TOL:
            violations.append(
                Violation("voltage_band", f"{bid}:{k.value}",
                          max(vmin_mag - mag, mag - vmax_mag))
            )

    steps = dict(design.microgrid_steps)
    for bid in sorted(network.buses):
        bus = network.buses[bid]
        for k in bus.phases:
            gen = state.dispatch.get((bid, k), 0j)
            if gen and not bus.is_substation:
                # real and imaginary dispatch lie in [0, the per-phase
                # microgrid capacity the design gives the bus]: existing
                # units in full, a design's units by their steps
                mgs = [network.microgrids[g] for g in network.microgrids_at(bid)]
                cap = sum(mg.step_capacity_pu * (mg.max_steps if mg.is_existing
                                                 else steps.get(mg.id, 0)) for mg in mgs)
                excess = max(-gen.real, -gen.imag, gen.real - cap, gen.imag - cap)
                if excess > BALANCE_TOL:
                    violations.append(Violation("generation", f"{bid}:{k.value}", excess))
            demand = sum(
                (
                    network.loads[l].demand_pu.get(k, 0j)
                    for l in network.loads_at(bid)
                    if l in state.served_loads
                ),
                0j,
            )
            net_flow = 0j
            for lid in network.lines_at(bid):
                line = network.lines[lid]
                if k not in line.phases:
                    continue
                s = state.flows.get((lid, k), 0j)
                net_flow += s if line.from_bus == bid else -s
            residual = gen - demand - net_flow
            if abs(residual.real) > BALANCE_TOL or abs(residual.imag) > BALANCE_TOL:
                violations.append(
                    Violation("balance", f"{bid}:{k.value}",
                              max(abs(residual.real), abs(residual.imag)))
                )

    crit_frac, tot_frac = served_fractions(state, network)
    if crit_frac < params.critical_fraction - FRACTION_TOL:
        violations.append(
            Violation("critical_service", "network", params.critical_fraction - crit_frac)
        )
    if tot_frac < params.total_fraction - FRACTION_TOL:
        violations.append(
            Violation("total_service", "network", params.total_fraction - tot_frac)
        )

    return AuditReport(
        scenario_id=state.scenario_id,
        radial=radial,
        worst_thermal_utilization=worst_util,
        voltage_range=(v_lo, v_hi),
        critical_fraction=crit_frac,
        total_fraction=tot_frac,
        max_voltage_discrepancy=discrepancy,
        violations=violations,
    )
