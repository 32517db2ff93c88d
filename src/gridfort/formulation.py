"""MILP formulation: per-scenario operational feasibility plus the minimum
cost upgrade problem that links scenarios through shared build/harden/
microgrid decisions.

Within one run every scenario block has the same rows apart from its damage.
``ScenarioTemplate`` runs the ``ScenarioFormulation`` emitters once, on the
first stage and an undamaged block, and every model (``build_master``) is
assembled from copies of that compiled block with each scenario's damage
patched in; ``MasterProblem.add_scenario`` appends one more, cut by every
cycle in the model's radiality cut pool (``MasterProblem.pool_cycles``).

Variable and row naming grammar (stable across runs, used in exchange
files; names are generated only when asked for, by the MPS writer and the
model's ``var_names`` and ``row_names``):

    build:{line}            first-stage new-line decision
    harden:{line}           first-stage hardening decision
    mgstep:{mg}:{m}         first-stage sizing step m (1-based) of a new microgrid
    eline:{line}:s{S}       line energized in scenario S
    edir0/edir1:{line}:s{S} flow direction indicators (to->from / from->to)
    bline:{line}:s{S}       line available (built and switched in)
    hline:{line}:s{S}       scenario copy of the hardening decision
    bredge:{u}>{v}:s{S}     reduced (parallel-collapsed) edge used
    p/q:{line}:{k}:s{S}     real/reactive flow on phase k, per-unit
    v:{bus}:{k}:s{S}        squared voltage magnitude, per-unit
    sgre/sgim:{bus}:{k}:s{S}  generated power components
    sdre/sdim:{bus}:{k}:s{S}  delivered load components
    served:{load}:s{S}      all-or-none load pickup

Rows carry the same scenario suffix; those of the damage rule are

    sw:{line}:s{S}          energization equals availability, eline = bline
    dmg:{line}:s{S}         the sw row of a damaged line, with the hardening
                            copy in place of availability: eline <= hline on
                            a switched line, eline = hline on a switchless one
    redlink:{line}:s{S}     eline <= bredge of the line's reduced edge

and the design master's island cover rows, on first-stage columns only, are

    cover:{i}               the i-th kept row, 0-based (``MasterProblem.add_cover_rows``)

An existing microgrid is part of the network, not a decision: it has no
``mgstep`` columns, and its full capacity is a constant of its bus's
``gencap`` rows, as the substation's import is.

Objective coefficients are expressed in k$ to keep the coefficient range
tame; reported design costs are in dollars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from gridfort.fragility import DamageScenario
from gridfort.milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER,
    LESS,
    MilpModel,
    RowBlock,
    Solution,
)
from gridfort.model import (
    Line,
    MicrogridCandidate,
    Network,
    Phase,
    ReducedGraph,
    adjacency,
    aggregate_parallel_edges,
    components,
)

__all__ = [
    "DesignParams",
    "OctagonGeometry",
    "octagon_points",
    "npv_capacity_cost",
    "microgrid_step_encoding",
    "CostBreakdown",
    "Design",
    "design_cost",
    "ScenarioVars",
    "ScenarioFormulation",
    "ScenarioBlock",
    "CoverRow",
    "ScenarioTemplate",
    "FirstStage",
    "MasterProblem",
    "build_master",
    "master_dimensions",
]

OCTAGON_SCALE = math.cos(math.pi / 8.0)


@dataclass(frozen=True)
class DesignParams:
    """Resilience targets, physics limits, and cost overrides."""

    critical_fraction: float = 0.98      # of critical real power, every scenario
    total_fraction: float = 0.1          # of total real power, every scenario
    beta_transformer: float = 0.15       # phase imbalance band for transformers
    beta_line: float = 1.0               # and for ordinary lines
    vmin_sq: float = 0.9025              # 0.95**2, squared per-unit
    vmax_sq: float = 1.1025              # 1.05**2
    mg_fixed_cost_override: float | None = None
    mg_rate_override: float | None = None    # $/kW of per-phase capacity
    line_cost_scale: float = 1.0
    harden_cost_scale: float = 1.0

    def __post_init__(self) -> None:
        for key in ("critical_fraction", "total_fraction"):
            value = getattr(self, key)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{key} must lie in [0, 1], got {value}")
        if not (0.0 < self.vmin_sq < self.vmax_sq):
            raise ValueError(f"need 0 < vmin_sq < vmax_sq, got {self.vmin_sq} and {self.vmax_sq}")
        for key in ("beta_transformer", "beta_line"):
            value = getattr(self, key)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{key} must lie in (0, 1], got {value}")
        for key in ("mg_fixed_cost_override", "mg_rate_override", "line_cost_scale",
                    "harden_cost_scale"):
            value = getattr(self, key)
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{key} must be nonnegative, got {value}")

    @property
    def big_m(self) -> float:
        return self.vmax_sq - self.vmin_sq

    def beta_for(self, line: Line) -> float:
        return self.beta_transformer if line.is_transformer else self.beta_line

    def mg_fixed_cost(self, mg: MicrogridCandidate) -> float:
        if mg.is_existing:
            return 0.0
        if self.mg_fixed_cost_override is not None:
            return self.mg_fixed_cost_override
        return mg.fixed_cost

    def mg_step_cost(self, mg: MicrogridCandidate, n_phases: int) -> float:
        """Cost of one sizing step: rate x per-phase kW x phase count."""
        if mg.is_existing:
            return 0.0
        rate = self.mg_rate_override if self.mg_rate_override is not None else mg.variable_cost_rate
        return rate * mg.step_capacity_kva * n_phases

    def line_build_cost(self, line: Line) -> float:
        return line.construction_cost * self.line_cost_scale

    def line_harden_cost(self, line: Line) -> float:
        return line.harden_cost * self.harden_cost_scale


# ---------------------------------------------------------------------------
# thermal octagon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OctagonGeometry:
    """Octagon inscribed in the apparent-power circle of radius ``capacity``,
    as ``octagon_points(capacity)`` builds it.

    Edges are tangent to the inner circle of radius r = capacity*cos(pi/8);
    vertices lie on the capacity circle, so feasibility inside the octagon
    implies true thermal feasibility.
    """

    radius: float
    diagonal_coord: float  # tangency points at (+-diagonal_coord, +-diagonal_coord)

    def diagonal_points(self) -> tuple[tuple[float, float], ...]:
        d = self.diagonal_coord
        return ((d, d), (-d, d), (-d, -d), (d, -d))

    def half_planes(self) -> tuple[tuple[float, float, float], ...]:
        """(a, b, rhs) triples: the octagon is {a*P + b*Q <= rhs for all}."""
        r = self.radius
        planes = [(1.0, 0.0, r), (-1.0, 0.0, r), (0.0, 1.0, r), (0.0, -1.0, r)]
        for p0, q0 in self.diagonal_points():
            planes.append((p0, q0, p0 * p0 + q0 * q0))
        return tuple(planes)

    def vertices(self) -> tuple[tuple[float, float], ...]:
        r = self.radius
        t = r * (math.sqrt(2.0) - 1.0)
        return (
            (r, t), (t, r), (-t, r), (-r, t),
            (-r, -t), (-t, -r), (t, -r), (r, -t),
        )


def octagon_points(capacity: float) -> OctagonGeometry:
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    r = capacity * OCTAGON_SCALE
    return OctagonGeometry(radius=r, diagonal_coord=r / math.sqrt(2.0))


def npv_capacity_cost(rating_kva: float, rate: float, eta: float, years: int) -> float:
    """Net present value of per-kVA yearly revenue over the performance period."""
    if rating_kva < 0 or eta < 0 or years < 0:
        raise ValueError("rating, rate period, and depreciation must be nonnegative")
    return sum((1.0 / (1.0 + eta)) ** n for n in range(years + 1)) * rate * rating_kva


# ---------------------------------------------------------------------------
# designs and their cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostBreakdown:
    new_lines: float
    hardening: float
    microgrid_fixed: float
    microgrid_capacity: float

    @property
    def total(self) -> float:
        return self.new_lines + self.hardening + self.microgrid_fixed + self.microgrid_capacity


@dataclass(frozen=True)
class Design:
    built_lines: tuple[str, ...]
    hardened_lines: tuple[str, ...]
    microgrid_steps: tuple[tuple[str, int], ...]  # (microgrid id, committed steps)
    cost: CostBreakdown

    def microgrid_kw(self, network: Network) -> float:
        """Total installed capacity across phases, kW."""
        total = 0.0
        for gid, steps in self.microgrid_steps:
            mg = network.microgrids[gid]
            total += steps * mg.step_capacity_kva * len(network.buses[mg.bus].phases)
        return total


def design_cost(network: Network, params: DesignParams, built, hardened,
                steps) -> CostBreakdown:
    """Evaluate the upgrade cost of a decision vector, in dollars.

    Sums run in canonical id order so equal decision sets always produce
    bit-identical totals.
    """
    steps = dict(steps)
    new_cost = sum(
        params.line_build_cost(network.lines[lid]) for lid in sorted(set(built))
    )
    harden = sum(
        params.line_harden_cost(network.lines[lid]) for lid in sorted(set(hardened))
    )
    fixed = 0.0
    capacity = 0.0
    for gid in sorted(steps):
        n = steps[gid]
        if n <= 0:
            continue
        mg = network.microgrids[gid]
        n_ph = len(network.buses[mg.bus].phases)
        fixed += params.mg_fixed_cost(mg)
        capacity += n * params.mg_step_cost(mg, n_ph)
    return CostBreakdown(new_cost, harden, fixed, capacity)


def make_design(network: Network, params: DesignParams, built, hardened, steps) -> Design:
    steps = {g: n for g, n in dict(steps).items() if n > 0}
    return Design(
        built_lines=tuple(sorted(set(built))),
        hardened_lines=tuple(sorted(set(hardened))),
        microgrid_steps=tuple(sorted(steps.items())),
        cost=design_cost(network, params, built, hardened, steps),
    )


# ---------------------------------------------------------------------------
# first stage
# ---------------------------------------------------------------------------


@dataclass
class FirstStage:
    build: dict[str, int] = field(default_factory=dict)    # candidate line -> var
    harden: dict[str, int] = field(default_factory=dict)   # hardenable line -> var
    steps: dict[str, list[int]] = field(default_factory=dict)  # new mg -> step vars


def microgrid_step_encoding(model: MilpModel, mg: MicrogridCandidate) -> list[int]:
    """Ordered incremental sizing binaries u_1 >= u_2 >= ... of a unit to
    build: the step variable indexes, ordered by ``mgorder`` rows."""
    vs = [model.add_variable(f"mgstep:{mg.id}:{m}", 0.0, 1.0, BINARY)
          for m in range(1, mg.max_steps + 1)]
    for m in range(mg.max_steps - 1):
        model.add_constraint({vs[m]: 1.0, vs[m + 1]: -1.0}, GREATER, 0.0,
                             name=f"mgorder:{mg.id}:{m + 1}")
    return vs


def _build_first_stage(model: MilpModel, network: Network) -> FirstStage:
    fs = FirstStage()
    for lid in sorted(network.lines):
        line = network.lines[lid]
        if line.is_candidate:
            fs.build[lid] = model.add_variable(f"build:{lid}", 0.0, 1.0, BINARY)
    for lid in sorted(network.hardenable_lines()):
        fs.harden[lid] = model.add_variable(f"harden:{lid}", 0.0, 1.0, BINARY)
    for gid in sorted(network.microgrids):
        if not network.microgrids[gid].is_existing:
            fs.steps[gid] = microgrid_step_encoding(model, network.microgrids[gid])
    return fs


# ---------------------------------------------------------------------------
# per-scenario block
# ---------------------------------------------------------------------------


@dataclass
class ScenarioVars:
    """Model indexes of one scenario's operational variables."""

    e: dict[str, int] = field(default_factory=dict)
    e0: dict[str, int] = field(default_factory=dict)
    e1: dict[str, int] = field(default_factory=dict)
    bs: dict[str, int] = field(default_factory=dict)
    hs: dict[str, int] = field(default_factory=dict)
    bredge: dict[tuple[str, str], int] = field(default_factory=dict)
    p: dict[tuple[str, Phase], int] = field(default_factory=dict)
    q: dict[tuple[str, Phase], int] = field(default_factory=dict)
    v: dict[tuple[str, Phase], int] = field(default_factory=dict)
    sg_re: dict[tuple[str, Phase], int] = field(default_factory=dict)
    sg_im: dict[tuple[str, Phase], int] = field(default_factory=dict)
    sd_re: dict[tuple[str, Phase], int] = field(default_factory=dict)
    sd_im: dict[tuple[str, Phase], int] = field(default_factory=dict)
    y: dict[str, int] = field(default_factory=dict)


_ROT_FWD = complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))
_ROT_BWD = _ROT_FWD.conjugate()
_NEXT = {Phase.A: Phase.B, Phase.B: Phase.C, Phase.C: Phase.A}


def rotated_impedance(line: Line, k: Phase, k2: Phase) -> complex:
    """Sequence-rotated series impedance seen by phase k from phase k2 flow.

    The own-phase term is the plain impedance; coupling to the next phase in
    abc order rotates by +120 degrees, to the previous phase by -120. Both
    phases are the line's, so the loader has given the pair an entry.
    """
    z = line.z_pu[(k, k2)]
    if k2 == k:
        return z
    if k2 == _NEXT[k]:
        return z * _ROT_FWD
    return z * _ROT_BWD


class ScenarioFormulation:
    """Operational constraint emitters for one undamaged scenario block.

    Variable and row names are the stems of the naming grammar, without a
    scenario suffix: ``ScenarioTemplate`` compiles the emitters' rows once
    and appends each scenario's ``:s{S}`` to a copy, patching its damage in.
    The emitters record the rows the template patches: each line's ``sw``
    row in ``switch_rows`` and the two resilience rows in
    ``resilience_rows``.
    """

    def __init__(self, model: MilpModel, network: Network, params: DesignParams,
                 reduced: ReducedGraph, first_stage: FirstStage) -> None:
        self.model = model
        self.network = network
        self.params = params
        self.reduced = reduced
        self.first_stage = first_stage
        self.vars = ScenarioVars()
        self.resilience_rows: list[int] = []
        self.switch_rows: dict[str, int] = {}  # line -> its sw row
        self._sub_cap_re, self._sub_cap_im = _substation_capacity(network)
        self._allocate()

    # -- variables -----------------------------------------------------------

    def _allocate(self) -> None:
        m, net = self.model, self.network
        for lid in sorted(net.lines):
            line = net.lines[lid]
            self.vars.e[lid] = m.add_variable(f"eline:{lid}", 0.0, 1.0, BINARY)
            self.vars.e0[lid] = m.add_variable(f"edir0:{lid}", 0.0, 1.0, BINARY)
            self.vars.e1[lid] = m.add_variable(f"edir1:{lid}", 0.0, 1.0, BINARY)
            self.vars.bs[lid] = m.add_variable(f"bline:{lid}", 0.0, 1.0, BINARY)
            self.vars.hs[lid] = m.add_variable(f"hline:{lid}", 0.0, 1.0, BINARY)
            if not line.is_candidate and not line.has_switch:
                m.fix_variable(self.vars.bs[lid], 1.0)
            if lid not in self.first_stage.harden:
                m.fix_variable(self.vars.hs[lid], 0.0)
            for k in line.phases:
                r = octagon_points(line.capacity_pu[k]).radius
                self.vars.p[(lid, k)] = m.add_variable(f"p:{lid}:{k.value}", -r, r)
                self.vars.q[(lid, k)] = m.add_variable(f"q:{lid}:{k.value}", -r, r)
        for (u, v) in sorted(self.reduced.edges):
            # integrality is implied: closing any line underneath forces the
            # edge-usage variable to exactly one through the linking rows, so
            # it stays continuous and out of the branching
            self.vars.bredge[(u, v)] = m.add_variable(
                f"bredge:{u}>{v}", 0.0, 1.0, CONTINUOUS
            )
        for bid in sorted(net.buses):
            bus = net.buses[bid]
            mg_cap = net.microgrid_capacity_pu(bid)
            cap_re = mg_cap + (self._sub_cap_re if bus.is_substation else 0.0)
            cap_im = mg_cap + (self._sub_cap_im if bus.is_substation else 0.0)
            for k in bus.phases:
                self.vars.v[(bid, k)] = m.add_variable(
                    f"v:{bid}:{k.value}", self.params.vmin_sq, self.params.vmax_sq
                )
                if bus.is_substation:
                    m.fix_variable(self.vars.v[(bid, k)], bus.v_ref)
                self.vars.sg_re[(bid, k)] = m.add_variable(
                    f"sgre:{bid}:{k.value}", 0.0, cap_re
                )
                self.vars.sg_im[(bid, k)] = m.add_variable(
                    f"sgim:{bid}:{k.value}", 0.0, cap_im
                )
                d = sum(
                    (net.loads[l].demand_pu.get(k, 0j) for l in net.loads_at(bid)), 0j
                )
                self.vars.sd_re[(bid, k)] = m.add_variable(
                    f"sdre:{bid}:{k.value}", 0.0, d.real
                )
                self.vars.sd_im[(bid, k)] = m.add_variable(
                    f"sdim:{bid}:{k.value}", min(0.0, d.imag), max(0.0, d.imag)
                )
        for lid in sorted(net.loads):
            self.vars.y[lid] = m.add_variable(f"served:{lid}", 0.0, 1.0, BINARY)

    # -- constraint families ---------------------------------------------------

    def add_thermal_direction_constraints(self, line_id: str) -> None:
        """Octagonal inner approximation of the per-phase apparent-power limit,
        gated by the shared direction indicators; all phases flow one way."""
        m, line = self.model, self.network.lines[line_id]
        e, e0, e1 = (d[line_id] for d in (self.vars.e, self.vars.e0, self.vars.e1))
        for k in line.phases:
            geo = octagon_points(line.capacity_pu[k])
            r = geo.radius
            p, q = self.vars.p[(line_id, k)], self.vars.q[(line_id, k)]
            tag = f"{line_id}:{k.value}"
            m.add_constraint({p: 1.0, e1: -r}, LESS, 0.0, f"thP+:{tag}")
            m.add_constraint({p: 1.0, e0: r}, GREATER, 0.0, f"thP-:{tag}")
            m.add_constraint({q: 1.0, e1: -r}, LESS, 0.0, f"thQ+:{tag}")
            m.add_constraint({q: 1.0, e0: r}, GREATER, 0.0, f"thQ-:{tag}")
            for i, (p0, q0) in enumerate(geo.diagonal_points()):
                m.add_constraint({p: p0, q: q0}, LESS, p0 * p0 + q0 * q0, f"thD{i}:{tag}")
        m.add_constraint({e0: 1.0, e1: 1.0, e: -1.0}, LESS, 0.0, f"dir:{line_id}")

    def add_switching_damage_constraints(self, line_id: str) -> None:
        """Energization equals availability on an undamaged line. Damage
        patches this row alone (``ScenarioTemplate.stack``): a damaged line
        is open unless hardened, a hardened switched line stays switchable,
        and a hardened switchless line is closed."""
        e, bs = self.vars.e[line_id], self.vars.bs[line_id]
        self.switch_rows[line_id] = self.model.add_constraint(
            {e: 1.0, bs: -1.0}, EQUAL, 0.0, f"sw:{line_id}")

    def add_imbalance_constraints(self, line_id: str) -> None:
        """Per-phase flow within (1 +- beta) of the per-phase average, real and
        imaginary components separately; single-phase lines carry none.

        Emitted in the literal two-sided form, which presumes flow in the
        declared direction: a net-negative multi-phase flow has an empty band,
        so reverse flow on multi-phase lines is only feasible at zero."""
        m, line = self.model, self.network.lines[line_id]
        n = len(line.phases)
        if n < 2:
            return
        beta = self.params.beta_for(line)
        for comp, flows in (("p", self.vars.p), ("q", self.vars.q)):
            idx = [flows[(line_id, k)] for k in line.phases]
            for k in line.phases:
                fk = flows[(line_id, k)]
                tag = f"{line_id}:{comp}{k.value}"
                hi = {ix: -(1.0 + beta) for ix in idx}
                hi[fk] += float(n)
                m.add_constraint(hi, LESS, 0.0, f"imb+:{tag}")
                lo = {ix: -(1.0 - beta) for ix in idx}
                lo[fk] += float(n)
                m.add_constraint(lo, GREATER, 0.0, f"imb-:{tag}")

    def add_load_generation_balance(self, bus_id: str) -> None:
        """Delivered load definition, generation capacity, and per-phase nodal
        balance with from-oriented flow signs."""
        m, net = self.model, self.network
        bus = net.buses[bus_id]
        # generation capacity: a new unit's comes with its built steps, and
        # an existing unit's in full is a constant, as the substation's is
        units = [net.microgrids[g] for g in net.microgrids_at(bus_id)]
        steps = {ux: -mg.step_capacity_pu
                 for mg in units for ux in self.first_stage.steps.get(mg.id, ())}
        existing = sum(mg.step_capacity_pu * mg.max_steps for mg in units if mg.is_existing)
        for k in bus.phases:
            tag = f"{bus_id}:{k.value}"
            for comp, sd in (("re", self.vars.sd_re), ("im", self.vars.sd_im)):
                coeffs = {sd[(bus_id, k)]: 1.0}
                for lid in net.loads_at(bus_id):
                    d = net.loads[lid].demand_pu.get(k)
                    if d is None:
                        continue
                    dv = d.real if comp == "re" else d.imag
                    if dv != 0.0:
                        coeffs[self.vars.y[lid]] = coeffs.get(self.vars.y[lid], 0.0) - dv
                m.add_constraint(coeffs, EQUAL, 0.0, f"load{comp}:{tag}")
            if units:
                for comp, sg, sub_cap in (
                    ("re", self.vars.sg_re, self._sub_cap_re),
                    ("im", self.vars.sg_im, self._sub_cap_im),
                ):
                    cap = (sub_cap if bus.is_substation else 0.0) + existing
                    m.add_constraint({sg[(bus_id, k)]: 1.0, **steps}, LESS, cap,
                                     f"gencap{comp}:{tag}")
            for comp, sg, sd, flows in (
                ("re", self.vars.sg_re, self.vars.sd_re, self.vars.p),
                ("im", self.vars.sg_im, self.vars.sd_im, self.vars.q),
            ):
                coeffs = {sg[(bus_id, k)]: 1.0, sd[(bus_id, k)]: -1.0}
                for lid in net.lines_at(bus_id):
                    line = net.lines[lid]
                    if k not in line.phases:
                        continue
                    sign = -1.0 if line.from_bus == bus_id else 1.0
                    coeffs[flows[(lid, k)]] = coeffs.get(flows[(lid, k)], 0.0) + sign
                m.add_constraint(coeffs, EQUAL, 0.0, f"bal{comp}:{tag}")

    def add_resilience_constraints(self) -> None:
        """Minimum served fractions of critical and of total real power."""
        m, net, pr = self.model, self.network, self.params
        crit = {}
        total = {}
        crit_demand = 0.0
        total_demand = 0.0
        for lid in sorted(net.loads):
            load = net.loads[lid]
            d = load.total_real_pu()
            total[self.vars.y[lid]] = d
            total_demand += d
            if load.is_critical:
                crit[self.vars.y[lid]] = d
                crit_demand += d
        crit_rhs = pr.critical_fraction * crit_demand
        total_rhs = pr.total_fraction * total_demand
        self.resilience_rows = [
            m.add_constraint(crit, GREATER, crit_rhs, "crit"),
            m.add_constraint(total, GREATER, total_rhs, "total"),
        ]

    def add_voltage_constraints(self, line_id: str) -> None:
        """Linearized squared-voltage drop, big-M released when the line is
        open; M = vmax_sq - vmin_sq exactly."""
        m, line = self.model, self.network.lines[line_id]
        big_m = self.params.big_m
        e = self.vars.e[line_id]
        for k in line.phases:
            expr: dict[int, float] = {
                self.vars.v[(line.to_bus, k)]: 1.0,
                self.vars.v[(line.from_bus, k)]: -1.0,
            }
            for k2 in line.phases:
                z = rotated_impedance(line, k, k2)
                px = self.vars.p[(line_id, k2)]
                qx = self.vars.q[(line_id, k2)]
                if z.real != 0.0:
                    expr[px] = expr.get(px, 0.0) + 2.0 * z.real
                if z.imag != 0.0:
                    expr[qx] = expr.get(qx, 0.0) + 2.0 * z.imag
            tag = f"{line_id}:{k.value}"
            up = dict(expr)
            up[e] = up.get(e, 0.0) + big_m
            m.add_constraint(up, LESS, big_m, f"vdrop+:{tag}")
            lo = dict(expr)
            lo[e] = lo.get(e, 0.0) - big_m
            m.add_constraint(lo, GREATER, -big_m, f"vdrop-:{tag}")

    def add_reduced_edge_links(self, line_id: str) -> None:
        """Reduced-edge usage dominates the energization of every original
        line beneath it, so every closed line counts in the cycle cuts and
        an open damaged line in none."""
        bb = self.vars.bredge[self.reduced.edge_of_line(line_id)]
        self.model.add_constraint({self.vars.e[line_id]: 1.0, bb: -1.0}, LESS, 0.0,
                                  f"redlink:{line_id}")

    def add_master_links(self) -> None:
        """b^s <= b for candidates (new lines stay switchable); h^s = h."""
        m, fs = self.model, self.first_stage
        for lid in sorted(fs.build):
            m.add_constraint({self.vars.bs[lid]: 1.0, fs.build[lid]: -1.0}, LESS, 0.0,
                             f"linkb:{lid}")
        for lid in sorted(fs.harden):
            m.add_constraint({self.vars.hs[lid]: 1.0, fs.harden[lid]: -1.0}, EQUAL, 0.0,
                             f"linkh:{lid}")

    def add_all(self) -> None:
        for lid in sorted(self.network.lines):
            self.add_thermal_direction_constraints(lid)
            self.add_switching_damage_constraints(lid)
            self.add_imbalance_constraints(lid)
            self.add_voltage_constraints(lid)
            self.add_reduced_edge_links(lid)
        for bid in sorted(self.network.buses):
            self.add_load_generation_balance(bid)
        self.add_resilience_constraints()
        self.add_master_links()


def _check_simple_cycle(cycle, bredge) -> None:
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise ValueError("cycle must consist of at least 3 distinct reduced edges")
    degree: dict[str, int] = {}
    for e in cycle:
        if e not in bredge:
            raise ValueError(f"unknown reduced edge {e}")
        for node in e:
            degree[node] = degree.get(node, 0) + 1
    if any(d != 2 for d in degree.values()):
        raise ValueError("edge set is not a simple cycle (node degree != 2)")
    if len(components(adjacency((), cycle))) != 1:
        raise ValueError("edge set is not a single connected cycle")


def _substation_capacity(network: Network) -> tuple[float, float]:
    """Implicit per-phase substation import limit: the whole network demand."""
    cap_re = 0.0
    cap_im = 0.0
    for load in network.loads.values():
        for d in load.demand_pu.values():
            cap_re += d.real
            cap_im += max(d.imag, 0.0)
    return cap_re, cap_im


# ---------------------------------------------------------------------------
# the compiled scenario block
# ---------------------------------------------------------------------------


def _shifted(sv: ScenarioVars, shift: int) -> ScenarioVars:
    return ScenarioVars(**{
        f.name: {key: ix + shift for key, ix in getattr(sv, f.name).items()}
        for f in fields(ScenarioVars)
    })


@dataclass
class ScenarioBlock:
    """One scenario's block in a model: its variables' indexes and its
    resilience rows."""

    scenario: DamageScenario
    vars: ScenarioVars
    resilience_rows: list[int]


# a cover row needs more than this (per-unit real power) to be kept, and is
# unattainable when its supply falls short of the need by more than this:
# HiGHS's MILP feasibility tolerance, with which it judges every row
_COVER_TOL = 1e-6


@dataclass(frozen=True)
class CoverRow:
    """sum(min(a_i, need) * x_i) >= need over first-stage binaries x_i: the
    supply an island of a damage set must receive
    (``ScenarioTemplate.cover_rows``)."""

    island: tuple[str, ...]   # its buses, sorted
    supply: dict[int, float]  # first-stage column -> a_i, the most it supplies
    need: float               # b, per-unit real power

    @property
    def attainable(self) -> bool:
        """Whether every upgrade together meets the row."""
        return sum(self.supply.values()) >= self.need - _COVER_TOL


class ScenarioTemplate:
    """The first stage and one scenario block, compiled once per (network,
    params); every model is assembled from copies of it.

    The ``ScenarioFormulation`` emitters run once, on the first stage and an
    undamaged block. The template keeps the first stage's columns and rows,
    the block's columns and its rows as arrays (first-stage columns as they
    are, block columns numbered from the first stage's width), the block's
    ``ScenarioVars``, its resilience rows, and where each damageable line's
    ``sw`` row is, the only row damage patches: every block has exactly the
    template's rows. Names are kept as stems and completed only when a
    model's names are asked for. It is read-only after construction, so
    threads may share it, and the helper processes of a fan-out
    (``decomposition._fan_out``) use the copy they were forked with.
    """

    def __init__(self, network: Network, params: DesignParams) -> None:
        model = MilpModel()
        self.first_stage = _build_first_stage(model, network)
        self.n_first = model.num_variables
        first_rows = model.num_constraints
        self.network = network
        self.params = params
        self.reduced = aggregate_parallel_edges(network)
        blk = ScenarioFormulation(model, network, params, self.reduced, self.first_stage)
        blk.add_all()
        rows, var_names, row_names = model.rows(), model.var_names, model.row_names
        n = self.n_first
        self.first_columns = (model.lb[:n], model.ub[:n], model.kinds[:n],
                              tuple(var_names[:n]))
        self.first_rows = rows.slice(0, first_rows)
        self.first_row_names = tuple(row_names[:first_rows])
        self.lb, self.ub, self.kinds = model.lb[n:], model.ub[n:], model.kinds[n:]
        self.var_stems = tuple(var_names[n:])
        self.rows = rows.slice(first_rows, len(rows))
        self.row_stems = tuple(row_names[first_rows:])
        self.vars = blk.vars
        self.resilience_rows = [r - first_rows for r in blk.resilience_rows]
        self._moves = (self.rows.indices >= n).astype(np.int64)
        # per damageable line: its sw row, where that row holds the
        # availability column, the hardening copy that replaces it, and the
        # row's lower bound once damaged (e <= h if switched, else e = h)
        self._damage: dict[str, tuple[int, int, int, float]] = {}
        for lid in network.damageable_lines():
            r = blk.switch_rows[lid] - first_rows
            lo, hi = self.rows.indptr[r], self.rows.indptr[r + 1]
            entry = int(lo + np.flatnonzero(self.rows.indices[lo:hi] == self.vars.bs[lid])[0])
            bound = -math.inf if network.lines[lid].has_switch else 0.0
            self._damage[lid] = (r, entry, self.vars.hs[lid], bound)

    def add_first_stage(self, model: MilpModel) -> None:
        """The first-stage columns and rows, at the start of an empty model."""
        model.add_columns(*self.first_columns)
        model.add_rows(self.first_rows, self.first_row_names)

    def cover_rows(self, damage: frozenset[str]) -> list[CoverRow]:
        """The island cover rows of one damage set, on first-stage columns.

        Without the damaged and the candidate lines, each island (a
        component holding no substation) must still receive
        b = crit(S) - (1 - critical_fraction) * C - (existing microgrid
        capacity in S) of real power, C being the network's critical real
        demand: at most C - crit(S) is served elsewhere, and power balance is
        lossless. Only a hardened damaged line or a built candidate across
        the island's boundary, each carrying at most its summed per-phase
        octagon radius, and the steps of a new microgrid in it, each adding
        its step capacity on every phase of its bus, can supply it. So every
        design that serves the damage meets each row with b > 0. Islands in
        the order ``components`` finds them."""
        net, fs = self.network, self.first_stage
        crit: dict[str, float] = {}  # bus -> critical real demand
        total = 0.0  # C, summed as the resilience row sums it
        for lid in sorted(net.loads):
            load = net.loads[lid]
            if load.is_critical:
                crit[load.bus] = crit.get(load.bus, 0.0) + load.total_real_pu()
                total += load.total_real_pu()
        slack = (1.0 - self.params.critical_fraction) * total
        kept = [(l.from_bus, l.to_bus) for l in net.lines.values()
                if not l.is_candidate and l.id not in damage]
        rows = []
        for island in components(adjacency(net.buses, kept)):
            if any(net.buses[b].is_substation for b in island):
                continue
            buses = sorted(island)  # sums in a fixed order, whatever the set's
            need = sum(crit.get(b, 0.0) for b in buses) - slack
            supply: dict[int, float] = {}
            for bid in buses:
                n_phases = len(net.buses[bid].phases)
                for gid in net.microgrids_at(bid):
                    mg = net.microgrids[gid]
                    if mg.is_existing:
                        need -= mg.step_capacity_pu * mg.max_steps * n_phases
                    else:
                        supply.update(dict.fromkeys(fs.steps[gid],
                                                    mg.step_capacity_pu * n_phases))
                for lid in net.lines_at(bid):
                    line = net.lines[lid]
                    # a line across the boundary is a candidate or damaged
                    col = fs.build[lid] if line.is_candidate else fs.harden.get(lid)
                    if col is not None and (line.from_bus in island) != (line.to_bus in island):
                        supply[col] = sum(octagon_points(line.capacity_pu[k]).radius
                                          for k in line.phases)
            if need > _COVER_TOL:
                rows.append(CoverRow(tuple(buses), supply, need))
        return rows

    def _check_damage(self, scenario: DamageScenario) -> None:
        lines = self.network.lines
        unknown = sorted(scenario.damaged_line_ids - set(lines))
        if unknown:
            raise ValueError(f"scenario {scenario.id} damages unknown lines: {unknown}")
        bad = sorted(lid for lid in scenario.damaged_line_ids if lid not in self._damage)
        if bad:
            raise ValueError(
                f"scenario {scenario.id} damages candidate/non-damageable lines: {bad}"
            )

    def stack(self, model: MilpModel, scenario: DamageScenario) -> ScenarioBlock:
        """Append one scenario's block after everything in ``model``: a copy
        of the compiled block with its columns moved to the model's width and
        the damage patched in. Each damaged line's ``sw`` row becomes ``dmg``,
        the hardening copy taking the place of availability, and loses its
        lower bound on a switched line; no row is added or moved."""
        self._check_damage(scenario)
        damaged = scenario.damaged_line_ids
        shift = model.num_variables - self.n_first
        sfx = f":s{scenario.id}"
        first_row = model.num_constraints
        model.add_columns(self.lb, self.ub, self.kinds,
                          lambda: [stem + sfx for stem in self.var_stems])
        rows = self.rows
        indices = rows.indices + shift * self._moves
        lo = rows.lo
        if damaged:
            at, entries, cols, bounds = zip(*(self._damage[lid] for lid in damaged))
            indices[list(entries)] = np.add(cols, shift)
            lo = lo.copy()
            lo[list(at)] = bounds

        def row_names() -> list[str]:
            names = [stem + sfx for stem in self.row_stems]
            for lid in damaged:
                names[self._damage[lid][0]] = f"dmg:{lid}{sfx}"
            return names

        model.add_rows(RowBlock(rows.indptr, indices, rows.data, lo, rows.hi), row_names)
        # the first block of a model sits where the template's does, and
        # shares its (read-only) index maps
        return ScenarioBlock(
            scenario, self.vars if shift == 0 else _shifted(self.vars, shift),
            [first_row + r for r in self.resilience_rows],
        )


# ---------------------------------------------------------------------------
# master problem
# ---------------------------------------------------------------------------


@dataclass
class MasterProblem:
    """A model over the first stage and one block per scenario, with one
    pool of radiality cuts. Every block operates radially on the same
    reduced graph, so a cycle cut in one block is valid in all: each cycle
    in ``cycles`` is cut in every block, blocks added later included."""

    model: MilpModel
    template: ScenarioTemplate
    blocks: dict[int, ScenarioBlock]
    # the pool, each cycle as its sorted edges, in the order it was cut
    cycles: list[tuple[tuple[str, str], ...]] = field(default_factory=list)
    solves: int = 0  # solves of the model, cut rounds included

    def add_scenario(self, scenario: DamageScenario) -> None:
        """Append one scenario's block after every row already in the model,
        followed by a cut of every pooled cycle in it, in pool order."""
        if scenario.id in self.blocks:
            raise ValueError(f"duplicate scenario id {scenario.id}")
        self.blocks[scenario.id] = self.template.stack(self.model, scenario)
        for cycle in self.cycles:
            self.add_cycle_cut(cycle, scenario.id)

    def pool_cycles(self, cycles) -> int:
        """Add to the pool the cycles not yet in it, in the order given, and
        cut them in every block: block by block in id order, each block
        taking them in that order. Returns how many were new."""
        pooled = set(self.cycles)
        new = []
        for cycle in cycles:
            cycle = tuple(sorted(tuple(sorted(e)) for e in cycle))
            if cycle not in pooled:
                pooled.add(cycle)
                new.append(cycle)
        for sid in sorted(self.blocks):
            for cycle in new:
                self.add_cycle_cut(cycle, sid)
        self.cycles.extend(new)
        return len(new)

    def add_cycle_cut(self, cycle_edges, scenario_id: int) -> int:
        """One row in one block: at least one reduced edge of the cycle must
        stay unused. ``pool_cycles`` cuts a cycle in every block."""
        blk = self.blocks[scenario_id]
        cycle = [tuple(sorted(e)) for e in cycle_edges]
        _check_simple_cycle(cycle, blk.vars.bredge)
        return self.model.add_constraint(
            {blk.vars.bredge[e]: 1.0 for e in cycle}, LESS, float(len(cycle) - 1),
            f"cycle:{'|'.join('>'.join(e) for e in sorted(cycle))}:s{scenario_id}",
        )

    def add_cover_rows(self, rows: list[CoverRow]) -> int:
        """Append island cover rows (``ScenarioTemplate.cover_rows``) after
        every row in the model, one per support set: of the rows on the same
        binaries, the one with the largest need, which implies the others on
        binary points. They use first-stage columns only, so they hold
        whatever blocks the master gains and under any objective. Returns how
        many were added."""
        kept: dict[frozenset[int], CoverRow] = {}
        for row in rows:
            key = frozenset(row.supply)
            if key not in kept or row.need > kept[key].need:
                kept[key] = row  # an existing key keeps its place
        for i, row in enumerate(kept.values()):
            self.model.add_constraint(
                {ix: min(a, row.need) for ix, a in sorted(row.supply.items())},
                GREATER, row.need, f"cover:{i}")
        return len(kept)

    def maximize_served(self) -> None:
        """Best-effort served-load maximization over the same rows and cuts:
        every block's resilience targets drop to zero."""
        for blk in self.blocks.values():
            for row in blk.resilience_rows:
                self.model.set_rhs(row, 0.0)
        self.model.set_objective(_served_objective(self.template.network, self.blocks))

    def minimize_microgrid_kw(self, cost_budget: float) -> None:
        """Least installed microgrid kW among designs that cost at most
        ``cost_budget`` k$, over the same rows and cuts plus a budget row.
        The row and the objective are first-stage only, so blocks added
        later leave them valid. An epsilon cost term (far below the 100 kW
        step granularity) keeps every upgrade binary objective-bearing so
        the search stays guided, without ever changing the kW ranking."""
        net, fs = self.template.network, self.template.first_stage
        cost = _cost_coefficients(net, self.template.params, fs)
        self.model.add_constraint(cost, LESS, cost_budget, "cost_budget")
        obj = {ix: 1e-4 * coef for ix, coef in cost.items()}
        for gid, ixs in fs.steps.items():
            mg = net.microgrids[gid]
            w = mg.step_capacity_kva * len(net.buses[mg.bus].phases)
            for ix in ixs:
                obj[ix] = obj.get(ix, 0.0) + w
        self.model.set_objective(obj)

    def design_from_solution(self, solution: Solution) -> Design:
        vals, fs = solution.values, self.template.first_stage
        built = [lid for lid, ix in fs.build.items() if vals[ix] > 0.5]
        hardened = [lid for lid, ix in fs.harden.items() if vals[ix] > 0.5]
        steps = {gid: int(sum(vals[ix] > 0.5 for ix in ixs)) for gid, ixs in fs.steps.items()}
        return make_design(self.template.network, self.template.params, built, hardened, steps)

    def operation_state(self, solution: Solution, scenario_id: int):
        from gridfort.validate import OperationState

        vals = solution.values
        blk = self.blocks[scenario_id]
        closed = frozenset(lid for lid, ix in blk.vars.e.items() if vals[ix] > 0.5)
        flows = {
            (lid, k): complex(vals[blk.vars.p[(lid, k)]], vals[blk.vars.q[(lid, k)]])
            for (lid, k) in blk.vars.p
        }
        voltages = {key: float(vals[ix]) for key, ix in blk.vars.v.items()}
        dispatch = {
            key: complex(vals[blk.vars.sg_re[key]], vals[blk.vars.sg_im[key]])
            for key in blk.vars.sg_re
        }
        served = frozenset(lid for lid, ix in blk.vars.y.items() if vals[ix] > 0.5)
        return OperationState(
            scenario_id=scenario_id,
            damaged_lines=frozenset(blk.scenario.damaged_line_ids),
            closed_lines=closed,
            flows=flows,
            voltages=voltages,
            served_loads=served,
            dispatch=dispatch,
        )


def _apply_fixed_design(model: MilpModel, fs: FirstStage, design: Design) -> None:
    steps = dict(design.microgrid_steps)
    for lid, ix in fs.build.items():
        model.fix_variable(ix, float(lid in design.built_lines))
    for lid, ix in fs.harden.items():
        model.fix_variable(ix, float(lid in design.hardened_lines))
    for gid, ixs in fs.steps.items():
        for m_, ix in enumerate(ixs):
            model.fix_variable(ix, float(m_ < steps.get(gid, 0)))


def _cost_coefficients(network: Network, params: DesignParams, fs: FirstStage):
    """First-stage objective coefficients in k$."""
    coeffs: dict[int, float] = {}
    for lid, ix in fs.build.items():
        coeffs[ix] = params.line_build_cost(network.lines[lid]) / 1000.0
    for lid, ix in fs.harden.items():
        coeffs[ix] = params.line_harden_cost(network.lines[lid]) / 1000.0
    for gid, ixs in fs.steps.items():
        mg = network.microgrids[gid]
        step_cost = params.mg_step_cost(mg, len(network.buses[mg.bus].phases)) / 1000.0
        for m_, ix in enumerate(ixs):
            c = step_cost + params.mg_fixed_cost(mg) / 1000.0 if m_ == 0 else step_cost
            if c != 0.0:
                coeffs[ix] = c
    return coeffs


def build_master(template: ScenarioTemplate, scenarios: list[DamageScenario], *,
                 fixed_design: Design | None = None) -> MasterProblem:
    """Assemble the two-stage design MILP of ``template``'s network and
    params over the given scenario set, one ``MasterProblem.add_scenario``
    block each.

    The objective is the upgrade cost in k$, first-stage only, so blocks
    added later leave it valid. ``MasterProblem.minimize_microgrid_kw`` and
    ``maximize_served`` swap it for another over the same rows.
    """
    if not scenarios:
        raise ValueError("at least one scenario (the baseline) is required")
    network, fs = template.network, template.first_stage
    model = MilpModel(name="upgrade")
    template.add_first_stage(model)
    if fixed_design is not None:
        _apply_fixed_design(model, fs, fixed_design)
    master = MasterProblem(model, template, {})
    for scen in scenarios:
        master.add_scenario(scen)
    model.set_objective(_cost_coefficients(network, template.params, fs))
    return master


def _served_objective(network: Network, blocks) -> dict[int, float]:
    """Maximize served power: critical fraction dominates, total breaks ties."""
    crit_total = sum(
        l.total_real_pu() for l in network.loads.values() if l.is_critical
    )
    total = sum(l.total_real_pu() for l in network.loads.values())
    obj: dict[int, float] = {}
    for blk in blocks.values():
        for lid, yix in blk.vars.y.items():
            load = network.loads[lid]
            d = load.total_real_pu()
            w = d / total if total > 0 else 0.0
            if load.is_critical and crit_total > 0:
                w += 1000.0 * d / crit_total
            if w != 0.0:
                obj[yix] = obj.get(yix, 0.0) - w
    return obj


def master_dimensions(network: Network, scenarios: list[DamageScenario],
                      params: DesignParams) -> dict[str, int]:
    """Exact variable/constraint counts of build_master, before any cycle
    cut or budget row."""
    net = network
    reduced = aggregate_parallel_edges(net)
    n_cand = sum(1 for l in net.lines.values() if l.is_candidate)
    n_hard = len(net.hardenable_lines())
    new_mgs = [g for g in net.microgrids.values() if not g.is_existing]
    n_steps = sum(g.max_steps for g in new_mgs)
    line_phases = sum(len(l.phases) for l in net.lines.values())
    multi_line_phases = sum(
        len(l.phases) for l in net.lines.values() if len(l.phases) >= 2
    )
    bus_phases = sum(len(b.phases) for b in net.buses.values())
    mg_bus_phases = sum(
        len(net.buses[b].phases)
        for b in {g.bus for g in net.microgrids.values()}
    )
    nl, ne, nload = len(net.buses), len(net.lines), len(net.loads)

    fs_vars = n_cand + n_hard + n_steps
    fs_rows = sum(g.max_steps - 1 for g in new_mgs)
    scen_vars = 5 * ne + len(reduced.edges) + 2 * line_phases + 5 * bus_phases + nload
    s = len(scenarios)
    scen_rows = s * (
        8 * line_phases          # octagon
        + ne                     # direction
        + ne                     # switching/damage
        + 4 * multi_line_phases  # imbalance
        + 2 * line_phases        # voltage
        + ne                     # reduced-edge links
        + 4 * bus_phases         # load definition + balance (re+im)
        + 2 * mg_bus_phases      # generation caps
        + 2                      # resilience
        + n_cand + n_hard        # master links
    )
    return {
        "variables": fs_vars + s * scen_vars,
        "constraints": fs_rows + scen_rows,
        "binaries": fs_vars + s * (5 * ne + nload),
        "first_stage_variables": fs_vars,
        "nodes": nl,
    }
