"""Feeder data model: buses, multi-phase lines, loads, microgrid candidates.

The network document is a JSON file with top-level sections ``bases``,
``buses``, ``lines``, ``loads``, ``microgrids`` (see docs/network_format.md
for the full schema and a validating example). Powers are stored both in
the document's physical units and, after loading, in per-unit on the
network-wide (base_kva, base_kv) bases, and line impedances in per-unit only;
the rest of the engine works exclusively in per-unit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Phase",
    "PHASES",
    "Bus",
    "Line",
    "LineStatus",
    "Load",
    "MicrogridCandidate",
    "Network",
    "NetworkError",
    "ReducedGraph",
    "UnitSystem",
    "adjacency",
    "aggregate_parallel_edges",
    "components",
    "cycle_basis",
    "load_network",
    "load_network_file",
]


class NetworkError(ValueError):
    """Raised when a network document violates the schema or an invariant."""


class Phase(enum.Enum):
    A = "a"
    B = "b"
    C = "c"

    def __lt__(self, other: "Phase") -> bool:
        return PHASES.index(self) < PHASES.index(other)


PHASES: tuple[Phase, ...] = (Phase.A, Phase.B, Phase.C)


def parse_phases(text: str, *, owner: str) -> tuple[Phase, ...]:
    """Parse a phase string like ``"abc"`` or ``"b"`` into an ordered tuple."""
    seen: list[Phase] = []
    for ch in text.lower():
        try:
            ph = Phase(ch)
        except ValueError:
            raise NetworkError(f"{owner}: unknown phase {ch!r} (expected a/b/c)") from None
        if ph in seen:
            raise NetworkError(f"{owner}: duplicate phase {ch!r}")
        seen.append(ph)
    if not seen:
        raise NetworkError(f"{owner}: empty phase set")
    return tuple(sorted(seen))


def phases_text(phases: tuple[Phase, ...]) -> str:
    return "".join(p.value for p in sorted(phases))


class LineStatus(enum.Enum):
    EXISTING = "existing"
    CANDIDATE = "candidate_new"


@dataclass(frozen=True)
class UnitSystem:
    """Per-unit conversion on a (base_kva, base_kv) pair.

    base_kv is the per-phase voltage base in kV; the impedance base is
    1000 * base_kv**2 / base_kva ohms.
    """

    base_kva: float
    base_kv: float

    def __post_init__(self) -> None:
        if not (self.base_kva > 0 and self.base_kv > 0):
            raise NetworkError("per-unit bases must be positive")

    def to_pu(self, value, kind: str):
        if kind == "power":
            return value / self.base_kva
        if kind == "impedance":
            return value * self.base_kva / (1000.0 * self.base_kv**2)
        raise ValueError(f"unknown per-unit kind {kind!r}")


@dataclass(frozen=True)
class Bus:
    id: str
    phases: tuple[Phase, ...]
    coords: tuple[float, float] | None = None
    is_substation: bool = False
    v_ref: float | None = None  # squared per-unit magnitude, substations only


@dataclass(frozen=True)
class Line:
    """A line or transformer between two buses.

    ``z_pu`` is the total series impedance (scaled by length, converted to
    per-unit) of the declared phase pairs only; missing pairs are absent,
    never zero. ``capacity_pu`` is the per-phase apparent-power limit.
    """

    id: str
    from_bus: str
    to_bus: str
    phases: tuple[Phase, ...]
    length_km: float
    capacity_kva: dict[Phase, float]
    status: LineStatus = LineStatus.EXISTING
    is_transformer: bool = False
    has_switch: bool = False
    damageable: bool = True
    hardenable: bool = False
    construction_cost: float = 0.0
    harden_cost: float = 0.0
    z_pu: dict[tuple[Phase, Phase], complex] = field(default_factory=dict)
    capacity_pu: dict[Phase, float] = field(default_factory=dict, compare=False)

    @property
    def is_candidate(self) -> bool:
        return self.status is LineStatus.CANDIDATE


@dataclass(frozen=True)
class Load:
    id: str
    bus: str
    demand_kva: dict[Phase, complex]
    is_critical: bool = False
    demand_pu: dict[Phase, complex] = field(default_factory=dict, compare=False)

    def total_real_pu(self) -> float:
        return sum(d.real for d in self.demand_pu.values())


@dataclass(frozen=True)
class MicrogridCandidate:
    """A sited microgrid with incremental sizing steps.

    Capacity is per phase per step; total per-phase capacity is
    step_capacity * (number of committed steps). An existing unit is no
    decision: it carries no cost, and its full capacity always serves.
    """

    id: str
    bus: str
    step_capacity_kva: float
    max_steps: int
    fixed_cost: float = 0.0
    variable_cost_rate: float = 0.0  # dollars per kVA of per-phase capacity
    is_existing: bool = False
    step_capacity_pu: float = field(default=0.0, compare=False)


@dataclass
class Network:
    """Immutable-by-convention feeder model; safe to share across threads."""

    buses: dict[str, Bus]
    lines: dict[str, Line]
    loads: dict[str, Load]
    microgrids: dict[str, MicrogridCandidate]

    def __post_init__(self) -> None:
        self._loads_at: dict[str, tuple[str, ...]] = {}
        self._grids_at: dict[str, tuple[str, ...]] = {}
        self._lines_at: dict[str, tuple[str, ...]] = {}
        for load in self.loads.values():
            self._loads_at.setdefault(load.bus, ())
            self._loads_at[load.bus] += (load.id,)
        for mg in self.microgrids.values():
            self._grids_at.setdefault(mg.bus, ())
            self._grids_at[mg.bus] += (mg.id,)
        for line in self.lines.values():
            for b in (line.from_bus, line.to_bus):
                self._lines_at.setdefault(b, ())
                self._lines_at[b] += (line.id,)

    def loads_at(self, bus_id: str) -> tuple[str, ...]:
        return self._loads_at.get(bus_id, ())

    def microgrids_at(self, bus_id: str) -> tuple[str, ...]:
        return self._grids_at.get(bus_id, ())

    def lines_at(self, bus_id: str) -> tuple[str, ...]:
        return self._lines_at.get(bus_id, ())

    @property
    def substations(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses.values() if b.is_substation)

    def damageable_lines(self) -> tuple[str, ...]:
        return tuple(
            l.id for l in self.lines.values() if l.damageable and not l.is_candidate
        )

    def hardenable_lines(self) -> tuple[str, ...]:
        """The existing lines a design may harden: damageable and hardenable."""
        return tuple(
            l.id for l in self.lines.values()
            if l.hardenable and l.damageable and not l.is_candidate
        )

    def microgrid_capacity_pu(self, bus_id: str) -> float:
        """Full-build capacity of the microgrids at a bus, per phase."""
        return sum(
            self.microgrids[g].step_capacity_pu * self.microgrids[g].max_steps
            for g in self.microgrids_at(bus_id)
        )


@dataclass(frozen=True)
class ReducedGraph:
    """Simple graph obtained by collapsing parallel lines between bus pairs."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], tuple[str, ...]]  # sorted (u, v) -> line ids

    def edge_of_line(self, line_id: str) -> tuple[str, str]:
        return self._line_to_edge[line_id]

    def __post_init__(self) -> None:
        mapping = {}
        for key, line_ids in self.edges.items():
            for lid in line_ids:
                mapping[lid] = key
        object.__setattr__(self, "_line_to_edge", mapping)


def aggregate_parallel_edges(network: Network) -> ReducedGraph:
    """Collapse every set of parallel lines between a bus pair into one edge."""
    edges: dict[tuple[str, str], tuple[str, ...]] = {}
    for line in network.lines.values():
        key = tuple(sorted((line.from_bus, line.to_bus)))
        edges.setdefault(key, ())
        edges[key] += (line.id,)
    return ReducedGraph(nodes=tuple(network.buses), edges=edges)


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------


def adjacency(nodes, edges) -> dict[str, dict[str, None]]:
    """Neighbours of each node of a loop-free undirected graph, in insertion
    order: ``nodes`` first, then endpoints of ``edges`` not among them.
    Repeated edges collapse."""
    adj: dict[str, dict[str, None]] = {n: {} for n in nodes}
    for u, v in edges:
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None
    return adj


def components(adj: dict[str, dict[str, None]]) -> list[set[str]]:
    """Connected components, in the order of their first node in ``adj``."""
    seen: set[str] = set()
    found = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            for nb in adj[frontier.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        seen |= comp
        found.append(comp)
    return found


def cycle_basis(adj: dict[str, dict[str, None]]) -> list[list[tuple[str, str]]]:
    """Fundamental cycles (Paton, CACM algorithm 491), each a list of sorted
    edge tuples in cycle order; empty iff the graph is a forest. Roots are
    popped from the end of the node order, so the cycles and their order,
    and with them every cut row, follow the order ``adjacency`` was given."""
    unrooted = dict.fromkeys(adj)
    cycles = []
    while unrooted:
        root = unrooted.popitem()[0]
        stack = [root]
        pred = {root: root}
        used: dict[str, set[str]] = {root: set()}
        while stack:
            z = stack.pop()
            for nb in adj[z]:
                if nb not in used:
                    pred[nb] = z
                    stack.append(nb)
                    used[nb] = {z}
                elif nb not in used[z]:
                    cycle = [nb, z]
                    p = pred[z]
                    while p not in used[nb]:
                        cycle.append(p)
                        p = pred[p]
                    cycle.append(p)
                    cycles.append([tuple(sorted(e))
                                   for e in zip(cycle, cycle[1:] + cycle[:1])])
                    used[nb].add(z)
        for node in pred:
            unrooted.pop(node, None)
    return cycles


# ---------------------------------------------------------------------------
# document reading
# ---------------------------------------------------------------------------

_PAIR_ORDER: tuple[tuple[Phase, Phase], ...] = tuple(
    (p1, p2) for p1 in PHASES for p2 in PHASES
)


def _is_number(value) -> bool:
    """A JSON number a float holds: not NaN or Infinity (``json`` reads them) or a huge int."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _complex_from_doc(obj, owner: str, key: str) -> complex:
    if (not isinstance(obj, dict) or set(obj) != {"re", "im"}
            or not all(map(_is_number, obj.values()))):
        raise NetworkError(f"{owner}: field {key!r} needs {{re, im}} objects of finite numbers")
    return complex(float(obj["re"]), float(obj["im"]))


def _phase_of(name: str, owner: str, key: str) -> Phase:
    """The phase ``name``, a key of ``owner``'s per-phase map ``key``."""
    try:
        return Phase(name)
    except ValueError:
        raise NetworkError(f"{owner}: field {key!r} names unknown phase {name!r} "
                           f"(expected a/b/c)") from None


def _impedance_from_doc(entries, phases: tuple[Phase, ...], owner: str):
    """Read a 9-entry row-major impedance matrix; nulls mark absent pairs."""
    if not isinstance(entries, list) or len(entries) != 9:
        raise NetworkError(f"{owner}: impedance must be a 9-entry row-major list")
    z: dict[tuple[Phase, Phase], complex] = {}
    declared = set(phases)
    for (p1, p2), cell in zip(_PAIR_ORDER, entries):
        present = p1 in declared and p2 in declared
        if cell is None:
            if present:
                raise NetworkError(
                    f"{owner}: impedance entry missing for declared phase pair "
                    f"{p1.value}{p2.value}"
                )
            continue
        if not present:
            raise NetworkError(
                f"{owner}: impedance entry given for undeclared phase pair "
                f"{p1.value}{p2.value}"
            )
        z[(p1, p2)] = _complex_from_doc(cell, owner, "impedance")
    return z


def _line_length_km(raw: dict, buses: dict[str, Bus], owner: str) -> float:
    """Explicit length wins; otherwise derive from bus coordinates (meters)."""
    if raw.get("length_km") is not None:
        return float(raw["length_km"])
    fb, tb = buses.get(raw["from"]), buses.get(raw["to"])
    if fb is None or tb is None or fb.coords is None or tb.coords is None:
        raise NetworkError(f"{owner}: no length_km and endpoint coordinates missing")
    dx = fb.coords[0] - tb.coords[0]
    dy = fb.coords[1] - tb.coords[1]
    return math.hypot(dx, dy) / 1000.0


# the JSON value each typed field takes wherever it appears, as a description
# and a check (docs/network_format.md)
_KINDS = {
    **dict.fromkeys(("id", "from", "to", "bus", "phases"),
                    ("a string", lambda v: isinstance(v, str))),
    **dict.fromkeys(
        ("base_kva", "base_kv", "construction_cost", "harden_cost", "step_capacity_kva",
         "fixed_cost", "variable_cost_rate"), ("a finite number", _is_number)),
    **dict.fromkeys(("v_ref", "length_km"),
                    ("a finite number or null", lambda v: v is None or _is_number(v))),
    "max_steps": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "coords": ("an [x, y] pair of finite numbers or null", lambda v: v is None or (
        isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)))),
    "capacity_kva": ("a finite number or a map of them", lambda v: _is_number(v) or (
        isinstance(v, dict) and all(map(_is_number, v.values())))),
    "demand_kva": ("a map", lambda v: isinstance(v, dict)),
    "status": (" or ".join(repr(s.value) for s in LineStatus),
               lambda v: any(v == s.value for s in LineStatus)),
    **dict.fromkeys(
        ("is_substation", "is_transformer", "has_switch", "damageable", "hardenable",
         "is_critical", "is_existing"), ("true or false", lambda v: isinstance(v, bool))),
}

_FIELDS = {  # the fields each entry of a section needs, and the others it
    # may hold (docs/network_format.md); "bases" is one entry
    "bases": (("base_kva", "base_kv"), ()),
    "buses": (("id", "phases"), ("coords", "is_substation", "v_ref")),
    "lines": (("id", "from", "to", "phases", "impedance", "capacity_kva"),
              ("length_km", "status", "is_transformer", "has_switch", "damageable",
               "hardenable", "construction_cost", "harden_cost")),
    "loads": (("id", "bus", "demand_kva"), ("is_critical",)),
    "microgrids": (("id", "bus", "step_capacity_kva", "max_steps"),
                   ("fixed_cost", "variable_cost_rate", "is_existing")),
}


def read_json(path: str | Path, what: str):
    """The JSON document in the file at ``path``; a ValueError naming
    ``what`` and the path when the file is not valid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # also bytes that are not UTF-8, or an int past the digit limit
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None


def load_network(text: str) -> Network:
    """Parse and validate a network document, returning a per-unit Network."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise NetworkError(f"document is not valid JSON: {exc}") from exc
    return _network(doc)


def _network(doc) -> Network:
    """Validate a parsed network document, returning a per-unit Network."""
    if not isinstance(doc, dict):
        raise NetworkError("network document must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise NetworkError(f"document has unknown section(s) {unknown}")
    for section, (required, optional) in _FIELDS.items():
        if section not in doc:
            raise NetworkError(f"document missing section {section!r}")
        entries = [doc[section]] if section == "bases" else doc[section]
        if not isinstance(entries, list) or not all(isinstance(r, dict) for r in entries):
            raise NetworkError(f"section {section!r} must hold JSON objects")
        for i, raw in enumerate(entries):
            missing = [k for k in required if k not in raw]
            if missing:
                raise NetworkError(f"{section} entry {i}: missing field(s) {missing}")
            unknown = sorted(set(raw) - set(required) - set(optional))
            if unknown:
                raise NetworkError(f"{section} entry {i}: unknown field(s) {unknown}")
            for key, value in raw.items():
                kind, ok = _KINDS.get(key, (None, None))
                if ok is not None and not ok(value):
                    raise NetworkError(
                        f"{section} entry {i}: field {key!r} must be {kind}, got {value!r}")

    bases = doc["bases"]
    units = UnitSystem(base_kva=float(bases["base_kva"]), base_kv=float(bases["base_kv"]))

    buses: dict[str, Bus] = {}
    for raw in doc["buses"]:
        bid = raw["id"]
        if bid in buses:
            raise NetworkError(f"duplicate bus id {bid!r}")
        is_sub = bool(raw.get("is_substation", False))
        v_ref = raw.get("v_ref")
        if is_sub:
            v_ref = 1.0 if v_ref is None else float(v_ref)
        elif v_ref is not None:
            raise NetworkError(f"bus {bid!r}: v_ref only allowed on substations")
        coords = raw.get("coords")
        buses[bid] = Bus(
            id=bid,
            phases=parse_phases(raw["phases"], owner=f"bus {bid!r}"),
            coords=tuple(float(c) for c in coords) if coords is not None else None,
            is_substation=is_sub,
            v_ref=v_ref,
        )

    lines: dict[str, Line] = {}
    for raw in doc["lines"]:
        lid = raw["id"]
        owner = f"line {lid!r}"
        if lid in lines:
            raise NetworkError(f"duplicate line id {lid!r}")
        for end in ("from", "to"):
            if raw[end] not in buses:
                raise NetworkError(f"{owner}: unknown bus {raw[end]!r}")
        phases = parse_phases(raw["phases"], owner=owner)
        status = LineStatus(raw.get("status", "existing"))
        length = _line_length_km(raw, buses, owner)
        z_per_km = _impedance_from_doc(raw["impedance"], phases, owner)

        cap_raw = raw["capacity_kva"]
        if isinstance(cap_raw, dict):
            cap = {_phase_of(k, owner, "capacity_kva"): float(v) for k, v in cap_raw.items()}
            if set(cap) != set(phases):
                raise NetworkError(f"{owner}: capacity phases do not match declared phases")
        else:
            cap = {p: float(cap_raw) for p in phases}

        is_candidate = status is LineStatus.CANDIDATE
        damageable = bool(raw.get("damageable", not is_candidate))
        line = Line(
            id=lid,
            from_bus=raw["from"],
            to_bus=raw["to"],
            phases=phases,
            length_km=length,
            capacity_kva=cap,
            status=status,
            is_transformer=bool(raw.get("is_transformer", False)),
            has_switch=bool(raw.get("has_switch", is_candidate)),
            damageable=damageable,
            hardenable=bool(raw.get("hardenable", False)),
            construction_cost=float(raw.get("construction_cost", 0.0)),
            harden_cost=float(raw.get("harden_cost", 0.0)),
            z_pu={
                pair: units.to_pu(z * length, "impedance") for pair, z in z_per_km.items()
            },
            capacity_pu={p: units.to_pu(c, "power") for p, c in cap.items()},
        )
        lines[lid] = line

    loads: dict[str, Load] = {}
    for raw in doc["loads"]:
        lid = raw["id"]
        owner = f"load {lid!r}"
        if lid in loads:
            raise NetworkError(f"duplicate load id {lid!r}")
        if raw["bus"] not in buses:
            raise NetworkError(f"{owner}: unknown bus {raw['bus']!r}")
        demand = {_phase_of(k, owner, "demand_kva"): _complex_from_doc(v, owner, "demand_kva")
                  for k, v in raw["demand_kva"].items()}
        loads[lid] = Load(
            id=lid,
            bus=raw["bus"],
            demand_kva=demand,
            is_critical=bool(raw.get("is_critical", False)),
            demand_pu={p: units.to_pu(d, "power") for p, d in demand.items()},
        )

    grids: dict[str, MicrogridCandidate] = {}
    for raw in doc["microgrids"]:
        gid = raw["id"]
        owner = f"microgrid {gid!r}"
        if gid in grids:
            raise NetworkError(f"duplicate microgrid id {gid!r}")
        if raw["bus"] not in buses:
            raise NetworkError(f"{owner}: unknown bus {raw['bus']!r}")
        grids[gid] = MicrogridCandidate(
            id=gid,
            bus=raw["bus"],
            step_capacity_kva=float(raw["step_capacity_kva"]),
            max_steps=int(raw["max_steps"]),
            fixed_cost=float(raw.get("fixed_cost", 0.0)),
            variable_cost_rate=float(raw.get("variable_cost_rate", 0.0)),
            is_existing=bool(raw.get("is_existing", False)),
            step_capacity_pu=units.to_pu(float(raw["step_capacity_kva"]), "power"),
        )

    net = Network(buses=buses, lines=lines, loads=loads, microgrids=grids)
    _validate(net)
    return net


def load_network_file(path: str | Path) -> Network:
    return _network(read_json(path, "network file"))


def _validate(net: Network) -> None:
    for line in net.lines.values():
        owner = f"line {line.id!r}"
        if line.from_bus == line.to_bus:
            raise NetworkError(f"{owner}: connects bus {line.from_bus!r} to itself")
        for end in (line.from_bus, line.to_bus):
            bus = net.buses[end]
            if not set(line.phases) <= set(bus.phases):
                raise NetworkError(
                    f"{owner}: phases {phases_text(line.phases)} not a subset of "
                    f"bus {end!r} phases {phases_text(bus.phases)}"
                )
        for p, cap in line.capacity_kva.items():
            if cap <= 0:
                raise NetworkError(f"{owner}: nonpositive capacity on phase {p.value}")
        if line.length_km < 0:
            raise NetworkError(f"{owner}: negative length")
        if line.is_candidate:
            if not line.has_switch:
                raise NetworkError(f"{owner}: candidate lines must carry a switch")
            if line.damageable:
                raise NetworkError(f"{owner}: candidate lines are not damageable")
            if line.construction_cost < 0:
                raise NetworkError(f"{owner}: construction_cost must be nonnegative, "
                                   f"got {line.construction_cost}")
        elif line.construction_cost != 0.0:
            raise NetworkError(f"{owner}: existing lines have zero construction cost")
        if line.hardenable and line.harden_cost < 0:
            raise NetworkError(f"{owner}: negative harden cost")

    for load in net.loads.values():
        bus = net.buses[load.bus]
        if not set(load.demand_kva) <= set(bus.phases):
            raise NetworkError(
                f"load {load.id!r}: demand phases outside bus {load.bus!r} phases"
            )
        for p, d in load.demand_kva.items():
            if d.real < 0:
                raise NetworkError(
                    f"load {load.id!r}: negative real demand on phase {p.value}"
                )

    for mg in net.microgrids.values():
        if mg.step_capacity_kva <= 0:
            raise NetworkError(f"microgrid {mg.id!r}: step capacity must be positive")
        if mg.max_steps < 1:
            raise NetworkError(f"microgrid {mg.id!r}: max_steps must be >= 1")
        for key in ("fixed_cost", "variable_cost_rate"):
            if getattr(mg, key) < 0:
                raise NetworkError(f"microgrid {mg.id!r}: {key} must be nonnegative, "
                                   f"got {getattr(mg, key)}")
        if mg.is_existing and (mg.fixed_cost != 0.0 or mg.variable_cost_rate != 0.0):
            raise NetworkError(f"microgrid {mg.id!r}: existing units carry no cost")

    if not net.substations:
        raise NetworkError("network has no substation bus")
    for bid in net.substations:
        v_ref = net.buses[bid].v_ref
        if not v_ref > 0:
            raise NetworkError(f"bus {bid!r}: v_ref must be positive, got {v_ref}")

    # every bus must be reachable from a substation over existing lines in the
    # undamaged state; multi-feeder studies may have one component per feeder
    existing = [(l.from_bus, l.to_bus) for l in net.lines.values() if not l.is_candidate]
    for component in components(adjacency(net.buses, existing)):
        if not any(net.buses[b].is_substation for b in component):
            raise NetworkError(
                "existing lines leave buses unreachable from any substation; "
                f"isolated component: {sorted(component)}"
            )

    # lines without a switch are closed whenever they are intact, so a loop
    # of them (parallel lines collapsed) leaves no undamaged state radial
    fixed = [(l.from_bus, l.to_bus) for l in net.lines.values() if not l.has_switch]
    loops = cycle_basis(adjacency((), fixed))
    if loops:
        buses = sorted({b for edge in loops[0] for b in edge})
        raise NetworkError(f"existing lines without a switch close a loop over buses {buses}")
