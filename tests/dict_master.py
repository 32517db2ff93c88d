"""The row-by-row model builder that compiled scenario blocks replaced, kept
as the oracle they are tested against.

``DictModel`` holds every row as a coefficient dict with its name, and
``compile_dict`` turns it into the arrays HiGHS receives, as the builder did;
``DictModel.rows`` hands them on as one ``RowBlock``, so ``write_model``
writes a ``DictModel`` as it does a ``MilpModel``.
``DictMaster`` assembles the design MILP scenario by scenario through the
``ScenarioFormulation`` emitters, with each scenario's damage emitted in
place: a damaged line's ``dmg`` row instead of its ``sw`` row, ``e <= h``
on a switched line and ``e = h`` on a switchless one, and no other row.
The emitters write stem names; ``DictModel`` appends the block's ``:s{S}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from gridfort.formulation import (
    ScenarioFormulation,
    _apply_fixed_design,
    _build_first_stage,
    _check_simple_cycle,
    _cost_coefficients,
    _served_objective,
)
from gridfort.fragility import DamageScenario
from gridfort.milp import BINARY, CONTINUOUS, EQUAL, GREATER, LESS, RowBlock
from gridfort.model import aggregate_parallel_edges


@dataclass
class DictConstraint:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str


class DictModel:
    """A MILP whose rows are dicts, named as they are added: each name ends
    in ``suffix``, the scenario suffix of the block being emitted."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.suffix = ""
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.kinds: list[str] = []
        self.constraints: list[DictConstraint] = []
        self.objective: dict[int, float] = {}

    def add_variable(self, name, lb=0.0, ub=math.inf, kind=CONTINUOUS) -> int:
        if kind == BINARY and math.isinf(ub):
            ub = 1.0
        self.var_names.append(name + self.suffix)
        self.lb.append(lb)
        self.ub.append(ub)
        self.kinds.append(kind)
        return len(self.var_names) - 1

    def fix_variable(self, ix, value) -> None:
        self.lb[ix] = value
        self.ub[ix] = value

    def add_constraint(self, coeffs, sense, rhs, name="") -> int:
        cleaned: dict[int, float] = {}
        for ix, c in coeffs.items():
            if c != 0.0:
                cleaned[ix] = cleaned.get(ix, 0.0) + c
        cid = len(self.constraints)
        name = (name or f"c{cid}") + self.suffix
        self.constraints.append(DictConstraint(cleaned, sense, float(rhs), name))
        return cid

    def set_objective(self, coeffs) -> None:
        self.objective = {ix: float(c) for ix, c in coeffs.items() if c != 0.0}

    @property
    def num_variables(self) -> int:
        return len(self.var_names)

    @property
    def row_names(self) -> list[str]:
        return [con.name for con in self.constraints]

    def rows(self) -> RowBlock:
        """Every row in order, as ``MilpModel.rows`` gives them."""
        arrays = compile_dict(self)
        return RowBlock(*(arrays[key] for key in ("indptr", "indices", "data",
                                                  "row_lo", "row_hi")))


def compile_dict(model: DictModel) -> dict[str, np.ndarray]:
    """The arrays of ``row_lo <= A @ x <= row_hi``, ``lb <= x <= ub``."""
    n, cons = model.num_variables, model.constraints
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    indptr = np.zeros(len(cons) + 1, dtype=np.int64)
    np.cumsum([len(con.coeffs) for con in cons], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        (ix for con in cons for ix in con.coeffs), dtype=np.int64, count=nnz)
    data = np.fromiter(
        (v for con in cons for v in con.coeffs.values()), dtype=float, count=nnz)
    A = sp.csr_matrix((data, indices, indptr), shape=(len(cons), n))
    A.sort_indices()
    return {
        "c": c,
        "indptr": A.indptr,
        "indices": A.indices,
        "data": A.data,
        "row_lo": np.array([-math.inf if con.sense == LESS else con.rhs for con in cons]),
        "row_hi": np.array([math.inf if con.sense == GREATER else con.rhs for con in cons]),
        "lb": np.array(model.lb, dtype=float),
        "ub": np.array(model.ub, dtype=float),
        "binary": np.array([k == BINARY for k in model.kinds], dtype=bool),
    }


class DictMaster:
    """The design MILP built row by row, with no template: the arguments are
    ``build_master``'s, the network and params in place of the template."""

    def __init__(self, network, scenarios, params, *, fixed_design=None) -> None:
        self.model = DictModel(name="upgrade")
        self.network, self.params = network, params
        self.first_stage = fs = _build_first_stage(self.model, network)
        if fixed_design is not None:
            _apply_fixed_design(self.model, fs, fixed_design)
        self.reduced = aggregate_parallel_edges(network)
        self.blocks: dict[int, ScenarioFormulation] = {}
        for scen in scenarios:
            self.add_scenario(scen)
        self.model.set_objective(_cost_coefficients(network, params, fs))

    def add_scenario(self, scenario: DamageScenario) -> None:
        m, net = self.model, self.network
        m.suffix = f":s{scenario.id}"
        blk = ScenarioFormulation(m, net, self.params, self.reduced, self.first_stage)
        v = blk.vars
        for lid in sorted(net.lines):
            damaged = lid in scenario.damaged_line_ids
            blk.add_thermal_direction_constraints(lid)
            if damaged:
                sense = LESS if net.lines[lid].has_switch else EQUAL
                m.add_constraint({v.e[lid]: 1.0, v.hs[lid]: -1.0}, sense, 0.0, f"dmg:{lid}")
            else:
                m.add_constraint({v.e[lid]: 1.0, v.bs[lid]: -1.0}, EQUAL, 0.0, f"sw:{lid}")
            blk.add_imbalance_constraints(lid)
            blk.add_voltage_constraints(lid)
            bb = v.bredge[self.reduced.edge_of_line(lid)]
            m.add_constraint({v.e[lid]: 1.0, bb: -1.0}, LESS, 0.0, f"redlink:{lid}")
        for bid in sorted(net.buses):
            blk.add_load_generation_balance(bid)
        blk.add_resilience_constraints()
        blk.add_master_links()
        m.suffix = ""
        self.blocks[scenario.id] = blk

    def add_cycle_cut(self, cycle_edges, scenario_id: int) -> int:
        blk = self.blocks[scenario_id]
        cycle = [tuple(sorted(e)) for e in cycle_edges]
        _check_simple_cycle(cycle, blk.vars.bredge)
        return self.model.add_constraint(
            {blk.vars.bredge[e]: 1.0 for e in cycle}, LESS, float(len(cycle) - 1),
            f"cycle:{'|'.join('>'.join(e) for e in sorted(cycle))}:s{scenario_id}",
        )

    def minimize_microgrid_kw(self, cost_budget) -> None:
        fs, net = self.first_stage, self.network
        cost = _cost_coefficients(net, self.params, fs)
        self.model.add_constraint(cost, LESS, cost_budget, "cost_budget")
        obj = {ix: 1e-4 * coef for ix, coef in cost.items()}
        for gid, ixs in fs.steps.items():
            mg = net.microgrids[gid]
            w = mg.step_capacity_kva * len(net.buses[mg.bus].phases)
            for ix in ixs:
                obj[ix] = obj.get(ix, 0.0) + w
        self.model.set_objective(obj)

    def maximize_served(self) -> None:
        for blk in self.blocks.values():
            for row in blk.resilience_rows:
                self.model.constraints[row].rhs = 0.0
        self.model.set_objective(_served_objective(self.network, self.blocks))
