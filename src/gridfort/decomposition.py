"""Design algorithms: scenario-based decomposition with lazy radiality cuts
and design evaluation against held-out scenarios.

The decomposition designs against a growing active scenario subset and
verifies the candidate design on all remaining scenarios; because the subset
optimum is a lower bound on the full optimum, a design feasible everywhere is
exactly optimal for the full scenario set. That argument needs every master
solve proven optimal and every verification decisive, so a solver limit or
failure raises ``SolverError`` instead of counting as "infeasible".
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import networkx as nx

from gridfort.formulation import Design, DesignParams, MasterProblem, build_master
from gridfort.fragility import DamageScenario
from gridfort.milp import Solution, SolverError, SolverOptions, solve
from gridfort.validate import OperationState

__all__ = [
    "Verdict",
    "IterationRecord",
    "SbdState",
    "InfeasibleDesignError",
    "separate_cycles",
    "solve_with_cycle_cuts",
    "evaluate_design",
    "evaluate_distinct",
    "sbd_design",
]

_MAX_CUT_ROUNDS = 1000


class InfeasibleDesignError(RuntimeError):
    """Resilience targets unattainable even with every upgrade applied."""

    def __init__(self, scenario_id: int, message: str) -> None:
        super().__init__(message)
        self.scenario_id = scenario_id


@dataclass(frozen=True)
class Verdict:
    scenario_id: int
    feasible: bool
    critical_fraction: float
    total_fraction: float
    shortfall_critical: float = 0.0
    shortfall_total: float = 0.0
    # the operating point the verdict rests on; not part of the verdict's
    # value, and sbd_design drops it from every iteration but the last
    state: OperationState | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "feasible": self.feasible,
            "critical_fraction": self.critical_fraction,
            "total_fraction": self.total_fraction,
            "shortfall_critical": self.shortfall_critical,
            "shortfall_total": self.shortfall_total,
        }


@dataclass
class IterationRecord:
    index: int
    active: tuple[int, ...]
    cost: float
    verdicts: dict[int, Verdict]
    wall_time: float
    verify_solves: int  # distinct damage sets solved by the verification
    verify_time: float


@dataclass
class SbdState:
    active: list[int] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    cuts: dict[int, set[frozenset]] = field(default_factory=dict)

    def log_records(self) -> list[dict]:
        return [
            {
                "iteration": rec.index,
                "active_scenarios": list(rec.active),
                "cost": rec.cost,
                "verdicts": {str(k): v.to_dict() for k, v in sorted(rec.verdicts.items())},
                "wall_time_s": rec.wall_time,
                "verify_solves": rec.verify_solves,
                "verify_s": rec.verify_time,
            }
            for rec in self.iterations
        ]


# ---------------------------------------------------------------------------
# radiality: lazy cycle separation
# ---------------------------------------------------------------------------


def separate_cycles(solution: Solution, master: MasterProblem,
                    scenario_id: int) -> list[tuple[tuple[str, str], ...]]:
    """All independent cycles among reduced edges used in the solution.

    Works on the reduced-edge usage binaries rounded to one; an empty result
    certifies the used subgraph is a forest.
    """
    blk = master.blocks[scenario_id]
    g = nx.Graph()
    g.add_nodes_from(master.reduced.nodes)
    for key, ix in blk.vars.bredge.items():
        if solution.values[ix] > 0.5:
            g.add_edge(*key)
    cycles = []
    for nodes in nx.cycle_basis(g):
        edges = []
        for i, u in enumerate(nodes):
            v = nodes[(i + 1) % len(nodes)]
            edges.append(tuple(sorted((u, v))))
        cycles.append(tuple(sorted(edges)))
    return sorted(cycles)


def _not_proven(what: str, sol: Solution) -> SolverError:
    detail = f" ({sol.message})" if sol.message else ""
    return SolverError(f"{what} ended {sol.status}, not optimal{detail}")


def _solve_master_design(network, scenarios, params, options, cuts,
                         objective="cost", cost_budget=None):
    """Proven-optimal design over the given scenarios: one joint extensive
    solve under the lazy cycle-cut loop. Returns None when the targets are
    unattainable."""
    master = build_master(network, scenarios, params,
                          objective=objective, cost_budget=cost_budget)
    sol = solve_with_cycle_cuts(master, options, known_cuts=cuts)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise _not_proven(
            f"master solve over scenarios {[s.id for s in scenarios]}", sol)
    return master.design_from_solution(sol)


def solve_with_cycle_cuts(master: MasterProblem, options: SolverOptions | None = None,
                          known_cuts: dict[int, set[frozenset]] | None = None) -> Solution:
    """Solve, separate violated cycles per scenario, cut, and re-solve until
    every scenario operates as a forest. A solution that is not optimal is
    returned as is, without separation.

    ``known_cuts`` (scenario id -> sets of reduced-edge frozensets) is applied
    up front and updated in place, so cuts accumulate across re-solves and
    master rebuilds within one decomposition run.
    """
    options = options or SolverOptions()
    cuts = known_cuts if known_cuts is not None else {}
    for sid, blk_cuts in cuts.items():
        if sid in master.blocks:
            for cyc in sorted(blk_cuts, key=sorted):
                master.add_cycle_cut(tuple(sorted(cyc)), sid)
    for _ in range(_MAX_CUT_ROUNDS):
        sol = solve(master.model, options)
        if sol.status != "optimal":
            return sol
        added = False
        for sid in sorted(master.blocks):
            for cyc in separate_cycles(sol, master, sid):
                key = frozenset(cyc)
                if key in cuts.setdefault(sid, set()):
                    continue
                cuts[sid].add(key)
                master.add_cycle_cut(cyc, sid)
                added = True
        if not added:
            return sol
    raise SolverError(
        f"cycle cut separation did not converge in {_MAX_CUT_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# design evaluation and the decomposition loop
# ---------------------------------------------------------------------------


def evaluate_design(design: Design, network, scenario: DamageScenario,
                    params: DesignParams, options: SolverOptions | None = None) -> Verdict:
    """Feasibility verdict of a fixed design under one damage scenario,
    carrying the operating point it rests on (``Verdict.state``).

    The base solve is a pure feasibility check of the scenario operation
    problem; when the resilience targets are unattainable, a served-load
    maximization without them reports the best-effort shortfalls, starting
    from the cycle cuts the feasibility check found. Any outcome other than
    optimal or infeasible raises ``SolverError``. The verdict depends on the
    arguments only: no cut or model outlives the call.
    """
    options = options or SolverOptions()
    cuts: dict[int, set[frozenset]] = {}
    master = build_master(network, [scenario], params, fixed_design=design)
    sol = solve_with_cycle_cuts(master, options, known_cuts=cuts)
    if sol.status == "optimal":
        crit, tot = master.served_fractions(sol, scenario.id)
        return Verdict(scenario.id, True, crit, tot,
                       state=master.operation_state(sol, scenario.id))
    if sol.status != "infeasible":
        raise _not_proven(f"evaluation of scenario {scenario.id}", sol)
    relaxed = build_master(network, [scenario], params, fixed_design=design,
                           objective="served", enforce_resilience=False)
    sol2 = solve_with_cycle_cuts(relaxed, options, known_cuts=cuts)
    if sol2.status != "optimal":
        raise _not_proven(f"best-effort evaluation of scenario {scenario.id}", sol2)
    crit, tot = relaxed.served_fractions(sol2, scenario.id)
    return Verdict(
        scenario.id, False, crit, tot,
        shortfall_critical=max(0.0, params.critical_fraction - crit),
        shortfall_total=max(0.0, params.total_fraction - tot),
        state=relaxed.operation_state(sol2, scenario.id),
    )


def _restated(verdict: Verdict, scenario_id: int) -> Verdict:
    """An equally damaged scenario's verdict, restated under ``scenario_id``."""
    if verdict.scenario_id == scenario_id:
        return verdict
    state = (None if verdict.state is None
             else replace(verdict.state, scenario_id=scenario_id))
    return replace(verdict, scenario_id=scenario_id, state=state)


def evaluate_distinct(scenarios: list[DamageScenario], evaluate,
                      jobs: int = 1) -> dict[int, Verdict]:
    """Verdicts of all ``scenarios``, keyed by id in list order, calling
    ``evaluate(scenario)`` once per distinct damage set.

    The first scenario carrying a damage set is solved; every later one gets
    a copy of its verdict and state under its own id. This is exact:
    ``build_master`` assembles a one-scenario model the same way for equal
    damage, differing only in names the solver never sees, so the solver
    returns the same point. With ``jobs > 1`` the solves run on a thread
    pool.
    """
    todo: dict[frozenset[str], DamageScenario] = {}
    for scen in scenarios:
        todo.setdefault(scen.damaged_line_ids, scen)
    if jobs > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(evaluate, todo.values()))
    else:
        results = [evaluate(s) for s in todo.values()]
    solved = dict(zip(todo, results))
    return {s.id: _restated(solved[s.damaged_line_ids], s.id) for s in scenarios}


def sbd_design(network, scenarios: list[DamageScenario], params: DesignParams,
               options: SolverOptions | None = None, jobs: int = 1, *,
               objective: str = "cost", cost_budget: float | None = None,
               initial_active: list[int] | None = None):
    """Scenario-based decomposition: design against a growing active subset,
    verify on the rest, and add the lowest-id infeasible scenario to the
    subset each iteration. Verification solves each distinct damage set of
    the remaining scenarios once (``evaluate_distinct``), on ``jobs`` threads.

    Returns (Design, SbdState); the verdicts of the last iteration carry
    their operating points, earlier ones do not. Raises InfeasibleDesignError
    naming the first scenario whose requirements are unattainable with every
    upgrade applied, and SolverError when a solve ends without a decisive
    answer.
    """
    options = options or SolverOptions()
    by_id = {s.id: s for s in scenarios}
    if len(by_id) != len(scenarios):
        raise ValueError("duplicate scenario ids")
    baseline = min(by_id)
    state = SbdState()

    if initial_active:
        active = list(dict.fromkeys(initial_active))
        unknown = [i for i in active if i not in by_id]
        if unknown:
            raise ValueError(f"initial_active references unknown scenarios: {unknown}")
    else:
        active = [baseline]
        rest = [s for s in scenarios if s.id != baseline]
        if rest:
            # warm pick: the scenario with the most damage
            worst = max(rest, key=lambda s: (len(s.damaged_line_ids), -s.id))
            if worst.damaged_line_ids:
                active.append(worst.id)
    state.active = active

    last_added = active[-1]
    for _ in range(len(scenarios)):
        t0 = time.monotonic()
        design = _solve_master_design(
            network, [by_id[i] for i in active], params, options, state.cuts, objective=objective, cost_budget=cost_budget,
        )
        if design is None:
            raise InfeasibleDesignError(
                last_added,
                f"resilience targets unattainable: scenario {last_added} cannot "
                f"be served even with all upgrades applied",
            )
        remaining = [s for s in scenarios if s.id not in active]
        t_verify = time.monotonic()
        verdicts = evaluate_distinct(
            remaining,
            lambda scen: evaluate_design(design, network, scen, params, options),
            jobs,
        )
        verify_time = time.monotonic() - t_verify
        infeasible = [sid for sid, v in verdicts.items() if not v.feasible]
        if infeasible:
            # only the final verification keeps its operating points
            verdicts = {sid: replace(v, state=None) for sid, v in verdicts.items()}
        state.iterations.append(IterationRecord(
            index=len(state.iterations) + 1,
            active=tuple(active),
            cost=design.cost.total,
            verdicts=verdicts,
            wall_time=time.monotonic() - t0,
            verify_solves=len({s.damaged_line_ids for s in remaining}),
            verify_time=verify_time,
        ))
        if not infeasible:
            return design, state
        nxt = min(infeasible)
        active.append(nxt)
        last_added = nxt
        state.active = active
    raise RuntimeError("decomposition failed to converge within |S| iterations")
