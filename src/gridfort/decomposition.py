"""Design algorithms: scenario-based decomposition with lazy radiality cuts
and design evaluation against held-out scenarios.

The decomposition designs against a growing active scenario subset and
verifies the candidate design on all remaining scenarios; because the subset
optimum is a lower bound on the full optimum, a design feasible everywhere is
exactly optimal for the full scenario set. That argument needs every master
solve proven optimal and every verification decisive, so a solver limit or
failure raises ``SolverError`` instead of counting as "infeasible".

Radiality is enforced by cycle cuts on the reduced graph, which every
scenario block shares. A model keeps one pool of cut cycles
(``MasterProblem.cycles``), each cut in every block, so a cycle found in one
block never has to be found again in another. The design master starts with
the reduced graph's cycle basis in its pool; verification models start with
an empty pool.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field, replace

from gridfort.formulation import (
    Design,
    DesignParams,
    MasterProblem,
    ScenarioTemplate,
    build_master,
)
from gridfort.fragility import DamageScenario
from gridfort.milp import Solution, SolverError, SolverOptions, solve
from gridfort.model import adjacency, cycle_basis
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
    build_time: float   # assembling the master's new block (the whole master first,
                        # the budget row and kW objective when the kW pass starts)
    solve_time: float   # the master's solve, over all cut rounds
    master_solves: int  # solves of the master, cut rounds included
    cuts_added: int     # cycles added to the pool (the seeded basis first)
    master_bound: float  # the final master solve's dual bound,
    master_gap: float    # its relative gap (Solution.gap)
    master_nodes: int    # and its branch-and-bound nodes


@dataclass
class SbdState:
    active: list[int] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)

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
                "build_s": rec.build_time,
                "solve_s": rec.solve_time,
                "master_solves": rec.master_solves,
                "cuts_added": rec.cuts_added,
                "master_bound": rec.master_bound,
                "master_gap": rec.master_gap,
                "master_nodes": rec.master_nodes,
            }
            for rec in self.iterations
        ]


# ---------------------------------------------------------------------------
# radiality: lazy cycle separation
# ---------------------------------------------------------------------------


def _independent_cycles(nodes, edges) -> list[tuple[tuple[str, str], ...]]:
    """The cycle basis of the graph, each cycle as its sorted edges, sorted."""
    return sorted(tuple(sorted(cycle)) for cycle in cycle_basis(adjacency(nodes, edges)))


def separate_cycles(solution: Solution, master: MasterProblem,
                    scenario_id: int) -> list[tuple[tuple[str, str], ...]]:
    """All independent cycles among reduced edges used in the solution.

    Works on the reduced-edge usage binaries rounded to one; an empty result
    certifies the used subgraph is a forest.
    """
    blk = master.blocks[scenario_id]
    used = [key for key, ix in blk.vars.bredge.items() if solution.values[ix] > 0.5]
    return _independent_cycles(master.reduced.nodes, used)


def _not_proven(what: str, sol: Solution) -> SolverError:
    detail = f" ({sol.message})" if sol.message else ""
    return SolverError(f"{what} ended {sol.status}, not optimal{detail}")


def solve_with_cycle_cuts(master: MasterProblem,
                          options: SolverOptions | None = None) -> Solution:
    """Solve, separate violated cycles in every scenario block, pool them,
    and re-solve until every scenario operates as a forest. A solution that
    is not optimal is returned as is, without separation.

    A round separates the blocks in id order and adds the cycles not yet in
    the master's pool, in the order found, to every block
    (``MasterProblem.pool_cycles``). The cuts are rows of the master's model,
    so every later solve of the same master, and every block it gains, keeps
    them. Each solve counts in ``master.solves``.
    """
    options = options or SolverOptions()
    for _ in range(_MAX_CUT_ROUNDS):
        sol = solve(master.model, options)
        master.solves += 1
        if sol.status != "optimal":
            return sol
        found = [cyc for sid in sorted(master.blocks)
                 for cyc in separate_cycles(sol, master, sid)]
        if not master.pool_cycles(found):
            return sol
    raise SolverError(
        f"cycle cut separation did not converge in {_MAX_CUT_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# design evaluation and the decomposition loop
# ---------------------------------------------------------------------------


def evaluate_design(design: Design, network, scenario: DamageScenario,
                    params: DesignParams, options: SolverOptions | None = None, *,
                    template: ScenarioTemplate | None = None) -> Verdict:
    """Feasibility verdict of a fixed design under one damage scenario,
    carrying the operating point it rests on (``Verdict.state``). The model
    is assembled from ``template``, compiled here when absent.

    The base solve is a pure feasibility check of the scenario operation
    problem; when the resilience targets are unattainable, the same model,
    cuts included, is solved again as a served-load maximization without
    them (``MasterProblem.maximize_served``) to report the best-effort
    shortfalls. Any outcome other than
    optimal or infeasible raises ``SolverError``. The verdict depends on the
    arguments only: no cut or model outlives the call.
    """
    options = options or SolverOptions()
    what = f"evaluation of scenario {scenario.id}"
    master = build_master(network, [scenario], params, fixed_design=design,
                          template=template)
    sol = solve_with_cycle_cuts(master, options)
    feasible = sol.status == "optimal"
    if sol.status == "infeasible":
        master.maximize_served()
        sol = solve_with_cycle_cuts(master, options)
        what = "best-effort " + what
    if sol.status != "optimal":
        raise _not_proven(what, sol)
    crit, tot = master.served_fractions(sol, scenario.id)
    return Verdict(
        scenario.id, feasible, crit, tot,
        shortfall_critical=0.0 if feasible else max(0.0, params.critical_fraction - crit),
        shortfall_total=0.0 if feasible else max(0.0, params.total_fraction - tot),
        state=master.operation_state(sol, scenario.id),
    )


def _restated(verdict: Verdict, scenario_id: int) -> Verdict:
    """An equally damaged scenario's verdict, restated under ``scenario_id``."""
    if verdict.scenario_id == scenario_id:
        return verdict
    state = (None if verdict.state is None
             else replace(verdict.state, scenario_id=scenario_id))
    return replace(verdict, scenario_id=scenario_id, state=state)


def _run_share(evaluate, items: list) -> tuple[list, Exception | None]:
    """``evaluate`` over ``items`` in order, up to the first failure: the
    results before it and the failure (None when every call returned)."""
    done = []
    try:
        for item in items:
            done.append(evaluate(item))
    except Exception as exc:
        return done, exc
    return done, None


def _fork_share(evaluate, items: list) -> tuple[int, int]:
    """Start a helper process that runs ``_run_share(evaluate, items)`` and
    pickles its outcome into a pipe; returns (pid, the pipe's read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise SolverError(f"cannot start a verification helper process: {exc}") from None
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:  # the helper: it leaves through os._exit only, running no cleanup
        os.close(read)
        done, failure = _run_share(evaluate, items)
        if failure is not None:
            try:
                pickle.loads(pickle.dumps(failure))
            except Exception:  # a failure that does not survive pickling
                failure = RuntimeError(f"{type(failure).__name__}: {failure}")
        with open(write, "wb") as pipe:
            pickle.dump((done, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _collect_share(pid: int, read: int) -> tuple[list, Exception | None]:
    """Read and reap one helper of ``_fork_share``. A helper that ended
    without sending its outcome fails its whole share with a SolverError."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
        return pickle.loads(data)
    how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
           else f"exit status {os.waitstatus_to_exitcode(status)}")
    return [], SolverError(f"verification helper process {pid} ended without "
                           f"a result ({how})")


def _fan_out(evaluate, items: list, jobs: int) -> list:
    """``[evaluate(item) for item in items]``, the items dealt round-robin
    over ``min(jobs, len(items) // 2)`` processes: this one and a forked
    helper for each further share. A fork costs about as much as two
    solves, hence at least two items per process; without ``os.fork`` the
    items run here, in order.

    Raises the failure that comes first in list order, as the serial loop
    would, and reaps every helper on every path."""
    shares = min(jobs, len(items) // 2) if hasattr(os, "fork") else 1
    if shares < 2:
        return [evaluate(item) for item in items]
    helpers: list[tuple[int, int]] = []
    try:
        for k in range(1, shares):
            helpers.append(_fork_share(evaluate, items[k::shares]))
        outcomes = [_run_share(evaluate, items[::shares])]
        while helpers:
            outcomes.append(_collect_share(*helpers.pop(0)))
    finally:
        for pid, read in helpers:  # left only when this process was interrupted
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    failures = [(k + len(done) * shares, failure)
                for k, (done, failure) in enumerate(outcomes) if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for k, (done, _) in enumerate(outcomes):
        results[k::shares] = done
    return results


def evaluate_distinct(scenarios: list[DamageScenario], evaluate, jobs: int = 1,
                      known: dict[frozenset[str], Verdict] | None = None
                      ) -> dict[int, Verdict]:
    """Verdicts of all ``scenarios``, keyed by id in list order, calling
    ``evaluate(scenario)`` once per distinct damage set not in ``known``
    (damage set -> a verdict already solved for it).

    The first scenario carrying a damage set is solved; every later one gets
    a copy of its verdict and state under its own id. This is exact:
    ``build_master`` assembles a one-scenario model the same way for equal
    damage, differing only in names the solver never sees, so the solver
    returns the same point. With ``jobs > 1`` the solves are dealt over up
    to ``jobs`` processes, at least two per process, this one and forked
    helpers that send their verdicts back through pipes. A verdict depends
    on its design and scenario only, so the result does not depend on
    ``jobs``, and neither does the failure raised: the first in list order.
    """
    solved = dict(known or {})
    todo: dict[frozenset[str], DamageScenario] = {}
    for scen in scenarios:
        if scen.damaged_line_ids not in solved:
            todo.setdefault(scen.damaged_line_ids, scen)
    solved.update(zip(todo, _fan_out(evaluate, list(todo.values()), jobs)))
    return {s.id: _restated(solved[s.damaged_line_ids], s.id) for s in scenarios}


def sbd_design(network, scenarios: list[DamageScenario], params: DesignParams,
               options: SolverOptions | None = None, jobs: int = 1, *,
               tie_break: bool = False, template: ScenarioTemplate | None = None):
    """Scenario-based decomposition: design against a growing active subset,
    verify on the rest, and add the lowest-id infeasible scenario to the
    subset each iteration: one master, built once, gains its block and keeps
    its cut pool. The pool starts with the cycle basis of the reduced graph,
    every candidate line included, since every scenario must operate
    radially on it. Verification solves each distinct damage set of the
    remaining scenarios once (``evaluate_distinct``), over up to ``jobs``
    processes; the result does not depend on ``jobs``.
    The master and every verification model are assembled from ``template``,
    compiled here when absent.

    With ``tie_break``, once a design verifies the same loop goes on over the
    same master under ``MasterProblem.minimize_microgrid_kw``, with a budget
    of that design's cost + 1e-6 k$: the least-kW design within the budget.
    This pass is exact as the cost pass is, since pooled cycle cuts hold
    whatever the objective, so the master still relaxes the full problem.

    Returns (Design, SbdState), the state holding every iteration of both
    passes; the verdicts of the last iteration carry their operating points,
    earlier ones do not. Raises InfeasibleDesignError naming the first
    scenario whose requirements are unattainable with every upgrade applied,
    and SolverError when a solve ends without a decisive answer.
    """
    options = options or SolverOptions()
    by_id = {s.id: s for s in scenarios}
    if len(by_id) != len(scenarios):
        raise ValueError("duplicate scenario ids")
    baseline = min(by_id)
    state = SbdState()

    active = [baseline]
    rest = [s for s in scenarios if s.id != baseline]
    if rest:
        # warm pick: the scenario with the most damage
        worst = max(rest, key=lambda s: (len(s.damaged_line_ids), -s.id))
        if worst.damaged_line_ids:
            active.append(worst.id)
    state.active = active

    t0 = time.monotonic()
    master = build_master(network, [by_id[i] for i in active], params,
                          template=template)
    master.pool_cycles(_independent_cycles(master.reduced.nodes, master.reduced.edges))
    build_time = time.monotonic() - t0
    pooled = solves = 0
    # each failing iteration adds a scenario not yet in the master, and each
    # pass ends in one iteration that verifies
    for _ in range(len(scenarios) - len(active) + 1 + tie_break):
        t_solve = time.monotonic()
        sol = solve_with_cycle_cuts(master, options)
        solve_time = time.monotonic() - t_solve
        if sol.status == "infeasible":
            raise InfeasibleDesignError(
                active[-1],
                f"resilience targets unattainable: scenario {active[-1]} cannot "
                f"be served even with all upgrades applied",
            )
        if sol.status != "optimal":
            raise _not_proven(f"master solve over scenarios {active}", sol)
        design = master.design_from_solution(sol)
        remaining = [s for s in scenarios if s.id not in active]
        t_verify = time.monotonic()
        verdicts = evaluate_distinct(
            remaining,
            lambda scen: evaluate_design(design, network, scen, params, options,
                                         template=master.template),
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
            build_time=build_time,
            solve_time=solve_time,
            master_solves=master.solves - solves,
            cuts_added=len(master.cycles) - pooled,
            master_bound=sol.bound,
            master_gap=sol.gap,
            master_nodes=sol.nodes,
        ))
        pooled, solves = len(master.cycles), master.solves
        t0 = time.monotonic()
        if infeasible:
            nxt = min(infeasible)
            active.append(nxt)
            master.add_scenario(by_id[nxt])
        elif tie_break:  # the kW pass goes on over this master
            tie_break = False
            master.minimize_microgrid_kw(design.cost.total / 1000.0 + 1e-6)
        else:
            return design, state
        build_time = time.monotonic() - t0
    raise RuntimeError("decomposition failed to converge within |S| iterations")
