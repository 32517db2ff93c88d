"""Design algorithms: scenario-based decomposition with lazy radiality cuts
and design evaluation against held-out scenarios.

The decomposition designs against a growing active scenario subset and
verifies the candidate design on all remaining scenarios; because the subset
optimum is a lower bound on the full optimum, a design feasible everywhere is
exactly optimal for the full scenario set, whatever the subset. Scenarios
of equal damage get equal verdicts, so each distinct damage set is handled
once, through its lowest-id scenario (``distinct_damage``). The
subset starts as the most damaged scenario alone, the undamaged baseline
being verified like the rest, and failing iteration k adds up to 2**(k-1)
of the infeasible damage sets, so a run with many conflicting scenarios
needs few masters. Every sampled damage set, with a block or not, also
reaches the master through its island cover rows
(``ScenarioTemplate.cover_rows``): rows on first-stage columns that every
design serving the set meets, a combinatorial form of a Benders feasibility
cut. The master with them is still a relaxation of the full problem, which
is all the argument needs. That argument also needs every master solve
proven optimal and every verification decisive, so a solver limit or
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
import tempfile
import time
from dataclasses import dataclass, field, replace

try:
    import fcntl
except ImportError:  # no POSIX record locks: every fan-out runs serially
    fcntl = None

from gridfort.formulation import (
    CoverRow,
    Design,
    MasterProblem,
    ScenarioTemplate,
    build_master,
)
from gridfort.fragility import DamageScenario
from gridfort.milp import Solution, SolverError, SolverOptions, solve
from gridfort.model import adjacency, cycle_basis
from gridfort.validate import OperationState, served_fractions

__all__ = [
    "Verdict",
    "IterationRecord",
    "SbdState",
    "InfeasibleDesignError",
    "separate_cycles",
    "solve_with_cycle_cuts",
    "evaluate_design",
    "distinct_damage",
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
    # value, and sbd_design keeps it in SbdState.verdicts only
    state: OperationState | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        """Every field but ``state``: a verdict's entry in ``sbd_log.json``
        and ``evaluation.json``."""
        return {k: v for k, v in vars(self).items() if k != "state"}


@dataclass
class IterationRecord:
    """One SBD iteration; its fields are the keys of its ``sbd_log.json``
    record (``docs/sbd_log.md``)."""

    iteration: int
    active_scenarios: tuple[int, ...]
    cost: float
    verdicts: dict[int, Verdict]
    wall_time_s: float
    verify_solves: int  # distinct damage sets solved by the verification
    verify_s: float
    build_s: float      # assembling the master's new block (the whole master first,
                        # the budget row and kW objective when the kW pass starts)
    solve_s: float      # the master's solve, over all cut rounds
    master_solves: int  # solves of the master, cut rounds included
    cuts_added: int     # cycles added to the pool (the seeded basis first)
    cover_rows: int     # island cover rows added (all of them in iteration 1)
    master_bound: float  # the final master solve's dual bound,
    master_gap: float    # its relative gap (Solution.gap)
    master_nodes: int    # and its branch-and-bound nodes

    def to_dict(self) -> dict:
        """The record as JSON values; the verdicts keyed by id strings."""
        return {**vars(self), "active_scenarios": list(self.active_scenarios),
                "verdicts": {str(k): v.to_dict() for k, v in self.verdicts.items()}}


@dataclass
class SbdState:
    iterations: list[IterationRecord] = field(default_factory=list)
    # every scenario's final verdict under the returned design, keyed by id
    # in scenario order, each carrying its operating point: the final
    # master's for an active scenario and its twins, the final
    # verification's for every other
    verdicts: dict[int, Verdict] = field(default_factory=dict)

    def log_records(self) -> list[dict]:
        return [rec.to_dict() for rec in self.iterations]


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
    return _independent_cycles(master.template.reduced.nodes, used)


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


def evaluate_design(design: Design, template: ScenarioTemplate, scenario: DamageScenario,
                    options: SolverOptions | None = None) -> Verdict:
    """Feasibility verdict of a fixed design under one damage scenario of
    ``template``'s network and params, carrying the operating point it rests
    on (``Verdict.state``).

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
    master = build_master(template, [scenario], fixed_design=design)
    sol = solve_with_cycle_cuts(master, options)
    feasible = sol.status == "optimal"
    if sol.status == "infeasible":
        master.maximize_served()
        sol = solve_with_cycle_cuts(master, options)
        what = "best-effort " + what
    if sol.status != "optimal":
        raise _not_proven(what, sol)
    return _verdict_at(master.operation_state(sol, scenario.id), template, feasible)


def _verdict_at(state: OperationState, template: ScenarioTemplate,
                feasible: bool) -> Verdict:
    """The verdict that rests on ``state``: its served fractions and, unless
    ``feasible``, its shortfalls from the targets."""
    params = template.params
    crit, tot = served_fractions(state, template.network)
    return Verdict(
        state.scenario_id, feasible, crit, tot,
        shortfall_critical=0.0 if feasible else max(0.0, params.critical_fraction - crit),
        shortfall_total=0.0 if feasible else max(0.0, params.total_fraction - tot),
        state=state,
    )


def _restated(verdict: Verdict, scenario_id: int) -> Verdict:
    """An equally damaged scenario's verdict, restated under ``scenario_id``."""
    if verdict.scenario_id == scenario_id:
        return verdict
    state = (None if verdict.state is None
             else replace(verdict.state, scenario_id=scenario_id))
    return replace(verdict, scenario_id=scenario_id, state=state)


def _take(counter: int, n: int, stop: bool = False) -> int:
    """The next position of ``n`` nobody has taken, ``n`` once none is left
    or after a call with ``stop``: a count in the file ``counter``, kept under
    ``fcntl.lockf``, whose lock the kernel drops when its holder dies."""
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        pos = min(int.from_bytes(os.pread(counter, 8, 0), "little"), n)
        os.pwrite(counter, (n if stop else pos + 1).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)
    return pos


def _run_taken(evaluate, items: list, counter: int, parent: int | None = None):
    """``evaluate`` over the positions this process takes, up to its first
    failure, which ends the dealing: the (position, result) pairs and the
    (position, failure) or None. A helper stops once ``parent`` is gone."""
    done = []
    while parent is None or os.getppid() == parent:
        pos = _take(counter, len(items))
        if pos == len(items):
            break
        try:
            done.append((pos, evaluate(items[pos])))
        except Exception as exc:
            _take(counter, len(items), stop=True)
            return done, (pos, exc)
    return done, None


def _fork_helper(evaluate, items: list, counter: int) -> tuple[int, int]:
    """Start a helper process that runs ``_run_taken`` and pickles its
    outcome into a pipe; returns (pid, the pipe's read end)."""
    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise SolverError(f"cannot start a helper process: {exc}") from None
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:  # the helper: it leaves through os._exit only, running no cleanup
        os.close(read)
        done, failure = _run_taken(evaluate, items, counter, parent)
        if failure is not None:
            pos, exc = failure
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # a failure that does not survive pickling
                failure = pos, RuntimeError(f"{type(exc).__name__}: {exc}")
        with open(write, "wb") as pipe:
            pickle.dump((done, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read: int):
    """Read and reap one helper of ``_fork_helper``. A helper that ended
    without sending its outcome is a SolverError at position -1."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
        return pickle.loads(data)
    how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
           else f"exit status {os.waitstatus_to_exitcode(status)}")
    return [], (-1, SolverError(f"helper process {pid} ended without a result ({how})"))


def _fan_out(evaluate, items: list, processes: int) -> list:
    """``[evaluate(item) for item in items]`` over ``processes`` processes:
    this one and forked helpers, each taking the next position nobody has
    taken (``_take``), so uneven items spread as they finish. Helpers pickle
    their results back through pipes; results merge by position. Without
    ``os.fork`` or ``fcntl`` the items run here, in order.

    Raises a SolverError for a helper that ended without a result, else the
    failure first in list order, as the serial loop would, and reaps every
    helper on every path."""
    if processes < 2 or fcntl is None or not hasattr(os, "fork"):
        return [evaluate(item) for item in items]
    helpers: list[tuple[int, int]] = []
    with tempfile.TemporaryFile() as count:
        counter = count.fileno()
        try:
            for _ in range(1, processes):
                helpers.append(_fork_helper(evaluate, items, counter))
            outcomes = [_run_taken(evaluate, items, counter)]
            while helpers:
                outcomes.append(_collect(*helpers.pop(0)))
        finally:
            for pid, read in helpers:  # left only when this process was interrupted
                os.kill(pid, signal.SIGKILL)
                os.close(read)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = dict(pair for done, _ in outcomes for pair in done)
    return [results[pos] for pos in range(len(items))]


def distinct_damage(scenarios: list[DamageScenario]
                    ) -> dict[frozenset[str], DamageScenario]:
    """Each distinct damage set among ``scenarios`` -> its lowest-id
    scenario, the sets in the order of those ids: the scenario that stands
    for its set wherever one is solved, verified or given a block or rows.
    A ValueError if two scenarios share an id."""
    groups: dict[frozenset[str], DamageScenario] = {}
    last = None
    for scen in sorted(scenarios, key=lambda s: s.id):
        if scen.id == last:
            raise ValueError(f"duplicate scenario id {scen.id}")
        last = scen.id
        groups.setdefault(scen.damaged_line_ids, scen)
    return groups


def evaluate_distinct(scenarios: list[DamageScenario], evaluate,
                      jobs: int = 1) -> dict[int, Verdict]:
    """Verdicts of all ``scenarios``, keyed by id in list order, calling
    ``evaluate(scenario)`` once per distinct damage set, on its lowest-id
    scenario (``distinct_damage``).

    Every other scenario of the set gets a copy of that verdict and its
    state under its own id. This is exact: ``build_master`` assembles a
    one-scenario model the same way for equal damage, differing only in
    names the solver never sees, so the solver returns the same point. The
    solves are dealt over ``min(jobs, sets // 2)`` processes (``_fan_out``),
    since a fork costs about two solves. A verdict depends on its design and
    scenario only, so the result does not depend on ``jobs`` or on the
    list's order, and neither does the failure raised: the first in id order.
    """
    groups = distinct_damage(scenarios)
    solved = dict(zip(groups, _fan_out(evaluate, list(groups.values()),
                                       min(jobs, len(groups) // 2))))
    return {s.id: _restated(solved[s.damaged_line_ids], s.id) for s in scenarios}


def _cover_rows(template: ScenarioTemplate,
                groups: dict[frozenset[str], DamageScenario]) -> list[CoverRow]:
    """The island cover rows of every damage set of ``groups``
    (``distinct_damage``), in its order.

    Raises InfeasibleDesignError, naming the set's lowest id and the island,
    when some row cannot be met even with every upgrade applied."""
    rows = []
    for damage, scen in groups.items():
        for row in template.cover_rows(damage):
            if not row.attainable:
                raise InfeasibleDesignError(
                    scen.id,
                    f"resilience targets unattainable: scenario {scen.id} cuts buses "
                    f"{list(row.island)} off every substation, and all upgrades "
                    f"together supply {sum(row.supply.values()):.6g} of the "
                    f"{row.need:.6g} pu of critical real power they must receive",
                )
            rows.append(row)
    return rows


def sbd_design(template: ScenarioTemplate, scenarios: list[DamageScenario],
               options: SolverOptions | None = None, jobs: int = 1, *,
               tie_break: bool = False):
    """Scenario-based decomposition: design against a growing active subset,
    verify on the rest, and add infeasible scenarios to the subset: one
    master, built once, gains their blocks and keeps its cut pool.

    The scenarios are grouped by damage once (``distinct_damage``), and
    each set's lowest-id scenario stands for it. The first master holds the
    most damaged set (the lowest id among equals; the baseline when no
    scenario has damage), and every other set is verified, the baseline's
    too. Before its first solve the master gets the island cover rows of
    every set (``MasterProblem.add_cover_rows``), which hold for every
    design that serves them, so the master still bounds the full optimum
    from below; they stay through the kW pass, whose objective they do not
    depend on. Failing iteration k adds up to 2**(k-1) of the infeasible
    sets, the lowest ids first. Any active set gives an exact answer, since
    the subset optimum bounds the full one from below; the rule depends on
    the verdicts only, so the run depends neither on ``jobs`` nor on the
    list's order.

    The pool starts with the cycle basis of the reduced graph, every
    candidate line included, since every scenario must operate radially on
    it. The master's solution holds an operating point under the design
    that proves each active set feasible; every other set is verified once
    (``evaluate_design``) over up to ``jobs`` processes, raising the first
    failure in id order. Each scenario's verdict is its set's, restated
    under its id. The master and every verification model are assembled
    from ``template``.

    With ``tie_break``, once a design verifies the same loop goes on over the
    same master under ``MasterProblem.minimize_microgrid_kw``, with a budget
    of that design's cost + 1e-6 k$: the least-kW design within the budget.
    This pass is exact as the cost pass is, since pooled cycle cuts hold
    whatever the objective, so the master still relaxes the full problem.

    Returns (Design, SbdState), the state holding every iteration of both
    passes, whose verdicts carry no operating points, and every scenario's
    final verdict with its point (``SbdState.verdicts``). Raises
    InfeasibleDesignError before any solve when a cover row cannot be met
    even with every upgrade applied, naming the lowest such scenario id and
    the island; when no design serves the master's scenarios together even
    with every upgrade applied, naming the lowest id among those added last;
    and SolverError when a solve ends without a decisive answer.
    """
    options = options or SolverOptions()
    groups = distinct_damage(scenarios)
    state = SbdState()

    # warm pick: the most damaged set
    added = [max(groups.values(), key=lambda s: len(s.damaged_line_ids))]
    active = {scen.id: scen for scen in added}  # in the order they joined

    t0 = time.monotonic()
    covers = _cover_rows(template, groups)
    master = build_master(template, added)
    master.pool_cycles(_independent_cycles(template.reduced.nodes, template.reduced.edges))
    cover_rows = master.add_cover_rows(covers)
    build_time = time.monotonic() - t0
    pooled = solves = 0
    # each failing iteration adds at least one damage set not yet in the
    # master, and each pass ends in one iteration that verifies
    for _ in range(len(groups) + tie_break):
        t_solve = time.monotonic()
        sol = solve_with_cycle_cuts(master, options)
        solve_time = time.monotonic() - t_solve
        if sol.status == "infeasible":
            raise InfeasibleDesignError(
                added[0].id,
                f"resilience targets unattainable: the master's scenarios {list(active)} "
                f"cannot be served together even with all upgrades applied",
            )
        if sol.status != "optimal":
            raise _not_proven(f"master solve over scenarios {list(active)}", sol)
        design = master.design_from_solution(sol)
        by_set = {scen.damaged_line_ids:
                  _verdict_at(master.operation_state(sol, sid), template, True)
                  for sid, scen in active.items()}
        todo = {damage: scen for damage, scen in groups.items() if damage not in by_set}
        t_verify = time.monotonic()
        by_set.update(zip(todo, _fan_out(
            lambda scen: evaluate_design(design, template, scen, options),
            list(todo.values()), min(jobs, len(todo) // 2))))
        verify_time = time.monotonic() - t_verify
        verdicts = {s.id: _restated(by_set[s.damaged_line_ids], s.id) for s in scenarios}
        state.iterations.append(IterationRecord(
            iteration=len(state.iterations) + 1,
            active_scenarios=tuple(active),
            cost=design.cost.total,
            verdicts={sid: replace(v, state=None) for sid, v in verdicts.items()
                      if sid not in active},
            wall_time_s=time.monotonic() - t0,
            verify_solves=len(todo),
            verify_s=verify_time,
            build_s=build_time,
            solve_s=solve_time,
            master_solves=master.solves - solves,
            cuts_added=len(master.cycles) - pooled,
            cover_rows=cover_rows,
            master_bound=sol.bound,
            master_gap=sol.gap,
            master_nodes=sol.nodes,
        ))
        pooled, solves, cover_rows = len(master.cycles), master.solves, 0
        t0 = time.monotonic()
        failing = [scen for damage, scen in todo.items() if not by_set[damage].feasible]
        if failing:
            added = failing[:2 ** (len(state.iterations) - 1)]
            for scen in added:
                active[scen.id] = scen
                master.add_scenario(scen)
        elif tie_break:  # the kW pass goes on over this master
            tie_break = False
            master.minimize_microgrid_kw(design.cost.total / 1000.0 + 1e-6)
        else:
            state.verdicts = verdicts
            return design, state
        build_time = time.monotonic() - t0
    raise RuntimeError("decomposition failed to converge within |S| iterations")
