import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning
from scipy.optimize import milp as scipy_milp

import gridfort.milp
from gridfort import (
    DesignParams,
    FragilityParams,
    ScenarioTemplate,
    build_master,
    evaluate_design,
    sample_scenarios,
)
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import make_design
from gridfort.milp import (
    BINARY,
    EQUAL,
    GREATER,
    LESS,
    MilpModel,
    RowBlock,
    SolverError,
    SolverOptions,
    parse_external_solution,
    solve,
    solve_lp_relaxation,
    write_model,
    _compile,
    _free_columns,
)

from mps_reader import read_mps

EXACT = SolverOptions(rel_gap=1e-9)


def single_var_model():
    m = MilpModel("one")
    x = m.add_variable("x", 0.0, math.inf)
    m.add_constraint({x: 1.0}, GREATER, 3.0, "floor")
    m.set_objective({x: 1.0})
    return m


def binary_pair_model():
    m = MilpModel("pair")
    x = m.add_variable("x", kind=BINARY)
    y = m.add_variable("y", kind=BINARY)
    m.add_constraint({x: 1.0, y: 1.0}, GREATER, 1.5, "cover")
    m.set_objective({x: 1.0, y: 1.0})
    return m


class TestSolve:
    def test_single_lower_bound(self):
        sol = solve(single_var_model(), EXACT)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.values[0] == pytest.approx(3.0)

    def test_binary_cover_needs_both(self):
        sol = solve(binary_pair_model(), EXACT)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)

    def test_contradictory_bounds_infeasible(self):
        m = MilpModel()
        x = m.add_variable("x", kind=BINARY)
        m.add_constraint({x: 1.0}, GREATER, 0.5)
        m.add_constraint({x: 1.0}, LESS, 0.4)
        m.set_objective({x: 1.0})
        assert solve(m, EXACT).status == "infeasible"

    def test_no_binaries_is_plain_lp(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 10.0)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint({x: 1.0, y: 2.0}, GREATER, 4.0)
        m.set_objective({x: 3.0, y: 1.0})
        sol = solve(m, EXACT)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)

    @staticmethod
    def solve_to_limit(monkeypatch, options):
        """Solve a 14-binary chain cover under ``options``. A limit must end
        the solve: any LP raises, and the bound must be HiGHS's own."""
        m = MilpModel()
        n = 14
        for i in range(n):
            m.add_variable(f"b{i}", kind=BINARY)
        for i in range(0, n - 1):
            m.add_constraint({i: 1.0, i + 1: 1.0}, GREATER, 0.5, f"pair{i}")
        m.set_objective({i: 1.0 + 0.01 * i for i in range(n)})
        results = []

        def highs(*args, **kwargs):
            # gridfort's filter for its HiGHS option matches its own calls only
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results.append(scipy_milp(*args, **kwargs))
            return results[-1]

        def linprog(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(gridfort.milp, "scipy_milp", highs)
        monkeypatch.setattr(gridfort.milp, "linprog", linprog)
        sol = solve(m, options)
        (res,) = results
        bound = res.mip_dual_bound
        if bound is None or not math.isfinite(bound):
            bound = None
        return sol, bound

    def test_time_limit_reports_feasible_limit(self, monkeypatch):
        sol, highs_bound = self.solve_to_limit(monkeypatch, SolverOptions(time_limit=0.0))
        assert sol.status == "feasible_limit"
        assert sol.bound == highs_bound

    def test_optimal_solution_satisfies_all_constraints(self):
        rng = random.Random(11)
        for _ in range(5):
            m = _random_model(rng, n_bin=6, n_cont=3, n_rows=6)
            sol = solve(m, EXACT)
            if sol.status != "optimal":
                continue
            lp = _compile(m)
            x, tol = sol.values, 1e-6
            ax = lp.A @ x
            assert np.all(ax >= lp.row_lo - tol) and np.all(ax <= lp.row_hi + tol)
            assert np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
            assert set(x[lp.binary].tolist()) <= {0.0, 1.0}


JUMP_OPTION = "mip_heuristic_run_feasibility_jump"


class TestOptionWarnings:
    """HiGHS runs with its feasibility jump off, an option scipy passes on
    with a warning; gridfort.milp silences exactly that warning."""

    def test_solve_under_error_filter_raises_nothing(self):
        with warnings.catch_warnings():
            # no filter of gridfort.milp is in place here
            warnings.resetwarnings()
            warnings.simplefilter("error")
            assert solve(binary_pair_model(), EXACT).status == "optimal"
            assert solve(single_var_model(), EXACT).objective == pytest.approx(3.0)

    def test_filter_is_narrow(self):
        with warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("error")
            solve(single_var_model(), EXACT)
            with pytest.raises(RuntimeWarning, match="foreign"):
                warnings.warn("foreign", RuntimeWarning)
            # the same option, passed from another module
            with pytest.raises(RuntimeWarning, match=JUMP_OPTION):
                scipy_milp(np.ones(1), bounds=Bounds(0, 1), options={JUMP_OPTION: False})
            # another option, from gridfort.milp
            with pytest.raises(RuntimeWarning, match="other_option"):
                warnings.warn_explicit(
                    "Unrecognized options detected: {'other_option'}. These will be "
                    "passed to HiGHS verbatim.", RuntimeWarning, "milp.py", 1,
                    module="gridfort.milp")
            # a HiGHS without the option skips it with a warning naming it
            warnings.warn(f"Unrecognized options detected: {{'{JUMP_OPTION}': False}}",
                          OptimizeWarning)
            with pytest.raises(OptimizeWarning, match="other_option"):
                warnings.warn("Unrecognized options detected: {'other_option': False}",
                              OptimizeWarning)

    def test_command_line_error_filter(self):
        """``python -W error`` turns every warning into an error from
        start-up on; a solve still warns of nothing."""
        script = ("from gridfort.milp import MilpModel, solve, GREATER, BINARY\n"
                  "m = MilpModel()\n"
                  "x = m.add_variable('x', kind=BINARY)\n"
                  "m.add_constraint({x: 1.0}, GREATER, 1.0)\n"
                  "m.set_objective({x: 1.0})\n"
                  "print(solve(m).status)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "optimal"
        assert done.stderr == ""


class TestSolverOutput:
    """HiGHS writes debug lines to the process's stdout whatever its output
    options say; gridfort keeps them out of its own stdout."""

    def test_highs_debug_lines_stay_off_stdout(self):
        # this instance makes HiGHS 1.12 print a line of
        # HighsMipSolverData::transformNewIntegerFeasibleSolution twice
        script = ("from netgen import random_instance\n"
                  "from gridfort import ScenarioTemplate, SolverOptions, sbd_design\n"
                  "net, scens, params = random_instance(22)\n"
                  "design, _ = sbd_design(ScenarioTemplate(net, params), scens,\n"
                  "                       SolverOptions(rel_gap=1e-9))\n"
                  "import sys; sys.stderr.write(f'{design.cost.total}\\n')\n")
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        float(done.stderr)  # the run reached its end
        assert done.stdout == ""

    def test_solves_without_an_open_stdout(self):
        script = ("import sys\n"
                  "from gridfort import ScenarioTemplate, SolverOptions, sbd_design\n"
                  "from netgen import random_instance\n"
                  "net, scens, params = random_instance(22)\n"
                  "design, _ = sbd_design(ScenarioTemplate(net, params), scens,\n"
                  "                       SolverOptions(rel_gap=1e-9))\n"
                  "sys.stderr.write(f'{design.cost.total}\\n')\n")
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120,
                              preexec_fn=lambda: os.close(1))
        assert done.returncode == 0, done.stderr
        float(done.stderr)

    def test_c_stdio_buffer_is_flushed_while_silenced(self):
        # with stdout a pipe, C stdio holds a printf in its buffer; unflushed,
        # it would reach the pipe when the process exits
        script = ("import ctypes\n"
                  "from gridfort.milp import _stdout_silenced\n"
                  "with _stdout_silenced():\n"
                  "    ctypes.CDLL(None).printf(b'held by C stdio\\n')\n"
                  "print('after')\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        env.pop("PYTHONUNBUFFERED", None)  # which would leave C stdio unbuffered
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "after\n"

    def test_stdout_is_restored_after_each_solve(self, capfd):
        print("before", flush=True)
        assert solve(binary_pair_model(), EXACT).status == "optimal"
        print("after", flush=True)
        os.write(1, b"raw\n")
        assert capfd.readouterr().out == "before\nafter\nraw\n"


class TestLpRelaxation:
    def test_binary_pair_relaxes_to_fraction(self):
        sol = solve_lp_relaxation(binary_pair_model())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.5)

    def test_empty_model(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 1.0)
        m.set_objective({})
        sol = solve_lp_relaxation(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0)

    def test_infeasible_lp(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 1.0)
        m.add_constraint({x: 1.0}, GREATER, 2.0)
        m.set_objective({x: 1.0})
        assert solve_lp_relaxation(m).status == "infeasible"

    def test_unbounded_reported_distinctly(self):
        m = MilpModel()
        x = m.add_variable("x", -math.inf, math.inf)
        m.set_objective({x: 1.0})
        assert solve_lp_relaxation(m).status == "unbounded"


def _random_model(rng: random.Random, n_bin: int, n_cont: int, n_rows: int) -> MilpModel:
    m = MilpModel(f"rand{rng.random():.4f}")
    for i in range(n_bin):
        m.add_variable(f"b{i}", kind=BINARY)
    for i in range(n_cont):
        m.add_variable(f"x{i}", 0.0, rng.choice([5.0, 10.0]))
    n = n_bin + n_cont
    for r in range(n_rows):
        coeffs = {
            ix: rng.randint(-4, 4)
            for ix in rng.sample(range(n), k=rng.randint(1, min(4, n)))
        }
        coeffs = {ix: c for ix, c in coeffs.items() if c}
        if not coeffs:
            continue
        sense = rng.choice([LESS, GREATER])
        m.add_constraint(coeffs, sense, rng.randint(-3, 6), f"r{r}")
    m.set_objective({ix: rng.randint(-5, 5) for ix in range(n)})
    return m


def _enumerate_optimum(m: MilpModel):
    """All assignments of the binaries not fixed, with an LP over the
    continuous remainder."""
    binaries = [i for i, k in enumerate(m.kinds) if k == BINARY and m.lb[i] != m.ub[i]]
    best = math.inf
    feasible = False
    saved = (list(m.lb), list(m.ub))
    try:
        for assignment in itertools.product((0.0, 1.0), repeat=len(binaries)):
            for ix, val in zip(binaries, assignment):
                m.lb[ix] = m.ub[ix] = val
            sol = solve_lp_relaxation(m)
            if sol.status == "optimal":
                feasible = True
                best = min(best, sol.objective)
    finally:
        m.lb, m.ub = list(saved[0]), list(saved[1])
    return best if feasible else None


class TestEnumerationEquivalence:
    def test_builtin_matches_exhaustive_enumeration(self):
        rng = random.Random(20240202)
        checked = 0
        for trial in range(40):
            m = _random_model(rng, n_bin=rng.randint(2, 8),
                              n_cont=rng.randint(0, 3), n_rows=rng.randint(2, 7))
            expected = _enumerate_optimum(m)
            sol = solve(m, EXACT)
            if expected is None:
                assert sol.status == "infeasible", f"trial {trial}"
            else:
                assert sol.status == "optimal", f"trial {trial}"
                assert sol.objective == pytest.approx(expected, abs=1e-7), f"trial {trial}"
                assert sol.bound <= sol.objective, f"trial {trial}"
                assert sol.gap <= EXACT.rel_gap, f"trial {trial}"
                checked += 1
        assert checked >= 12

    def test_twelve_binary_bound_case(self):
        # one instance at the full size the enumeration contract covers
        rng = random.Random(5150)
        m = _random_model(rng, n_bin=12, n_cont=2, n_rows=8)
        expected = _enumerate_optimum(m)
        sol = solve(m, EXACT)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-7)
            assert sol.bound <= sol.objective
            assert sol.gap <= EXACT.rel_gap

    def test_lp_bound_never_exceeds_milp(self):
        rng = random.Random(7)
        for _ in range(15):
            m = _random_model(rng, n_bin=rng.randint(1, 6),
                              n_cont=rng.randint(0, 3), n_rows=rng.randint(2, 6))
            lp = solve_lp_relaxation(m)
            milp = solve(m, EXACT)
            if lp.status == "optimal" and milp.status == "optimal":
                assert lp.objective <= milp.objective + 1e-7


def _fix_some(rng: random.Random, m: MilpModel) -> list[int]:
    """Fix a random proper subset of the columns, each at a value its bounds
    allow; returns their indexes."""
    fixed = rng.sample(range(m.num_variables), k=rng.randint(1, m.num_variables // 2))
    for ix in fixed:
        if m.kinds[ix] == BINARY:
            m.fix_variable(ix, float(rng.randint(0, 1)))
        else:
            m.fix_variable(ix, rng.choice([0.0, 2.5, m.ub[ix]]))
    return fixed


def _highs_on_the_whole_model(m: MilpModel, **options):
    """HiGHS on every column, fixed ones included, as gridfort once ran it."""
    lp = _compile(m)
    return scipy_milp(lp.c, integrality=lp.binary.astype(np.uint8),
                      bounds=Bounds(lp.lb, lp.ub),
                      constraints=LinearConstraint(lp.A, lp.row_lo, lp.row_hi),
                      options=options)


class TestFixedColumns:
    """HiGHS gets the free columns only: a fixed column is substituted at its
    bound and comes back in ``values`` exactly at it."""

    def test_matches_enumeration_and_the_whole_model(self):
        rng = random.Random(1313)
        checked = infeasible = 0
        for trial in range(80):
            m = _random_model(rng, n_bin=rng.randint(2, 8),
                              n_cont=rng.randint(1, 3), n_rows=rng.randint(2, 7))
            fixed = _fix_some(rng, m)
            expected = _enumerate_optimum(m)
            whole = _highs_on_the_whole_model(m, mip_rel_gap=EXACT.rel_gap)
            sol = solve(m, EXACT)
            if expected is None:
                assert sol.status == "infeasible" and whole.status == 2, f"trial {trial}"
                infeasible += 1
                continue
            assert sol.status == "optimal" and whole.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(expected, abs=1e-7), f"trial {trial}"
            assert sol.objective == pytest.approx(whole.fun, abs=1e-7), f"trial {trial}"
            assert sol.bound <= sol.objective, f"trial {trial}"
            assert sol.gap <= EXACT.rel_gap, f"trial {trial}"
            assert len(sol.values) == m.num_variables
            assert all(sol.values[ix] == m.lb[ix] for ix in fixed), f"trial {trial}"
            checked += 1
        assert checked >= 15 and infeasible >= 15

    def test_violated_row_without_free_column_is_infeasible(self):
        m = MilpModel()
        x = m.add_variable("x", kind=BINARY)
        y = m.add_variable("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 1.0}, LESS, 4.0)
        m.add_constraint({x: 2.0}, GREATER, 1.5)
        m.fix_variable(x, 0.0)
        m.set_objective({y: -1.0})
        assert solve(m, EXACT).status == "infeasible"
        assert solve_lp_relaxation(m).status == "infeasible"
        m.fix_variable(x, 1.0)
        assert solve(m, EXACT).objective == pytest.approx(-3.0)

    @pytest.mark.parametrize("miss", [0.0, 0.5e-6, 0.99e-6, 1.01e-6, 2e-6, 1e-3])
    def test_row_without_free_column_has_the_tolerance_of_highs(self, miss):
        """Such a row is checked and dropped before HiGHS sees the model; the
        verdict is the one HiGHS gives on the whole model."""
        m = MilpModel()
        x = m.add_variable("x", kind=BINARY)
        y = m.add_variable("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 1.0}, LESS, 4.0)
        m.add_constraint({x: 1.0}, LESS, -miss)
        m.fix_variable(x, 0.0)
        m.set_objective({y: -1.0})
        whole = _highs_on_the_whole_model(m)
        assert whole.status in (0, 2)
        assert solve(m, EXACT).status == ("optimal" if whole.status == 0 else "infeasible")

    @pytest.mark.parametrize("rhs,status", [(4.0, "optimal"), (3.0, "infeasible")])
    def test_every_column_fixed(self, rhs, status):
        m = MilpModel()
        x = m.add_variable("x", kind=BINARY)
        y = m.add_variable("y", 0.0, 5.0)
        m.add_constraint({x: 1.0, y: 1.0}, LESS, rhs)
        m.fix_variable(x, 1.0)
        m.fix_variable(y, 2.5)
        m.set_objective({x: 3.0, y: -2.0})
        for sol in (solve(m, EXACT), solve_lp_relaxation(m)):
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(3.0 - 5.0)
                assert sol.bound == pytest.approx(3.0 - 5.0)
                assert sol.values.tolist() == [1.0, 2.5]

    def test_highs_gets_no_fixed_column(self, monkeypatch, case30):
        """On a case30 master and a case30 verification with its best-effort
        re-solve."""
        handed = []  # the column bounds and rows of each model handed to HiGHS

        def recording(c, **kwargs):
            handed.append((kwargs["bounds"].lb, kwargs["bounds"].ub,
                           kwargs["constraints"].A))
            with warnings.catch_warnings():  # scipy's, now raised from here
                warnings.filterwarnings("ignore", f".*{JUMP_OPTION}", RuntimeWarning)
                return scipy_milp(c, **kwargs)

        monkeypatch.setattr(gridfort.milp, "scipy_milp", recording)
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        master = build_master(ScenarioTemplate(case30, params), scens[:2])
        assert solve_with_cycle_cuts(master, EXACT).status == "optimal"
        n_master = len(handed)
        verdict = evaluate_design(make_design(case30, params, [], [], {}),
                                  ScenarioTemplate(case30, params), scens[1], EXACT)
        assert not verdict.feasible  # so the best-effort model was solved too
        assert n_master >= 1 and len(handed) >= n_master + 2
        assert all(not np.any(lb == ub) for lb, ub, _ in handed)
        assert all(np.all(np.diff(A.indptr) > 0) for _, _, A in handed)

    def test_objective_constant_only_in_feasibility_checks(self, case30):
        """The fixed columns carry no objective in a master, its kW pass or a
        best-effort model, so HiGHS's gap test sees the whole objective; a
        verification's objective lies on fixed columns only."""
        scens = sample_scenarios(case30, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=4, seed=42))
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)

        def split(model):
            lp = _compile(model)
            free = lp.lb != lp.ub
            return lp.c[free], lp.c[~free], _free_columns(lp, 1e-6)[2]

        master = build_master(ScenarioTemplate(case30, params), scens)
        fixed_objectives = [split(master.model)[1]]
        master.minimize_microgrid_kw(1000.0)
        fixed_objectives.append(split(master.model)[1])
        design = make_design(case30, params, [], ["T4"], {})
        check = build_master(ScenarioTemplate(case30, params), [scens[1]],
                             fixed_design=design)
        free_c, _, constant = split(check.model)
        assert not free_c.any()
        assert constant == pytest.approx(design.cost.total / 1000.0)
        check.maximize_served()
        fixed_objectives.append(split(check.model)[1])
        assert not any(c.any() for c in fixed_objectives)


class TestMpsWriter:
    def test_single_variable_column(self):
        m = MilpModel("tiny")
        x = m.add_variable("x", 0.0, 4.0)
        m.set_objective({x: 2.0})
        text = write_model(m)
        columns = [
            l for l in text.splitlines()
            if l.startswith("    x ") or l.startswith("    x\t")
        ]
        assert len(columns) == 1
        assert "OBJ" in columns[0]

    def test_zero_coefficients_omitted(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 1.0)
        y = m.add_variable("y", 0.0, 1.0)
        m.add_constraint({x: 0.0, y: 1.0}, LESS, 1.0, "row")
        m.set_objective({x: 1.0, y: 0.0})
        text = write_model(m)
        x_lines = [l for l in text.splitlines() if l.strip().startswith("x ")]
        assert len(x_lines) == 1  # objective entry only; no row entry
        y_lines = [l for l in text.splitlines() if l.strip().startswith("y ")]
        assert all("OBJ" not in l for l in y_lines)

    def test_reader_round_trip(self):
        m = binary_pair_model()
        back, _ = read_mps(write_model(m))
        assert back.num_variables == 2
        assert back.kinds == [BINARY, BINARY]
        sol = solve(back, EXACT)
        assert sol.objective == pytest.approx(2.0)

    def test_sense_sections(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 5.0)
        m.add_constraint({x: 1.0}, LESS, 4.0, "le")
        m.add_constraint({x: 1.0}, GREATER, 1.0, "ge")
        m.add_constraint({x: 1.0}, EQUAL, 2.0, "eq")
        m.set_objective({x: 1.0})
        text = write_model(m)
        assert " L  le" in text
        assert " G  ge" in text
        assert " E  eq" in text

    def test_only_a_repeated_name_is_suffixed(self):
        m = MilpModel()
        for name in ("a b", "a_b", "c"):
            m.add_variable(name, 0.0, 1.0)
        m.add_constraint({0: 1.0}, LESS, 1.0, "r 1")
        m.add_constraint({1: 1.0}, LESS, 1.0, "r_1")
        m.set_objective({2: 1.0})
        lines = write_model(m).splitlines()
        columns = lines[lines.index("COLUMNS") + 1:lines.index("RHS")]
        assert [l.split()[0] for l in columns] == ["a_b", "a_b.1", "c"]
        assert " L  r_1" in lines and " L  r_1.1" in lines

    def test_whole_text(self):
        """Every section of a small model, line by line: a zero coefficient
        (stored in a row block) and a zero RHS are left out, an unused
        column gets ``OBJ 0.0``, each run of binary columns has its own
        marker pair, and ``x y``/``x_y`` clean to one name."""
        m = MilpModel("pin model")
        xy = m.add_variable("x y", -math.inf, math.inf)
        x_y = m.add_variable("x_y", -math.inf, 5.0)
        b1 = m.add_variable("b1", kind=BINARY)
        b2 = m.add_variable("b2", kind=BINARY)
        m.fix_variable(b2, 1.0)
        z = m.add_variable("z", 2.0, math.inf)
        b3 = m.add_variable("b3", kind=BINARY)
        m.add_variable("u", 0.0, math.inf)
        w = m.add_variable("w", 0.5, 3.0)
        m.add_rows(RowBlock(np.array([0, 3]), np.array([xy, x_y, z]),
                            np.array([1.0, 2.0, 0.0]), np.array([-math.inf]),
                            np.array([4.0])), ["le"])
        m.add_constraint({b1: 1.0, b3: 1.0, w: -0.25}, GREATER, 1.0, "ge")
        m.add_constraint({x_y: 1.0, z: 1.0, b2: 1.0}, EQUAL, 0.0, "eq")
        m.set_objective({b1: 3.0, z: 0.5, xy: -1.5})
        assert write_model(m) == """\
NAME          pin_model
ROWS
 N  OBJ
 L  le
 G  ge
 E  eq
COLUMNS
    x_y  OBJ  -1.5
    x_y  le  1.0
    x_y.1  le  2.0
    x_y.1  eq  1.0
    M0  'MARKER'  'INTORG'
    b1  OBJ  3.0
    b1  ge  1.0
    b2  eq  1.0
    M1  'MARKER'  'INTEND'
    z  OBJ  0.5
    z  eq  1.0
    M2  'MARKER'  'INTORG'
    b3  ge  1.0
    M3  'MARKER'  'INTEND'
    u  OBJ  0.0
    w  ge  -0.25
RHS
    RHS  le  4.0
    RHS  ge  1.0
BOUNDS
 FR BND  x_y
 MI BND  x_y.1
 UP BND  x_y.1  5.0
 UP BND  b1  1.0
 FX BND  b2  1.0
 LO BND  z  2.0
 UP BND  b3  1.0
 LO BND  w  0.5
 UP BND  w  3.0
ENDATA
"""

    def test_long_names_stable_across_hash_seeds(self):
        import gridfort

        script = (
            "import sys\n"
            "from gridfort.milp import MilpModel, write_model\n"
            "m = MilpModel('n' * 300)\n"
            "x = m.add_variable('v' * 300, 0.0, 1.0)\n"
            "m.add_constraint({x: 1.0}, '<=', 1.0, 'c' * 300)\n"
            "m.set_objective({x: 1.0})\n"
            "sys.stdout.write(write_model(m))\n"
        )
        src = str(Path(gridfort.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                check=True).stdout)
        assert outputs[0] == outputs[1]
        names = outputs[0].decode().split()
        assert any(len(n) == 255 and "~" in n for n in names)


class TestExternalAdapter:
    def test_parse_two_values(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 5.0)
        m.add_variable("y", 0.0, 5.0)
        m.set_objective({0: 1.0, 1: 1.0})
        sol = parse_external_solution(
            "# Objective value = 3.5\nx 1.5\ny 2.0\n", m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.5)
        assert sol.values[0] == pytest.approx(1.5)
        assert sol.values[1] == pytest.approx(2.0)

    def test_unknown_variable_named_in_error(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 5.0)
        m.set_objective({0: 1.0})
        with pytest.raises(SolverError, match="ghost"):
            parse_external_solution("# Objective value = 0\nghost 1\n", m)

    def test_near_integral_binary_rounds(self):
        m = MilpModel()
        m.add_variable("b", kind=BINARY)
        m.set_objective({0: 1.0})
        sol = parse_external_solution("# Objective value = 1\nb 0.9999997\n", m)
        assert sol.values[0] == 1.0

    def test_integrality_violation_rejected(self):
        m = MilpModel()
        m.add_variable("b", kind=BINARY)
        m.set_objective({0: 1.0})
        with pytest.raises(SolverError, match="integrality"):
            parse_external_solution("# Objective value = 1\nb 0.4\n", m)

    def test_infeasible_status_line(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 1.0)
        m.set_objective({0: 1.0})
        sol = parse_external_solution("# Status = infeasible\n", m)
        assert sol.status == "infeasible"
        assert sol.values is None

    @pytest.mark.parametrize("line", ["# Status = optimal", "#status=OPTIMAL", ""])
    def test_optimal_or_absent_status_line(self, line):
        m = MilpModel()
        m.add_variable("x", 0.0, 1.0)
        m.set_objective({0: 1.0})
        sol = parse_external_solution(f"{line}\n# Objective value = 1\nx 1\n", m)
        assert sol.status == "optimal"
        assert sol.objective == 1.0

    def test_missing_objective_rejected(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 1.0)
        m.set_objective({0: 1.0})
        with pytest.raises(SolverError, match="objective"):
            parse_external_solution("x 1.0\n", m)

    @pytest.mark.parametrize("text, match", [
        ("# Objective value = 1.2.3\nx 1\n", "bad value '1.2.3'"),
        ("# Objective value = 1e999\nx 1\n", "'1e999' is not finite"),
        ("# Objective value = inf\nx 1\n", "line 1: value 'inf' is not finite"),
        ("# Objective value = -inf\nx 1\n", "line 1: value '-inf' is not finite"),
        ("# Objective value = nan\nx 1\n", "line 1: value 'nan' is not finite"),
        ("# Objective value = 1\nx inf\n", "'inf' is not finite"),
        ("# Objective value = 1\nx -inf\n", "'-inf' is not finite"),
        ("# Objective value = 1\nx nan\n", "'nan' is not finite"),
        ("# Objective value = 1\nb inf\n", "'inf' is not finite"),
        ("# Objective value = 1\nb nan\n", "'nan' is not finite"),
        ("# Objective value = 1\nx 1\nb 1\nx 2\n", "line 4: variable 'x' named twice"),
        # a solve stopped at a limit has proven nothing, whatever it wrote
        ("# Status = time limit reached\n# Objective value = 1\nx 1\n",
         "status 'time limit reached', neither optimal nor infeasible"),
        ("# Objective value = 1\n# status = TIME_LIMIT\nx 1\n", "status 'TIME_LIMIT'"),
        ("# Status = feasible\n# Objective value = 1\nx 1\n", "status 'feasible'"),
        ("# Status = infeasible\n# Status = node_limit\n", "status 'node_limit'"),
    ], ids=["objective-unparsed", "objective-overflow", "objective-inf",
            "objective-minus-inf", "objective-nan", "inf", "minus-inf", "nan",
            "binary-inf", "binary-nan", "named-twice", "status-time-limit",
            "status-upper-case", "status-feasible", "status-infeasible-and-limit"])
    def test_malformed_file_is_a_solver_error(self, text, match):
        m = MilpModel()
        m.add_variable("x", 0.0, 5.0)
        m.add_variable("b", kind=BINARY)
        m.set_objective({0: 1.0, 1: 1.0})
        with pytest.raises(SolverError, match=match):
            parse_external_solution(text, m)

    def test_round_trip_through_fake_external_solver(self):
        fake = Path(__file__).parent / "fake_solver.py"
        options = SolverOptions(
            backend="external",
            external_command=f"{sys.executable} {fake} {{model}} {{solution}}",
        )
        sol = solve(binary_pair_model(), options)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)

    def test_names_that_clean_alike_round_trip(self):
        """``a b`` and ``a_b`` both clean to ``a_b``; the solution file names
        them as the MPS file does, and each value reaches its own column."""
        m = MilpModel()
        x = m.add_variable("a b", kind=BINARY)
        y = m.add_variable("a_b", 0.0, 5.0)
        m.add_constraint({x: 1.0, y: 1.0}, GREATER, 1.5, "cover 1")
        m.add_constraint({y: 1.0}, LESS, 4.0, "cover_1")
        m.set_objective({x: 1.0, y: 2.0})
        fake = Path(__file__).parent / "fake_solver.py"
        external = solve(m, SolverOptions(
            backend="external",
            external_command=f"{sys.executable} {fake} {{model}} {{solution}}",
        ))
        builtin = solve(m, EXACT)
        assert external.status == builtin.status == "optimal"
        assert builtin.objective == pytest.approx(2.0)
        assert external.objective == pytest.approx(builtin.objective)
        assert external.values == pytest.approx(builtin.values)

    def test_unconfigured_external_backend_errors(self, monkeypatch):
        monkeypatch.delenv("GRIDFORT_SOLVER_CMD", raising=False)
        with pytest.raises(SolverError, match="external"):
            solve(binary_pair_model(), SolverOptions(backend="external"))

    def test_external_agrees_with_builtin_on_fixture_model(self):
        from gridfort import (DamageScenario, DesignParams, ScenarioTemplate, build_master,
                              load_network_file)

        net = load_network_file(Path(__file__).parent / "fixtures" / "case5.json")
        scens = [DamageScenario(0, frozenset()),
                 DamageScenario(1, frozenset({"L1"}))]
        params = DesignParams(critical_fraction=0.98, total_fraction=0.0)
        master = build_master(ScenarioTemplate(net, params), scens)
        builtin = solve(master.model, EXACT)
        fake = Path(__file__).parent / "fake_solver.py"
        external = solve(master.model, SolverOptions(
            backend="external",
            external_command=f"{sys.executable} {fake} {{model}} {{solution}}",
        ))
        assert builtin.status == external.status == "optimal"
        assert external.objective == pytest.approx(builtin.objective, rel=1e-4)


class TestModelValidation:
    def test_unknown_variable_in_constraint(self):
        m = MilpModel()
        m.add_variable("x")
        with pytest.raises(ValueError, match="unknown variable"):
            m.add_constraint({5: 1.0}, LESS, 1.0)

    def test_binary_bounds_within_unit_interval(self):
        m = MilpModel()
        with pytest.raises(ValueError):
            m.add_variable("b", 0.0, 2.0, BINARY)

    def test_nonfinite_rhs_rejected(self):
        m = MilpModel()
        m.add_variable("x")
        with pytest.raises(ValueError, match="rhs"):
            m.add_constraint({0: 1.0}, LESS, math.inf)

    def test_duplicate_names_rejected(self):
        m = MilpModel()
        m.add_variable("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variable("x")


class TestRowStorage:
    def test_set_rhs_moves_each_sense(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 10.0)
        for sense in (LESS, GREATER, EQUAL):
            m.add_constraint({x: 1.0}, sense, 2.0, sense)
        for row in range(3):
            m.set_rhs(row, 5.0)
        rows = m.rows()
        assert list(zip(rows.lo.tolist(), rows.hi.tolist())) == [
            (-math.inf, 5.0), (5.0, math.inf), (5.0, 5.0)]
        m.set_objective({x: 1.0})
        assert solve(m, EXACT).values[0] == pytest.approx(5.0)

    def test_blocks_and_single_rows_keep_insertion_order(self):
        m = MilpModel()
        x = m.add_variable("x", 0.0, 10.0)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint({y: 1.0, x: 2.0}, LESS, 10.0)
        m.add_rows(RowBlock(np.array([0, 1, 3]), np.array([0, 0, 1]),
                            np.array([1.0, 1.0, -1.0]), np.array([1.0, -math.inf]),
                            np.array([math.inf, 0.0])), lambda: ["b0", ""])
        m.add_constraint({x: 1.0}, EQUAL, 3.0, "last")
        assert m.num_constraints == 4
        assert m.row_names == ["c0", "b0", "c2", "last"]
        rows = m.rows()
        assert rows.indptr.tolist() == [0, 2, 3, 5, 6]
        assert rows.indices.tolist() == [0, 1, 0, 0, 1, 0]
        assert rows.data.tolist() == [2.0, 1.0, 1.0, 1.0, -1.0, 1.0]
        assert rows.lo.tolist() == [-math.inf, 1.0, -math.inf, 3.0]
        assert rows.hi.tolist() == [10.0, math.inf, 0.0, 3.0]
        m.set_objective({y: -1.0})
        assert solve(m, EXACT).values.tolist() == pytest.approx([3.0, 4.0])

    def test_a_ranged_row_is_rejected(self):
        # the MPS writer has no form for lo < hi, both finite: x in [0, 10]
        # with 1 <= x <= 5 would be solved as x = 1 through the external route
        m = MilpModel()
        x = m.add_variable("x", 0.0, 10.0)
        with pytest.raises(ValueError, match="row 0 of the block is ranged: 1.0 <= a @ x <= 5.0"):
            m.add_rows(RowBlock(np.array([0, 1]), np.array([x]), np.array([1.0]),
                                np.array([1.0]), np.array([5.0])), lambda: ["r"])
        assert m.num_constraints == 0
