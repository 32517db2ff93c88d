"""Island cover rows: first-stage rows that every sampled damage set adds to
the design master before its first solve (``ScenarioTemplate.cover_rows``,
``MasterProblem.add_cover_rows``)."""

import json
import math
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import gridfort.decomposition
from gridfort import (
    DamageScenario,
    DesignParams,
    SolverOptions,
    build_master,
    evaluate_design,
    sbd_design,
)
from gridfort.cli import main
from gridfort.decomposition import solve_with_cycle_cuts
from gridfort.formulation import CoverRow, MasterProblem, ScenarioTemplate, make_design

from conftest import FIXTURES, c, load_doc, two_bus_doc, z1
from netgen import random_instance
from test_fanout import CASE30_THREE_ITERATIONS

EXACT = SolverOptions(rel_gap=1e-9)
BASELINE = DamageScenario(0, frozenset())


def row_value(row: CoverRow, values) -> float:
    """The row's left-hand side minus its right-hand side at ``values``."""
    return sum(min(a, row.need) * values[ix] for ix, a in row.supply.items()) - row.need


def cover_rows_of(model) -> dict[str, tuple]:
    """name -> (lower bound, {column: coefficient}) of each cover row."""
    rows = model.rows()
    found = {}
    for i, name in enumerate(model.row_names):
        if name.startswith("cover:"):
            lo, hi = rows.indptr[i], rows.indptr[i + 1]
            found[name] = (float(rows.lo[i]), dict(zip(rows.indices[lo:hi].tolist(),
                                                       rows.data[lo:hi].tolist())))
    return found


def star_net(harden_costs: dict[str, float]):
    """Radial lines ``id -> harden cost`` from the substation, each
    damageable and hardenable and feeding a bus of its own with a 50 kW
    critical load; no microgrid."""
    doc = two_bus_doc()
    doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
    doc["buses"] += [{"id": f"b{lid}", "phases": "a"} for lid in harden_costs]
    doc["lines"] = [
        {"id": lid, "from": "sub", "to": f"b{lid}", "phases": "a", "length_km": 1.0,
         "impedance": z1(0.1, 0.2), "capacity_kva": 500.0, "damageable": True,
         "hardenable": True, "harden_cost": cost}
        for lid, cost in harden_costs.items()]
    doc["loads"] = [{"id": f"ld{lid}", "bus": f"b{lid}", "is_critical": True,
                     "demand_kva": {"a": c(50.0, 10.0)}} for lid in harden_costs]
    return load_doc(doc)


class TestValidity:
    @given(seed=st.integers(0, 10_000), phases=st.sampled_from(["a", "ab"]),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_hold_at_the_extensive_form_optimum(self, seed, phases, data):
        """Every row of every damage set holds at the optimum over all the
        scenarios at once; a row that no design meets means no optimum."""
        network, scens, params = random_instance(seed, phases=phases)
        lines = sorted(network.damageable_lines())
        extra = data.draw(st.lists(st.sets(st.sampled_from(lines)) if lines
                                   else st.just(set()), max_size=2))
        scens += [DamageScenario(len(scens) + i, frozenset(d)) for i, d in enumerate(extra)]
        template = ScenarioTemplate(network, params)
        rows = [row for damage in {s.damaged_line_ids for s in scens}
                for row in template.cover_rows(damage)]
        sol = solve_with_cycle_cuts(build_master(template, scens), EXACT)
        if not all(row.attainable for row in rows):
            assert sol.status == "infeasible"
            return
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "optimal":
            for row in rows:
                assert row_value(row, sol.values) >= -1e-6, row

    def test_unattainable_island_is_exit_3_before_any_solve(self, tmp_path, capsys,
                                                            monkeypatch):
        """A critical load behind a line that cannot be hardened, with no
        microgrid: the run names the island and solves nothing."""
        doc = two_bus_doc()
        doc["loads"][0]["is_critical"] = True
        doc["lines"][0]["damageable"] = True
        (tmp_path / "net.json").write_text(json.dumps(doc))
        (tmp_path / "damage.json").write_text(json.dumps({
            "seed": 0, "per_line_probability": None,
            "scenarios": [{"id": 0, "damaged_line_ids": []},
                          {"id": 1, "damaged_line_ids": ["l1"]}]}))
        (tmp_path / "config.json").write_text(json.dumps({
            "network": "net.json", "scenarios_file": "damage.json",
            "design": {"critical_fraction": 1.0, "total_fraction": 0.0}}))
        monkeypatch.setattr(gridfort.decomposition, "solve", None)  # any call fails
        assert main(["design", "--config", str(tmp_path / "config.json")]) == 3
        err = capsys.readouterr().err
        assert err == ("infeasible: resilience targets unattainable: scenario 1 cuts "
                       "buses ['b1'] off every substation, and all upgrades together "
                       "supply 0 of the 0.05 pu of critical real power they must "
                       "receive (scenario 1)\n")


class TestMaster:
    def test_one_row_per_support_keeps_the_largest_need(self, case5):
        template = ScenarioTemplate(case5, DesignParams())
        a, b = sorted(template.first_stage.harden.values())[:2]
        master = build_master(template, [BASELINE])
        added = master.add_cover_rows([
            CoverRow(("x",), {a: 1.0, b: 0.5}, 0.3),
            CoverRow(("y",), {b: 1.0}, 0.2),
            CoverRow(("z",), {a: 1.0, b: 0.5}, 0.6),
            CoverRow(("w",), {b: 0.5, a: 1.0}, 0.4),
        ])
        assert added == 2
        assert cover_rows_of(master.model) == {
            "cover:0": (0.6, {a: 0.6, b: 0.5}),
            "cover:1": (0.2, {b: 0.2}),
        }

    def test_verification_and_best_effort_models_carry_none(self, monkeypatch):
        net = star_net({"l1": 10_000.0, "l2": 20_000.0})
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        template = ScenarioTemplate(net, params)
        scen = DamageScenario(1, frozenset({"l1"}))
        assert template.cover_rows(scen.damaged_line_ids)
        models = []
        real = gridfort.decomposition.solve

        def recording(model, options=None):
            models.append(model)
            return real(model, options)

        monkeypatch.setattr(gridfort.decomposition, "solve", recording)
        none = make_design(net, params, [], [], {})
        hardened = make_design(net, params, [], ["l1"], {})
        assert not evaluate_design(none, template, scen, EXACT).feasible  # best effort
        assert evaluate_design(hardened, template, scen, EXACT).feasible
        assert len(models) >= 3
        assert all(cover_rows_of(model) == {} for model in models)
        models.clear()
        sbd_design(template, [BASELINE, scen], EXACT)
        assert cover_rows_of(models[0])  # the design master's first solve

    def test_rows_cut_off_a_design_that_fails_on_island_supply(self, monkeypatch):
        """Scenario 1, the most damaged, is the first master's alone. Without
        cover rows its design hardens l1 and l3 and fails scenario 2 only for
        want of supply to bl2, which the row of scenario 2's damage cuts off:
        the run then takes one iteration instead of two, to the same design."""
        net = star_net({"l1": 10_000.0, "l2": 20_000.0, "l3": 30_000.0})
        params = DesignParams(critical_fraction=1.0, total_fraction=0.0)
        template = ScenarioTemplate(net, params)
        scens = [BASELINE, DamageScenario(1, frozenset({"l1", "l3"})),
                 DamageScenario(2, frozenset({"l2"}))]
        design, state = sbd_design(template, scens, EXACT)
        assert [rec.cover_rows for rec in state.iterations] == [3]

        monkeypatch.setattr(MasterProblem, "add_cover_rows", lambda self, rows: 0)
        bare, bare_state = sbd_design(template, scens, EXACT)
        assert len(bare_state.iterations) == len(state.iterations) + 1 == 2
        assert bare == design
        first = bare_state.iterations[0]
        assert first.active_scenarios == (1,) and not first.verdicts[2].feasible
        cut = make_design(net, params, [], ["l1", "l3"], {})
        assert first.cost == cut.cost.total
        (row,) = template.cover_rows(frozenset({"l2"}))
        assert row.island == ("bl2",)
        values = [0.0] * template.n_first
        for lid in cut.hardened_lines:
            values[template.first_stage.harden[lid]] = 1.0
        assert row_value(row, values) < 0


class TestJobs:
    def test_rows_active_sets_and_design_do_not_depend_on_jobs(self, tmp_path,
                                                               monkeypatch):
        masters = []
        real = gridfort.decomposition.build_master

        def recording(*args, **kwargs):
            master = real(*args, **kwargs)
            masters.append(master)
            return master

        monkeypatch.setattr(gridfort.decomposition, "build_master", recording)
        shutil.copy(FIXTURES / "case30.json", tmp_path / "case30.json")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(CASE30_THREE_ITERATIONS))
        runs = {}
        for jobs in (1, 2):
            masters.clear()
            out = tmp_path / f"jobs{jobs}"
            assert main(["design", "--config", str(cfg), "--jobs", str(jobs),
                         "--out", str(out)]) == 0
            log = json.loads((out / "sbd_log.json").read_text())["iterations"]
            rows = cover_rows_of(masters[0].model)  # the design master, built first
            assert [rec["cover_rows"] for rec in log] == [len(rows)] + [0] * (len(log) - 1)
            assert len(log) == 3 and rows
            runs[jobs] = (rows, [rec["active_scenarios"] for rec in log],
                          (out / "design.json").read_bytes())
        assert runs[1] == runs[2]
        assert all(math.isfinite(lo) and lo > 0 for lo, _ in runs[1][0].values())
