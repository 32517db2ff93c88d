"""Models assembled from the compiled scenario block hand HiGHS exactly the
arrays of the row-by-row builder (``dict_master``), and carry its names."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridfort import (
    DamageScenario,
    DesignParams,
    FragilityParams,
    SolverOptions,
    build_master,
    evaluate_design,
    sample_scenarios,
)
from gridfort.decomposition import evaluate_distinct, solve_with_cycle_cuts
from gridfort.formulation import ScenarioTemplate, make_design
from gridfort.milp import MilpModel, _compile, write_model

from conftest import load_doc, two_rings_doc
from dict_master import DictMaster, compile_dict
from netgen import random_instance

EXACT = SolverOptions(rel_gap=1e-9)
ARRAYS = ("c", "indptr", "indices", "data", "row_lo", "row_hi", "lb", "ub", "binary")


def compiled(model) -> dict[str, np.ndarray]:
    lp = _compile(model)
    return {"c": lp.c, "indptr": lp.A.indptr, "indices": lp.A.indices,
            "data": lp.A.data, "row_lo": lp.row_lo, "row_hi": lp.row_hi,
            "lb": lp.lb, "ub": lp.ub, "binary": lp.binary}


def assert_same_model(master, oracle: DictMaster) -> None:
    got, want = compiled(master.model), compile_dict(oracle.model)
    for key in ARRAYS:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key, strict=True)
    assert master.model.var_names == oracle.model.var_names
    assert master.model.row_names == oracle.model.row_names
    assert list(master.blocks) == list(oracle.blocks)


def damaged_scenarios(network, count=4, seed=5, prob=0.3):
    return sample_scenarios(network, FragilityParams(
        line_failure_prob_override=prob, scenario_count=count, seed=seed))


VARIANTS = {
    "cost": {},
    "microgrid_kw": {"microgrid_kw": 300.0},
    "fixed_design": {"fixed_design": True},
    "maximize_served": {"fixed_design": True, "maximize_served": True},
}


def build_pair(network, scenarios, params, variant):
    kwargs = dict(VARIANTS[variant])
    served = kwargs.pop("maximize_served", False)
    budget = kwargs.pop("microgrid_kw", None)
    if kwargs.pop("fixed_design", False):
        hard = sorted(network.damageable_lines())[:1]
        kwargs["fixed_design"] = make_design(network, params, [], hard, {})
    master = build_master(ScenarioTemplate(network, params), scenarios, **kwargs)
    oracle = DictMaster(network, scenarios, params, **kwargs)
    if served:
        master.maximize_served()
        oracle.maximize_served()
    if budget is not None:
        master.minimize_microgrid_kw(budget)
        oracle.minimize_microgrid_kw(budget)
    return master, oracle


class TestCompiledBlocksEqualTheOracle:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("fixture", ["case5", "case30"])
    def test_fixtures(self, request, fixture, variant):
        network = request.getfixturevalue(fixture)
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        scens = damaged_scenarios(network)
        assert any(s.damaged_line_ids for s in scens)
        master, oracle = build_pair(network, scens, params, variant)
        assert_same_model(master, oracle)

    @given(seed=st.integers(0, 10_000), phases=st.sampled_from(["a", "ab"]),
           variant=st.sampled_from(list(VARIANTS)), data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_generated_feeders_and_damage(self, seed, phases, variant, data):
        network, _, params = random_instance(seed, phases=phases)
        lines = sorted(network.damageable_lines())
        damage = data.draw(st.lists(st.sets(st.sampled_from(lines)) if lines
                                    else st.just(set()), min_size=1, max_size=3))
        scens = [DamageScenario(i, frozenset(d)) for i, d in enumerate(damage)]
        master, oracle = build_pair(network, scens, params, variant)
        assert_same_model(master, oracle)

    def test_master_grown_after_cut_rounds(self, case30):
        """Cuts, then a new block, then more cuts: the rows stay in the
        order the row-by-row builder gives them, and so does the MPS text."""
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        scens = [DamageScenario(0, frozenset())] + damaged_scenarios(case30, 3, seed=7)[1:]
        master = build_master(ScenarioTemplate(case30, params), scens[:2])
        cuts = []
        add_cut = master.add_cycle_cut

        def recording(cycle, sid):
            cuts.append((cycle, sid))
            return add_cut(cycle, sid)

        master.add_cycle_cut = recording
        # every line closable: the first solve closes loops and draws cuts
        for blk in master.blocks.values():
            for lid, ix in blk.vars.bs.items():
                if master.model.lb[ix] != master.model.ub[ix]:
                    master.model.fix_variable(ix, 1.0)
        solve_with_cycle_cuts(master, EXACT)
        first = len(cuts)
        master.add_scenario(scens[2])
        solve_with_cycle_cuts(master, EXACT)
        assert first > 0

        oracle = DictMaster(case30, scens[:2], params)
        for blk in oracle.blocks.values():
            for lid, ix in blk.vars.bs.items():
                if oracle.model.lb[ix] != oracle.model.ub[ix]:
                    oracle.model.fix_variable(ix, 1.0)
        for cycle, sid in cuts[:first]:
            oracle.add_cycle_cut(cycle, sid)
        oracle.add_scenario(scens[2])
        for cycle, sid in cuts[first:]:
            oracle.add_cycle_cut(cycle, sid)
        assert_same_model(master, oracle)
        assert write_model(master.model) == write_model(oracle.model)


class TestCutPoolEqualsTheOracle:
    """A cycle separated in any block is cut in every block in the same
    round, and a block added later starts with the whole pool; the rows are
    those of the row-by-row builder replaying the cuts in pool order."""

    PARAMS = DesignParams(critical_fraction=0.0, total_fraction=0.0)
    SCENS = [DamageScenario(0, frozenset()), DamageScenario(1, frozenset())]

    @staticmethod
    def draw_rings(model, blocks) -> None:
        """Block 0 is drawn to use every edge of ring a and none of ring b,
        block 1 the other way round."""
        obj = {}
        for sid, ring, other in ((0, "a", "b"), (1, "b", "a")):
            for key, ix in blocks[sid].vars.bredge.items():
                if all(node.startswith(ring) for node in key):
                    obj[ix] = -1.0
                elif all(node.startswith(other) for node in key):
                    obj[ix] = 1.0
        model.set_objective(obj)

    def one_round(self, network):
        master = build_master(ScenarioTemplate(network, self.PARAMS), self.SCENS)
        cuts = []
        add_cut = master.add_cycle_cut

        def recording(cycle, sid):
            cuts.append((tuple(cycle), sid))
            return add_cut(cycle, sid)

        master.add_cycle_cut = recording
        self.draw_rings(master.model, master.blocks)
        assert solve_with_cycle_cuts(master, EXACT).status == "optimal"
        return master, cuts

    def oracle(self, network, cuts):
        oracle = DictMaster(network, self.SCENS, self.PARAMS)
        self.draw_rings(oracle.model, oracle.blocks)
        for cycle, sid in cuts:
            oracle.add_cycle_cut(cycle, sid)
        return oracle

    def test_a_round_cuts_the_union_in_every_block(self):
        network = load_doc(two_rings_doc())
        master, cuts = self.one_round(network)
        ring_a, ring_b = master.cycles  # separated in block 0, then block 1
        assert {node for edge in ring_a for node in edge} == {"a0", "a1", "a2", "a3"}
        assert {node for edge in ring_b for node in edge} == {"b0", "b1", "b2", "b3"}
        assert cuts == [(ring_a, 0), (ring_b, 0), (ring_a, 1), (ring_b, 1)]
        assert master.solves == 2
        oracle = self.oracle(network, cuts)
        assert_same_model(master, oracle)
        assert write_model(master.model) == write_model(oracle.model)

    def test_a_block_added_later_starts_with_the_pool(self):
        network = load_doc(two_rings_doc())
        master, cuts = self.one_round(network)
        first = len(cuts)
        added = DamageScenario(2, frozenset(sorted(network.damageable_lines())[:1]))
        assert added.damaged_line_ids
        master.add_scenario(added)
        assert cuts[first:] == [(cycle, 2) for cycle in master.cycles]
        oracle = self.oracle(network, cuts[:first])
        oracle.add_scenario(added)
        for cycle, sid in cuts[first:]:
            oracle.add_cycle_cut(cycle, sid)
        assert_same_model(master, oracle)
        assert write_model(master.model) == write_model(oracle.model)


class TestSharedTemplate:
    def test_models_leave_the_template_as_it_was(self, case30):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        template = ScenarioTemplate(case30, params)
        before = [a.copy() for a in (template.rows.indptr, template.rows.indices,
                                     template.rows.data, template.rows.lo, template.rows.hi)]
        bounds = (list(template.lb), list(template.ub))
        design = make_design(case30, params, [], [], {})
        for scen in damaged_scenarios(case30):
            master = build_master(template, [scen], fixed_design=design)
            master.maximize_served()
            master.model.fix_variable(master.model.num_variables - 1, 0.0)
            _compile(master.model)
        after = (template.rows.indptr, template.rows.indices, template.rows.data,
                 template.rows.lo, template.rows.hi)
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y, strict=True)
        assert (list(template.lb), list(template.ub)) == bounds

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_block_has_the_templates_rows(self, seed, data):
        """Damage renames and patches each damaged line's sw row in place:
        a block has the template's row count and row order whatever it
        damages, and its resilience rows sit where the template's do."""
        network, _, params = random_instance(seed)
        template = ScenarioTemplate(network, params)
        lines = sorted(network.damageable_lines())
        damage = data.draw(st.sets(st.sampled_from(lines)) if lines else st.just(set()))
        model = MilpModel()
        template.add_first_stage(model)
        template.stack(model, DamageScenario(0, frozenset()))
        start = model.num_constraints
        block = template.stack(model, DamageScenario(1, frozenset(damage)))
        assert model.num_constraints - start == len(template.rows)
        assert block.resilience_rows == [start + r for r in template.resilience_rows]
        names = model.row_names[start:]
        renamed = {name for name, stem in zip(names, template.row_stems)
                   if name != stem + ":s1"}
        assert renamed == {f"dmg:{lid}:s1" for lid in damage}

    def test_damage_checks_kept(self, case30):
        master = build_master(ScenarioTemplate(case30, DesignParams()),
                              [DamageScenario(0, frozenset())])
        with pytest.raises(ValueError, match="unknown lines"):
            master.add_scenario(DamageScenario(1, frozenset({"NOPE"})))
        candidate = next(l.id for l in case30.lines.values() if l.is_candidate)
        with pytest.raises(ValueError, match="candidate/non-damageable"):
            master.add_scenario(DamageScenario(2, frozenset({candidate})))
        assert list(master.blocks) == [0]

    def test_parallel_verification_equals_serial(self, case30, monkeypatch):
        params = DesignParams(critical_fraction=0.98, total_fraction=0.3)
        template = ScenarioTemplate(case30, params)
        design = make_design(case30, params, [], [], {})
        scens = damaged_scenarios(case30, 8, seed=3)
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        def evaluate(scen):
            return evaluate_design(design, template, scen, EXACT)

        serial = evaluate_distinct(scens, evaluate, jobs=1)
        monkeypatch.setattr(os, "fork", counting_fork)
        parallel = evaluate_distinct(scens, evaluate, jobs=2)
        monkeypatch.undo()
        # nine damage sets, so a helper process solved four of them
        assert len({s.damaged_line_ids for s in scens}) == 9
        assert len(forks) == 1
        assert {v.feasible for v in serial.values()} == {True, False}
        assert list(serial) == list(parallel)
        for sid, verdict in serial.items():
            assert parallel[sid] == verdict
            assert parallel[sid].state == verdict.state
