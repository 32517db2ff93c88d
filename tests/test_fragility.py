import math

import pytest
from hypothesis import given, settings, strategies as st

from gridfort import (
    DamageScenario,
    FragilityParams,
    line_failure_probability,
    load_scenarios,
    sample_scenarios,
    save_scenarios,
)
from gridfort.fragility import per_line_probability

from conftest import load_doc, two_bus_doc, z1


def chain_network(n_lines=20, damageable=True):
    doc = two_bus_doc()
    doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
    doc["lines"] = []
    prev = "sub"
    for i in range(n_lines):
        bid = f"n{i}"
        doc["buses"].append({"id": bid, "phases": "a"})
        doc["lines"].append({
            "id": f"L{i:03d}", "from": prev, "to": bid, "phases": "a",
            "length_km": 0.5, "impedance": z1(0.2, 0.4), "capacity_kva": 400.0,
            "damageable": damageable,
        })
        prev = bid
    doc["loads"] = [{"id": "ld", "bus": "n0", "demand_kva": {"a": {"re": 10.0, "im": 0.0}}}]
    return load_doc(doc)


class TestLineFailureProbability:
    def test_zero(self):
        assert line_failure_probability(0.0) == 0.0

    def test_one(self):
        assert line_failure_probability(1.0) == 1.0

    def test_back_solved_twenty_percent(self):
        # 1 - (1 - p)^2 = 0.2  =>  p = 1 - sqrt(0.8)
        p_pole = 1.0 - math.sqrt(0.8)
        assert p_pole == pytest.approx(0.1055728, abs=1e-7)
        assert line_failure_probability(0.1055728) == pytest.approx(0.2, abs=1e-7)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            line_failure_probability(1.5)
        with pytest.raises(ValueError):
            line_failure_probability(-0.1)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_within_unit_interval_and_monotone(self, p):
        q = line_failure_probability(p)
        assert 0.0 <= q <= 1.0
        assert q >= p - 1e-15  # one of two poles failing is at least as likely


class TestSampling:
    def test_zero_probability_gives_empty_sets(self):
        net = chain_network()
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.0, scenario_count=5, seed=1))
        assert len(scens) == 6
        assert all(not s.damaged_line_ids for s in scens)

    def test_certain_failure_damages_everything(self):
        net = chain_network()
        full = set(net.damageable_lines())
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=1.0, scenario_count=3, seed=1))
        assert all(s.damaged_line_ids == full for s in scens[1:])

    def test_baseline_is_first_and_undamaged(self):
        net = chain_network()
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.5, scenario_count=3, seed=9))
        assert scens[0].id == 0
        assert scens[0].is_baseline
        assert not scens[0].damaged_line_ids

    def test_binomial_mean_within_three_sigma(self):
        net = chain_network(n_lines=200)
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.2, scenario_count=50, seed=12345))
        counts = [len(s.damaged_line_ids) for s in scens[1:]]
        assert len(counts) == 50
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(200 * 0.2 * 0.8)
        assert abs(mean - 40.0) <= 3.0 * sigma / math.sqrt(50)

    def test_determinism(self):
        net = chain_network()
        params = FragilityParams(line_failure_prob_override=0.3,
                                 scenario_count=10, seed=77)
        a = sample_scenarios(net, params)
        b = sample_scenarios(net, params)
        assert [s.damaged_line_ids for s in a] == [s.damaged_line_ids for s in b]

    def test_different_seeds_differ(self):
        net = chain_network(n_lines=40)
        a = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.3, scenario_count=10, seed=1))
        b = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.3, scenario_count=10, seed=2))
        assert [s.damaged_line_ids for s in a] != [s.damaged_line_ids for s in b]

    @given(lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_monotone_coupling(self, lo, hi, seed):
        """Common random numbers: a higher probability never shrinks any
        damage set sampled with the same seed."""
        lo, hi = min(lo, hi), max(lo, hi)
        net = chain_network(n_lines=15)
        a = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=lo, scenario_count=4, seed=seed))
        b = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=hi, scenario_count=4, seed=seed))
        for sa, sb in zip(a, b):
            assert sa.damaged_line_ids <= sb.damaged_line_ids

    def test_candidates_and_sturdy_lines_never_damaged(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": "a"})
        doc["lines"][0]["damageable"] = True
        doc["lines"] += [
            {"id": "l2", "from": "b1", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 100.0,
             "damageable": False},
            {"id": "l3", "from": "sub", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 100.0,
             "status": "candidate_new", "construction_cost": 1000.0},
        ]
        net = load_doc(doc)
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=1.0, scenario_count=20, seed=5))
        for s in scens:
            assert "l2" not in s.damaged_line_ids
            assert "l3" not in s.damaged_line_ids

    def test_pole_probability_feeds_line_probability(self):
        params = FragilityParams(pole_failure_prob=0.1055728, scenario_count=1)
        assert per_line_probability(params) == pytest.approx(0.2, abs=1e-7)
        override = FragilityParams(pole_failure_prob=0.9,
                                   line_failure_prob_override=0.05,
                                   scenario_count=1)
        assert per_line_probability(override) == 0.05


class TestScenarioFile:
    def test_round_trip(self):
        net = chain_network(n_lines=10)
        scens = sample_scenarios(net, FragilityParams(
            line_failure_prob_override=0.4, scenario_count=5, seed=3))
        text = save_scenarios(scens, 0.4, 3)
        back = load_scenarios(text, net)
        assert [s.id for s in back] == [s.id for s in scens]
        assert [s.damaged_line_ids for s in back] == [s.damaged_line_ids for s in scens]

    def test_rejects_unknown_damage(self):
        net = chain_network(n_lines=3)
        text = save_scenarios(
            [DamageScenario(0, frozenset()), DamageScenario(1, frozenset({"nope"}))],
            0.1, 0)
        with pytest.raises(ValueError, match="nope"):
            load_scenarios(text, net)

    def test_rejects_duplicate_ids(self):
        text = save_scenarios(
            [DamageScenario(0, frozenset()), DamageScenario(1, frozenset({"L000"})),
             DamageScenario(1, frozenset())], 0.1, 0)
        with pytest.raises(ValueError, match="duplicate scenario id 1"):
            load_scenarios(text)

    def test_requires_baseline_first(self):
        text = save_scenarios([DamageScenario(1, frozenset({"L000"}))], 0.1, 0)
        with pytest.raises(ValueError, match="baseline"):
            load_scenarios(text)
