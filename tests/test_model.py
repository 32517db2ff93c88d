import json
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gridfort import (
    NetworkError,
    UnitSystem,
    aggregate_parallel_edges,
    load_network,
    save_network,
)
from gridfort.model import Phase, adjacency, components, cycle_basis

from conftest import FIXTURES, c, load_doc, two_bus_doc, z1


class TestLoadNetwork:
    def test_minimal_document(self):
        net = load_doc(two_bus_doc())
        assert len(net.buses) == 2
        assert len(net.lines) == 1
        assert len(net.loads) == 1
        assert net.substations == ("sub",)

    def test_dangling_bus_reference_names_the_bus(self):
        doc = two_bus_doc()
        doc["lines"][0]["to"] = "b99"
        with pytest.raises(NetworkError, match="b99"):
            load_doc(doc)

    def test_case30_matches_manifest(self, case30):
        manifest = json.loads((FIXTURES / "case30_manifest.json").read_text())
        assert len(case30.buses) == manifest["buses"] == 30
        assert len(case30.lines) == manifest["lines"]
        assert len(case30.loads) == manifest["loads"]
        assert sum(l.is_critical for l in case30.loads.values()) == manifest["critical_loads"]
        total_kw = sum(
            v.real for load in case30.loads.values()
            for v in load.demand_kva.values()
        )
        assert total_kw == pytest.approx(manifest["total_load_kw"])
        crit_kw = sum(
            v.real for load in case30.loads.values() if load.is_critical
            for v in load.demand_kva.values()
        )
        assert crit_kw == pytest.approx(manifest["critical_load_kw"])
        assert len(case30.damageable_lines()) == manifest["damageable_lines"]

    def test_duplicate_ids_rejected(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": "b1", "phases": "a"})
        with pytest.raises(NetworkError, match="duplicate bus"):
            load_doc(doc)

    def test_nonpositive_capacity_rejected(self):
        doc = two_bus_doc()
        doc["lines"][0]["capacity_kva"] = 0.0
        with pytest.raises(NetworkError, match="l1"):
            load_doc(doc)

    def test_line_phases_must_be_subset_of_bus_phases(self):
        doc = two_bus_doc()
        doc["lines"][0]["phases"] = "ab"
        doc["lines"][0]["impedance"] = [
            c(0.1, 0.2), c(0.03, 0.08), None,
            c(0.03, 0.08), c(0.1, 0.2), None,
            None, None, None,
        ]
        with pytest.raises(NetworkError, match="subset"):
            load_doc(doc)

    def test_candidate_lines_always_switched_and_reliable(self):
        doc = two_bus_doc()
        doc["lines"][0].update(status="candidate_new", has_switch=False,
                               construction_cost=1000.0, damageable=False)
        doc["lines"].append({
            "id": "l2", "from": "sub", "to": "b1", "phases": "a",
            "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 100.0,
        })
        with pytest.raises(NetworkError, match="switch"):
            load_doc(doc)

    def test_loop_of_switchless_lines_rejected(self):
        """Intact lines without a switch are always closed, so a loop of
        them leaves no undamaged state radial; parallel lines collapse
        first, as in the reduced graph."""
        doc = two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": "a"})
        doc["lines"] += [dict(doc["lines"][0], id="l1b", **{"from": "b1", "to": "sub"}),
                         dict(doc["lines"][0], id="l2", **{"from": "b1", "to": "b2"})]
        load_doc(doc)
        doc["lines"].append(dict(doc["lines"][0], id="l3", **{"from": "b2", "to": "sub"}))
        with pytest.raises(NetworkError, match=r"loop over buses \['b1', 'b2', 'sub'\]"):
            load_doc(doc)
        doc["lines"][-1]["has_switch"] = True
        load_doc(doc)

    def test_disconnected_bus_rejected(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": "a"})
        with pytest.raises(NetworkError, match="b2"):
            load_doc(doc)

    @pytest.mark.parametrize("section,field,value", [
        ("bases", "base_kv", None),
        ("buses", "coords", ["a", 0.0]),
        ("lines", "capacity_kva", "500"),
        ("lines", "hardenable", "false"),
        ("lines", "length_km", "1.0"),
        # Python's json reads NaN and Infinity
        ("bases", "base_kva", math.inf),
        ("buses", "coords", [math.nan, 0.0]),
        ("buses", "v_ref", math.nan),
        ("lines", "length_km", -math.inf),
        ("lines", "capacity_kva", {"a": math.nan}),
        ("lines", "harden_cost", math.nan),
        pytest.param("lines", "harden_cost", 10 ** 400, id="lines-harden_cost-huge-int"),
        ("lines", "status", "bogus"),
        ("lines", "status", None),
    ])
    def test_wrong_type_names_the_field(self, section, field, value):
        doc = two_bus_doc()
        entry = doc[section] if section == "bases" else doc[section][-1]
        entry[field] = value
        with pytest.raises(NetworkError, match=f"{section} entry .*'{field}'"):
            load_doc(doc)

    @pytest.mark.parametrize("section,field", [
        ("bases", "base_kw"),
        ("buses", "is_substaton"),
        ("lines", "hardenabel"),
        ("lines", "switch"),
        ("loads", "critical"),
        ("microgrids", "existing"),
    ])
    def test_unknown_field_names_the_entry_and_the_field(self, section, field):
        """A misspelt field was read as absent: with "hardenabel": true a
        line loaded as not hardenable."""
        doc = two_bus_doc()
        doc["microgrids"] = [{"id": "mg", "bus": "b1", "step_capacity_kva": 100.0,
                              "max_steps": 1}]
        entry = doc[section] if section == "bases" else doc[section][-1]
        entry[field] = True
        index = 0 if section == "bases" else len(doc[section]) - 1
        with pytest.raises(NetworkError,
                           match=rf"^{section} entry {index}: unknown field\(s\) \['{field}'\]$"):
            load_doc(doc)

    def test_unknown_section_is_named(self):
        doc = two_bus_doc(switches=[])
        with pytest.raises(NetworkError, match=r"^document has unknown section\(s\) \['switches'\]$"):
            load_doc(doc)

    @pytest.mark.parametrize("v_ref", [0.0, 0, -1.0])
    def test_nonpositive_v_ref_names_the_bus(self, v_ref):
        """A zero v_ref was read as 1.0, and a negative one made every
        scenario unattainable."""
        doc = two_bus_doc()
        doc["buses"][0]["v_ref"] = v_ref
        with pytest.raises(NetworkError, match="bus 'sub': v_ref must be positive"):
            load_doc(doc)
        doc["buses"][0]["v_ref"] = 1.05
        assert load_doc(doc).buses["sub"].v_ref == 1.05

    def test_complex_value_must_hold_numbers(self):
        doc = two_bus_doc()
        doc["loads"][0]["demand_kva"]["a"]["re"] = None
        with pytest.raises(NetworkError, match="load 'ld1'"):
            load_doc(doc)

    def test_self_loop_line_rejected(self):
        doc = two_bus_doc()
        doc["lines"].append(dict(doc["lines"][0], id="loop", to="sub"))
        with pytest.raises(NetworkError, match="'loop'.*to itself"):
            load_doc(doc)

    def test_impedance_missing_declared_pair_rejected(self):
        doc = two_bus_doc()
        doc["lines"][0]["impedance"] = [None] * 9
        with pytest.raises(NetworkError, match="aa"):
            load_doc(doc)

    def test_length_derived_from_coordinates(self):
        doc = two_bus_doc()
        doc["buses"][0]["coords"] = [0.0, 0.0]
        doc["buses"][1]["coords"] = [300.0, 400.0]
        del doc["lines"][0]["length_km"]
        net = load_doc(doc)
        assert net.lines["l1"].length_km == pytest.approx(0.5)

    def test_explicit_length_wins_over_coordinates(self):
        doc = two_bus_doc()
        doc["buses"][0]["coords"] = [0.0, 0.0]
        doc["buses"][1]["coords"] = [300.0, 400.0]
        net = load_doc(doc)
        assert net.lines["l1"].length_km == 1.0


class TestPerUnit:
    def test_power_ratio(self):
        units = UnitSystem(base_kva=1000.0, base_kv=12.47)
        assert units.to_pu(100.0, "power") == pytest.approx(0.1)

    def test_zero_impedance(self):
        units = UnitSystem(base_kva=1000.0, base_kv=12.47)
        assert units.to_pu(0.0, "impedance") == 0.0

    def test_impedance_formula(self):
        units = UnitSystem(base_kva=5000.0, base_kv=12.47)
        got = units.to_pu(1.2096, "impedance")
        assert got == pytest.approx(1.2096 * 5000 / (1000 * 12.47**2), rel=1e-12)
        assert got == pytest.approx(0.03889, rel=1e-3)

    def test_bases_must_be_positive(self):
        with pytest.raises(NetworkError):
            UnitSystem(base_kva=0.0, base_kv=12.47)


class TestReducedGraph:
    def _with_parallel(self):
        doc = two_bus_doc()
        doc["lines"].append({
            "id": "l1b", "from": "b1", "to": "sub", "phases": "a",
            "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
        })
        return load_doc(doc)

    def test_parallel_lines_collapse(self):
        red = aggregate_parallel_edges(self._with_parallel())
        assert len(red.edges) == 1
        assert set(red.edges[("b1", "sub")]) == {"l1", "l1b"}

    def test_no_parallel_is_isomorphic(self, case5):
        red = aggregate_parallel_edges(case5)
        assert len(red.edges) == len(case5.lines)
        for key, lids in red.edges.items():
            assert len(lids) == 1

    def test_triangle_with_duplicated_side(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": "a"})
        doc["lines"] += [
            {"id": "l2", "from": "b1", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
             "has_switch": True},
            {"id": "l3", "from": "b2", "to": "sub", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
             "has_switch": True},
            {"id": "l3b", "from": "sub", "to": "b2", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2), "capacity_kva": 500.0,
             "has_switch": True},
        ]
        red = aggregate_parallel_edges(load_doc(doc))
        assert len(red.edges) == 3

    def test_connectivity_preserved(self, case30):
        g_full = nx.Graph()
        g_full.add_nodes_from(case30.buses)
        for line in case30.lines.values():
            g_full.add_edge(line.from_bus, line.to_bus)
        red = aggregate_parallel_edges(case30)
        g_red = nx.Graph()
        g_red.add_nodes_from(red.nodes)
        g_red.add_edges_from(red.edges)
        for comp in nx.connected_components(g_full):
            assert any(comp == rc for rc in nx.connected_components(g_red))


_NAMES = [f"n{i}" for i in range(9)]


@st.composite
def _graphs(draw):
    """A node order over part of a name pool, and a loop-free edge list over
    the whole pool, with repeats in either orientation."""
    nodes = draw(st.permutations(_NAMES))[:draw(st.integers(0, len(_NAMES)))]
    pairs = st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)).filter(
        lambda e: e[0] != e[1])
    return nodes, draw(st.lists(pairs, max_size=24))


class TestGraphHelpers:
    """The traversal helpers walk the graph exactly as networkx does, so cut
    rows and audit witnesses do not depend on which one ran."""

    @given(_graphs())
    @settings(max_examples=300, deadline=None)
    def test_match_networkx_in_order(self, graph):
        nodes, edges = graph
        g = nx.Graph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        adj = adjacency(nodes, edges)
        assert [(n, list(nbs)) for n, nbs in adj.items()] == [(n, list(g[n])) for n in g]
        assert components(adj) == list(nx.connected_components(g))
        assert cycle_basis(adj) == [
            [tuple(sorted((c[i], c[(i + 1) % len(c)]))) for i in range(len(c))]
            for c in nx.cycle_basis(g)
        ]

    def test_forest_has_no_cycles(self):
        adj = adjacency("abcd", [("a", "b"), ("c", "b"), ("b", "a")])
        assert cycle_basis(adj) == []
        assert components(adj) == [{"a", "b", "c"}, {"d"}]


class TestSerialization:
    def test_round_trip_is_byte_identical(self, case5, case30):
        for net in (case5, case30):
            s1 = save_network(net)
            s2 = save_network(load_network(s1))
            assert s1 == s2

    def test_fixtures_regenerate_identically(self):
        import fixturegen

        for name, make in (
            ("case5.json", fixturegen.case5),
            ("case30.json", fixturegen.case30),
            ("feeders_joint.json", fixturegen.feeders_joint),
        ):
            committed = (FIXTURES / name).read_text()
            regenerated = json.dumps(make(), sort_keys=True, indent=2) + "\n"
            assert committed == regenerated, name

    def test_line_phase_sets_within_bus_phases(self, case30):
        for line in case30.lines.values():
            for end in (line.from_bus, line.to_bus):
                assert set(line.phases) <= set(case30.buses[end].phases)


def test_phase_ordering():
    assert sorted([Phase.C, Phase.A, Phase.B]) == [Phase.A, Phase.B, Phase.C]
