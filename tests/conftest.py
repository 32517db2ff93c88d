import json
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
sys.path.insert(0, str(TESTS_DIR))

from gridfort import DesignParams, SolverOptions, load_network  # noqa: E402


def c(re, im=0.0):
    return {"re": re, "im": im}


def z1(re, im):
    """Single-phase (a) per-km impedance matrix."""
    return [c(re, im)] + [None] * 8


def two_bus_doc(**overrides):
    doc = {
        "bases": {"base_kva": 1000.0, "base_kv": 12.47},
        "buses": [
            {"id": "sub", "phases": "a", "is_substation": True},
            {"id": "b1", "phases": "a"},
        ],
        "lines": [
            {"id": "l1", "from": "sub", "to": "b1", "phases": "a",
             "length_km": 1.0, "impedance": z1(0.1, 0.2),
             "capacity_kva": 500.0},
        ],
        "loads": [
            {"id": "ld1", "bus": "b1", "demand_kva": {"a": c(50.0, 10.0)}},
        ],
        "microgrids": [],
    }
    doc.update(overrides)
    return doc


def load_doc(doc):
    return load_network(json.dumps(doc))


def two_rings_doc():
    """Two switched four-line rings, ``ra*`` and ``rb*``, each hung from the
    substation by one unswitched line; a small load at ``a1``."""
    doc = two_bus_doc()
    doc["buses"] = [{"id": "sub", "phases": "a", "is_substation": True}]
    doc["buses"] += [{"id": f"a{i}", "phases": "a"} for i in range(4)]
    doc["buses"] += [{"id": f"b{i}", "phases": "a"} for i in range(4)]
    a = [f"a{i}" for i in range(4)]
    b = [f"b{i}" for i in range(4)]
    doc["lines"] = (
        [{"id": f"ra{i}", "from": a[i], "to": a[(i + 1) % 4], "phases": "a",
          "length_km": 0.5, "impedance": z1(0.2, 0.4), "capacity_kva": 400.0,
          "has_switch": True} for i in range(4)]
        + [{"id": f"rb{i}", "from": b[i], "to": b[(i + 1) % 4], "phases": "a",
            "length_km": 0.5, "impedance": z1(0.2, 0.4),
            "capacity_kva": 400.0, "has_switch": True} for i in range(4)]
        + [{"id": "sa", "from": "sub", "to": "a0", "phases": "a",
            "length_km": 0.5, "impedance": z1(0.2, 0.4),
            "capacity_kva": 400.0},
           {"id": "sb", "from": "sub", "to": "b0", "phases": "a",
            "length_km": 0.5, "impedance": z1(0.2, 0.4),
            "capacity_kva": 400.0}]
    )
    doc["loads"] = [{"id": "ld", "bus": "a1",
                     "demand_kva": {"a": c(10.0, 0.0)}}]
    return doc


@pytest.fixture(scope="session")
def case5():
    from gridfort import load_network_file

    return load_network_file(FIXTURES / "case5.json")


@pytest.fixture(scope="session")
def case30():
    from gridfort import load_network_file

    return load_network_file(FIXTURES / "case30.json")


@pytest.fixture(scope="session")
def exact_options():
    return SolverOptions(rel_gap=1e-9)


@pytest.fixture(scope="session")
def default_params():
    return DesignParams(critical_fraction=0.98, total_fraction=0.0)
