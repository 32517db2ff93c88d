"""Resilient distribution-grid design engine.

Selects minimum-cost combinations of new lines, hardened lines, and
microgrids so a three-phase feeder keeps serving its critical and
noncritical load targets across sampled storm-damage scenarios.
"""


def _load_numpy_and_scipy() -> None:
    """Load numpy and scipy's solvers with one OpenBLAS thread and the
    cyclic garbage collector paused, then freeze what they allocated.

    Each OpenBLAS library starts its pool of worker threads when it loads,
    and gridfort does no dense linear algebra, so with
    ``OPENBLAS_NUM_THREADS=1`` a gridfort process, and every helper it
    forks, runs a single thread. A value the caller set is kept. One set
    here is removed again afterwards, so the external solver command sees
    the caller's environment. A library loaded before gridfort keeps the
    pool it started.

    The import creates tens of thousands of objects that live until the
    process exits. With the collector paused no collection walks them while
    they are made, and ``gc.freeze()`` moves them, with every other object
    alive at this point, to the permanent generation, which no later
    collection visits, the one at interpreter exit included. The freeze
    comes first, so the first collection after it does not walk the
    import's young generation; the collector is enabled again only if the
    caller had it on.
    """
    import gc
    import os

    preset = "OPENBLAS_NUM_THREADS" in os.environ
    collecting = gc.isenabled()
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401
    finally:
        if not preset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        gc.freeze()
        if collecting:
            gc.enable()


_load_numpy_and_scipy()

from gridfort.model import (
    Bus,
    Line,
    LineStatus,
    Load,
    MicrogridCandidate,
    Network,
    NetworkError,
    Phase,
    ReducedGraph,
    UnitSystem,
    aggregate_parallel_edges,
    load_network,
    load_network_file,
    save_network,
)
from gridfort.fragility import (
    DamageScenario,
    FragilityParams,
    line_failure_probability,
    load_scenarios,
    sample_scenarios,
    save_scenarios,
)
from gridfort.milp import (
    MilpModel,
    Solution,
    SolverOptions,
    parse_external_solution,
    solve,
    solve_lp_relaxation,
    write_model,
)
from gridfort.formulation import (
    Design,
    DesignParams,
    MasterProblem,
    OctagonGeometry,
    ScenarioTemplate,
    build_master,
    microgrid_step_encoding,
    npv_capacity_cost,
    octagon_points,
)
from gridfort.decomposition import (
    InfeasibleDesignError,
    SbdState,
    Verdict,
    evaluate_design,
    sbd_design,
    separate_cycles,
)
from gridfort.validate import (
    AuditReport,
    OperationState,
    Violation,
    audit,
    check_radiality,
    recompute_voltages,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Bus",
    "DamageScenario",
    "Design",
    "DesignParams",
    "FragilityParams",
    "InfeasibleDesignError",
    "Line",
    "LineStatus",
    "Load",
    "MasterProblem",
    "MicrogridCandidate",
    "MilpModel",
    "Network",
    "NetworkError",
    "OctagonGeometry",
    "OperationState",
    "Phase",
    "ReducedGraph",
    "SbdState",
    "ScenarioTemplate",
    "Solution",
    "SolverOptions",
    "UnitSystem",
    "Verdict",
    "Violation",
    "aggregate_parallel_edges",
    "audit",
    "build_master",
    "check_radiality",
    "evaluate_design",
    "line_failure_probability",
    "load_network",
    "load_network_file",
    "load_scenarios",
    "microgrid_step_encoding",
    "npv_capacity_cost",
    "octagon_points",
    "parse_external_solution",
    "recompute_voltages",
    "sample_scenarios",
    "save_network",
    "save_scenarios",
    "sbd_design",
    "separate_cycles",
    "solve",
    "solve_lp_relaxation",
    "write_model",
]
