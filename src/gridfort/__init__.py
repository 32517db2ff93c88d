"""Resilient distribution-grid design engine.

Selects minimum-cost combinations of new lines, hardened lines, and
microgrids so a three-phase feeder keeps serving its critical and
noncritical load targets across sampled storm-damage scenarios.
"""

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
