"""Stand-in external MILP solver for adapter tests.

Reads an MPS file, solves it with the built-in solver, and writes the
solution in the adapter's documented format (Gurobi-style .sol), or the
``# Status = infeasible`` line for a model proven infeasible.

Usage: python fake_solver.py MODEL.mps SOLUTION.sol
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gridfort.milp import SolverOptions, solve  # noqa: E402
from mps_reader import read_mps  # noqa: E402


def main() -> int:
    model_path, solution_path = sys.argv[1], sys.argv[2]
    model, _ = read_mps(Path(model_path).read_text())
    sol = solve(model, SolverOptions(rel_gap=1e-9))
    if sol.status == "infeasible":
        Path(solution_path).write_text("# Status = infeasible\n")
        return 0
    if sol.status != "optimal":
        print(f"no optimal solution: {sol.status}", file=sys.stderr)
        return 1
    lines = [f"# Objective value = {float(sol.objective)!r}"]
    for i, name in enumerate(model.var_names):
        lines.append(f"{name} {float(sol.values[i])!r}")
    Path(solution_path).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
