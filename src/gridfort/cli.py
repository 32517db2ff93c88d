"""Batch front end: scenario generation, design runs, sweeps, evaluation,
and validation reports.

Subcommands: scenarios | design | evaluate | sweep | validate.
Exit codes: 0 success (clean audit), 1 audit violations, 2 input error,
3 infeasible targets, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from gridfort.decomposition import (
    InfeasibleDesignError,
    Verdict,
    evaluate_design,
    evaluate_distinct,
    sbd_design,
)
from gridfort.formulation import Design, DesignParams, make_design
from gridfort.fragility import (
    FragilityParams,
    load_scenarios_file,
    per_line_probability,
    sample_scenarios,
    save_scenarios,
)
from gridfort.milp import SolverError, SolverOptions
from gridfort.model import Network, NetworkError, load_network_file
from gridfort.validate import audit

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    network: Path
    output_dir: Path
    jobs: int = 1
    fragility: FragilityParams = field(default_factory=FragilityParams)
    design: DesignParams = field(default_factory=DesignParams)
    solver: SolverOptions = field(default_factory=SolverOptions)
    scenarios_file: Path | None = None
    sweep_total_fractions: list[float] = field(default_factory=list)
    sweep_mg_rates: list[float] = field(default_factory=list)


CONFIG_KEYS = ("network", "output_dir", "seed", "jobs", "fragility", "design",
               "solver", "scenarios_file", "sweep")
SWEEP_KEYS = ("total_fractions", "mg_variable_cost_rates")


def _check_keys(raw: dict, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")


def _pick(doc: dict, cls, section: str):
    raw = doc.get(section) or {}
    _check_keys(raw, cls.__dataclass_fields__, f"config section {section!r}")
    return cls(**raw)


def load_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check_keys(doc, CONFIG_KEYS, "config")
    if "network" not in doc:
        raise ConfigError("config must name a network file")
    base = path.parent
    flags = vars(overrides) if overrides is not None else {}  # this subcommand's flags

    frag_raw = dict(doc.get("fragility") or {})
    frag_raw.setdefault("seed", int(doc.get("seed", 0)))
    if flags.get("seed") is not None:
        frag_raw["seed"] = flags["seed"]  # explicit flag beats any configured seed
    try:
        fragility = FragilityParams(**frag_raw)
        design = _pick(doc, DesignParams, "design")
        solver = _pick(doc, SolverOptions, "solver")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    sweep = doc.get("sweep") or {}
    _check_keys(sweep, SWEEP_KEYS, "config section 'sweep'")
    cfg = RunConfig(
        network=base / doc["network"],
        output_dir=base / doc.get("output_dir", "out"),
        jobs=int(doc.get("jobs", 1)),
        fragility=fragility,
        design=design,
        solver=solver,
        scenarios_file=(base / doc["scenarios_file"]) if doc.get("scenarios_file") else None,
        sweep_total_fractions=[float(x) for x in sweep.get("total_fractions", [])],
        sweep_mg_rates=[float(x) for x in sweep.get("mg_variable_cost_rates", [])],
    )
    if flags.get("out") is not None:
        cfg.output_dir = Path(flags["out"])
    if flags.get("jobs") is not None:
        cfg.jobs = flags["jobs"]
    if flags.get("solver") is not None:
        cfg.solver = replace(cfg.solver, backend=flags["solver"])
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {cfg.jobs}")
    if not cfg.network.exists():
        raise ConfigError(f"network file not found: {cfg.network}")
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _dump_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


def design_to_dict(design: Design) -> dict:
    return {
        "built_lines": list(design.built_lines),
        "hardened_lines": list(design.hardened_lines),
        "microgrid_steps": {g: n for g, n in design.microgrid_steps},
        "cost": {
            "new_lines": design.cost.new_lines,
            "hardening": design.cost.hardening,
            "microgrid_fixed": design.cost.microgrid_fixed,
            "microgrid_capacity": design.cost.microgrid_capacity,
            "total": design.cost.total,
        },
    }


def design_from_file(path: Path, network: Network, params: DesignParams) -> Design:
    doc = json.loads(Path(path).read_text())
    return make_design(
        network, params,
        doc.get("built_lines", []),
        doc.get("hardened_lines", []),
        {str(g): int(n) for g, n in (doc.get("microgrid_steps") or {}).items()},
    )


def _print_design_summary(design: Design, network: Network) -> None:
    k = 1e-3
    print("== design summary ==")
    print(f"  total cost           ${design.cost.total * k:10.1f}k")
    print(f"    new lines          ${design.cost.new_lines * k:10.1f}k")
    print(f"    hardening          ${design.cost.hardening * k:10.1f}k")
    print(f"    microgrid fixed    ${design.cost.microgrid_fixed * k:10.1f}k")
    print(f"    microgrid capacity ${design.cost.microgrid_capacity * k:10.1f}k")
    print(f"  new lines            {len(design.built_lines)}")
    print(f"  hardened lines       {len(design.hardened_lines)}")
    print(f"  microgrids built     {sum(1 for _, n in design.microgrid_steps if n > 0)}")
    print(f"  microgrid power (kW) {design.microgrid_kw(network):.0f}")


def _load_scenarios(cfg: RunConfig, network: Network):
    if cfg.scenarios_file is not None:
        return load_scenarios_file(cfg.scenarios_file, network)
    return sample_scenarios(network, cfg.fragility)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_scenarios(cfg: RunConfig) -> int:
    network = load_network_file(cfg.network)
    scens = sample_scenarios(network, cfg.fragility)
    out = cfg.output_dir / "scenarios.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    text = save_scenarios(scens, per_line_probability(cfg.fragility), cfg.fragility.seed)
    out.write_text(text)
    damage = [len(s.damaged_line_ids) for s in scens if not s.is_baseline]
    mean = statistics.fmean(damage) if damage else 0.0
    print(f"wrote {out} ({len(scens)} records incl. baseline, "
          f"mean damaged lines {mean:.2f})")
    return EXIT_OK


def _verdicts(design: Design, network: Network, scens, cfg: RunConfig,
              solved: dict[int, Verdict]) -> list[Verdict]:
    """Verdict of every scenario: those in ``solved`` (id -> verdict carrying
    its state) as given, the rest solved once per distinct damage set."""
    fresh = evaluate_distinct(
        [s for s in scens if s.id not in solved],
        lambda scen: evaluate_design(design, network, scen, cfg.design, cfg.solver),
    )
    by_id = {**fresh, **solved}
    return [by_id[s.id] for s in scens]


def _audit_all(design: Design, network: Network, scens, cfg: RunConfig,
               solved: dict[int, Verdict]):
    """Verdict and independent audit of every scenario (see ``_verdicts``)."""
    verdicts = _verdicts(design, network, scens, cfg, solved)
    reports = [audit(v.state, network, cfg.design, design) for v in verdicts]
    return verdicts, reports


def cmd_design(cfg: RunConfig) -> int:
    network = load_network_file(cfg.network)
    scens = _load_scenarios(cfg, network)
    try:
        design, state = sbd_design(
            network, scens, cfg.design, cfg.solver, jobs=cfg.jobs
        )
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc} (scenario {exc.scenario_id})", file=sys.stderr)
        return EXIT_INFEASIBLE
    _dump_json(design_to_dict(design), cfg.output_dir / "design.json")
    _dump_json({"iterations": state.log_records()}, cfg.output_dir / "sbd_log.json")
    # the final verification already solved every scenario outside the master
    verdicts, reports = _audit_all(design, network, scens, cfg,
                                   state.iterations[-1].verdicts)
    _dump_json([r.to_dict() for r in reports], cfg.output_dir / "audit.json")
    _print_design_summary(design, network)
    dirty = [r for r in reports if not r.clean]
    infeasible = [v for v in verdicts if not v.feasible]
    if infeasible:
        print(f"{len(infeasible)} scenario(s) infeasible after design", file=sys.stderr)
        return EXIT_INFEASIBLE
    if dirty:
        print(f"audit violations in {len(dirty)} scenario(s)", file=sys.stderr)
        return EXIT_VIOLATIONS
    print(f"audit clean across {len(reports)} scenarios")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, design_path: Path, scenario_path: Path | None) -> int:
    network = load_network_file(cfg.network)
    design = design_from_file(design_path, network, cfg.design)
    scens = (load_scenarios_file(scenario_path, network) if scenario_path
             else _load_scenarios(cfg, network))
    verdicts = _verdicts(design, network, scens, cfg, {})
    _dump_json([v.to_dict() for v in verdicts], cfg.output_dir / "evaluation.json")
    crit = [v.critical_fraction for v in verdicts]
    tot = [v.total_fraction for v in verdicts]
    n_bad = sum(1 for v in verdicts if not v.feasible)
    print(f"evaluated {len(verdicts)} scenarios: {n_bad} infeasible")
    print(f"  critical fraction min/mean {min(crit):.4f}/{statistics.fmean(crit):.4f}")
    print(f"  total fraction    min/mean {min(tot):.4f}/{statistics.fmean(tot):.4f}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, design_path: Path, scenario_path: Path | None) -> int:
    network = load_network_file(cfg.network)
    design = design_from_file(design_path, network, cfg.design)
    scens = (load_scenarios_file(scenario_path, network) if scenario_path
             else _load_scenarios(cfg, network))
    _, reports = _audit_all(design, network, scens, cfg, {})
    _dump_json([r.to_dict() for r in reports], cfg.output_dir / "audit.json")
    dirty = [r for r in reports if not r.clean]
    for rep in dirty:
        for v in rep.violations:
            print(f"scenario {rep.scenario_id}: {v.kind} at {v.element} "
                  f"(magnitude {v.magnitude:.3e})", file=sys.stderr)
    print(f"audited {len(reports)} scenarios: {len(dirty)} with violations")
    return EXIT_OK if not dirty else EXIT_VIOLATIONS


def _sweep_cell(args: tuple) -> dict:
    """One sweep cell: (network path, scenario path, DesignParams carrying the
    cell's gamma and microgrid rate, SolverOptions) -> its row."""
    network_path, scenario_path, params, options = args
    network = load_network_file(network_path)
    scens = load_scenarios_file(scenario_path, network)
    t0 = time.monotonic()
    row = {"gamma": params.total_fraction, "mg_cost_per_kw": params.mg_rate_override}
    try:
        design, state = sbd_design(network, scens, params, options)
        # canonical tie-break: among cost-optimal designs, the one with the
        # least installed microgrid capacity; warm-started from the scenarios
        # the cost pass already found binding
        budget = design.cost.total / 1000.0 + 1e-6
        design, _ = sbd_design(network, scens, params, options,
                               objective="microgrid_kw", cost_budget=budget,
                               initial_active=state.active)
        row.update(
            status="ok",
            total_cost=design.cost.total,
            microgrid_kw=design.microgrid_kw(network),
            hardened_lines=len(design.hardened_lines),
            new_lines=len(design.built_lines),
            design=design_to_dict(design),
        )
    except InfeasibleDesignError as exc:
        row.update(status="infeasible", scenario_id=exc.scenario_id)
    except SolverError as exc:
        row.update(status="solver_error", message=str(exc))
    except Exception as exc:  # recorded in its cell; the other cells still run
        row.update(status="error", message=f"{type(exc).__name__}: {exc}")
        print(f"sweep cell gamma={row['gamma']} rate={row['mg_cost_per_kw']} failed:",
              file=sys.stderr)
        traceback.print_exc()
    row["solve_time_s"] = time.monotonic() - t0
    return row


SWEEP_COLUMNS = ("gamma", "mg_cost_per_kw", "status", "total_cost", "microgrid_kw",
                 "hardened_lines", "new_lines", "solve_time_s")


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep_total_fractions or not cfg.sweep_mg_rates:
        raise ConfigError("sweep requires nonempty total_fractions and "
                          "mg_variable_cost_rates axes")
    network = load_network_file(cfg.network)
    if cfg.scenarios_file is not None:
        scenario_path = cfg.scenarios_file
    else:
        # one shared draw: every cell sees the same damage (common random numbers)
        scens = sample_scenarios(network, cfg.fragility)
        scenario_path = cfg.output_dir / "scenarios.json"
        scenario_path.parent.mkdir(parents=True, exist_ok=True)
        scenario_path.write_text(
            save_scenarios(scens, per_line_probability(cfg.fragility), cfg.fragility.seed)
        )
    cells_dir = cfg.output_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (gamma, rate, cells_dir / f"cell_g{gi}_r{ri}.json")
        for gi, gamma in enumerate(cfg.sweep_total_fractions)
        for ri, rate in enumerate(cfg.sweep_mg_rates)
    ]
    pending = [t for t in tasks if not t[2].exists()]
    args = [
        (str(cfg.network), str(scenario_path),
         replace(cfg.design, total_fraction=gamma, mg_rate_override=rate), cfg.solver)
        for gamma, rate, _ in pending
    ]
    # each cell lands on disk as soon as it (and every cell before it) is
    # done, so a crash or kill keeps the finished cells for the next run
    parallel = cfg.jobs > 1 and len(pending) > 1
    with ProcessPoolExecutor(max_workers=cfg.jobs) if parallel else nullcontext() as pool:
        results = pool.map(_sweep_cell, args) if parallel else map(_sweep_cell, args)
        for (_, _, cell_path), row in zip(pending, results):
            _dump_json(row, cell_path)

    out_rows = [json.loads(cell_path.read_text()) for _, _, cell_path in tasks]
    csv_lines = [",".join(SWEEP_COLUMNS)]
    for row in out_rows:
        csv_lines.append(",".join(_csv_cell(row.get(c)) for c in SWEEP_COLUMNS))
    csv_path = cfg.output_dir / "sweep.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")
    n_fail = sum(1 for r in out_rows if r.get("status") != "ok")
    print(f"wrote {csv_path} ({len(out_rows)} cells, {n_fail} failed)")
    return EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfort",
        description="Resilient distribution-grid upgrade design",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scenarios", "sample storm-damage scenarios to a file"),
        ("design", "run the decomposition and write design + audit"),
        ("evaluate", "evaluate a design file against scenarios"),
        ("sweep", "grid sweep over load-served fraction and microgrid cost"),
        ("validate", "audit a design file across scenarios"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--seed", type=int, default=None)
        if name in ("design", "sweep"):
            p.add_argument("--jobs", type=int, default=None)
        if name != "scenarios":
            p.add_argument("--solver", choices=("builtin", "external"), default=None)
        p.add_argument("--out", default=None, help="output directory override")
        if name in ("evaluate", "validate"):
            p.add_argument("--design", required=True, help="design JSON file")
            p.add_argument("--scenarios", default=None, help="scenario file override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args)
        if args.command == "scenarios":
            return cmd_scenarios(cfg)
        if args.command == "design":
            return cmd_design(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, Path(args.design),
                                Path(args.scenarios) if args.scenarios else None)
        if args.command == "validate":
            return cmd_validate(cfg, Path(args.design),
                                Path(args.scenarios) if args.scenarios else None)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, NetworkError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
