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
import typing
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
from gridfort.formulation import Design, DesignParams, ScenarioTemplate, make_design
from gridfort.fragility import (
    FragilityParams,
    load_scenarios_file,
    per_line_probability,
    sample_scenarios,
    save_scenarios,
)
from gridfort.milp import SolverError, SolverOptions
from gridfort.model import Network, NetworkError, load_network_file
from gridfort.validate import AuditReport, audit

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: the default ``jobs``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@dataclass
class RunConfig:
    network: Path
    output_dir: Path
    jobs: int = field(default_factory=_usable_cpus)
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


# the JSON values a dataclass field of each type accepts; a JSON true or
# false is never a number here, although Python's bool is an int
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), type(None): (type(None),)}


def _checked(value, hint, where: str):
    """``value`` if it is a JSON value of type ``hint`` (a type or a union
    of them), else a ConfigError naming ``where``."""
    kinds = typing.get_args(hint) or (hint,)
    accepted = tuple(t for kind in kinds for t in _JSON_TYPES[kind])
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} has a malformed value: {value!r}")
    return value


def _pick(doc: dict, cls, section: str, **defaults):
    """``cls(**defaults, **doc[section])``, an absent section read as empty.
    A present section must be a JSON object, and each of its values is
    checked against its field's type, so a wrong type is an error naming the
    key."""
    raw = doc.get(section, {})
    _check_keys(raw, cls.__dataclass_fields__, f"config section {section!r}")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        _checked(value, hints[key], f"config key '{section}.{key}'")
    return cls(**{**defaults, **raw})


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

    seed = _checked(doc.get("seed", 0), int, "config key 'seed'")
    try:
        fragility = _pick(doc, FragilityParams, "fragility", seed=seed)
        design = _pick(doc, DesignParams, "design")
        solver = _pick(doc, SolverOptions, "solver")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if flags.get("seed") is not None:
        # an explicit flag beats any configured seed
        fragility = replace(fragility, seed=flags["seed"])

    sweep = doc.get("sweep", {})
    _check_keys(sweep, SWEEP_KEYS, "config section 'sweep'")

    def axis(key: str) -> list[float]:
        where = f"config key 'sweep.{key}'"
        values = sweep.get(key, [])
        if not isinstance(values, list):
            raise ConfigError(f"{where} has a malformed value: {values!r}")
        return [float(_checked(x, float, where)) for x in values]

    scenarios_file = _checked(doc.get("scenarios_file"), str | None,
                              "config key 'scenarios_file'")
    cfg = RunConfig(
        network=base / _checked(doc["network"], str, "config key 'network'"),
        output_dir=base / _checked(doc.get("output_dir", "out"), str, "config key 'output_dir'"),
        jobs=(_checked(doc["jobs"], int, "config key 'jobs'") if "jobs" in doc
              else _usable_cpus()),
        fragility=fragility,
        design=design,
        solver=solver,
        scenarios_file=base / scenarios_file if scenarios_file else None,
        sweep_total_fractions=axis("total_fractions"),
        sweep_mg_rates=axis("mg_variable_cost_rates"),
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
    """The design a ``design.json`` document describes; any field that does
    not fit ``network`` is a ConfigError naming it."""
    doc = json.loads(Path(path).read_text())
    where = f"design file {path}"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")

    def line_ids(key: str, allowed: set[str], what: str) -> list[str]:
        ids = doc.get(key, [])
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ConfigError(f"{where}: '{key}' must be a list of line ids")
        bad = sorted(set(ids) - allowed)
        if bad:
            raise ConfigError(f"{where}: '{key}' names lines that are not {what}: {bad}")
        return ids

    lines = network.lines.values()
    built = line_ids("built_lines", {l.id for l in lines if l.is_candidate},
                     "candidates")
    hardened = line_ids("hardened_lines",
                        {l.id for l in lines
                         if l.hardenable and l.damageable and not l.is_candidate},
                        "hardenable, damageable existing lines")
    steps = doc.get("microgrid_steps") or {}
    if not isinstance(steps, dict):
        raise ConfigError(f"{where}: 'microgrid_steps' must map microgrid ids to step counts")
    for gid, n in steps.items():
        if gid not in network.microgrids:
            raise ConfigError(f"{where}: 'microgrid_steps' names an unknown microgrid {gid!r}")
        key, top = f"{where}: 'microgrid_steps.{gid}'", network.microgrids[gid].max_steps
        if not 0 <= _checked(n, int, key) <= top:
            raise ConfigError(f"{key} must lie in [0, {top}], got {n}")
    return make_design(network, params, built, hardened, steps)


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
              solved: dict[int, Verdict], template: ScenarioTemplate) -> list[Verdict]:
    """Verdict of every scenario, solved once per distinct damage set over
    ``cfg.jobs`` processes; a damage set that ``solved`` (id -> verdict
    carrying its state) covers is restated from it instead."""
    known: dict[frozenset[str], Verdict] = {}
    for scen in scens:
        if scen.id in solved:
            known.setdefault(scen.damaged_line_ids, solved[scen.id])
    by_id = evaluate_distinct(
        scens,
        lambda scen: evaluate_design(design, network, scen, cfg.design, cfg.solver,
                                     template=template),
        cfg.jobs, known)
    return [by_id[s.id] for s in scens]


def _audit_all(design: Design, network: Network, scens, cfg: RunConfig,
               solved: dict[int, Verdict], template: ScenarioTemplate):
    """Verdict and independent audit of every scenario (see ``_verdicts``).

    Scenarios sharing a damage set share their operating point apart from
    its id, which the audit only copies into its report: the first of each
    damage set is audited, and its report restated under the others' ids."""
    verdicts = _verdicts(design, network, scens, cfg, solved, template)
    audited: dict[frozenset[str], AuditReport] = {}
    reports = []
    for scen, verdict in zip(scens, verdicts):
        twin = audited.get(scen.damaged_line_ids)
        if twin is None:
            report = audited[scen.damaged_line_ids] = audit(
                verdict.state, network, cfg.design, design)
        else:
            report = replace(twin, scenario_id=scen.id, violations=list(twin.violations))
        reports.append(report)
    return verdicts, reports


def cmd_design(cfg: RunConfig) -> int:
    network = load_network_file(cfg.network)
    scens = _load_scenarios(cfg, network)
    template = ScenarioTemplate(network, cfg.design)
    try:
        design, state = sbd_design(
            network, scens, cfg.design, cfg.solver, jobs=cfg.jobs, template=template
        )
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc} (scenario {exc.scenario_id})", file=sys.stderr)
        return EXIT_INFEASIBLE
    _dump_json(design_to_dict(design), cfg.output_dir / "design.json")
    _dump_json({"iterations": state.log_records()}, cfg.output_dir / "sbd_log.json")
    # the final verification already solved every scenario outside the master,
    # and with it each master scenario that shares one's damage
    verdicts, reports = _audit_all(design, network, scens, cfg,
                                   state.iterations[-1].verdicts, template)
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
    verdicts = _verdicts(design, network, scens, cfg, {},
                         ScenarioTemplate(network, cfg.design))
    _dump_json([v.to_dict() for v in verdicts], cfg.output_dir / "evaluation.json")
    # a feasible verdict's served fractions are one arbitrary feasible
    # point's, so the summary reports shortfalls only
    n_bad = sum(1 for v in verdicts if not v.feasible)
    crit = max(v.shortfall_critical for v in verdicts)
    tot = max(v.shortfall_total for v in verdicts)
    print(f"evaluated {len(verdicts)} scenarios: {n_bad} infeasible, "
          f"worst shortfall critical/total {crit:.4f}/{tot:.4f}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, design_path: Path, scenario_path: Path | None) -> int:
    network = load_network_file(cfg.network)
    design = design_from_file(design_path, network, cfg.design)
    scens = (load_scenarios_file(scenario_path, network) if scenario_path
             else _load_scenarios(cfg, network))
    _, reports = _audit_all(design, network, scens, cfg, {},
                            ScenarioTemplate(network, cfg.design))
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
        # tie-break: the least installed microgrid capacity among designs
        # that cost no more than the cost pass's
        design, _ = sbd_design(network, scens, params, options, tie_break=True)
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
        if name != "scenarios":
            p.add_argument("--jobs", type=int, default=None,
                           help="processes to solve on (default: the usable CPUs)")
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
    except (ConfigError, NetworkError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
