"""Batch front end: scenario generation, design runs, sweeps, evaluation,
and validation reports.

Subcommands: scenarios | design | evaluate | sweep | validate.
Exit codes: 0 success (clean audit), 1 audit violations, 2 input error,
3 infeasible targets, 4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

from gridfort.decomposition import (
    InfeasibleDesignError,
    Verdict,
    _fan_out,
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
from gridfort.milp import ENV_SOLVER_CMD, SolverError, SolverOptions
from gridfort.model import Network, _is_number, load_network_file, read_json
from gridfort.validate import AuditReport, audit

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


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
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown keys: {unknown}")


# the JSON values a dataclass field of each type accepts; a JSON true or
# false is never a number here, although Python's bool is an int
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), type(None): (type(None),)}


def _checked(value, hint, where: str):
    """``value`` if it is a JSON value of type ``hint`` (a type or a union
    of them), else a ValueError naming ``where``. A float-typed value must
    be a number a float holds (``model._is_number``): not ``NaN`` or
    ``Infinity``, which Python's ``json`` reads, nor a huge int."""
    kinds = typing.get_args(hint) or (hint,)
    accepted = tuple(t for kind in kinds for t in _JSON_TYPES[kind])
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} has a malformed value: {value!r}")
    if float in kinds and value is not None and not _is_number(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return value


def _pick(doc: dict, cls, section: str, **defaults):
    """``cls(**defaults, **doc[section])``, an absent section read as empty.
    A present section must be a JSON object whose keys are fields of ``cls``
    other than those of ``defaults``, which the config sets elsewhere, and
    each of its values is checked against its field's type, so a wrong type
    is an error naming the key."""
    raw = doc.get(section, {})
    _check_keys(raw, set(cls.__dataclass_fields__) - set(defaults),
                f"config section {section!r}")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        _checked(value, hints[key], f"config key '{section}.{key}'")
    return cls(**{**defaults, **raw})


def _check_command_template(template: str, where: str) -> None:
    """A ValueError naming ``where`` unless ``template`` formats with the
    ``{model}`` and ``{solution}`` paths alone, as every external solve
    formats it."""
    try:
        template.format(model=Path("model.mps"), solution=Path("model.sol"))
    except KeyError as exc:
        raise ValueError(f"{where} names an unknown placeholder {{{exc.args[0]}}}; "
                         "only {model} and {solution} are filled in") from None
    except IndexError:
        raise ValueError(f"{where} has a positional placeholder; "
                         "only {model} and {solution} are filled in") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{where} is not a valid command template: {exc}") from None


def load_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    path = Path(path)
    try:
        doc = read_json(path, "config file")
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    _check_keys(doc, CONFIG_KEYS, "config")
    if "network" not in doc:
        raise ValueError("config must name a network file")
    base = path.parent
    flags = vars(overrides) if overrides is not None else {}  # this subcommand's flags

    seed = _checked(doc.get("seed", 0), int, "config key 'seed'")
    fragility = _pick(doc, FragilityParams, "fragility", seed=seed)
    design = _pick(doc, DesignParams, "design")
    solver = _pick(doc, SolverOptions, "solver")
    if flags.get("seed") is not None:
        # an explicit flag beats any configured seed
        fragility = replace(fragility, seed=flags["seed"])

    sweep = doc.get("sweep", {})
    _check_keys(sweep, SWEEP_KEYS, "config section 'sweep'")

    def axis(key: str, param: str) -> list[float]:
        """The axis ``key``, each value checked as the ``param`` of a cell."""
        where = f"config key 'sweep.{key}'"
        values = sweep.get(key, [])
        if not isinstance(values, list):
            raise ValueError(f"{where} has a malformed value: {values!r}")
        values = [float(_checked(x, float, where)) for x in values]
        try:
            for x in values:
                replace(design, **{param: x})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        return values

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
        sweep_total_fractions=axis("total_fractions", "total_fraction"),
        sweep_mg_rates=axis("mg_variable_cost_rates", "mg_rate_override"),
    )
    if flags.get("out") is not None:
        cfg.output_dir = Path(flags["out"])
    if flags.get("scenarios"):  # an empty flag, like an empty file name, names no file
        cfg.scenarios_file = Path(flags["scenarios"])
    if flags.get("jobs") is not None:
        cfg.jobs = flags["jobs"]
    if flags.get("solver") is not None:
        cfg.solver = replace(cfg.solver, backend=flags["solver"])
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg.jobs}")
    if cfg.solver.backend == "external":
        # the external route reads the configured command, else the
        # environment's; with neither, the first solve fails (exit 4)
        if cfg.solver.external_command:
            _check_command_template(cfg.solver.external_command,
                                    "config key 'solver.external_command'")
        elif os.environ.get(ENV_SOLVER_CMD):
            _check_command_template(os.environ[ENV_SOLVER_CMD], f"${ENV_SOLVER_CMD}")
    if not cfg.network.exists():
        raise ValueError(f"network file not found: {cfg.network}")
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _output_dir(path: Path) -> Path:
    """``path``, created with its parents; a ValueError naming it if it
    cannot be (it or a parent is a regular file, or no permission). Each
    command calls this once its inputs are read, before its first solve."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory "
                         f"'{path}': {exc.strerror or exc}") from None
    return path


def _dump_json(obj, path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


def design_to_dict(design: Design) -> dict:
    return {
        "built_lines": list(design.built_lines),
        "hardened_lines": list(design.hardened_lines),
        "microgrid_steps": dict(design.microgrid_steps),
        "cost": {**vars(design.cost), "total": design.cost.total},
    }


def design_from_file(path: Path, network: Network, params: DesignParams) -> Design:
    """The design a ``design.json`` document describes; any field that does
    not fit ``network`` is a ValueError naming it."""
    doc = read_json(path, "design file")
    where = f"design file {path}"
    # cost is recomputed from the rest, never read
    _check_keys(doc, ("built_lines", "hardened_lines", "microgrid_steps", "cost"), where)

    def line_ids(key: str, allowed: set[str], what: str) -> list[str]:
        ids = doc.get(key, [])
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ValueError(f"{where}: '{key}' must be a list of line ids")
        bad = sorted(set(ids) - allowed)
        if bad:
            raise ValueError(f"{where}: '{key}' names lines that are not {what}: {bad}")
        return ids

    lines = network.lines.values()
    built = line_ids("built_lines", {l.id for l in lines if l.is_candidate},
                     "candidates")
    hardened = line_ids("hardened_lines", set(network.hardenable_lines()),
                        "hardenable, damageable existing lines")
    steps = doc.get("microgrid_steps", {})
    if not isinstance(steps, dict):
        raise ValueError(f"{where}: 'microgrid_steps' must map microgrid ids to step counts")
    for gid, n in steps.items():
        if gid not in network.microgrids:
            raise ValueError(f"{where}: 'microgrid_steps' names an unknown microgrid {gid!r}")
        if network.microgrids[gid].is_existing:
            raise ValueError(f"{where}: 'microgrid_steps' names the existing microgrid {gid!r}")
        key, top = f"{where}: 'microgrid_steps.{gid}'", network.microgrids[gid].max_steps
        if not 0 <= _checked(n, int, key) <= top:
            raise ValueError(f"{key} must lie in [0, {top}], got {n}")
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
    out = _output_dir(cfg.output_dir) / "scenarios.json"
    text = save_scenarios(scens, per_line_probability(cfg.fragility), cfg.fragility.seed)
    out.write_text(text)
    damage = [len(s.damaged_line_ids) for s in scens if not s.is_baseline]
    mean = statistics.fmean(damage) if damage else 0.0
    print(f"wrote {out} ({len(scens)} records incl. baseline, "
          f"mean damaged lines {mean:.2f})")
    return EXIT_OK


def _verdicts(design: Design, network: Network, scens, cfg: RunConfig) -> list[Verdict]:
    """Verdict of every scenario, solved once per distinct damage set over
    ``cfg.jobs`` processes."""
    template = ScenarioTemplate(network, cfg.design)
    by_id = evaluate_distinct(
        scens, lambda scen: evaluate_design(design, template, scen, cfg.solver), cfg.jobs)
    return [by_id[s.id] for s in scens]


def _audit_all(design: Design, network: Network, verdicts: list[Verdict],
               params: DesignParams) -> list[AuditReport]:
    """Independent audit of each verdict's operating point.

    Scenarios sharing a damage set share their operating point apart from
    its id, which the audit only copies into its report: the first of each
    damage set is audited, and its report restated under the others' ids."""
    audited: dict[frozenset[str], AuditReport] = {}
    reports = []
    for verdict in verdicts:
        damage = verdict.state.damaged_lines
        twin = audited.get(damage)
        if twin is None:
            report = audited[damage] = audit(verdict.state, network, params, design)
        else:
            report = replace(twin, scenario_id=verdict.scenario_id,
                             violations=list(twin.violations))
        reports.append(report)
    return reports


def cmd_design(cfg: RunConfig) -> int:
    network = load_network_file(cfg.network)
    scens = _load_scenarios(cfg, network)
    template = ScenarioTemplate(network, cfg.design)
    _output_dir(cfg.output_dir)
    try:
        design, state = sbd_design(template, scens, cfg.solver, jobs=cfg.jobs)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc} (scenario {exc.scenario_id})", file=sys.stderr)
        return EXIT_INFEASIBLE
    _dump_json(design_to_dict(design), cfg.output_dir / "design.json")
    _dump_json({"iterations": state.log_records()}, cfg.output_dir / "sbd_log.json")
    # every scenario's final verdict carries the operating point it rests
    # on, so the audit solves nothing
    reports = _audit_all(design, network, list(state.verdicts.values()), cfg.design)
    _dump_json([r.to_dict() for r in reports], cfg.output_dir / "audit.json")
    _print_design_summary(design, network)
    dirty = [r for r in reports if not r.clean]
    if dirty:
        print(f"audit violations in {len(dirty)} scenario(s)", file=sys.stderr)
        return EXIT_VIOLATIONS
    print(f"audit clean across {len(reports)} scenarios")
    return EXIT_OK


def _evaluated(cfg: RunConfig, design_path: Path):
    """(network, design, verdicts): the design file's design and every
    scenario's verdict under it (``_verdicts``), the scenarios read as
    ``design`` reads them."""
    network = load_network_file(cfg.network)
    design = design_from_file(design_path, network, cfg.design)
    scens = _load_scenarios(cfg, network)
    _output_dir(cfg.output_dir)
    return network, design, _verdicts(design, network, scens, cfg)


def cmd_evaluate(cfg: RunConfig, design_path: Path) -> int:
    _, _, verdicts = _evaluated(cfg, design_path)
    _dump_json([v.to_dict() for v in verdicts], cfg.output_dir / "evaluation.json")
    # a feasible verdict's served fractions are one arbitrary feasible
    # point's, so the summary reports shortfalls only
    n_bad = sum(1 for v in verdicts if not v.feasible)
    crit = max(v.shortfall_critical for v in verdicts)
    tot = max(v.shortfall_total for v in verdicts)
    print(f"evaluated {len(verdicts)} scenarios: {n_bad} infeasible, "
          f"worst shortfall critical/total {crit:.4f}/{tot:.4f}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, design_path: Path) -> int:
    network, design, verdicts = _evaluated(cfg, design_path)
    reports = _audit_all(design, network, verdicts, cfg.design)
    _dump_json([r.to_dict() for r in reports], cfg.output_dir / "audit.json")
    dirty = [r for r in reports if not r.clean]
    for rep in dirty:
        for v in rep.violations:
            print(f"scenario {rep.scenario_id}: {v.kind} at {v.element} "
                  f"(magnitude {v.magnitude:.3e})", file=sys.stderr)
    print(f"audited {len(reports)} scenarios: {len(dirty)} with violations")
    return EXIT_OK if not dirty else EXIT_VIOLATIONS


def _sweep_cell(network: Network, scens, params: DesignParams,
                options: SolverOptions) -> dict:
    """The row of the sweep cell whose gamma and microgrid rate ``params`` carry."""
    t0 = time.monotonic()
    row = {"gamma": params.total_fraction, "mg_cost_per_kw": params.mg_rate_override}
    try:
        # tie-break: the least installed microgrid capacity among designs
        # that cost no more than the cost pass's
        design, _ = sbd_design(ScenarioTemplate(network, params), scens, options,
                               tie_break=True)
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


def _check_finished_cell(path: Path, gamma: float, rate: float) -> None:
    """A ValueError unless the cell file at ``path`` holds the cell of
    ``gamma`` and ``rate``: a rerun into the same directory resumes only
    the same sweep axes."""
    row = read_json(path, "sweep cell")
    found = (row.get("gamma"), row.get("mg_cost_per_kw")) if isinstance(row, dict) else None
    if found != (gamma, rate):
        raise ValueError(
            f"sweep cell {path} holds gamma, mg_cost_per_kw {found}, not the "
            f"configured {(gamma, rate)}; sweep into another output directory")


def _sweep_inputs(cfg: RunConfig, scens) -> dict:
    """What every cell of a sweep directory shares: a digest of the seed,
    the network document as read, the scenarios and the design params
    other than the two axes, which each cell sets itself."""
    design = dataclasses.asdict(cfg.design)
    del design["total_fraction"], design["mg_rate_override"]
    shared = {
        "seed": cfg.fragility.seed,
        "network": read_json(cfg.network, "network file"),
        "scenarios": [[s.id, sorted(s.damaged_line_ids)] for s in scens],
        "design": design,
    }
    text = json.dumps(shared, sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def _check_sweep_inputs(path: Path, inputs: dict, cells_dir: Path) -> None:
    """A ValueError unless the sweep directory's ``sweep_inputs.json`` at
    ``path`` records ``inputs``, or it is absent and so are the cells: a
    rerun into the same directory resumes only a sweep of the same inputs."""
    if path.exists():
        if read_json(path, "sweep inputs file") != inputs:
            raise ValueError(
                f"{path} records other sweep inputs (seed, network, scenarios or "
                f"design params besides the axes); sweep into another output directory")
    elif any(cells_dir.glob("cell_*.json")):
        raise ValueError(f"{cells_dir} holds cells but {path} is missing, so their "
                         f"inputs are unknown; sweep into another output directory")


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep_total_fractions or not cfg.sweep_mg_rates:
        raise ValueError("sweep requires nonempty total_fractions and "
                         "mg_variable_cost_rates axes")
    network = load_network_file(cfg.network)
    scens = _load_scenarios(cfg, network)
    out = _output_dir(cfg.output_dir)
    inputs = _sweep_inputs(cfg, scens)
    _check_sweep_inputs(out / "sweep_inputs.json", inputs, out / "cells")
    cells_dir = _output_dir(out / "cells")
    tasks = [
        (gamma, rate, cells_dir / f"cell_g{gi}_r{ri}.json")
        for gi, gamma in enumerate(cfg.sweep_total_fractions)
        for ri, rate in enumerate(cfg.sweep_mg_rates)
    ]
    pending = []
    for gamma, rate, path in tasks:
        if path.exists():
            _check_finished_cell(path, gamma, rate)
        else:
            pending.append((replace(cfg.design, total_fraction=gamma,
                                    mg_rate_override=rate), path))
    _dump_json(inputs, out / "sweep_inputs.json")
    if cfg.scenarios_file is None:
        # one shared draw: every cell sees the same damage (common random numbers)
        (out / "scenarios.json").write_text(
            save_scenarios(scens, per_line_probability(cfg.fragility), cfg.fragility.seed)
        )

    def run_cell(task) -> None:
        params, cell_path = task
        _dump_json(_sweep_cell(network, scens, params, cfg.solver), cell_path)

    # the process that runs a cell writes it as soon as it is done, so a
    # crash or kill keeps the finished cells for the next run
    _fan_out(run_cell, pending, min(cfg.jobs, len(pending)))

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
            return cmd_evaluate(cfg, Path(args.design))
        if args.command == "validate":
            return cmd_validate(cfg, Path(args.design))
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
