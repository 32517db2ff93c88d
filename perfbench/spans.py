"""In-memory spans around calls into gridfort, and the per-layer metrics
computed from them.

The program itself is not changed: ``install`` replaces module attributes
with timing wrappers, at the call sites the CLI and the decomposition use.
A span records its name, start, end and the span that was open when it
began. Spans stay in memory and are written out once, when the run ends.

The boundary into HiGHS is scipy's ``linprog`` as ``gridfort.milp`` calls it
(``milp.linprog``), plus scipy's ``_highs_wrapper`` inside it, the call that
hands the model to HiGHS and runs it (``milp.highs``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("model", "fragility", "formulation", "milp", "decomposition",
          "validate", "cli")


class Recorder:
    """Spans and counters of one process. Single-threaded: the design runs
    keep verification serial."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def span(self, fn, name: str, describe=None):
        """Wrap ``fn`` so each call records a span; ``describe(args, result)``
        returns attributes stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "start": time.perf_counter(), "end": None,
                   "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                rec["end"] = time.perf_counter()
            if describe is not None:
                rec["attrs"] = describe(args, result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _damage_key(scenario) -> str:
    return ",".join(sorted(scenario.damaged_line_ids))


def install(rec: Recorder) -> None:
    """Wrap gridfort's public calls, layer by layer, at their call sites."""
    import scipy.optimize._linprog_highs as linprog_highs

    import gridfort.cli as cli
    import gridfort.decomposition as dec
    import gridfort.formulation as form
    import gridfort.milp as milp

    patches = (
        (linprog_highs, "_highs_wrapper", "milp.highs", None),
        (milp, "linprog", "milp.linprog", None),
        (dec, "solve", "milp.solve",
         lambda a, sol: {"nodes": sol.nodes, "status": sol.status}),
        (dec, "build_master", "formulation.build_master",
         lambda a, m: {"variables": m.model.num_variables}),
        (dec, "solve_with_cycle_cuts", "decomposition.solve_with_cycle_cuts", None),
        (dec, "evaluate_design", "decomposition.evaluate_design",
         lambda a, r: {"damage": _damage_key(a[2])}),
        (cli, "sbd_design", "decomposition.sbd_design",
         lambda a, r: {"iterations": len(r[1].iterations)}),
        (cli, "load_network_file", "model.load_network_file", None),
        (cli, "sample_scenarios", "fragility.sample_scenarios",
         lambda a, s: {"scenarios": len(s),
                       "distinct": len({x.damaged_line_ids for x in s})}),
        (cli, "load_scenarios_file", "fragility.load_scenarios_file", None),
        (cli, "audit", "validate.audit", None),
        (cli, "cmd_design", "cli.cmd_design", None),
        (cli, "_audit_all", "cli.audit_all", None),
        (cli, "_dump_json", "cli.dump_json", None),
    )
    for module, attr, name, describe in patches:
        setattr(module, attr, rec.span(getattr(module, attr), name, describe))
    # the audit's re-solves go through the wrapped decomposition entry point,
    # so their model builds and solves nest underneath them
    cli.evaluate_design = rec.span(dec.evaluate_design, "cli.audit_resolve")
    form.MasterProblem.add_cycle_cut = rec.counter(
        form.MasterProblem.add_cycle_cut, "formulation.cycle_cuts")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced run."""
    spans = trace["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            covered[s["parent"]] += dur[i]
    self_time = [d - c for d, c in zip(dur, covered)]

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name, times=dur):
        return sum(times[i] for i in named(name))

    def under(i, name):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    verify = [i for i in named("decomposition.evaluate_design")
              if under(i, "decomposition.sbd_design")]
    verify_s = sum(dur[i] for i in verify)
    cut_loops = named("decomposition.solve_with_cycle_cuts")
    loop_ids = set(cut_loops)
    solves_in_loops = sum(1 for s in spans
                          if s["name"] == "milp.solve" and s["parent"] in loop_ids)
    sampled = [spans[i].get("attrs", {}) for i in named("fragility.sample_scenarios")]
    linprog_s = total("milp.linprog")
    highs_s = total("milp.highs")

    out = {
        "model.load_s": total("model.load_network_file"),
        "fragility.sample_s": total("fragility.sample_scenarios"),
        "fragility.scenarios": sum(a.get("scenarios", 0) for a in sampled),
        "fragility.distinct_damage_sets": sum(a.get("distinct", 0) for a in sampled),
        "formulation.build_master_s": total("formulation.build_master", self_time),
        "formulation.build_master_calls": len(named("formulation.build_master")),
        "formulation.master_vars_max": max(
            (spans[i]["attrs"]["variables"] for i in named("formulation.build_master")),
            default=0),
        "formulation.cycle_cuts": trace["counters"].get("formulation.cycle_cuts", 0),
        "milp.solve_calls": len(named("milp.solve")),
        "milp.nodes": sum(spans[i]["attrs"]["nodes"] for i in named("milp.solve")),
        "milp.lp_solves": len(named("milp.linprog")),
        "milp.linprog_s": linprog_s,
        "milp.highs_s": highs_s,
        "milp.wrapper_s": linprog_s - highs_s,
        "decomposition.iterations": sum(
            spans[i]["attrs"]["iterations"] for i in named("decomposition.sbd_design")),
        "decomposition.master_s": total("decomposition.sbd_design") - verify_s,
        "decomposition.verify_s": verify_s,
        "decomposition.verify_calls": len(verify),
        "decomposition.verify_distinct_ratio": (
            len({spans[i]["attrs"]["damage"] for i in verify}) / len(verify)
            if verify else 0.0),
        "decomposition.cut_rounds": solves_in_loops - len(cut_loops),
        "validate.audit_s": total("validate.audit"),
        "validate.audit_calls": len(named("validate.audit")),
        "cli.audit_resolve_s": total("cli.audit_resolve"),
        "cli.audit_resolve_calls": len(named("cli.audit_resolve")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, self_time) if s["name"].startswith(layer + "."))
    return out
