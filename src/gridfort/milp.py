"""Solver-agnostic MILP representation plus a built-in exact solver.

A model is compiled and append-only: its rows are sparse row blocks in
insertion order (``RowBlock``), either appended whole (``add_rows``, one
scenario block at a time) or added one by one (``add_constraint``) and
compiled on the next solve. Names of bulk-added columns and rows are
generated only when asked for. Both backends read the model as one compiled
form (``_compile``): the blocks joined into one sparse row-bounded matrix
``row_lo <= A @ x <= row_hi``. The built-in backend hands it to HiGHS
branch-and-cut through ``scipy.optimize.milp``, in process, which keeps the
test suite hermetic (no third-party MILP solver process needed). The
external adapter writes it as an MPS model file (``write_model``) and reads
back a plain solution file from any solver wrapped behind a subprocess
command template.

HiGHS receives only a model's free columns (``_free_columns``). A column
whose bounds are equal is substituted at its bound: its part of each row
moves into the row bounds, and its objective part is added back to
``Solution.objective`` and ``bound``. A row left without a free column is
checked with HiGHS's own tolerance and dropped. ``Solution.values`` has
every column, each fixed one exactly at its bound. A case30 verification
model of 943 rows x 567 columns reaches HiGHS as 899 x 376; the final master
of the 59-bus benchmark feeder as 5244 x 2248 instead of 5478 x 3256, which
HiGHS solved in 0.08 s instead of 0.22 s (median of 7, HiGHS 1.12, scipy
1.17, 2-vCPU VM). The dropped rows matter: with them kept, that master took
0.28 s.

Every in-process solve turns off HiGHS's feasibility-jump primal heuristic
(``mip_heuristic_run_feasibility_jump``). HiGHS presolve shrinks a case30
verification model to a few dozen rows, and on a feasible one the heuristic
took about 40% of the solve: 14.1 ms per solve with it, 8.6 ms without, the
median over 20 such models with their fixed columns still in (HiGHS 1.12,
scipy 1.17, 2-vCPU VM). It finds feasible points only, so it changes no
optimality or infeasibility proof: only which feasible point a pure
feasibility solve returns. scipy's ``milp`` passes the option to HiGHS
verbatim with a ``RuntimeWarning``; a HiGHS without the option skips it
with an ``OptimizeWarning``. Both are silenced by filters that match this
option only (``_ignore_option_warnings``), not by
``warnings.catch_warnings``, which is not thread-safe: a library caller may
solve on several threads.

HiGHS 1.12 ``printf``s some debug lines to the process's standard output
during MIP solves (``HighsMipSolverData::transformNewIntegerFeasibleSolution
tmpSolver.run();``) whatever its output options say. So file descriptor 1
points at ``os.devnull`` while HiGHS runs (``_stdout_silenced``); anything
another thread writes to fd 1 meanwhile is lost too.

Cuts are injected by appending rows and re-solving; there is no callback
API, so the builtin and file-based external backends behave identically.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import re
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, linprog
from scipy.optimize import milp as scipy_milp

__all__ = [
    "CONTINUOUS",
    "BINARY",
    "MilpModel",
    "RowBlock",
    "Solution",
    "SolverOptions",
    "SolverError",
    "solve",
    "solve_lp_relaxation",
    "write_model",
    "parse_external_solution",
]

CONTINUOUS = "continuous"
BINARY = "binary"

LESS = "<="
GREATER = ">="
EQUAL = "="

ENV_SOLVER_CMD = "GRIDFORT_SOLVER_CMD"


class SolverError(RuntimeError):
    """Configuration or runtime failure of a solver backend."""


@dataclass(frozen=True)
class SolverOptions:
    time_limit: float | None = None
    rel_gap: float = 1e-4
    int_tol: float = 1e-6
    backend: str = "builtin"  # or "external"
    external_command: str | None = None
    node_limit: int | None = None

    def __post_init__(self) -> None:
        # written so that NaN fails each test
        if not (self.rel_gap >= 0 and self.int_tol > 0):
            raise ValueError("tolerances must be positive")
        # HiGHS would reject a negative limit on every solve and run without one
        for key in ("time_limit", "node_limit"):
            value = getattr(self, key)
            if value is not None and not value >= 0:
                raise ValueError(f"solver {key} must not be negative, got {value}")
        if self.backend not in ("builtin", "external"):
            raise ValueError(f"solver backend must be 'builtin' or 'external', "
                             f"got {self.backend!r}")


@dataclass(frozen=True)
class Solution:
    """A solve's outcome. ``bound`` is a proven lower bound on the objective:
    HiGHS's ``mip_dual_bound``, or the objective of an optimum reported
    without one. It is None when HiGHS reports none for a solve that is not
    optimal, as it may at a time or node limit."""

    status: str  # optimal | infeasible | unbounded | feasible_limit | error
    values: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    nodes: int = 0
    message: str = ""

    @property
    def gap(self) -> float:
        if self.objective is None or self.bound is None:
            return math.inf
        return abs(self.objective - self.bound) / max(1.0, abs(self.objective))


@dataclass(frozen=True)
class RowBlock:
    """Rows in compressed sparse row form: row i holds the entries
    ``indptr[i]:indptr[i + 1]`` of ``indices``/``data``, sorted by column,
    and reads ``lo[i] <= a_i @ x <= hi[i]``. Each row is one-sided or an
    equality: a one-sided row has an infinite bound on its other side, and
    an equality has ``lo[i] == hi[i]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.lo)

    def slice(self, start: int, stop: int) -> RowBlock:
        """Rows ``start:stop`` as a block of their own (copies)."""
        a, b = self.indptr[start], self.indptr[stop]
        return RowBlock(self.indptr[start:stop + 1] - a, self.indices[a:b].copy(),
                        self.data[a:b].copy(), self.lo[start:stop].copy(),
                        self.hi[start:stop].copy())

    @staticmethod
    def concat(blocks: list[RowBlock]) -> RowBlock:
        """The rows of ``blocks`` in order, in new arrays."""
        starts = np.cumsum([0] + [b.indptr[-1] for b in blocks[:-1]])
        return RowBlock(
            np.concatenate([np.zeros(1, dtype=np.int64)]
                           + [b.indptr[1:] + s for b, s in zip(blocks, starts)]),
            np.concatenate([b.indices for b in blocks]),
            np.concatenate([b.data for b in blocks]),
            np.concatenate([b.lo for b in blocks]),
            np.concatenate([b.hi for b in blocks]),
        )


_NO_ROWS = RowBlock(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0), np.zeros(0), np.zeros(0))


def _expand(segments) -> list[str]:
    """Names from segments: lists and tuples of names as they are, callables
    called for theirs."""
    out: list[str] = []
    for seg in segments:
        out.extend(seg() if callable(seg) else seg)
    return out


class MilpModel:
    """Sparse minimization MILP with continuous and binary variables.

    Rows stay in insertion order. A row added by ``add_constraint`` waits as
    a dict until the next compile turns the waiting rows into one
    ``RowBlock``; ``add_rows`` appends a whole block at once. Compiling joins
    the blocks (``rows``), so a cut round appends rows to the compiled arrays
    instead of rebuilding them; both solver routes read those arrays. Names
    of columns and rows added in bulk are produced only when asked for
    (``var_names``, ``row_names``, the MPS writer).
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.kinds: list[str] = []
        self.objective: dict[int, float] = {}
        self._index: dict[str, int] = {}  # names of variables added one by one
        self._var_names: list = []        # name segments, see _expand
        self._row_names: list = []        # likewise; "" stands for c{row}
        self._blocks: list[RowBlock] = []
        self._joined: RowBlock | None = None  # the block rows() last joined
        self._pending: list[tuple[dict[int, float], float, float]] = []
        self._n_rows = 0

    # -- construction -------------------------------------------------------

    def add_variable(self, name: str, lb: float = 0.0, ub: float = math.inf,
                     kind: str = CONTINUOUS) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            if math.isinf(ub):
                ub = 1.0
            if not (0.0 <= lb <= ub <= 1.0):
                raise ValueError(f"binary variable {name!r} bounds must lie within [0, 1]")
        if lb > ub:
            raise ValueError(f"variable {name!r} has empty bound interval")
        ix = self.num_variables
        self.lb.append(lb)
        self.ub.append(ub)
        self.kinds.append(kind)
        _own_names(self._var_names).append(name)
        self._index[name] = ix
        return ix

    def add_columns(self, lb: list[float], ub: list[float], kinds: list[str],
                    names) -> int:
        """Append columns whose bounds and kinds were checked where they were
        made; ``names`` is a tuple of their names or a callable returning
        them. Returns the index of the first."""
        first = self.num_variables
        self.lb.extend(lb)
        self.ub.extend(ub)
        self.kinds.extend(kinds)
        self._var_names.append(names)
        return first

    def fix_variable(self, ix: int, value: float) -> None:
        self.lb[ix] = value
        self.ub[ix] = value

    def add_constraint(self, coeffs, sense: str, rhs: float, name: str = "") -> int:
        if sense not in (LESS, GREATER, EQUAL):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"constraint {name!r} has non-finite rhs")
        cleaned: dict[int, float] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        n = self.num_variables
        for ix, c in items:
            if not 0 <= ix < n:
                raise ValueError(f"constraint {name!r} references unknown variable {ix}")
            if c != 0.0:
                cleaned[ix] = cleaned.get(ix, 0.0) + c
        rhs = float(rhs)
        self._pending.append((cleaned, -math.inf if sense == LESS else rhs,
                              math.inf if sense == GREATER else rhs))
        _own_names(self._row_names).append(name)
        self._n_rows += 1
        return self._n_rows - 1

    def add_rows(self, rows: RowBlock, names) -> int:
        """Append a block of rows after every row so far; ``names`` as in
        ``add_columns``. Returns the index of the first. A ranged row, with
        finite ``lo < hi``, is a ValueError: the MPS writer has no form
        for it."""
        ranged = np.isfinite(rows.lo) & np.isfinite(rows.hi) & (rows.lo != rows.hi)
        if ranged.any():
            i = int(np.flatnonzero(ranged)[0])
            raise ValueError(f"row {i} of the block is ranged: "
                             f"{float(rows.lo[i])!r} <= a @ x <= {float(rows.hi[i])!r}")
        self._flush()
        self._blocks.append(rows)
        self._row_names.append(names)
        self._n_rows += len(rows)
        return self._n_rows - len(rows)

    def set_rhs(self, row: int, rhs: float) -> None:
        """Move the finite side of a one-sided row, or both sides of an
        equality, to ``rhs``, in the joined block ``rows`` returns: the
        arrays the next solve and the MPS writer read."""
        rows = self.rows()
        if rows.lo[row] != -math.inf:
            rows.lo[row] = rhs
        if rows.hi[row] != math.inf:
            rows.hi[row] = rhs

    def set_objective(self, coeffs) -> None:
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        self.objective = {ix: float(c) for ix, c in items if c != 0.0}
        for ix in self.objective:
            if not 0 <= ix < self.num_variables:
                raise ValueError(f"objective references unknown variable {ix}")

    def _flush(self) -> None:
        """Turn the rows waiting as dicts into one block."""
        if not self._pending:
            return
        rows = [sorted(coeffs.items()) for coeffs, _, _ in self._pending]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        nnz = int(indptr[-1])
        self._blocks.append(RowBlock(
            indptr,
            np.fromiter((ix for r in rows for ix, _ in r), dtype=np.int64, count=nnz),
            np.fromiter((c for r in rows for _, c in r), dtype=float, count=nnz),
            np.array([lo for _, lo, _ in self._pending], dtype=float),
            np.array([hi for _, _, hi in self._pending], dtype=float),
        ))
        self._pending = []

    def rows(self) -> RowBlock:
        """Every row in order, as one block this model owns."""
        self._flush()
        if not self._blocks:
            return _NO_ROWS
        if len(self._blocks) > 1 or self._blocks[0] is not self._joined:
            self._joined = RowBlock.concat(self._blocks)
            self._blocks = [self._joined]
        return self._joined

    # -- queries -------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.lb)

    @property
    def num_constraints(self) -> int:
        return self._n_rows

    @property
    def var_names(self) -> list[str]:
        return _expand(self._var_names)

    @property
    def row_names(self) -> list[str]:
        return [name or f"c{i}" for i, name in enumerate(_expand(self._row_names))]


def _own_names(segments: list) -> list:
    """The trailing list segment, appended to for names given one by one."""
    if not segments or not isinstance(segments[-1], list):
        segments.append([])
    return segments[-1]


# ---------------------------------------------------------------------------
# builtin engine: HiGHS through scipy
# ---------------------------------------------------------------------------

_NO_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"
# (message, category, module) of the warnings that option brings: scipy's
# for an option it passes on verbatim, raised from this module's call, and
# that of an older HiGHS that lacks the option and skips it
_OPTION_WARNINGS = (
    (re.escape(f"Unrecognized options detected: {{'{_NO_FEASIBILITY_JUMP}'}}"),
     RuntimeWarning, re.escape(__name__) + r"\Z"),
    (f".*{_NO_FEASIBILITY_JUMP}", OptimizeWarning, ""),
)
_FILTERS_LOCK = threading.Lock()
# HiGHS's mip_feasibility_tolerance (its default, which gridfort keeps): its
# presolve calls a MILP infeasible when a row left without columns misses
# its bounds by more than this
_MIP_FEASIBILITY_TOL = 1e-6


def _ignore_option_warnings() -> None:
    """Put filters that ignore ``_OPTION_WARNINGS`` first in
    ``warnings.filters`` if they are missing. Called before each solve, not
    once at import: leaving a ``warnings.catch_warnings`` block restores the
    filters it began with, and pytest runs its start-up and each test in
    one."""
    with _FILTERS_LOCK:
        for message, category, module in _OPTION_WARNINGS:
            # the entry warnings.filterwarnings makes of these arguments
            entry = ("ignore", re.compile(message, re.I), category,
                     re.compile(module) if module else None, 0)
            if entry not in warnings.filters:
                warnings.filterwarnings("ignore", message, category, module)


try:
    _c_fflush = ctypes.CDLL(None).fflush
    _c_fflush.argtypes, _c_fflush.restype = [ctypes.c_void_p], ctypes.c_int
except (OSError, AttributeError, TypeError):  # no C library to reach this way
    _c_fflush = None
_STDOUT_LOCK = threading.Lock()
_silenced = 0        # HiGHS calls in flight, on any thread
_saved_stdout = None  # a duplicate of fd 1 as it was before the first of them


@contextmanager
def _stdout_silenced():
    """File descriptor 1 pointed at ``os.devnull`` for the duration. Calls
    on several threads share one swap, undone when the last one leaves;
    C stdio is flushed before that, so what HiGHS left in its buffer goes to
    ``os.devnull`` too. Without an open fd 1 nothing is swapped."""
    global _silenced, _saved_stdout
    with _STDOUT_LOCK:
        if not _silenced:
            try:
                _saved_stdout = os.dup(1)
            except OSError:
                _saved_stdout = None
            else:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.close(null)
        _silenced += 1
    try:
        yield
    finally:
        with _STDOUT_LOCK:
            _silenced -= 1
            if not _silenced and _saved_stdout is not None:
                if _c_fflush is not None:
                    _c_fflush(None)
                os.dup2(_saved_stdout, 1)
                os.close(_saved_stdout)
                _saved_stdout = None


_LINPROG_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


@dataclass(frozen=True)
class _Compiled:
    """The model as arrays: ``row_lo <= A @ x <= row_hi``, ``lb <= x <= ub``."""

    c: np.ndarray
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray


def _compile(model: MilpModel) -> _Compiled:
    n, rows = model.num_variables, model.rows()
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    A = sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=(len(rows), n))
    A.sort_indices()
    return _Compiled(
        c=c,
        A=A,
        row_lo=rows.lo,
        row_hi=rows.hi,
        lb=np.array(model.lb, dtype=float),
        ub=np.array(model.ub, dtype=float),
        binary=np.array([k == BINARY for k in model.kinds], dtype=bool),
    )


def solve(model: MilpModel, options: SolverOptions | None = None) -> Solution:
    """Minimize the model with the configured backend."""
    options = options or SolverOptions()
    if options.backend == "external":
        return _solve_external(model, options)
    return _solve_highs(model, options)


def _free_columns(lp: _Compiled, tol: float) -> tuple[_Compiled, np.ndarray, float] | None:
    """``lp`` over its free columns (``lb != ub``) and the rows that keep
    one, the mask of those columns and the objective constant
    ``c_fixed @ lb_fixed``; None if a row left without a free column is
    violated by more than ``tol``.

    Each fixed column is substituted at its bound: its part of every row,
    ``A_fixed @ lb_fixed``, moves into the row bounds. A row left without a
    free column is checked here and dropped. Each caller passes the
    tolerance its solver would judge that row with, so a model is
    infeasible here exactly when its solver would call it so.

    The constant is nonzero only in a feasibility check (a verification with
    the whole first stage fixed), whose free objective is identically zero.
    The fixed columns of every master, kW pass and best-effort model carry
    no objective, so HiGHS's ``mip_rel_gap`` test sees the same objective
    with or without them.
    """
    free = lp.lb != lp.ub
    x = np.where(free, 0.0, lp.lb)
    shift = lp.A @ x
    lo, hi = lp.row_lo - shift, lp.row_hi - shift
    A = lp.A
    keep = free[A.indices]
    kept = np.zeros(len(keep) + 1, dtype=np.int64)  # entries kept before each one
    np.cumsum(keep, out=kept[1:])
    indptr = kept[A.indptr]
    rows = np.diff(indptr) > 0
    if np.any(lo[~rows] > tol) or np.any(hi[~rows] < -tol):
        return None
    column = np.cumsum(free) - 1  # a free column's index among the free ones
    reduced = sp.csr_matrix(
        (A.data[keep], column[A.indices[keep]], np.concatenate([[0], indptr[1:][rows]])),
        shape=(int(rows.sum()), int(free.sum())))
    return (_Compiled(c=lp.c[free], A=reduced, row_lo=lo[rows], row_hi=hi[rows],
                      lb=lp.lb[free], ub=lp.ub[free], binary=lp.binary[free]),
            free, float(lp.c @ x))


def _solve_highs(model: MilpModel, options: SolverOptions) -> Solution:
    """HiGHS branch-and-cut on the model's free columns, in process. A time
    or node limit ends the solve: its status is ``feasible_limit`` and its
    bound whatever HiGHS proved by then."""
    full = _compile(model)
    reduced = _free_columns(full, _MIP_FEASIBILITY_TOL)
    if reduced is None:
        return Solution("infeasible")
    lp, free, offset = reduced
    if not free.any():
        return Solution("optimal", full.lb.copy(), offset, offset)
    _ignore_option_warnings()
    highs_opts = {"disp": False, "presolve": True, "mip_rel_gap": options.rel_gap,
                  _NO_FEASIBILITY_JUMP: False}
    if options.time_limit is not None:
        highs_opts["time_limit"] = options.time_limit
    if options.node_limit is not None:
        highs_opts["node_limit"] = options.node_limit
    with _stdout_silenced():
        res = scipy_milp(
            lp.c,
            integrality=lp.binary.astype(np.uint8),
            bounds=Bounds(lp.lb, lp.ub),
            constraints=LinearConstraint(lp.A, lp.row_lo, lp.row_hi),
            options=highs_opts,
        )
    nodes = int(res.mip_node_count or 0)
    if res.status == 0:
        status = "optimal"
    # scipy reports HiGHS's node limit ("solution limit reached") under its
    # catch-all status 4, and time and iteration limits as status 1
    elif res.status == 1 or (res.status == 4 and "limit reached" in res.message):
        status = "feasible_limit"
    else:
        status = {2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    values = objective = None
    if res.x is not None and status in ("optimal", "feasible_limit"):
        values = full.lb.copy()
        values[free] = res.x
        values[full.binary] = np.round(values[full.binary])
        objective = float(res.fun) + offset
    bound = res.mip_dual_bound
    if bound is not None and math.isfinite(bound):
        bound = float(bound) + offset
    else:
        bound = objective if status == "optimal" else None
    return Solution(status, values, objective, bound, nodes=nodes, message=res.message)


def solve_lp_relaxation(model: MilpModel) -> Solution:
    """Relax binaries to [0, 1]; the optimum is a valid MILP lower bound.
    The LP carries the free columns only (``_free_columns``)."""
    full = _compile(model)
    reduced = _free_columns(full, _LINPROG_OPTS["primal_feasibility_tolerance"])
    if reduced is None:
        return Solution("infeasible")
    lp, free, offset = reduced
    if not free.any():
        return Solution("optimal", full.lb.copy(), offset, offset, nodes=1)
    A, lo, hi = lp.A, lp.row_lo, lp.row_hi
    eq = lo == hi
    le = np.isfinite(hi) & ~eq
    ge = np.isfinite(lo) & ~eq
    A_ub = sp.vstack([A[le], -A[ge]], format="csr")
    b_ub = np.concatenate([hi[le], -lo[ge]])
    with _stdout_silenced():
        res = linprog(
            lp.c,
            A_ub=A_ub if A_ub.shape[0] else None,
            b_ub=b_ub if A_ub.shape[0] else None,
            A_eq=A[eq] if eq.any() else None,
            b_eq=lo[eq] if eq.any() else None,
            bounds=np.column_stack([lp.lb, lp.ub]),
            method="highs",
            options=_LINPROG_OPTS,
        )
    if res.status == 0:
        x = full.lb.copy()
        x[free] = res.x
        obj = float(res.fun) + offset
        return Solution("optimal", x, obj, obj, nodes=1)
    status = {2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    return Solution(status, message=res.message)


# ---------------------------------------------------------------------------
# MPS exchange + external adapter
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"\s+")


def _mps_name(name: str) -> str:
    clean = _NAME_RE.sub("_", name.strip())
    if len(clean) > 255:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:11]
        clean = clean[:243] + f"~{digest}"
    return clean


def _mps_names(names: list[str]) -> list[str]:
    """``names`` as the MPS file spells them: each cleaned by ``_mps_name``,
    and one that repeats an earlier cleaned name suffixed ``.{position}``."""
    out: list[str] = []
    seen: set[str] = set()
    for i, name in enumerate(names):
        clean = _mps_name(name)
        if clean in seen:
            clean = f"{clean}.{i}"
        seen.add(clean)
        out.append(clean)
    return out


def write_model(model: MilpModel) -> str:
    """Serialize to MPS text (free layout, fixed section structure) from
    the arrays the builtin engine reads (``_compile``).

    A row is ``L`` where ``row_lo`` is infinite, ``G`` where ``row_hi`` is,
    and ``E`` at ``row_lo`` otherwise. Zero coefficients and right-hand sides
    are omitted; a column that appears nowhere gets a single zero objective
    entry so it is still declared. Each column lists its objective entry,
    then its rows in order. Names follow ``_mps_names``; numbers print as
    Python float reprs.
    """
    lp = _compile(model)
    var_names = _mps_names(model.var_names)
    row_names = _mps_names(model.row_names)
    out = [f"NAME          {_mps_name(model.name)}", "ROWS", " N  OBJ"]
    rhs = []
    for rn, lo, hi in zip(row_names, lp.row_lo.tolist(), lp.row_hi.tolist()):
        if lo == -math.inf:
            sense, value = "L", hi
        elif hi == math.inf:
            sense, value = "G", lo
        else:
            sense, value = "E", lo
        out.append(f" {sense}  {rn}")
        if value != 0.0:
            rhs.append(f"    RHS  {rn}  {value!r}")

    out.append("COLUMNS")
    cols = lp.A.tocsc()
    indptr, rows, data = cols.indptr.tolist(), cols.indices.tolist(), cols.data.tolist()
    in_int = False
    marker = 0
    for ix, (vn, c, is_int) in enumerate(zip(var_names, lp.c.tolist(), lp.binary.tolist())):
        if is_int != in_int:
            tag = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    M{marker}  'MARKER'  {tag}")
            marker += 1
            in_int = is_int
        entries = [("OBJ", c)] if c != 0.0 else []
        a, b = indptr[ix], indptr[ix + 1]
        entries += [(row_names[r], v) for r, v in zip(rows[a:b], data[a:b]) if v != 0.0]
        for rn, v in entries or [("OBJ", 0.0)]:
            out.append(f"    {vn}  {rn}  {v!r}")
    if in_int:
        out.append(f"    M{marker}  'MARKER'  'INTEND'")

    out.append("RHS")
    out.extend(rhs)
    out.append("BOUNDS")
    for vn, lo, hi in zip(var_names, model.lb, model.ub):
        if lo == hi:
            out.append(f" FX BND  {vn}  {lo!r}")
            continue
        if math.isinf(lo) and math.isinf(hi):
            out.append(f" FR BND  {vn}")
            continue
        if math.isinf(lo):
            out.append(f" MI BND  {vn}")
        elif lo != 0.0:
            out.append(f" LO BND  {vn}  {lo!r}")
        if not math.isinf(hi):
            out.append(f" UP BND  {vn}  {hi!r}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


_OBJ_LINE_RE = re.compile(r"objective value\s*=?\s*([^\s=]\S*)", re.IGNORECASE)
_STATUS_LINE_RE = re.compile(r"^#\s*status\s*=\s*(.*)$", re.IGNORECASE)


def _finite(raw: str, lineno: int) -> float:
    """``raw`` as a finite float; SolverError naming the line otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise SolverError(f"solution line {lineno}: bad value {raw!r}") from None
    if not math.isfinite(value):
        raise SolverError(f"solution line {lineno}: value {raw!r} is not finite")
    return value


def parse_external_solution(text: str, model: MilpModel,
                            options: SolverOptions | None = None) -> Solution:
    """Parse the adapter solution format.

    Accepted format: '#'-prefixed comment lines, one of which must state
    ``Objective value = <float>``; every other nonempty line is
    ``<variable name> <value>``, the name as ``write_model`` spells it
    (``_mps_names``). Variables absent from the file default to 0.
    Binary values must be integral within the integrality tolerance and are
    rounded. A comment line ``# Status = infeasible`` instead reports a
    model proven infeasible, whatever else the file holds, and
    ``# Status = optimal`` changes nothing; both are read in any case. A
    file that breaks these rules raises ``SolverError``, and so does one
    whose objective or any value is not a finite float, that names a
    variable twice, or whose ``# Status =`` line states anything else, such
    as a time limit: a solve stopped there has proven no optimum.
    """
    statuses = [m.group(1) for line in text.splitlines()
                if (m := _STATUS_LINE_RE.match(line.strip()))]
    unproven = [s for s in statuses if s.lower() not in ("optimal", "infeasible")]
    if unproven:
        raise SolverError(f"solution file reports status {unproven[0]!r}, "
                          "neither optimal nor infeasible")
    if any(s.lower() == "infeasible" for s in statuses):
        return Solution("infeasible")
    options = options or SolverOptions()
    objective: float | None = None
    values = np.zeros(model.num_variables)
    mps_to_ix = {v: i for i, v in enumerate(_mps_names(model.var_names))}
    named: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _OBJ_LINE_RE.search(line)
            if m:
                objective = _finite(m.group(1), lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolverError(f"solution line {lineno}: expected 'name value', got {line!r}")
        name, raw = parts
        ix = mps_to_ix.get(name)
        if ix is None:
            raise SolverError(f"solution names unknown variable {name!r}")
        if ix in named:
            raise SolverError(f"solution line {lineno}: variable {name!r} named twice")
        named.add(ix)
        v = _finite(raw, lineno)
        if model.kinds[ix] == BINARY:
            r = round(v)
            if abs(v - r) > options.int_tol:
                raise SolverError(
                    f"binary variable {name!r} value {v} violates integrality tolerance"
                )
            v = float(r)
        values[ix] = v
    if objective is None:
        raise SolverError("solution file is missing the objective value")
    return Solution("optimal", values, objective, objective)


def _solve_external(model: MilpModel, options: SolverOptions) -> Solution:
    template = options.external_command or os.environ.get(ENV_SOLVER_CMD)
    if not template:
        raise SolverError(
            "external backend selected but no solver command configured "
            f"(set SolverOptions.external_command or ${ENV_SOLVER_CMD})"
        )
    with tempfile.TemporaryDirectory(prefix="gridfort-milp-") as tmp:
        model_path = Path(tmp) / "model.mps"
        sol_path = Path(tmp) / "model.sol"
        model_path.write_text(write_model(model))
        cmd = template.format(model=model_path, solution=sol_path)
        proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SolverError(
                f"external solver failed (exit {proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        if not sol_path.exists():
            raise SolverError("external solver produced no solution file")
        return parse_external_solution(sol_path.read_text(), model, options)
