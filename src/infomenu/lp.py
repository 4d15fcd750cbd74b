"""Linear programs in the array form handed to HiGHS, and the session that
grows one by rows or by columns.

``ArrayLP`` is the one form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  Every LP of the library is built straight into it by index
arithmetic.  ``CSR`` holds a matrix in numpy arrays laid out as scipy's
canonical CSR; ``block_csr``, ``vstack``, ``block_diag`` and ``rmatvec``
are the sparse operations the library needs, so it does not import
``scipy.sparse``.  The LP code reads a matrix only through ``data``,
``indices``, ``indptr`` and ``shape``, so a scipy CSR matrix serves as well.

A ``Session`` builds the HiGHS model of an ``ArrayLP`` once, through
scipy's bundled binding: the one model and the options ``linprog`` would
pass, without ``linprog``'s per-call wrapper, by rows (``A_ub``, then
``A_eq``).  ``add_rows`` then appends "<=" rows, and each
``solve(session)`` runs HiGHS again from the basis the previous run left;
the separation loops of the menu solvers grow their LPs this way.
``add_columns`` appends nonnegative zero-cost columns instead, and each run
is the cold solve of the grown LP: the multi-buyer master grows this way.
``solve(ArrayLP)`` is a fresh session that runs once.  Where the binding is
missing, every run hands the LP so far to ``linprog``, cold.  The binding
is loaded from its file, and ``linprog`` and the scipy CSR it takes are
imported on its first call, so importing this module imports neither
``scipy.optimize`` nor ``scipy.sparse``.  Solutions carry row duals in the
sign convention of the *declared* objective sense
(for a maximization problem the dual of a binding "<=" row is the
nonnegative marginal revenue of its rhs); ``lagrangian_bound`` turns them
into an upper bound on a maximization's optimum.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import NumericalFailure

# linprog's check of an optimum's constraint residuals: sqrt(1e-9) * 10.
_LINPROG_CHECK_TOL = np.sqrt(1e-9) * 10
# What Session uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsLp", "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kRowwise", "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual", "_Highs.passOptions",
    "_Highs.passModel", "_Highs.addRows", "_Highs.addCols", "_Highs.run", "_Highs.getModelStatus",
    "_Highs.getInfo", "_Highs.getSolution", "_Highs.modelStatusToString",
)


_CORE = "scipy.optimize._highspy._core"


def _load_core():
    """scipy's compiled HiGHS binding, loaded from its file without running
    ``scipy.optimize/__init__`` (most of scipy.optimize, ~0.3 s at import);
    the package import where the file is missing or does not load.  The
    folder comes from scipy's module spec, so scipy itself is not imported."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    folder = Path(importlib.util.find_spec("scipy").origin).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if not path.is_file():
            continue
        loader = importlib.machinery.ExtensionFileLoader(_CORE, str(path))
        try:
            core = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_CORE, path, loader=loader))
            loader.exec_module(core)
        except ImportError:
            break
        sys.modules[_CORE] = core
        return core
    from scipy.optimize._highspy import _core
    return _core


def _binding():
    """scipy's bundled HiGHS binding, or None where it lacks a name we use."""
    try:
        core = _load_core()
        attrgetter(*_BINDING_NAMES)(core)
    except (ImportError, AttributeError):
        return None
    return core


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the
    fallback without the binding runs it."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


_highs = _binding()
_INF = _highs.kHighsInf if _highs is not None else np.inf


def _highs_inf(values) -> np.ndarray:
    """``values`` with infinities as HiGHS's infinity, as linprog passes them."""
    return np.clip(values, -_INF, _INF)


@dataclass
class CSR:
    """A sparse matrix as scipy's canonical CSR: row r holds ``data[j]`` at
    column ``indices[j]`` for j in ``indptr[r]:indptr[r + 1]``, by increasing
    column, one entry per (row, column); int32 indices."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _row_of(A) -> np.ndarray:
    """The row of each stored entry of the CSR matrix ``A``."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def block_csr(blocks, shape: tuple[int, int]) -> CSR:
    """CSR matrix from COO blocks ``(rows, cols, vals, keep)``: arrays that
    broadcast to one shape, entries where ``keep`` is False left out.

    The result is scipy's ``csr_matrix((vals, (rows, cols)), shape)``: the
    entries stably sorted by (row, column), duplicates summed in input
    order, explicit zeros kept."""
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for block in blocks:
        r, c, v, keep = np.broadcast_arrays(*block)
        parts.append((r[keep], c[keep], v[keep]))
    r, c, v = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(r * shape[1] + c, kind="stable")
    r, c, v = r[order], c[order], v[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    data = v[first]
    if not first.all():
        # Each duplicate joins its first entry in input order, as scipy adds them.
        np.add.at(data, np.cumsum(first)[~first] - 1, v[~first])
    counts = np.bincount(r[first], minlength=shape[0])
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return CSR(data, c[first].astype(np.int32), indptr, tuple(shape))


def vstack(blocks) -> CSR:
    """The rows of the CSR matrices ``blocks`` one after another."""
    offsets = np.cumsum([0] + [B.indptr[-1] for B in blocks])
    indptr = [np.zeros(1, np.int32)] + [B.indptr[1:] + o for B, o in zip(blocks, offsets)]
    return CSR(np.concatenate([B.data for B in blocks]),
               np.concatenate([B.indices for B in blocks]).astype(np.int32),
               np.concatenate(indptr).astype(np.int32),
               (sum(B.shape[0] for B in blocks), blocks[0].shape[1]))


def block_diag(blocks) -> CSR:
    """The CSR matrices ``blocks`` on the diagonal of one, each block's
    columns after the previous blocks' columns."""
    first = np.cumsum([0] + [B.shape[1] for B in blocks])
    return vstack([CSR(B.data, B.indices + c, B.indptr, (B.shape[0], first[-1]))
                   for B, c in zip(blocks, first)])


def rmatvec(A, y: np.ndarray) -> np.ndarray:
    """``A.T @ y`` for the CSR matrix ``A``, each column summed from 0 in row
    order, as scipy sums it."""
    return np.bincount(A.indices, weights=A.data * y[_row_of(A)], minlength=A.shape[1])


@dataclass
class ArrayLP:
    """Optimize ``c @ x`` in the declared ``sense`` subject to
    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and
    ``bounds[:, 0] <= x <= bounds[:, 1]`` (``-inf`` / ``inf`` where open)."""

    c: np.ndarray
    A_ub: CSR
    b_ub: np.ndarray
    A_eq: CSR
    b_eq: np.ndarray
    bounds: np.ndarray
    sense: str = "max"

    def n_variables(self) -> int:
        return len(self.c)

    def n_constraints(self) -> int:
        return self.A_ub.shape[0] + self.A_eq.shape[0]


@dataclass
class LPSolution:
    status: str                                  # Optimal | Infeasible | Unbounded
    objective_value: float
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None          # A_ub rows, then A_eq
    iterations: int = 0                          # simplex iterations


class Session:
    """An ``ArrayLP`` held by HiGHS, grown by "<=" rows or by columns.

    ``add_rows`` appends rows to the one HiGHS instance, and each
    ``solve(session)`` runs from the basis the previous run left.
    ``add_columns`` appends variables >= 0 of objective coefficient 0, and
    the next run is the cold solve of ``array_lp()``: a fresh instance gets
    the kept model, then every appended column.  A session grows one way,
    not both.  The solution reads as that of ``array_lp()``, so its row
    duals list the first ``A_ub`` rows, the appended rows, then the
    equality rows.  A session replays the same calls for the same input, so
    it returns the same vertex from run to run.  ``feasibility_tol`` sets
    HiGHS's primal and dual feasibility tolerances (default 1e-7).
    """

    def __init__(self, lp: ArrayLP, feasibility_tol: float | None = None):
        self._first = lp
        self._added: list[tuple[CSR, np.ndarray]] = []
        self._tol = feasibility_tol
        # The appended columns in CSC arrays, ready for HiGHS's addCols.
        self._col_start = self._col_index = np.zeros(0, dtype=np.int32)
        self._col_value = np.zeros(0)
        # Objective and bounds of every column, bounds of every row (in
        # HiGHS's order: the first A_ub, its A_eq, then the appended rows).
        self._c = lp.c
        self._col_lower, self._col_upper = _highs_inf(lp.bounds[:, 0]), _highs_inf(lp.bounds[:, 1])
        n_ub = lp.A_ub.shape[0]
        self._row_upper = _highs_inf(np.concatenate((lp.b_ub, lp.b_eq)))
        self._row_lower = np.full(len(self._row_upper), -_INF)
        self._row_lower[n_ub:] = self._row_upper[n_ub:]
        self._model = None if _highs is None else self._highs_model()
        # Built once: they cost more than a small run, and passOptions copies them.
        self._options = None if _highs is None else _options(feasibility_tol)
        self._highs = None

    def n_variables(self) -> int:
        return len(self._c)

    def n_constraints(self) -> int:
        return len(self._row_upper)

    def array_lp(self) -> ArrayLP:
        """The LP so far as one ``ArrayLP``: the first ``A_ub``, then the
        appended rows; the first columns, then the appended ones."""
        lp = self._first
        k = len(self._col_start)
        if k:
            n_ub, n = lp.A_ub.shape[0], len(lp.c) + k
            lengths = np.diff(np.append(self._col_start, len(self._col_index)))
            col = len(lp.c) + np.repeat(np.arange(k), lengths)
            row, value = self._col_index, self._col_value

            def widened(A, first_row):
                # A's rows with the appended columns' entries on them.
                on = (row >= first_row) & (row < first_row + A.shape[0])
                return block_csr([(_row_of(A), A.indices, A.data, True),
                                  (row - first_row, col, value, on)], (A.shape[0], n))

            return ArrayLP(self._c, widened(lp.A_ub, 0), lp.b_ub, widened(lp.A_eq, n_ub), lp.b_eq,
                           np.concatenate((lp.bounds, np.tile([0.0, np.inf], (k, 1)))), lp.sense)
        if not self._added:
            return lp
        A_ub = vstack([lp.A_ub] + [A for A, _ in self._added])
        b_ub = np.concatenate([lp.b_ub] + [b for _, b in self._added])
        return ArrayLP(lp.c, A_ub, b_ub, lp.A_eq, lp.b_eq, lp.bounds, lp.sense)

    def add_rows(self, A: CSR, b: np.ndarray) -> None:
        """Append the rows ``A @ x <= b``; the next run starts from the
        current basis with the new rows basic."""
        if len(self._col_start):
            raise ValueError("a session grows by rows or by columns, not both")
        self._added.append((A, b))
        self._row_upper = np.concatenate((self._row_upper, _highs_inf(b)))
        self._row_lower = np.concatenate((self._row_lower, np.full(len(b), -_INF)))
        if self._model is None:
            return
        self._instance().addRows(len(b), np.full(len(b), -_INF), _highs_inf(b), int(A.indptr[-1]),
                                 A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32),
                                 A.data.astype(np.float64))

    def add_columns(self, data, indices, indptr) -> None:
        """Append the columns given in CSC arrays, their row ``indices``
        counted over the rows of ``array_lp()``, as variables >= 0 of
        objective coefficient 0; the next run is cold."""
        if self._added:
            raise ValueError("a session grows by rows or by columns, not both")
        indices = np.asarray(indices, dtype=np.int32)
        if np.any((indices < 0) | (indices >= self.n_constraints())):
            raise ValueError(f"a column entry off the {self.n_constraints()} rows of the LP")
        k = len(indptr) - 1
        starts = np.asarray(indptr[:-1]) + len(self._col_index)
        self._col_start = np.concatenate((self._col_start, starts.astype(np.int32)))
        self._col_index = np.concatenate((self._col_index, indices))
        self._col_value = np.concatenate((self._col_value, np.asarray(data, dtype=np.float64)))
        self._c = np.concatenate((self._c, np.zeros(k)))
        self._col_lower = np.concatenate((self._col_lower, np.zeros(k)))
        self._col_upper = np.concatenate((self._col_upper, np.full(k, _INF)))
        self._highs = None

    def _highs_model(self):
        """The first LP as ``linprog`` would pass it: the rows it stacks
        (``A_ub`` then ``A_eq``, infinities as HiGHS's)."""
        lp = self._first
        ub, eq = lp.A_ub, lp.A_eq
        model = _highs.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = len(lp.c)
        model.num_row_ = model.a_matrix_.num_row_ = len(self._row_upper)
        model.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
        model.col_cost_ = (_sign(lp) * lp.c).tolist()
        model.col_lower_, model.col_upper_ = self._col_lower.tolist(), self._col_upper.tolist()
        model.row_lower_, model.row_upper_ = self._row_lower.tolist(), self._row_upper.tolist()
        model.a_matrix_.start_ = np.concatenate((ub.indptr, eq.indptr[1:] + ub.indptr[-1])).tolist()
        model.a_matrix_.index_ = np.concatenate((ub.indices, eq.indices)).tolist()
        model.a_matrix_.value_ = np.concatenate((ub.data, eq.data)).tolist()
        return model

    def _instance(self):
        """The HiGHS instance of the session, made when first needed: a
        fresh ``_Highs`` with ``linprog``'s options, the kept model and the
        appended columns.

        A fresh instance matters: a reused one keeps solver state from the
        previous model, and the vertex HiGHS returns may change.
        """
        if self._highs is not None:
            return self._highs
        highs = self._highs = _highs._Highs()
        highs.passOptions(self._options)
        self._model_error = highs.passModel(self._model) == _highs.HighsStatus.kError
        k = len(self._col_start)
        if k and not self._model_error:
            highs.addCols(k, np.full(k, _sign(self._first) * 0.0), self._col_lower[-k:],
                          self._col_upper[-k:], len(self._col_index), self._col_start,
                          self._col_index, self._col_value)
        return highs

    def _run(self) -> LPSolution:
        """One HiGHS run on the LP so far, read as ``linprog`` reads it."""
        if self._model is None:
            return _solve_linprog(self.array_lp(), self._tol)
        highs, lp, status = self._instance(), self._first, _highs.HighsModelStatus
        if self._model_error:
            model_status = status.kModelError
        else:
            highs.run()
            model_status = highs.getModelStatus()
        iterations = highs.getInfo().simplex_iteration_count
        if model_status != status.kOptimal:
            # linprog's status codes for HiGHS's model statuses.
            code = {status.kInfeasible: 2, status.kModelError: 2, status.kUnbounded: 3}
            message = highs.modelStatusToString(model_status)
            return _not_optimal(code.get(model_status, 4), message, lp.sense, iterations)

        sol = highs.getSolution()
        x, rows = np.array(sol.col_value), np.array(sol.row_value)
        worst = np.concatenate((self._col_lower - x, x - self._col_upper,
                                self._row_lower - rows, rows - self._row_upper)).max(initial=0.0)
        if not worst <= _LINPROG_CHECK_TOL:
            raise NumericalFailure(f"LP backend optimum misses its constraints by {worst}")
        # HiGHS keeps appended rows after the equality rows.
        duals = _sign(lp) * np.array(sol.row_dual)
        n_ub, n_eq = lp.A_ub.shape[0], lp.A_eq.shape[0]
        if self._added:
            duals = np.concatenate((duals[:n_ub], duals[n_ub + n_eq:], duals[n_ub:n_ub + n_eq]))
        return LPSolution("Optimal", float(np.dot(self._c, x)), x, duals, iterations)


def _options(feasibility_tol: float | None):
    """``linprog``'s HiGHS options."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    if feasibility_tol is not None:
        options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = feasibility_tol
    return options


def _sign(lp: ArrayLP) -> float:
    """The factor that turns the declared objective into the minimized one."""
    return -1.0 if lp.sense == "max" else 1.0


def solve(lp: ArrayLP | Session) -> LPSolution:
    """Solve the LP with HiGHS; Optimal solutions respect all constraints
    within 1e-7.

    An ``ArrayLP`` is solved by a fresh session that runs once; a session
    runs again on its rows so far.  Every run of the library goes through
    here.
    """
    return (lp if isinstance(lp, Session) else Session(lp))._run()


def _solve_linprog(lp: ArrayLP, feasibility_tol: float | None) -> LPSolution:
    """The LP through ``linprog``, which hands HiGHS the same model (the
    matrices as scipy CSR, which only this fallback imports)."""
    from scipy.sparse import csr_matrix

    sign = _sign(lp)
    kwargs = {}
    for rows, A, b in (("ub", lp.A_ub, lp.b_ub), ("eq", lp.A_eq, lp.b_eq)):
        if A.shape[0]:
            kwargs[f"A_{rows}"] = csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
            kwargs[f"b_{rows}"] = b
    if feasibility_tol is not None:
        kwargs["options"] = {"primal_feasibility_tolerance": feasibility_tol,
                             "dual_feasibility_tolerance": feasibility_tol}
    res = linprog(sign * lp.c, bounds=lp.bounds, method="highs", **kwargs)
    if res.status != 0:
        return _not_optimal(res.status, res.message, lp.sense, res.nit)
    # linprog minimizes sign * c; its marginals are d(min-obj)/d(rhs).
    duals = sign * np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    return LPSolution("Optimal", float(lp.c @ res.x), res.x, duals, res.nit)


def _not_optimal(code: int, message: str, sense: str, iterations: int) -> LPSolution:
    """The solution for linprog status 2 (infeasible) or 3 (unbounded);
    any other status is a NumericalFailure."""
    if code == 2:
        return LPSolution("Infeasible", float("nan"), iterations=iterations)
    if code == 3:
        unbounded = float("inf") if sense == "max" else float("-inf")
        return LPSolution("Unbounded", unbounded, iterations=iterations)
    raise NumericalFailure(f"LP backend stopped with status {code}: {message}")


def lagrangian_bound(lp: ArrayLP, row_duals: np.ndarray, box: np.ndarray) -> float:
    """An upper bound on ``c @ x`` over the points of the finite ``box``
    (lower and upper bound per variable) that meet the rows of the
    maximization ``lp``, from any row duals (``A_ub`` rows, then ``A_eq``).

    With the "<=" duals ``y_ub`` clipped to >= 0 and ``r = c - A_ub.T y_ub
    - A_eq.T y_eq``, every such x has ``c @ x <= b_ub @ y_ub + b_eq @ y_eq
    + r @ x``, and ``r @ x`` is at most ``sum_j max(r_j lo_j, r_j hi_j)``.
    """
    n_ub = lp.A_ub.shape[0]
    y_ub, y_eq = np.maximum(row_duals[:n_ub], 0.0), row_duals[n_ub:]
    r = lp.c - rmatvec(lp.A_ub, y_ub) - rmatvec(lp.A_eq, y_eq)
    reach = np.maximum(r * box[:, 0], r * box[:, 1]).sum()
    return float(lp.b_ub @ y_ub + lp.b_eq @ y_eq + reach)
