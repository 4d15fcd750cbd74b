"""Linear programs in the array form handed to HiGHS, and the session that
grows one by rows.

``ArrayLP`` is the one form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  Every LP of the library is built straight into it by index
arithmetic.  ``CSR`` holds a matrix in numpy arrays laid out as scipy's
canonical CSR; ``block_csr``, ``vstack``, ``block_diag`` and ``rmatvec``
are the sparse operations the library needs, so it does not import
``scipy.sparse``.  The LP code reads a matrix only through ``data``,
``indices``, ``indptr`` and ``shape``, so a scipy CSR matrix serves as well.

A ``Session`` hands an ``ArrayLP`` to one HiGHS instance of scipy's
bundled binding, the one solver path: the LP and the options ``linprog``
would pass, without ``linprog``'s per-call wrapper, as arrays by rows
(``A_ub``, then ``A_eq``).  ``add_rows`` then appends "<=" rows, and
each ``solve(session)`` runs HiGHS again from the basis the previous run
left; the separation loops of the menu solvers grow their LPs this way.
``solve(ArrayLP)`` is a fresh session that runs once; the multi-buyer
master is solved so, one ``ArrayLP`` per pricing round.  The binding is
loaded from its file, so importing this module imports neither
``scipy.optimize`` nor ``scipy.sparse``; a scipy whose binding lacks a name
the session uses fails the import.  Solutions carry row duals in the
sign convention of the *declared* objective sense
(for a maximization problem the dual of a binding "<=" row is the
nonnegative marginal revenue of its rhs); ``lagrangian_bound`` turns them
into an upper bound on a maximization's optimum.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import NumericalFailure

# The oldest scipy known to ship ``_CORE`` with every name of _BINDING_NAMES.
SCIPY_FLOOR = "1.17"
# linprog's check of an optimum's constraint residuals: sqrt(1e-9) * 10.
_LINPROG_CHECK_TOL = np.sqrt(1e-9) * 10
# What Session uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsModelStatus.kInfeasible", "HighsModelStatus.kModelError", "HighsModelStatus.kUnbounded",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kRowwise", "ObjSense.kMinimize", "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual", "_Highs.passOptions",
    "_Highs.passModel", "_Highs.addRows", "_Highs.run", "_Highs.getModelStatus",
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
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"infomenu needs scipy>={SCIPY_FLOOR} for its HiGHS binding")
    folder = Path(spec.origin).parent / "optimize" / "_highspy"
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
    """scipy's bundled HiGHS binding; ImportError where it lacks a name
    ``Session`` uses."""
    core = _load_core()
    for name in _BINDING_NAMES:
        try:
            attrgetter(name)(core)
        except AttributeError:
            raise ImportError(f"{_CORE} has no {name}: infomenu needs scipy>={SCIPY_FLOOR}") from None
    return core


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  No solve
    runs it; perfbench's ``lp.highs`` hook names it."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


_highs = _binding()
_INF = _highs.kHighsInf
_ROWWISE, _MINIMIZE = int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize)


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
    """An ``ArrayLP`` held by one HiGHS instance, grown by "<=" rows.

    The instance gets ``linprog``'s options and the model in ``__init__``;
    ``add_rows`` appends rows to it, and each ``solve(session)`` runs from
    the basis the previous run left.  The row duals list the first ``A_ub``
    rows, the appended rows, then the equality rows, as ``array_lp()``
    stacks them.  A session replays the same calls for the same input, so
    it returns the same vertex from run to run.  ``feasibility_tol`` sets
    HiGHS's primal and dual feasibility tolerances (default 1e-7).  An
    objective or matrix entry that is not finite, or a NaN right-hand side
    or bound, raises ``NumericalFailure``: HiGHS would read it as a status.
    """

    def __init__(self, lp: ArrayLP, feasibility_tol: float | None = None):
        _check_values({"c": lp.c, "A_ub": lp.A_ub.data, "A_eq": lp.A_eq.data},
                      {"b_ub": lp.b_ub, "b_eq": lp.b_eq, "bounds": lp.bounds})
        self._first = lp
        self._added: list[tuple[CSR, np.ndarray]] = []
        # Bounds of every column and of every row (in HiGHS's order: the
        # first A_ub, its A_eq, then the appended rows).
        self._col_lower, self._col_upper = _highs_inf(lp.bounds[:, 0]), _highs_inf(lp.bounds[:, 1])
        n_ub = lp.A_ub.shape[0]
        self._row_upper = _highs_inf(np.concatenate((lp.b_ub, lp.b_eq)))
        self._row_lower = np.full(len(self._row_upper), -_INF)
        self._row_lower[n_ub:] = self._row_upper[n_ub:]
        # The LP linprog would pass, as arrays: by rows (A_ub then A_eq),
        # minimized.  The binding reads one integrality entry per column, so
        # every column is passed as continuous.
        ub, eq = lp.A_ub, lp.A_eq
        self._solver = _highs._Highs()
        self._solver.passOptions(_options(feasibility_tol))
        self._model_error = self._solver.passModel(
            len(lp.c), len(self._row_upper), ub.nnz + eq.nnz, _ROWWISE, _MINIMIZE, 0.0,
            _sign(lp) * lp.c, self._col_lower, self._col_upper, self._row_lower, self._row_upper,
            np.concatenate((ub.indptr[:-1], eq.indptr[:-1] + ub.nnz)),
            np.concatenate((ub.indices, eq.indices)), np.concatenate((ub.data, eq.data)),
            np.zeros(len(lp.c), np.int32)) == _highs.HighsStatus.kError

    def n_variables(self) -> int:
        return len(self._first.c)

    def n_constraints(self) -> int:
        return len(self._row_upper)

    def array_lp(self) -> ArrayLP:
        """The LP so far as one ``ArrayLP``: the first ``A_ub``, then the
        appended rows."""
        lp = self._first
        if not self._added:
            return lp
        A_ub = vstack([lp.A_ub] + [A for A, _ in self._added])
        b_ub = np.concatenate([lp.b_ub] + [b for _, b in self._added])
        return ArrayLP(lp.c, A_ub, b_ub, lp.A_eq, lp.b_eq, lp.bounds, lp.sense)

    def add_rows(self, A: CSR, b: np.ndarray) -> None:
        """Append the rows ``A @ x <= b``; the next run starts from the
        current basis with the new rows basic."""
        _check_values({"A": A.data}, {"b": b})
        self._added.append((A, b))
        self._row_upper = np.concatenate((self._row_upper, _highs_inf(b)))
        self._row_lower = np.concatenate((self._row_lower, np.full(len(b), -_INF)))
        self._solver.addRows(len(b), np.full(len(b), -_INF), _highs_inf(b), int(A.indptr[-1]),
                             A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32),
                             A.data.astype(np.float64))

    def _run(self) -> LPSolution:
        """One HiGHS run on the LP so far, read as ``linprog`` reads it:
        Infeasible (a model HiGHS rejects included) and Unbounded are
        solutions, any other status but Optimal a NumericalFailure."""
        highs, lp, status = self._solver, self._first, _highs.HighsModelStatus
        if self._model_error:
            model_status = status.kModelError
        else:
            highs.run()
            model_status = highs.getModelStatus()
        iterations = highs.getInfo().simplex_iteration_count
        if model_status != status.kOptimal:
            if model_status in (status.kInfeasible, status.kModelError):
                return LPSolution("Infeasible", float("nan"), iterations=iterations)
            if model_status == status.kUnbounded:
                return LPSolution("Unbounded", -_sign(lp) * np.inf, iterations=iterations)
            message = highs.modelStatusToString(model_status)
            raise NumericalFailure(f"LP backend stopped with status {message}")

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
        return LPSolution("Optimal", float(np.dot(lp.c, x)), x, duals, iterations)


def _check_values(finite: dict, not_nan: dict) -> None:
    """``NumericalFailure`` naming each field HiGHS cannot take: one of
    ``finite`` with an entry that is not finite, or one of ``not_nan`` with a
    NaN (an infinite right-hand side or bound leaves it open)."""
    bad = [f"a non-finite {name}" for name, v in finite.items() if not np.isfinite(v).all()]
    bad += [f"a NaN in {name}" for name, v in not_nan.items() if np.isnan(v).any()]
    if bad:
        raise NumericalFailure(f"LP has {', '.join(bad)}")


@functools.cache
def _options(feasibility_tol: float | None):
    """``linprog``'s HiGHS options, built once per tolerance: they cost more
    than a small run, and ``passOptions`` copies them."""
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
