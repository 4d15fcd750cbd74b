"""Linear programs in the array form handed to HiGHS, and the session that
grows one by rows.

``ArrayLP`` is the one form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  Every LP of the library is built straight into it by index
arithmetic.

A ``Session`` passes an ``ArrayLP`` to one HiGHS instance once, through
scipy's bundled binding: the one model and the options ``linprog`` would
pass, without ``linprog``'s per-call wrapper, by rows (``A_ub``, then
``A_eq``).  ``add_rows`` then appends "<=" rows, and each
``solve(session)`` runs HiGHS again from the basis the previous run left.
The separation loops of the menu solvers grow their LPs this way.
``solve(ArrayLP)`` is a fresh session that runs once.  Where the binding is
missing, every run hands the rows so far to ``linprog``, cold.  Solutions
carry row duals in the sign convention of the *declared* objective sense
(for a maximization problem the dual of a binding "<=" row is the
nonnegative marginal revenue of its rhs); ``lagrangian_bound`` turns them
into an upper bound on a maximization's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import NumericalFailure

# linprog's check of an optimum's constraint residuals: sqrt(1e-9) * 10.
_LINPROG_CHECK_TOL = np.sqrt(1e-9) * 10
# What Session uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsLp", "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kRowwise", "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual", "_Highs.passOptions",
    "_Highs.passModel", "_Highs.addRows", "_Highs.run", "_Highs.getModelStatus",
    "_Highs.getInfo", "_Highs.getSolution", "_Highs.modelStatusToString",
)


def _binding():
    """scipy's bundled HiGHS binding, or None where it lacks a name we use."""
    try:
        from scipy.optimize._highspy import _core
        attrgetter(*_BINDING_NAMES)(_core)
    except (ImportError, AttributeError):
        return None
    return _core


_highs = _binding()
_INF = _highs.kHighsInf if _highs is not None else np.inf


def _highs_inf(values) -> np.ndarray:
    """``values`` with infinities as HiGHS's infinity, as linprog passes them."""
    return np.clip(values, -_INF, _INF)


def block_csr(blocks, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix from COO blocks ``(rows, cols, vals, keep)``: arrays that
    broadcast to one shape, entries where ``keep`` is False left out."""
    triplets = []
    for block in blocks:
        r, c, v, keep = np.broadcast_arrays(*block)
        triplets.append((r[keep], c[keep], v[keep]))
    r, c, v = (np.concatenate(part) for part in zip(*triplets))
    return sp.csr_matrix((v, (r, c)), shape=shape)


@dataclass
class ArrayLP:
    """Optimize ``c @ x`` in the declared ``sense`` subject to
    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and
    ``bounds[:, 0] <= x <= bounds[:, 1]`` (``-inf`` / ``inf`` where open)."""

    c: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    A_eq: sp.csr_matrix
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

    ``solve(session)`` runs HiGHS on the rows so far, from the basis the
    previous run left; the solution reads as that of ``array_lp()``, so its
    row duals list the first ``A_ub`` rows, the appended rows, then the
    equality rows.  A session replays the same calls for the same input, so
    it returns the same vertex from run to run.  ``feasibility_tol`` sets
    HiGHS's primal and dual feasibility tolerances (default 1e-7).
    """

    def __init__(self, lp: ArrayLP, feasibility_tol: float | None = None):
        self._first = lp
        self._added: list[tuple[sp.csr_matrix, np.ndarray]] = []
        self._n_rows = lp.n_constraints()
        self._tol = feasibility_tol
        self._highs = None if _highs is None else self._pass_model()

    def n_variables(self) -> int:
        return self._first.n_variables()

    def n_constraints(self) -> int:
        return self._n_rows

    def array_lp(self) -> ArrayLP:
        """The rows so far as one ``ArrayLP``: the first ``A_ub``, then the
        appended rows."""
        lp = self._first
        if not self._added:
            return lp
        A_ub = sp.vstack([lp.A_ub] + [A for A, _ in self._added], format="csr")
        b_ub = np.concatenate([lp.b_ub] + [b for _, b in self._added])
        return ArrayLP(lp.c, A_ub, b_ub, lp.A_eq, lp.b_eq, lp.bounds, lp.sense)

    def add_rows(self, A: sp.csr_matrix, b: np.ndarray) -> None:
        """Append the rows ``A @ x <= b``; the next run starts from the
        current basis with the new rows basic."""
        self._added.append((A, b))
        self._n_rows += A.shape[0]
        if self._highs is None:
            return
        self._highs.addRows(len(b), np.full(len(b), -_INF), _highs_inf(b), A.nnz,
                            A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32),
                            A.data.astype(np.float64))

    def _pass_model(self):
        """A fresh ``_Highs`` holding the first LP as ``linprog`` would pass
        it: the rows it stacks (``A_ub`` then ``A_eq``, infinities as
        HiGHS's), with its options.

        A fresh instance per session matters: a reused one keeps solver
        state from the previous model, and the vertex HiGHS returns may
        change.
        """
        lp = self._first
        ub, eq = lp.A_ub, lp.A_eq
        lower, upper = _highs_inf(lp.bounds[:, 0]), _highs_inf(lp.bounds[:, 1])
        row_lower, row_upper = self._row_bounds()
        model = _highs.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = len(lp.c)
        model.num_row_ = model.a_matrix_.num_row_ = len(row_upper)
        model.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
        model.col_cost_ = (_sign(lp) * lp.c).tolist()
        model.col_lower_, model.col_upper_ = lower.tolist(), upper.tolist()
        model.row_lower_, model.row_upper_ = row_lower.tolist(), row_upper.tolist()
        model.a_matrix_.start_ = np.concatenate((ub.indptr, eq.indptr[1:] + ub.indptr[-1])).tolist()
        model.a_matrix_.index_ = np.concatenate((ub.indices, eq.indices)).tolist()
        model.a_matrix_.value_ = np.concatenate((ub.data, eq.data)).tolist()

        options = _highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
        options.output_flag = options.log_to_console = False
        if self._tol is not None:
            options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = self._tol
        highs = _highs._Highs()
        highs.passOptions(options)
        self._model_error = highs.passModel(model) == _highs.HighsStatus.kError
        self._col_lower, self._col_upper = lower, upper
        return highs

    def _row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of the rows so far, in HiGHS's order: the
        first ``A_ub``, its ``A_eq``, then the appended rows."""
        lp = self._first
        upper = _highs_inf(np.concatenate([lp.b_ub, lp.b_eq] + [b for _, b in self._added]))
        lower = np.full(len(upper), -_INF)
        lower[lp.A_ub.shape[0]:lp.n_constraints()] = upper[lp.A_ub.shape[0]:lp.n_constraints()]
        return lower, upper

    def _run(self) -> LPSolution:
        """One HiGHS run on the rows so far, read as ``linprog`` reads it."""
        if self._highs is None:
            return _solve_linprog(self.array_lp(), self._tol)
        highs, lp, status = self._highs, self._first, _highs.HighsModelStatus
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
        row_lower, row_upper = self._row_bounds()
        worst = np.concatenate((
            self._col_lower - x, x - self._col_upper, row_lower - rows, rows - row_upper,
        )).max(initial=0.0)
        if not worst <= _LINPROG_CHECK_TOL:
            raise NumericalFailure(f"LP backend optimum misses its constraints by {worst}")
        # HiGHS keeps appended rows after the equality rows.
        duals = _sign(lp) * np.array(sol.row_dual)
        n_ub, n_eq = lp.A_ub.shape[0], lp.A_eq.shape[0]
        if self._added:
            duals = np.concatenate((duals[:n_ub], duals[n_ub + n_eq:], duals[n_ub:n_ub + n_eq]))
        return LPSolution("Optimal", float(np.dot(lp.c, x)), x, duals, iterations)


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
    """The LP through ``linprog``, which hands HiGHS the same model."""
    sign = _sign(lp)
    kwargs = {}
    if lp.A_ub.shape[0]:
        kwargs["A_ub"], kwargs["b_ub"] = lp.A_ub, lp.b_ub
    if lp.A_eq.shape[0]:
        kwargs["A_eq"], kwargs["b_eq"] = lp.A_eq, lp.b_eq
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
    r = lp.c - lp.A_ub.T @ y_ub - lp.A_eq.T @ y_eq
    reach = np.maximum(r * box[:, 0], r * box[:, 1]).sum()
    return float(lp.b_ub @ y_ub + lp.b_eq @ y_eq + reach)
