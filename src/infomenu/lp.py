"""Linear programs in the array forms ``solve`` hands to HiGHS.

``ArrayLP`` is the one-shot form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  Every LP of the library is built straight into it by index
arithmetic; an LP that grows by rows (the separation rounds) is rebuilt from
its fixed block and the rows appended since.  ``ColumnLP`` grows by whole
columns (the column-generation master).

``solve`` passes either form straight to HiGHS through scipy's bundled
binding: the one model and the options ``linprog`` would pass, without
``linprog``'s per-call wrapper.  An array LP goes by rows (its CSR arrays,
``A_ub`` then ``A_eq``), a column LP by columns.  Where the binding is
missing, the same arrays go through ``linprog``.  Solutions carry row duals
in the sign convention of the *declared* objective sense (for a
maximization problem the dual of a binding "<=" row is the nonnegative
marginal revenue of its rhs).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import InvalidInstance, NumericalFailure

# linprog's check of an optimum's constraint residuals: sqrt(1e-9) * 10.
_LINPROG_CHECK_TOL = np.sqrt(1e-9) * 10
# What _solve_direct uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsLp", "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kColwise",
    "MatrixFormat.kRowwise", "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual", "_Highs.passOptions",
    "_Highs.passModel", "_Highs.run", "_Highs.getModelStatus", "_Highs.getInfo",
    "_Highs.getSolution", "_Highs.modelStatusToString",
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


def _highs_inf(values) -> list[float]:
    """``values`` with infinities as HiGHS's infinity, as linprog passes them."""
    return np.clip(values, -_INF, _INF).tolist()


class _Model(NamedTuple):
    """An LP as HiGHS takes it: ``row_lower <= A x <= row_upper`` and
    ``lower <= x <= upper``, costs in the declared ``sense``, and ``A``
    compressed by rows or by columns into ``start``/``index``/``value``."""

    sense: str
    cost: list[float]
    lower: list[float]
    upper: list[float]
    row_lower: list[float]
    row_upper: list[float]
    rowwise: bool
    start: list[int]
    index: list[int]
    value: list[float]


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

    def model(self) -> _Model:
        """The rows ``linprog`` stacks (``A_ub``, then ``A_eq``), by rows."""
        ub, eq = self.A_ub, self.A_eq
        n_ub = ub.shape[0]
        return _Model(
            self.sense, self.c.tolist(),
            _highs_inf(self.bounds[:, 0]), _highs_inf(self.bounds[:, 1]),
            _highs_inf(np.concatenate((np.full(n_ub, -np.inf), self.b_eq))),
            _highs_inf(np.concatenate((self.b_ub, self.b_eq))),
            True,
            np.concatenate((ub.indptr, eq.indptr[1:] + ub.indptr[-1])).tolist(),
            np.concatenate((ub.indices, eq.indices)).tolist(),
            np.concatenate((ub.data, eq.data)).tolist(),
        )


class ColumnLP:
    """An LP that grows by whole columns: the column-generation master.

    It holds a fixed block (an ``ArrayLP``) and the columns appended since as
    CSC arrays over the fixed rows: the ``A_ub`` rows, then the ``A_eq``
    rows, in the order ``linprog`` stacks them.  Costs are in the declared
    ``sense``; infinite bounds are kept as HiGHS's infinity.
    """

    def __init__(self, fixed: ArrayLP):
        A = sp.vstack((fixed.A_ub, fixed.A_eq)).tocsc()
        self.sense = fixed.sense
        self.n_ub = fixed.A_ub.shape[0]
        self.row_lower = _highs_inf(np.concatenate((np.full(self.n_ub, -np.inf), fixed.b_eq)))
        self.row_upper = _highs_inf(np.concatenate((fixed.b_ub, fixed.b_eq)))
        self.cost = fixed.c.tolist()
        self.lower = _highs_inf(fixed.bounds[:, 0])
        self.upper = _highs_inf(fixed.bounds[:, 1])
        self.indptr, self.indices, self.data = (v.tolist() for v in (A.indptr, A.indices, A.data))

    def add_column(self, cost: float, lb: float, ub: float,
                   rows: list[int], values: list[float]) -> None:
        """Append a column with entries ``values`` in ``rows`` (ascending)."""
        if len(rows) != len(values) or list(rows) != sorted(set(rows)) or lb > ub or (
                rows and not 0 <= rows[0] <= rows[-1] < self.n_constraints()):
            raise InvalidInstance(f"bad column: rows {rows}, bounds [{lb}, {ub}]")
        self.cost.append(float(cost))
        self.lower += _highs_inf([lb])
        self.upper += _highs_inf([ub])
        self.indices.extend(rows)
        self.data.extend(values)
        self.indptr.append(len(self.indices))

    def n_variables(self) -> int:
        return len(self.cost)

    def n_constraints(self) -> int:
        return len(self.row_upper)

    def model(self) -> _Model:
        """The fixed rows and every column, by columns."""
        return _Model(self.sense, self.cost, self.lower, self.upper, self.row_lower,
                      self.row_upper, False, self.indptr, self.indices, self.data)

    def arrays(self) -> ArrayLP:
        """The same LP as one ``ArrayLP``."""
        k, b = self.n_ub, np.array(self.row_upper)
        A = sp.csc_matrix((self.data, self.indices, self.indptr), shape=(len(b), len(self.cost)))
        bounds = np.column_stack((self.lower, self.upper))
        return ArrayLP(np.array(self.cost), A[:k], b[:k], A[k:], b[k:], bounds, self.sense)


@dataclass
class LPSolution:
    status: str                                  # Optimal | Infeasible | Unbounded
    objective_value: float
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None          # A_ub rows, then A_eq
    iterations: int = 0                          # simplex iterations


def solve(lp: ArrayLP | ColumnLP) -> LPSolution:
    """Solve the LP with HiGHS; Optimal solutions respect all constraints
    within 1e-7.

    Either form goes straight to HiGHS; without the binding its arrays go
    through ``linprog``, which hands HiGHS the same model.
    """
    if _highs is not None:
        return _solve_direct(lp.model())
    arrays = lp if isinstance(lp, ArrayLP) else lp.arrays()
    sign = -1.0 if arrays.sense == "max" else 1.0
    kwargs = {}
    if arrays.A_ub.shape[0]:
        kwargs["A_ub"], kwargs["b_ub"] = arrays.A_ub, arrays.b_ub
    if arrays.A_eq.shape[0]:
        kwargs["A_eq"], kwargs["b_eq"] = arrays.A_eq, arrays.b_eq
    res = linprog(sign * arrays.c, bounds=arrays.bounds, method="highs", **kwargs)
    if res.status != 0:
        return _not_optimal(res.status, res.message, arrays.sense, res.nit)
    # linprog minimizes sign * c; its marginals are d(min-obj)/d(rhs).
    duals = sign * np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    return LPSolution("Optimal", float(arrays.c @ res.x), res.x, duals, res.nit)


def _not_optimal(code: int, message: str, sense: str, iterations: int) -> LPSolution:
    """The solution for linprog status 2 (infeasible) or 3 (unbounded);
    any other status is a NumericalFailure."""
    if code == 2:
        return LPSolution("Infeasible", float("nan"), iterations=iterations)
    if code == 3:
        unbounded = float("inf") if sense == "max" else float("-inf")
        return LPSolution("Unbounded", unbounded, iterations=iterations)
    raise NumericalFailure(f"LP backend stopped with status {code}: {message}")


def _solve_direct(lp: _Model) -> LPSolution:
    """One fresh HiGHS solve of the model as ``linprog`` runs it: the same
    options and the same reading of the result.

    A fresh ``_Highs`` per solve matters: a reused one keeps solver state
    from the previous model, and the vertex HiGHS returns may change.
    """
    sign = -1.0 if lp.sense == "max" else 1.0
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(lp.cost)
    model.num_row_ = model.a_matrix_.num_row_ = len(lp.row_upper)
    fmt = _highs.MatrixFormat
    model.a_matrix_.format_ = fmt.kRowwise if lp.rowwise else fmt.kColwise
    model.col_cost_ = [sign * v for v in lp.cost]
    model.col_lower_, model.col_upper_ = lp.lower, lp.upper
    model.row_lower_, model.row_upper_ = lp.row_lower, lp.row_upper
    model.a_matrix_.start_ = lp.start
    model.a_matrix_.index_ = lp.index
    model.a_matrix_.value_ = lp.value

    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    highs = _highs._Highs()
    highs.passOptions(options)
    status = _highs.HighsModelStatus
    if highs.passModel(model) == _highs.HighsStatus.kError:
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
    worst = np.concatenate((
        np.subtract(lp.lower, x), np.subtract(x, lp.upper),
        np.subtract(lp.row_lower, rows), np.subtract(rows, lp.row_upper),
    )).max(initial=0.0)
    if not worst <= _LINPROG_CHECK_TOL:
        raise NumericalFailure(f"LP backend optimum misses its constraints by {worst}")
    duals = sign * np.array(sol.row_dual)
    return LPSolution("Optimal", float(np.dot(lp.cost, x)), x, duals, iterations)
