"""Linear programs in the array form ``solve`` hands to HiGHS.

``ArrayLP`` is the one form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  Every LP of the library is built straight into it by index
arithmetic; an LP that grows (the separation rounds by rows, the
column-generation master by columns) is rebuilt each round from its fixed
block and what was appended since.

``solve`` passes the arrays straight to HiGHS through scipy's bundled
binding: the one model and the options ``linprog`` would pass, without
``linprog``'s per-call wrapper, by rows (``A_ub``, then ``A_eq``).  Where
the binding is missing, the same arrays go through ``linprog``.  Solutions
carry row duals in the sign convention of the *declared* objective sense
(for a maximization problem the dual of a binding "<=" row is the
nonnegative marginal revenue of its rhs).
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
# What _solve_direct uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsLp", "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kRowwise", "kHighsInf",
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


def solve(lp: ArrayLP) -> LPSolution:
    """Solve the LP with HiGHS; Optimal solutions respect all constraints
    within 1e-7.

    The arrays go straight to HiGHS; without the binding they go through
    ``linprog``, which hands HiGHS the same model.
    """
    if _highs is not None:
        return _solve_direct(lp)
    sign = -1.0 if lp.sense == "max" else 1.0
    kwargs = {}
    if lp.A_ub.shape[0]:
        kwargs["A_ub"], kwargs["b_ub"] = lp.A_ub, lp.b_ub
    if lp.A_eq.shape[0]:
        kwargs["A_eq"], kwargs["b_eq"] = lp.A_eq, lp.b_eq
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


def _solve_direct(lp: ArrayLP) -> LPSolution:
    """One fresh HiGHS solve of the LP as ``linprog`` runs it: the same
    model (the rows ``linprog`` stacks, ``A_ub`` then ``A_eq``, with
    infinities as HiGHS's), the same options and the same reading of the
    result.

    A fresh ``_Highs`` per solve matters: a reused one keeps solver state
    from the previous model, and the vertex HiGHS returns may change.
    """
    sign = -1.0 if lp.sense == "max" else 1.0
    ub, eq = lp.A_ub, lp.A_eq
    lower, upper = _highs_inf(lp.bounds[:, 0]), _highs_inf(lp.bounds[:, 1])
    row_lower = _highs_inf(np.concatenate((np.full(ub.shape[0], -np.inf), lp.b_eq)))
    row_upper = _highs_inf(np.concatenate((lp.b_ub, lp.b_eq)))
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(lp.c)
    model.num_row_ = model.a_matrix_.num_row_ = len(row_upper)
    model.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    model.col_cost_ = (sign * lp.c).tolist()
    model.col_lower_, model.col_upper_ = lower, upper
    model.row_lower_, model.row_upper_ = row_lower, row_upper
    model.a_matrix_.start_ = np.concatenate((ub.indptr, eq.indptr[1:] + ub.indptr[-1])).tolist()
    model.a_matrix_.index_ = np.concatenate((ub.indices, eq.indices)).tolist()
    model.a_matrix_.value_ = np.concatenate((ub.data, eq.data)).tolist()

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
        np.subtract(lower, x), np.subtract(x, upper),
        np.subtract(row_lower, rows), np.subtract(rows, row_upper),
    )).max(initial=0.0)
    if not worst <= _LINPROG_CHECK_TOL:
        raise NumericalFailure(f"LP backend optimum misses its constraints by {worst}")
    duals = sign * np.array(sol.row_dual)
    return LPSolution("Optimal", float(np.dot(lp.c, x)), x, duals, iterations)
