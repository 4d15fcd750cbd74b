"""Linear programs in the array forms ``solve`` hands to HiGHS.

``ArrayLP`` is the one-shot form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds, solved by ``linprog``.  LPs of fixed shape (the explicit menu LP,
the price LP, the master's fixed block) are built straight into it by index
arithmetic.  ``LinearProgram`` is the named form for LPs that grow row by
row (separation rounds) or are written by name; it compiles to an
``ArrayLP``, and its solutions carry values by name.

``ColumnLP`` grows by whole columns (the column-generation master).  Each
solve passes it straight to HiGHS through scipy's bundled binding: the one
model and the options ``linprog`` would pass, without ``linprog``'s
per-call wrapper.  Where the binding is missing, its arrays go through
``linprog``.  Solutions of array and column LPs carry row duals in the sign
convention of the *declared* objective sense (for a maximization problem
the dual of a binding "<=" row is the nonnegative marginal revenue of its
rhs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DuplicateVariable, InvalidInstance, NumericalFailure

LE, EQ, GE = "le", "eq", "ge"
# linprog's check of an optimum's constraint residuals: sqrt(1e-9) * 10.
_LINPROG_CHECK_TOL = np.sqrt(1e-9) * 10
# What _solve_direct uses of scipy's bundled HiGHS binding.
_BINDING_NAMES = (
    "HighsLp", "HighsOptions", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsDebugLevel.kHighsDebugLevelNone", "MatrixFormat.kColwise", "kHighsInf",
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


@dataclass
class Constraint:
    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float


@dataclass
class LinearProgram:
    """Sparse LP: named bounded variables, a sense, and named constraints."""

    sense: str = "max"
    variables: list[tuple[str, float | None, float | None]] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    _var_index: dict[str, int] = field(default_factory=dict, repr=False)
    _con_index: dict[str, int] = field(default_factory=dict, repr=False)

    def add_variable(self, name: str, lb: float | None = 0.0, ub: float | None = None) -> None:
        if name in self._var_index:
            raise DuplicateVariable(name)
        if lb is not None and ub is not None and lb > ub:
            raise InvalidInstance(f"variable {name}: lb {lb} > ub {ub}")
        self._var_index[name] = len(self.variables)
        self.variables.append((name, lb, ub))

    def set_objective(self, name: str, coeff: float) -> None:
        if name not in self._var_index:
            raise InvalidInstance(f"objective references unknown variable {name}")
        self.objective[name] = float(coeff)

    def add_constraint(self, name: str, coeffs: dict[str, float], relation: str, rhs: float) -> None:
        if name in self._con_index:
            raise InvalidInstance(f"duplicate constraint name {name}")
        if relation not in (LE, EQ, GE):
            raise InvalidInstance(f"bad relation {relation}")
        for v in coeffs:
            if v not in self._var_index:
                raise InvalidInstance(f"constraint {name} references unknown variable {v}")
        self._con_index[name] = len(self.constraints)
        self.constraints.append(Constraint(name, dict(coeffs), relation, float(rhs)))

    def n_variables(self) -> int:
        return len(self.variables)

    def n_constraints(self) -> int:
        return len(self.constraints)

    def compile(self) -> tuple[ArrayLP, list[Constraint], list[Constraint]]:
        """The array form, with the constraints behind its inequality rows
        and its equality rows, in row order."""
        c = np.zeros(self.n_variables())
        for v, coeff in self.objective.items():
            c[self._var_index[v]] = coeff
        ub = [con for con in self.constraints if con.relation != EQ]
        eq = [con for con in self.constraints if con.relation == EQ]
        bounds = np.array(
            [(-np.inf if lo is None else lo, np.inf if hi is None else hi)
             for _, lo, hi in self.variables],
            dtype=float,
        ).reshape(-1, 2)
        return ArrayLP(c, *self._rows(ub), *self._rows(eq), bounds, self.sense), ub, eq

    def _rows(self, cons: list[Constraint]) -> tuple[sp.csr_matrix, np.ndarray]:
        """CSR rows and right-hand sides of ``cons``, GE rows negated into LE."""
        data, rows, cols, rhs = [], [], [], []
        for r, con in enumerate(cons):
            s = -1.0 if con.relation == GE else 1.0
            data.extend(s * v for v in con.coeffs.values())
            cols.extend(self._var_index[v] for v in con.coeffs)
            rows.extend([r] * len(con.coeffs))
            rhs.append(s * con.rhs)
        shape = (len(cons), self.n_variables())
        return sp.csr_matrix((data, (rows, cols)), shape=shape), np.array(rhs)


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

    def arrays(self) -> ArrayLP:
        """The same LP as one ``ArrayLP``."""
        k, b = self.n_ub, np.array(self.row_upper)
        A = sp.csc_matrix((self.data, self.indices, self.indptr), shape=(len(b), len(self.cost)))
        bounds = np.column_stack((self.lower, self.upper))
        return ArrayLP(np.array(self.cost), A[:k], b[:k], A[k:], b[k:], bounds, self.sense)


@dataclass
class LPSolution:
    status: str                                  # Optimal | Infeasible | Unbounded
    values: dict[str, float]                     # named programs only
    objective_value: float
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None          # array and column LPs; A_ub rows, then A_eq
    iterations: int = 0                          # simplex iterations

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def solve(lp: LinearProgram | ArrayLP | ColumnLP) -> LPSolution:
    """Solve the LP with HiGHS; Optimal solutions respect all constraints
    within 1e-7.

    Named programs compile to the array form first, and their solutions
    carry values by name.  Solutions of array and column LPs carry row
    duals instead.  A column LP goes straight to HiGHS; without the binding
    its arrays go through ``linprog`` like the rest.
    """
    if isinstance(lp, ColumnLP):
        if _highs is not None:
            return _solve_direct(lp)
        lp = lp.arrays()
    named = isinstance(lp, LinearProgram)
    arrays = lp.compile()[0] if named else lp
    sign = -1.0 if arrays.sense == "max" else 1.0
    kwargs = {}
    if arrays.A_ub.shape[0]:
        kwargs["A_ub"], kwargs["b_ub"] = arrays.A_ub, arrays.b_ub
    if arrays.A_eq.shape[0]:
        kwargs["A_eq"], kwargs["b_eq"] = arrays.A_eq, arrays.b_eq
    res = linprog(sign * arrays.c, bounds=arrays.bounds, method="highs", **kwargs)

    if res.status != 0:
        return _not_optimal(res.status, res.message, arrays.sense, res.nit)
    if named:
        values = dict(zip(lp._var_index, res.x.tolist()))
        objective = float(sum(coeff * values[v] for v, coeff in lp.objective.items()))
        return LPSolution("Optimal", values, objective, res.x, iterations=res.nit)
    # linprog minimizes sign * c; its marginals are d(min-obj)/d(rhs).
    duals = sign * np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    return LPSolution("Optimal", {}, float(arrays.c @ res.x), res.x, duals, res.nit)


def _not_optimal(code: int, message: str, sense: str, iterations: int) -> LPSolution:
    """The solution for linprog status 2 (infeasible) or 3 (unbounded);
    any other status is a NumericalFailure."""
    if code == 2:
        return LPSolution("Infeasible", {}, float("nan"), iterations=iterations)
    if code == 3:
        unbounded = float("inf") if sense == "max" else float("-inf")
        return LPSolution("Unbounded", {}, unbounded, iterations=iterations)
    raise NumericalFailure(f"LP backend stopped with status {code}: {message}")


def _solve_direct(lp: ColumnLP) -> LPSolution:
    """One fresh HiGHS solve of the column LP as ``linprog`` runs it: the
    same model, the same options, the same reading of the result.

    A fresh ``_Highs`` per solve matters: a reused one keeps solver state
    from the previous model, and the vertex HiGHS returns may change.
    """
    sign = -1.0 if lp.sense == "max" else 1.0
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_variables()
    model.num_row_ = model.a_matrix_.num_row_ = lp.n_constraints()
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.col_cost_ = [sign * v for v in lp.cost]
    model.col_lower_, model.col_upper_ = lp.lower, lp.upper
    model.row_lower_, model.row_upper_ = lp.row_lower, lp.row_upper
    model.a_matrix_.start_ = lp.indptr
    model.a_matrix_.index_ = lp.indices
    model.a_matrix_.value_ = lp.data

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
    return LPSolution("Optimal", {}, float(np.dot(lp.cost, x)), x, duals, iterations)
