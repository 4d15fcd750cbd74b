"""Linear programs in the one array form ``solve`` hands to HiGHS.

``ArrayLP`` is that form: an objective vector, CSR inequality rows
``A_ub x <= b_ub``, CSR equality rows ``A_eq x == b_eq`` and per-variable
bounds.  LPs of fixed shape (the explicit menu LP, the price LP) are built
straight into it by index arithmetic.  ``LinearProgram`` is the named form
for LPs that grow row by row or column by column (separation rounds, column
generation); it compiles to an ``ArrayLP``, and only its solutions carry
name-keyed values and duals.  Dual values are reported in the sign
convention of the *declared* objective sense (for a maximization problem the
dual of a binding "<=" row is the nonnegative marginal revenue of its rhs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DuplicateVariable, InvalidInstance, NumericalFailure, UnknownConstraint

LE, EQ, GE = "le", "eq", "ge"
FEAS_TOL = 1e-7


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

    def add_column(self, name: str, lb: float | None, ub: float | None,
                   objective_coeff: float, entries: dict[str, float]) -> None:
        """Extend the LP with a fresh variable touching existing constraints."""
        for con in entries:
            if con not in self._con_index:
                raise UnknownConstraint(con)
        self.add_variable(name, lb, ub)
        if objective_coeff != 0.0:
            self.objective[name] = float(objective_coeff)
        for con, coeff in entries.items():
            self.constraints[self._con_index[con]].coeffs[name] = float(coeff)

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
    values: dict[str, float]                     # named programs only
    objective_value: float
    duals: dict[str, float] | None = None        # named programs only
    x: np.ndarray | None = None

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def solve(lp: LinearProgram | ArrayLP, want_duals: bool = True) -> LPSolution:
    """Solve the LP with HiGHS; Optimal solutions respect all constraints
    within 1e-7.

    Named programs compile to the array form first; their solutions carry
    values by name and, when ``want_duals``, duals by constraint name.
    """
    named = isinstance(lp, LinearProgram)
    arrays, ub, eq = lp.compile() if named else (lp, [], [])
    sign = -1.0 if arrays.sense == "max" else 1.0
    kwargs = {}
    if arrays.A_ub.shape[0]:
        kwargs["A_ub"], kwargs["b_ub"] = arrays.A_ub, arrays.b_ub
    if arrays.A_eq.shape[0]:
        kwargs["A_eq"], kwargs["b_eq"] = arrays.A_eq, arrays.b_eq
    res = linprog(sign * arrays.c, bounds=arrays.bounds, method="highs", **kwargs)

    if res.status == 2:
        return LPSolution("Infeasible", {}, float("nan"))
    if res.status == 3:
        return LPSolution("Unbounded", {}, float("inf") if arrays.sense == "max" else float("-inf"))
    if res.status != 0:
        raise NumericalFailure(f"LP backend stopped with status {res.status}: {res.message}")
    if not named:
        return LPSolution("Optimal", {}, float(arrays.c @ res.x), x=res.x)

    values = dict(zip(lp._var_index, res.x.tolist()))
    objective = float(sum(coeff * values[v] for v, coeff in lp.objective.items()))
    duals = None
    if want_duals:
        duals = {}
        # linprog minimizes; marginals are d(min-obj)/d(rhs).  Convert to the
        # declared sense, and undo the GE->LE negation.
        if ub and res.ineqlin is not None:
            for con, marg in zip(ub, np.atleast_1d(res.ineqlin.marginals)):
                d = sign * float(marg)
                duals[con.name] = -d if con.relation == GE else d
        if eq and res.eqlin is not None:
            for con, marg in zip(eq, np.atleast_1d(res.eqlin.marginals)):
                duals[con.name] = sign * float(marg)
    return LPSolution("Optimal", values, objective, duals, res.x)


def check_feasibility(lp: LinearProgram, values: dict[str, float], tol: float = FEAS_TOL) -> float:
    """Largest constraint/bound violation of ``values``; <= tol for Optimal output."""
    worst = 0.0
    for name, lb, ub in lp.variables:
        x = values[name]
        if lb is not None:
            worst = max(worst, lb - x)
        if ub is not None:
            worst = max(worst, x - ub)
    for con in lp.constraints:
        lhs = sum(coeff * values[v] for v, coeff in con.coeffs.items())
        if con.relation == LE:
            worst = max(worst, lhs - con.rhs)
        elif con.relation == GE:
            worst = max(worst, con.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))
    return worst
