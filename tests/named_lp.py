"""A name-keyed LP builder: the test-only reference for the library's LPs.

The library builds every LP by index arithmetic straight into ``lp.ArrayLP``.
The tests build the same LPs constraint by constraint with named variables
and require the arrays to be equal.  ``named_price_lp`` is the LP over the
prices alone, which the library no longer builds: solved with ``lp.solve``,
it is the reference for ``explicit.optimal_prices``.  ``compile`` gives the array form: the
variables in declaration order, the inequality rows (">=" rows negated into
"<=") and the equality rows each in declaration order, as row-by-row CSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from infomenu.lp import ArrayLP

LE, EQ, GE = "le", "eq", "ge"


@dataclass
class Constraint:
    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float


class NamedLP:
    """Named bounded variables, a sense, an objective and named constraints."""

    def __init__(self, sense: str = "max"):
        self.sense = sense
        self.variables: list[tuple[str, float | None, float | None]] = []
        self.objective: dict[str, float] = {}
        self.constraints: list[Constraint] = []
        self.index: dict[str, int] = {}

    def add_variable(self, name: str, lb: float | None = 0.0, ub: float | None = None) -> None:
        assert name not in self.index, name
        self.index[name] = len(self.variables)
        self.variables.append((name, lb, ub))

    def set_objective(self, name: str, coeff: float) -> None:
        assert name in self.index, name
        self.objective[name] = float(coeff)

    def add_constraint(self, name: str, coeffs: dict[str, float], relation: str,
                       rhs: float) -> None:
        assert relation in (LE, EQ, GE) and all(v in self.index for v in coeffs), name
        self.constraints.append(Constraint(name, dict(coeffs), relation, float(rhs)))

    def n_variables(self) -> int:
        return len(self.variables)

    def compile(self) -> tuple[ArrayLP, list[Constraint], list[Constraint]]:
        """The array form, with the constraints behind its inequality rows
        and its equality rows, in row order."""
        c = np.zeros(self.n_variables())
        for v, coeff in self.objective.items():
            c[self.index[v]] = coeff
        ub = [con for con in self.constraints if con.relation != EQ]
        eq = [con for con in self.constraints if con.relation == EQ]
        bounds = np.array(
            [(-np.inf if lo is None else lo, np.inf if hi is None else hi)
             for _, lo, hi in self.variables],
            dtype=float,
        ).reshape(-1, 2)
        return ArrayLP(c, *self._rows(ub), *self._rows(eq), bounds, self.sense), ub, eq

    def _rows(self, cons: list[Constraint]) -> tuple[sp.csr_matrix, np.ndarray]:
        data, rows, cols, rhs = [], [], [], []
        for r, con in enumerate(cons):
            s = -1.0 if con.relation == GE else 1.0
            data.extend(s * v for v in con.coeffs.values())
            cols.extend(self.index[v] for v in con.coeffs)
            rows.extend([r] * len(con.coeffs))
            rhs.append(s * con.rhs)
        shape = (len(cons), self.n_variables())
        return sp.csr_matrix((data, (rows, cols)), shape=shape), np.array(rhs)


def named_price_lp(values, base, probs) -> NamedLP:
    """The LP over the prices alone for fixed experiments (``values[i, j]``:
    type i's value for type j's experiment): per type, its IC rows against
    every other type in order, then its IR row; revenue is maximized."""
    k = len(base)
    prog = NamedLP(sense="max")
    for t in range(k):
        prog.add_variable(f"t[{t}]", None, None)
        prog.set_objective(f"t[{t}]", float(probs[t]))
    for i in range(k):
        for j in range(k):
            if i != j:
                prog.add_constraint(
                    f"ic[{i},{j}]", {f"t[{i}]": -1.0, f"t[{j}]": 1.0}, GE,
                    float(values[i, j] - values[i, i]),
                )
        prog.add_constraint(f"ir[{i}]", {f"t[{i}]": -1.0}, GE, float(base[i] - values[i, i]))
    return prog


def as_scipy(A) -> sp.csr_matrix:
    """A CSR matrix of the library (or of scipy) as a scipy CSR matrix over
    copies of its arrays."""
    return sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def canonical(A) -> sp.csr_matrix:
    A = as_scipy(A)
    A.eliminate_zeros()
    A.sort_indices()
    return A


def assert_same_arrays(arrays: ArrayLP, ref: ArrayLP) -> None:
    """Equal LPs, explicit zeros and entry order within a row aside."""
    assert arrays.sense == ref.sense
    for field in ("c", "b_ub", "b_eq", "bounds"):
        np.testing.assert_array_equal(getattr(arrays, field), getattr(ref, field))
    for A, B in ((arrays.A_ub, ref.A_ub), (arrays.A_eq, ref.A_eq)):
        A, B = canonical(A), canonical(B)
        assert A.shape == B.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, attr), getattr(B, attr))
