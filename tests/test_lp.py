"""LP container, its array forms, the HiGHS adapter and its direct call, and duals."""

import numpy as np
import pytest
import scipy.sparse as sp

from infomenu import lp as lpmod
from infomenu.errors import DuplicateVariable, InvalidInstance
from infomenu.lp import (
    EQ,
    GE,
    LE,
    ArrayLP,
    ColumnLP,
    LinearProgram,
    solve,
)


def simple_max() -> LinearProgram:
    lp = LinearProgram(sense="max")
    lp.add_variable("x", 0.0, None)
    lp.set_objective("x", 1.0)
    lp.add_constraint("cap", {"x": 1.0}, LE, 1.0)
    return lp


def max_violation(lp: LinearProgram, values: dict[str, float]) -> float:
    """Largest constraint or bound violation of ``values``."""
    worst = 0.0
    for name, lb, ub in lp.variables:
        if lb is not None:
            worst = max(worst, lb - values[name])
        if ub is not None:
            worst = max(worst, values[name] - ub)
    for con in lp.constraints:
        lhs = sum(coeff * values[v] for v, coeff in con.coeffs.items())
        gap = {LE: lhs - con.rhs, GE: con.rhs - lhs, EQ: abs(lhs - con.rhs)}[con.relation]
        worst = max(worst, gap)
    return worst


def test_solve_simple_bound():
    sol = solve(simple_max())
    assert sol.status == "Optimal"
    assert sol["x"] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_degenerate_optimum():
    lp = LinearProgram(sense="max")
    lp.add_variable("x", 0.0, None)
    lp.add_variable("y", 0.0, None)
    lp.set_objective("x", 1.0)
    lp.set_objective("y", 1.0)
    lp.add_constraint("cap", {"x": 1.0, "y": 1.0}, LE, 1.0)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_infeasible():
    lp = LinearProgram(sense="max")
    lp.add_variable("x", None, None)
    lp.set_objective("x", 1.0)
    lp.add_constraint("lo", {"x": 1.0}, GE, 2.0)
    lp.add_constraint("hi", {"x": 1.0}, LE, 1.0)
    assert solve(lp).status == "Infeasible"


def test_optimal_solutions_respect_constraints():
    rng = np.random.default_rng(5)
    for trial in range(20):
        lp = LinearProgram(sense="max")
        n = int(rng.integers(2, 6))
        for i in range(n):
            lp.add_variable(f"x{i}", 0.0, 1.0)
            lp.set_objective(f"x{i}", float(rng.normal()))
        for c in range(int(rng.integers(1, 5))):
            coeffs = {f"x{i}": float(rng.normal()) for i in range(n)}
            lp.add_constraint(f"c{c}", coeffs, LE, float(rng.uniform(0.5, 2.0)))
        sol = solve(lp)
        if sol.status == "Optimal":
            assert max_violation(lp, sol.values) <= 1e-7


def test_duplicate_variable_name():
    lp = simple_max()
    with pytest.raises(DuplicateVariable):
        lp.add_variable("x", 0.0, None)


def column_lp(lp: LinearProgram) -> ColumnLP:
    return ColumnLP(lp.compile()[0])


def test_duals_sign_convention():
    sol = solve(column_lp(simple_max()))
    assert sol.row_duals[0] == pytest.approx(1.0)


def test_equality_duals():
    lp = LinearProgram(sense="max")
    lp.add_variable("x", None, None)
    lp.set_objective("x", 2.0)
    lp.add_constraint("pin", {"x": 1.0}, EQ, 3.0)
    sol = solve(column_lp(lp))
    assert sol.objective_value == pytest.approx(6.0)
    assert sol.row_duals[0] == pytest.approx(2.0)


def test_appended_column_joins_the_solve():
    # One unit of capacity; the appended activity pays double per unit.
    master = column_lp(simple_max())
    assert solve(master).objective_value == pytest.approx(1.0)
    master.add_column(2.0, 0.0, np.inf, [0], [1.0])
    assert (master.n_variables(), master.n_constraints()) == (2, 1)
    sol = solve(master)
    assert sol.objective_value == pytest.approx(2.0)
    np.testing.assert_allclose(sol.x, [0.0, 1.0])
    assert sol.row_duals[0] == pytest.approx(2.0)


def test_add_column_rejects_bad_rows():
    master = column_lp(simple_max())
    for rows, values in (([1], [1.0]), ([0, 0], [1.0, 1.0]), ([0], [1.0, 2.0])):
        with pytest.raises(InvalidInstance):
            master.add_column(1.0, 0.0, np.inf, rows, values)
    with pytest.raises(InvalidInstance):
        master.add_column(1.0, 1.0, 0.0, [0], [1.0])
    assert master.n_variables() == 1


def random_column_lp(rng) -> ColumnLP:
    """A feasible, bounded maximization: box-bounded columns, "<=" rows with
    a positive rhs and "==" rows that x = 0 meets, plus appended columns."""
    n, n_ub, n_eq = (int(v) for v in rng.integers(1, 6, size=3))
    A_ub = sp.random(n_ub, n, density=0.6, random_state=rng, format="csr")
    A_eq = sp.random(n_eq, n, density=0.6, random_state=rng, format="csr")
    bounds = np.column_stack((np.zeros(n), rng.uniform(0.5, 2.0, n)))
    master = ColumnLP(ArrayLP(rng.normal(size=n), A_ub, rng.uniform(0.5, 2.0, n_ub),
                              A_eq, np.zeros(n_eq), bounds, "max"))
    for _ in range(int(rng.integers(0, 4))):
        rows = np.flatnonzero(rng.random(n_ub + n_eq) < 0.5)
        master.add_column(float(rng.normal()), 0.0, 1.0, rows.tolist(),
                          rng.normal(size=len(rows)).tolist())
    return master


def test_direct_call_matches_linprog_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    for _ in range(40):
        master = random_column_lp(rng)
        direct = solve(master)
        with monkeypatch.context() as m:
            m.setattr(lpmod, "_highs", None)
            fallback = solve(master)
        assert direct.status == fallback.status == "Optimal"
        assert direct.x.tobytes() == fallback.x.tobytes()
        assert direct.row_duals.tobytes() == fallback.row_duals.tobytes()
        assert direct.objective_value == fallback.objective_value
        assert direct.iterations == fallback.iterations


def test_column_lp_reports_infeasible_and_unbounded_on_both_paths(monkeypatch):
    infeasible = LinearProgram(sense="max")
    infeasible.add_variable("x", None, None)
    infeasible.set_objective("x", 1.0)
    infeasible.add_constraint("lo", {"x": 1.0}, GE, 2.0)
    infeasible.add_constraint("hi", {"x": 1.0}, LE, 1.0)
    unbounded = LinearProgram(sense="max")
    unbounded.add_variable("x", None, None)
    unbounded.add_variable("y", 0.0, None)
    unbounded.set_objective("x", 1.0)
    unbounded.add_constraint("c", {"x": 1.0, "y": -1.0}, LE, 1.0)
    for binding in (lpmod._highs, None):
        monkeypatch.setattr(lpmod, "_highs", binding)
        assert solve(column_lp(infeasible)).status == "Infeasible"
        sol = solve(column_lp(unbounded))
        assert (sol.status, sol.objective_value) == ("Unbounded", np.inf)


def test_binding_check_needs_every_name_used(monkeypatch):
    assert lpmod._binding() is not None
    monkeypatch.setattr(lpmod, "_BINDING_NAMES", lpmod._BINDING_NAMES + ("_Highs.noSuchMethod",))
    assert lpmod._binding() is None


def test_iterations_are_reported():
    rng = np.random.default_rng(3)
    master = random_column_lp(rng)
    runs = [solve(master).iterations for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    lp = LinearProgram(sense="max")
    for i in range(3):
        lp.add_variable(f"x{i}", 0.0, 1.0)
        lp.set_objective(f"x{i}", 1.0 + i)
    lp.add_constraint("cap", {f"x{i}": 1.0 for i in range(3)}, LE, 1.5)
    assert solve(lp).iterations >= 1
