"""LP container, its array form, the HiGHS adapter, and duals."""

import numpy as np
import pytest

from infomenu.errors import DuplicateVariable, UnknownConstraint
from infomenu.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    check_feasibility,
    solve,
)


def simple_max() -> LinearProgram:
    lp = LinearProgram(sense="max")
    lp.add_variable("x", 0.0, None)
    lp.set_objective("x", 1.0)
    lp.add_constraint("cap", {"x": 1.0}, LE, 1.0)
    return lp


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
            assert check_feasibility(lp, sol.values) <= 1e-7


def test_add_column_extends_objective():
    lp = simple_max()
    lp.add_column("x2", 0.0, None, 1.0, {"cap": 1.0})
    assert "x2" in lp.objective
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(1.0)


def test_add_column_unknown_constraint():
    lp = simple_max()
    with pytest.raises(UnknownConstraint):
        lp.add_column("x2", 0.0, None, 1.0, {"nope": 1.0})


def test_add_column_duplicate_name():
    lp = simple_max()
    with pytest.raises(DuplicateVariable):
        lp.add_column("x", 0.0, None, 1.0, {"cap": 1.0})


def test_add_improving_column_raises_objective():
    # One unit of capacity; the new activity pays double per unit.
    lp = LinearProgram(sense="max")
    lp.add_variable("x1", 0.0, None)
    lp.set_objective("x1", 1.0)
    lp.add_constraint("cap", {"x1": 1.0}, LE, 1.0)
    before = solve(lp).objective_value
    lp.add_column("x2", 0.0, None, 2.0, {"cap": 1.0})
    after = solve(lp).objective_value
    assert before == pytest.approx(1.0)
    assert after == pytest.approx(2.0)
    assert after > before


def test_duals_sign_convention():
    sol = solve(simple_max())
    assert sol.duals["cap"] == pytest.approx(1.0)


def test_equality_duals():
    lp = LinearProgram(sense="max")
    lp.add_variable("x", None, None)
    lp.set_objective("x", 2.0)
    lp.add_constraint("pin", {"x": 1.0}, EQ, 3.0)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(6.0)
    assert sol.duals["pin"] == pytest.approx(2.0)
