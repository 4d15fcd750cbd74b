"""Verification oracles: closed forms, grid search brackets, known answers."""

import numpy as np
import pytest

from infomenu import (
    Experiment,
    TooLarge,
    audit_menu,
    experiment_value,
    solve_explicit,
)
from infomenu import audit as auditmod
from infomenu.audit import (
    analytic_instances,
    benchmark_experiment,
    benchmark_experiment_value,
    brute_force_menu_search,
    matching_environment,
    sat_reduction_optimum,
    single_type_optimum,
)
from infomenu.errors import NumericalFailure
from infomenu.oracles import CNF, parse_dimacs


def test_benchmark_value_cases():
    assert benchmark_experiment_value(0.2) == pytest.approx(0.8)
    assert benchmark_experiment_value(0.5) == pytest.approx(0.7)
    assert benchmark_experiment_value(1.0) == pytest.approx(1.0)
    assert benchmark_experiment_value(0.3) == pytest.approx(0.7)
    assert benchmark_experiment_value(0.7) == pytest.approx(0.7)


def test_benchmark_value_matches_direct_evaluation_on_grid():
    e = benchmark_experiment()
    for i in range(101):
        theta = i / 100
        env = matching_environment([("t0", [theta, 1.0 - theta])])
        assert abs(
            experiment_value(env, "t0", e) - benchmark_experiment_value(theta)
        ) <= 1e-12


def test_sat_reduction_optimum_satisfiable():
    cnf = CNF(2, [[1, 2], [-1, 2], [1, -2]])   # satisfiable: x=(T, T)
    m = len(cnf.clauses)
    assert sat_reduction_optimum(cnf) == pytest.approx(1 / (2 * m + 4))


def test_sat_reduction_optimum_unsatisfiable():
    cnf = CNF(1, [[1], [-1]])
    assert sat_reduction_optimum(cnf) == pytest.approx(0.25)   # (2-1+1)/8
    assert sat_reduction_optimum(cnf) >= 2 / (2 * len(cnf.clauses) + 4)


def test_sat_reduction_optimum_cap():
    with pytest.raises(TooLarge):
        sat_reduction_optimum(CNF(21, [[1]]))


def test_analytic_instances_match_solver():
    for inst in analytic_instances():
        env = inst.build()
        _, rev, _ = solve_explicit(env)
        assert rev == pytest.approx(inst.optimum, abs=1e-6), inst.name
        if len(env.types) == 1:
            assert single_type_optimum(env) == pytest.approx(inst.optimum, abs=1e-12)


def test_grid_search_single_type_bracket_contains_closed_form():
    env = matching_environment([("t0", [0.5, 0.5])])
    bracket = brute_force_menu_search(env, 0.05)
    assert bracket.lower <= 0.5 + 1e-9 <= bracket.upper + 1e-9
    assert bracket.lower == pytest.approx(0.5, abs=1e-9)


def test_grid_search_constant_utilities_bracket_is_zero():
    env = matching_environment([("t0", [0.3, 0.7])])
    env.utility["t0"] = np.full((2, 2), 0.6)
    bracket = brute_force_menu_search(env, 0.05)
    assert bracket.lower == pytest.approx(0.0, abs=1e-12)
    assert bracket.upper == pytest.approx(0.0, abs=1e-7)


def test_grid_search_benchmark_single_type():
    # Full revelation at price 1 - u dominates the partial experiment.
    env = matching_environment([("t0", [0.5, 0.5])])
    bracket = brute_force_menu_search(env, 0.1)
    assert bracket.lower <= 0.5 <= bracket.upper + 1e-9


def test_grid_search_sandwiches_lp_on_random_instances():
    rng = np.random.default_rng(83)
    for _ in range(5):
        priors = rng.dirichlet(np.ones(2), size=2)
        env = matching_environment([("t0", priors[0]), ("t1", priors[1])])
        _, rev, _ = solve_explicit(env)
        bracket = brute_force_menu_search(env, 0.1, upper=rev)
        assert bracket.lower <= rev + 1e-9
        assert rev <= bracket.upper + 1e-9


def test_grid_search_rejects_oversized_problems():
    env = matching_environment([("t0", [0.4, 0.3, 0.3])], n=3)
    with pytest.raises(TooLarge):
        brute_force_menu_search(env, 0.05)
    env2 = matching_environment([("t0", [0.5, 0.5])])
    with pytest.raises(TooLarge):
        brute_force_menu_search(env2, 0.01)


def test_grid_search_menu_is_exactly_feasible():
    env = matching_environment([("t0", [0.4, 0.6]), ("t1", [0.75, 0.25])])
    bracket = brute_force_menu_search(env, 0.1)
    assert bracket.menu is not None
    rep = audit_menu(env, bracket.menu)
    assert rep.max_ic_violation <= 1e-9
    assert rep.max_ir_violation <= 1e-9
    assert rep.revenue == pytest.approx(bracket.lower)


def three_type_search(monkeypatch, price_rule):
    """The grid search on a three-type market, every price call made by
    ``price_rule(real_optimal_prices, values, base)``."""
    real = auditmod.optimal_prices
    monkeypatch.setattr(auditmod, "optimal_prices", lambda v, b: price_rule(real, v, b))
    env = matching_environment([("t0", [0.3, 0.7]), ("t1", [0.55, 0.45]), ("t2", [0.85, 0.15])])
    return env, brute_force_menu_search(env, 0.25)


def test_grid_search_skips_assignments_with_a_negative_price_cycle(monkeypatch):
    failures = []

    def record(real, values, base):
        try:
            return real(values, base)
        except NumericalFailure:
            failures.append(values)
            raise

    env, bracket = three_type_search(monkeypatch, record)
    # Some assignment hands a type an experiment another type values more
    # than its own: no prices exist, and the search moves on.
    assert failures
    _, rev, _ = solve_explicit(env)
    assert bracket.lower <= rev + 1e-9 <= bracket.upper + 1e-9
    assert bracket.menu is not None
    rep = audit_menu(env, bracket.menu)
    assert max(rep.max_ic_violation, rep.max_ir_violation) <= 1e-9
    assert rep.revenue == pytest.approx(bracket.lower)


def test_grid_search_lets_other_price_errors_through(monkeypatch):
    def broken(real, values, base):
        raise TypeError("a coding error in the price rule")

    with pytest.raises(TypeError, match="coding error"):
        three_type_search(monkeypatch, broken)
