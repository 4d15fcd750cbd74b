"""The array form of an LP, the HiGHS row session, its linprog fallback,
duals and the dual bound."""

import numpy as np
import pytest
import scipy.sparse as sp

from infomenu import lp as lpmod
from infomenu.lp import ArrayLP, solve


def array_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=(), bounds=None, sense="max") -> ArrayLP:
    """An ArrayLP from dense rows; variables are >= 0 unless ``bounds`` says otherwise."""
    n = len(c)
    if bounds is None:
        bounds = [(0.0, np.inf)] * n
    rows = lambda A: sp.csr_matrix(np.array(A, dtype=float).reshape(-1, n))  # noqa: E731
    return ArrayLP(np.array(c, dtype=float), rows(A_ub), np.array(b_ub, dtype=float),
                   rows(A_eq), np.array(b_eq, dtype=float), np.array(bounds, dtype=float), sense)


def simple_max() -> ArrayLP:
    """max x subject to x <= 1, x >= 0."""
    return array_lp([1.0], [[1.0]], [1.0])


def max_violation(lp: ArrayLP, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x``."""
    return float(np.concatenate((
        lp.bounds[:, 0] - x, x - lp.bounds[:, 1],
        lp.A_ub @ x - lp.b_ub, np.abs(lp.A_eq @ x - lp.b_eq),
    )).max(initial=0.0))


def test_solve_simple_bound():
    sol = solve(simple_max())
    assert sol.status == "Optimal"
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_degenerate_optimum():
    sol = solve(array_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_minimization():
    # min x + 2y subject to x + y >= 1 (as -x - y <= -1).
    sol = solve(array_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0], sense="min"))
    assert sol.objective_value == pytest.approx(1.0)
    np.testing.assert_allclose(sol.x, [1.0, 0.0])


def test_solve_infeasible():
    free = [(-np.inf, np.inf)]
    lp = array_lp([1.0], [[-1.0], [1.0]], [-2.0, 1.0], bounds=free)
    assert solve(lp).status == "Infeasible"


def test_optimal_solutions_respect_constraints():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        n_ub = int(rng.integers(1, 5))
        lp = array_lp(rng.normal(size=n), rng.normal(size=(n_ub, n)), rng.uniform(0.5, 2.0, n_ub),
                      bounds=[(0.0, 1.0)] * n)
        sol = solve(lp)
        if sol.status == "Optimal":
            assert max_violation(lp, sol.x) <= 1e-7


def test_duals_sign_convention():
    assert solve(simple_max()).row_duals[0] == pytest.approx(1.0)


def test_equality_duals():
    sol = solve(array_lp([2.0], A_eq=[[1.0]], b_eq=[3.0], bounds=[(-np.inf, np.inf)]))
    assert sol.objective_value == pytest.approx(6.0)
    assert sol.row_duals[0] == pytest.approx(2.0)


def random_array_lp(rng) -> ArrayLP:
    """A feasible, bounded maximization: box-bounded columns, "<=" rows with
    a positive rhs and "==" rows that x = 0 meets."""
    n, n_ub, n_eq = (int(v) for v in rng.integers(1, 6, size=3))
    A_ub = sp.random(n_ub, n, density=0.6, random_state=rng, format="csr")
    A_eq = sp.random(n_eq, n, density=0.6, random_state=rng, format="csr")
    bounds = np.column_stack((np.zeros(n), rng.uniform(0.5, 2.0, n)))
    return ArrayLP(rng.normal(size=n), A_ub, rng.uniform(0.5, 2.0, n_ub),
                   A_eq, np.zeros(n_eq), bounds, "max")


def test_direct_rowwise_call_matches_linprog_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    for _ in range(40):
        lp = random_array_lp(rng)
        direct = solve(lp)
        with monkeypatch.context() as m:
            m.setattr(lpmod, "_highs", None)
            fallback = solve(lp)
        assert direct.status == fallback.status == "Optimal"
        assert direct.x.tobytes() == fallback.x.tobytes()
        assert direct.row_duals.tobytes() == fallback.row_duals.tobytes()
        assert direct.objective_value == fallback.objective_value
        assert direct.iterations == fallback.iterations


def test_array_lp_reports_infeasible_and_unbounded_on_both_paths(monkeypatch):
    free = [(-np.inf, np.inf)]
    infeasible = array_lp([1.0], [[-1.0], [1.0]], [-2.0, 1.0], bounds=free)
    unbounded = array_lp([1.0, 0.0], [[1.0, -1.0]], [1.0], bounds=free + [(0.0, np.inf)])
    for binding in (lpmod._highs, None):
        monkeypatch.setattr(lpmod, "_highs", binding)
        assert solve(infeasible).status == "Infeasible"
        sol = solve(unbounded)
        assert (sol.status, sol.objective_value) == ("Unbounded", np.inf)


def test_binding_check_needs_every_name_used(monkeypatch):
    assert lpmod._binding() is not None
    monkeypatch.setattr(lpmod, "_BINDING_NAMES", lpmod._BINDING_NAMES + ("_Highs.noSuchMethod",))
    assert lpmod._binding() is None


def test_iterations_are_reported():
    rng = np.random.default_rng(3)
    for lp in (random_array_lp(rng) for _ in range(2)):
        runs = [solve(lp).iterations for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
    lp = array_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [1.5], bounds=[(0.0, 1.0)] * 3)
    assert solve(lp).iterations >= 1


def stacked(lp: ArrayLP, A, b) -> ArrayLP:
    """``lp`` with the rows ``A @ x <= b`` after its inequality rows."""
    return ArrayLP(lp.c, sp.vstack([lp.A_ub, sp.csr_matrix(A)], format="csr"),
                   np.concatenate((lp.b_ub, b)), lp.A_eq, lp.b_eq, lp.bounds, lp.sense)


def test_one_run_session_is_the_one_shot_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        lp = random_array_lp(rng)
        once, session = solve(lp), solve(lpmod.Session(lp))
        assert once.x.tobytes() == session.x.tobytes()
        assert once.row_duals.tobytes() == session.row_duals.tobytes()
        assert once.iterations == session.iterations


def test_appended_rows_join_the_warm_run(monkeypatch):
    rng = np.random.default_rng(17)
    for binding in (lpmod._highs, None):
        monkeypatch.setattr(lpmod, "_highs", binding)
        for _ in range(20):
            lp = random_array_lp(rng)
            session = lpmod.Session(lp)
            first = solve(session)
            # Cut off the first optimum: the rows a @ x <= a @ x* - 0.1.
            A = sp.random(2, lp.n_variables(), density=0.8, random_state=rng, format="csr")
            b = A @ first.x - 0.1
            session.add_rows(A, b)
            assert session.n_constraints() == lp.n_constraints() + 2
            cold = solve(stacked(lp, A, b))
            warm = solve(session)
            assert warm.status == cold.status
            if cold.status != "Optimal":
                continue
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
            grown = session.array_lp()
            assert max_violation(grown, warm.x) <= 1e-7
            # Duals follow array_lp's row order: they price the objective.
            assert lpmod.lagrangian_bound(grown, warm.row_duals, grown.bounds) == pytest.approx(
                warm.objective_value, abs=1e-7)


def test_session_replays_the_same_vertex():
    rng = np.random.default_rng(19)
    lp = random_array_lp(rng)
    A = sp.random(3, lp.n_variables(), density=0.8, random_state=rng, format="csr")

    def grow():
        session = lpmod.Session(lp)
        out = [solve(session)]
        session.add_rows(A, A @ out[0].x - 0.05)
        out.append(solve(session))
        return [(s.status, s.x.tobytes() if s.x is not None else None, s.iterations) for s in out]

    assert grow() == grow()


def test_lagrangian_bound_bounds_the_optimum_from_any_duals():
    # max x + y subject to x + 2y <= 2, 3x + y <= 3 on the box [0, 1]^2; optimum 1.4.
    lp = array_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [2.0, 3.0], bounds=[(0.0, 1.0)] * 2)
    sol = solve(lp)
    assert lpmod.lagrangian_bound(lp, sol.row_duals, lp.bounds) == pytest.approx(1.4)
    rng = np.random.default_rng(23)
    for y in rng.normal(size=(50, 2)):
        assert lpmod.lagrangian_bound(lp, y, lp.bounds) >= 1.4 - 1e-12
    # Negative "<=" duals are clipped to zero: then the bound is the box's.
    assert lpmod.lagrangian_bound(lp, np.array([-1.0, -1.0]), lp.bounds) == 2.0


def test_tight_tolerances_reach_the_fallback(monkeypatch):
    seen = []
    real_linprog = lpmod.linprog
    monkeypatch.setattr(lpmod, "_highs", None)
    monkeypatch.setattr(lpmod, "linprog",
                        lambda *a, **kw: seen.append(kw.get("options")) or real_linprog(*a, **kw))
    sol = solve(lpmod.Session(simple_max(), feasibility_tol=1e-10))
    assert sol.objective_value == pytest.approx(1.0)
    assert seen == [{"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}]
