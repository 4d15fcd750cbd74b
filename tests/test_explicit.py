"""Menu LP structure and the exact solver's optimality guarantees."""

import numpy as np
import pytest

from infomenu import (
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
    build_menu_lp,
    solve_explicit,
)
from infomenu.audit import brute_force_menu_search, matching_environment


def test_lp_counts_single_type():
    prog, _ = build_menu_lp(matching_environment([("t0", [0.5, 0.5])]))
    names = [c.name for c in prog.constraints]
    assert sum(n.startswith("ic[") for n in names) == 1
    assert sum(n.startswith("zlb[") for n in names) == 4
    assert sum(n.startswith("ir[") for n in names) == 1
    assert sum(n.startswith("rowsum[") for n in names) == 2


def test_lp_counts_two_types():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    prog, _ = build_menu_lp(env)
    names = [c.name for c in prog.constraints]
    assert sum(n.startswith("ic[") for n in names) == 4
    assert sum(n.startswith("zlb[") for n in names) == 16
    assert sum(n.startswith("ir[") for n in names) == 2
    assert sum(n.startswith("rowsum[") for n in names) == 4


def test_lp_variable_bounds():
    prog, ix = build_menu_lp(matching_environment([("t0", [0.5, 0.5])]))
    bounds = {name: (lb, ub) for name, lb, ub in prog.variables}
    assert bounds[ix.pi(0, 0, 0)] == (0.0, 1.0)
    assert bounds[ix.price(0)][1] is None
    assert bounds[ix.z(0, 0, 0)][1] is None


def test_single_type_closed_forms():
    for p in (0.1, 0.25, 0.5, 0.6, 0.9):
        env = matching_environment([("t0", [p, 1.0 - p])])
        _, rev, rep = solve_explicit(env)
        assert rev == pytest.approx(1.0 - max(p, 1.0 - p), abs=1e-6)
        assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9


def test_point_mass_prior_revenue_zero():
    _, rev, _ = solve_explicit(matching_environment([("t0", [1.0, 0.0])]))
    assert rev == pytest.approx(0.0, abs=1e-9)


def test_two_types_match_grid_search():
    env = matching_environment(
        [("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])], {"t0": 0.5, "t1": 0.5}
    )
    _, rev, _ = solve_explicit(env)
    bracket = brute_force_menu_search(env, 0.05, upper=rev)
    assert bracket.lower <= rev + 1e-9 <= bracket.upper + 2e-9
    assert rev == pytest.approx(bracket.lower, abs=2e-3)


def test_beats_hand_constructed_menus():
    rng = np.random.default_rng(17)
    for _ in range(10):
        priors = rng.dirichlet(np.ones(2), size=2)
        env = matching_environment([("t0", priors[0]), ("t1", priors[1])])
        _, rev, _ = solve_explicit(env)
        # Candidate menus: full revelation at each type's surplus.
        for tid in env.type_ids():
            price = 1.0 - base_utility(env, tid)
            menu = Menu(entries=[(Experiment.fully_informative(2), price)])
            sold = sum(
                env.prob(t) * price
                for t in env.type_ids()
                if 1.0 - price >= base_utility(env, t) - 1e-12
            )
            assert rev >= sold - 1e-7


def test_beats_best_single_price_full_revelation():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n, m, k = 2, 3, 3
        u = rng.uniform(size=(n, m))
        priors = rng.dirichlet(np.ones(n), size=k)
        env = Environment.build(range(n), range(m), u, [(f"t{i}", priors[i]) for i in range(k)])
        _, rev, _ = solve_explicit(env)
        full_vals = {
            tid: float((env.prior(tid)[:, None] * env.utility[tid]).max(axis=1).sum())
            for tid in env.type_ids()
        }
        surplus = {tid: full_vals[tid] - base_utility(env, tid) for tid in env.type_ids()}
        best = max(
            sum(env.prob(t) * price for t in surplus if surplus[t] >= price - 1e-12)
            for price in surplus.values()
        )
        assert rev >= best - 1e-7


def test_positive_mass_signals_recommend_optimal_actions():
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.uniform(size=(2, 3))
        priors = rng.dirichlet(np.ones(2), size=2)
        env = Environment.build(range(2), range(3), u, [("t0", priors[0]), ("t1", priors[1])])
        menu, _, _ = solve_explicit(env)
        for tid in env.type_ids():
            ex, _ = menu.entries[menu.assignment[tid]]
            weighted = ex.matrix * env.prior(tid)[:, None]
            per_action = weighted.T @ env.utility[tid]
            for i in range(ex.n_signals):
                if weighted[:, i].sum() > 1e-9:
                    assert per_action[i].max() - per_action[i, i] <= 1e-6


def test_revenue_invariant_under_relabeling():
    rng = np.random.default_rng(37)
    u = rng.uniform(size=(2, 3))
    priors = rng.dirichlet(np.ones(2), size=2)
    env = Environment.build(range(2), range(3), u, [("t0", priors[0]), ("t1", priors[1])])
    _, rev, _ = solve_explicit(env)

    pa = rng.permutation(3)
    env_a = Environment.build(range(2), range(3), u[:, pa], [("t0", priors[0]), ("t1", priors[1])])
    _, rev_a, _ = solve_explicit(env_a)
    assert rev_a == pytest.approx(rev, abs=1e-7)

    ps = rng.permutation(2)
    env_s = Environment.build(
        range(2), range(3), u[ps], [("t0", priors[0][ps]), ("t1", priors[1][ps])]
    )
    _, rev_s, _ = solve_explicit(env_s)
    assert rev_s == pytest.approx(rev, abs=1e-7)


def test_duplicate_actions_change_nothing():
    env = matching_environment([("t0", [0.6, 0.4]), ("t1", [0.85, 0.15])])
    _, rev, _ = solve_explicit(env)
    u = np.eye(2)[:, [0, 1, 0, 1, 1]]
    env_dup = Environment.build(
        range(2), range(5), u, [("t0", [0.6, 0.4]), ("t1", [0.85, 0.15])]
    )
    menu, rev_dup, rep = solve_explicit(env_dup)
    assert rev_dup == pytest.approx(rev, abs=1e-9)
    assert menu.entries[0][0].n_signals == 5
    assert rep.max_ic_violation <= 1e-9


def test_audited_revenue_matches_reported():
    env = matching_environment([("t0", [0.35, 0.65]), ("t1", [0.7, 0.3])])
    menu, rev, rep = solve_explicit(env)
    again = audit_menu(env, menu)
    assert again.revenue == pytest.approx(rev, abs=1e-12)
    assert again.max_ic_violation == rep.max_ic_violation


def test_lp_dust_below_feasibility_tolerance_is_cleaned():
    # HiGHS returns an experiment entry of about -2e-9 on this market, inside
    # its primal feasibility tolerance; it must be clamped, not rejected.
    rng = np.random.default_rng([207, 34])
    u = rng.uniform(size=(3, 5))
    priors = rng.dirichlet(np.ones(3), size=16)
    probs = rng.dirichlet(np.ones(16))
    env = Environment.build(
        range(3), range(5), u,
        [(f"t{i}", priors[i]) for i in range(16)],
        {f"t{i}": float(p) for i, p in enumerate(probs)},
    )
    menu, rev, rep = solve_explicit(env)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9
    assert audit_menu(env, menu).revenue == pytest.approx(rev, abs=1e-12)
