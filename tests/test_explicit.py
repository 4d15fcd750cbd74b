"""Menu LP structure and the exact solver's optimality guarantees."""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from infomenu import (
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
    build_menu_lp,
    solve_explicit,
)
from infomenu import explicit
from infomenu import io as iomod
from infomenu import lp as lpmod
from infomenu.audit import brute_force_menu_search, matching_environment
from infomenu.explicit import optimal_prices
from named_lp import EQ, GE, NamedLP, assert_same_arrays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import _random_env as random_env  # noqa: E402


# --- name-keyed reference construction ------------------------------------------

def named_menu_lp(env: Environment) -> NamedLP:
    """The menu LP built constraint by constraint with named variables, as the
    array builder must reproduce it."""
    n, m, k = env.n_states, env.n_actions, len(env.types)
    prog = NamedLP(sense="max")
    for t in range(k):
        for w in range(n):
            for i in range(m):
                prog.add_variable(f"pi[{t},{w},{i}]", 0.0, 1.0)
    for t in range(k):
        prog.add_variable(f"t[{t}]", None, None)
        prog.set_objective(f"t[{t}]", env.prob(env.types[t].id))
    for i in range(m):
        for t in range(k):
            for t2 in range(k):
                prog.add_variable(f"z[{i},{t},{t2}]", 0.0, None)
    utils = [env.utility[bt.id] for bt in env.types]
    priors = [bt.prior for bt in env.types]

    def own(t):
        return {
            f"pi[{t},{w},{i}]": priors[t][w] * utils[t][w, i]
            for w in range(n)
            for i in range(m)
            if priors[t][w] * utils[t][w, i] != 0.0
        }

    for t in range(k):
        for t2 in range(k):
            coeffs = own(t)
            coeffs[f"t[{t}]"] = coeffs.get(f"t[{t}]", 0.0) - 1.0
            for i in range(m):
                coeffs[f"z[{i},{t},{t2}]"] = -1.0
            coeffs[f"t[{t2}]"] = coeffs.get(f"t[{t2}]", 0.0) + 1.0
            prog.add_constraint(f"ic[{t},{t2}]", coeffs, GE, 0.0)
    for t in range(k):
        for t2 in range(k):
            for i in range(m):
                for j in range(m):
                    coeffs = {f"z[{i},{t},{t2}]": 1.0}
                    for w in range(n):
                        c = priors[t][w] * utils[t][w, j]
                        if c != 0.0:
                            coeffs[f"pi[{t2},{w},{i}]"] = -c
                    prog.add_constraint(f"zlb[{i},{j},{t},{t2}]", coeffs, GE, 0.0)
    for t in range(k):
        coeffs = own(t)
        coeffs[f"t[{t}]"] = -1.0
        prog.add_constraint(f"ir[{t}]", coeffs, GE, base_utility(env, env.types[t].id))
    for t in range(k):
        for w in range(n):
            prog.add_constraint(
                f"rowsum[{t},{w}]", {f"pi[{t},{w},{i}]": 1.0 for i in range(m)}, EQ, 1.0
            )
    return prog


def named_price_lp(values, base, probs) -> NamedLP:
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


def rows_to_csr(prog: NamedLP, equality: bool) -> sp.csr_matrix:
    """Row-by-row CSR of a named program's equality or (GE-negated) inequality rows."""
    data, ri, ci = [], [], []
    rows = [con for con in prog.constraints if (con.relation == EQ) == equality]
    for r, con in enumerate(rows):
        sign = -1.0 if con.relation == GE else 1.0
        for v, coeff in con.coeffs.items():
            ri.append(r)
            ci.append(prog.index[v])
            data.append(sign * coeff)
    return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), prog.n_variables()))


def assert_same_lp(arrays: lpmod.ArrayLP, named: NamedLP):
    assert_same_arrays(arrays, named.compile()[0])


def random_market(rng, k: int, n: int, m: int, *, zero_prior: bool, duplicate: bool,
                  per_type: bool) -> Environment:
    priors = rng.dirichlet(np.ones(n), size=k)
    if zero_prior and n > 1:
        priors[:, 0] = 0.0
        priors /= priors.sum(axis=1, keepdims=True)
    u = rng.uniform(size=(k if per_type else 1, n, m)).round(1)
    if duplicate and m > 1:
        u[:, :, -1] = u[:, :, 0]
    probs = rng.dirichlet(np.ones(k))
    utility = {f"t{i}": u[i] for i in range(k)} if per_type else u[0]
    return Environment.build(
        range(n), range(m), utility,
        [(f"t{i}", priors[i]) for i in range(k)],
        {f"t{i}": float(p) for i, p in enumerate(probs)},
    )


MARKET_SHAPES = [
    (k, n, m, zero_prior, duplicate, per_type)
    for k in (1, 2, 5)
    for n, m in ((1, 3), (2, 2), (3, 4))
    for zero_prior, duplicate, per_type in ((False, False, False), (True, True, False),
                                            (False, True, True), (True, False, True))
]


@pytest.mark.parametrize("shape", MARKET_SHAPES)
def test_array_builders_match_named_reference(shape, monkeypatch):
    k, n, m, zero_prior, duplicate, per_type = shape
    rng = np.random.default_rng([k, n, m, zero_prior, duplicate, per_type])
    env = random_market(rng, k, n, m, zero_prior=zero_prior, duplicate=duplicate,
                        per_type=per_type)
    assert_same_lp(build_menu_lp(env), named_menu_lp(env))

    seen = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda prog, **kw: seen.append(prog) or real_solve(prog, **kw))
    values = rng.uniform(size=(k, k))
    np.fill_diagonal(values, values.max(axis=1) + 0.1)     # zero prices are feasible
    base = rng.uniform(size=k) * np.diag(values)
    probs = rng.dirichlet(np.ones(k))
    optimal_prices(values, base, probs)
    assert_same_lp(seen[0], named_price_lp(values, base, probs))


def test_named_program_compiles_to_row_by_row_csr():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    prog = named_menu_lp(env)
    arrays, ub, eq = prog.compile()
    for compiled, equality in ((arrays.A_ub, False), (arrays.A_eq, True)):
        ref = rows_to_csr(prog, equality)
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(compiled, attr), getattr(ref, attr))
    # The IC(t, t) rows keep their explicit zero price coefficient.
    assert (arrays.A_ub.data == 0.0).sum() == 2
    assert [con.name for con in ub][:4] == ["ic[0,0]", "ic[0,1]", "ic[1,0]", "ic[1,1]"]
    assert [con.name for con in eq] == ["rowsum[0,0]", "rowsum[0,1]", "rowsum[1,0]", "rowsum[1,1]"]


def row_blocks(prog: lpmod.ArrayLP, k: int, n: int, m: int):
    """The IC, helper-bound and IR blocks of the inequality rows, the row sums,
    and the z columns, from the documented layout."""
    A = prog.A_ub.toarray()
    ic, zlb = k * k, k * k * m * m
    assert A.shape[0] == ic + zlb + k and prog.A_eq.shape[0] == k * n
    z_cols = slice(k * n * m + k, None)
    return A[:ic], A[ic:ic + zlb], A[ic + zlb:], prog.A_eq.toarray(), z_cols


def assert_blocks(k: int, n: int, m: int, prog: lpmod.ArrayLP):
    ic, zlb, ir, rowsum, z_cols = row_blocks(prog, k, n, m)
    assert len(ic) == k * k and len(zlb) == k * k * m * m and len(ir) == k and len(rowsum) == k * n
    assert ((ic[:, z_cols] == 1.0).sum(axis=1) == m).all()
    assert ((zlb[:, z_cols] == -1.0).sum(axis=1) == 1).all()
    assert (ir[:, z_cols] == 0.0).all()
    assert (ir[:, k * n * m:k * n * m + k] == np.eye(k)).all()
    assert (rowsum.sum(axis=1) == m).all()


def test_lp_counts_single_type():
    assert_blocks(1, 2, 2, build_menu_lp(matching_environment([("t0", [0.5, 0.5])])))


def test_lp_counts_two_types():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    assert_blocks(2, 2, 2, build_menu_lp(env))


def test_lp_variable_bounds():
    prog = build_menu_lp(matching_environment([("t0", [0.5, 0.5])]))
    k, n, m = 1, 2, 2
    pi0, price0, z0 = 0, k * n * m, k * n * m + k
    assert tuple(prog.bounds[pi0]) == (0.0, 1.0)
    assert tuple(prog.bounds[price0]) == (-np.inf, np.inf)
    assert tuple(prog.bounds[z0]) == (0.0, np.inf)


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


# --- degenerate shapes against the grid-search bracket ------------------------------

QUARTERS = st.integers(0, 4).map(lambda i: i / 4)


@st.composite
def tiny_markets(draw) -> Environment:
    """Two-state markets with at most two types and three actions, drawn to
    hit point-mass priors, duplicate and zero-probability types, tied or
    constant utilities, and a single action after deduplication."""
    m = draw(st.integers(1, 3))
    u = np.array(draw(st.lists(QUARTERS, min_size=2 * m, max_size=2 * m))).reshape(2, m)
    if draw(st.booleans()):
        u[:, 1:] = u[:, :1]                     # every action alike: one left after dedupe
    k = draw(st.integers(1, 2))
    first = draw(st.integers(0, 20)) / 20
    priors = [[first, 1.0 - first]]
    if k == 2:
        second = first if draw(st.booleans()) else draw(st.integers(0, 20)) / 20
        priors.append([second, 1.0 - second])
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return Environment.build(
        range(2), range(m), u,
        [(f"t{i}", p) for i, p in enumerate(priors)],
        {f"t{i}": w / sum(weights) for i, w in enumerate(weights)},
    )


@settings(max_examples=50, deadline=None)
@given(tiny_markets())
def test_degenerate_markets_match_grid_bracket(env):
    menu, rev, rep = solve_explicit(env)
    audit = audit_menu(env, menu)
    assert audit.max_ic_violation <= 1e-9 and audit.max_ir_violation <= 1e-9
    assert audit.revenue == pytest.approx(rev, abs=1e-12)
    bracket = brute_force_menu_search(env, 0.25, upper=rev)
    assert bracket.lower <= rev + 1e-9
    # Nobody pays more than full revelation is worth to them over the prior.
    surplus = sum(
        env.prob(tid) * (float((env.prior(tid)[:, None] * env.utility[tid]).max(axis=1).sum())
                         - base_utility(env, tid))
        for tid in env.type_ids()
    )
    assert rev <= surplus + 1e-9


# --- the lazy menu LP against the full one ------------------------------------------

@st.composite
def lazy_markets(draw) -> Environment:
    """One to four types over one to three states, drawn to hit point-mass
    priors, zero-probability types, duplicate actions and constant
    utilities."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    u = np.array(draw(st.lists(QUARTERS, min_size=n * m, max_size=n * m))).reshape(n, m)
    if m > 1 and draw(st.booleans()):
        u[:, -1] = u[:, 0]                      # a duplicate action
    if draw(st.booleans()):
        u[:] = u[0, 0]                          # constant utilities
    k = draw(st.integers(1, 4))
    priors = []
    for _ in range(k):
        if draw(st.booleans()):
            prior = np.zeros(n)
            prior[draw(st.integers(0, n - 1))] = 1.0        # a point mass
        else:
            prior = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
        priors.append(prior / prior.sum())
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return Environment.build(
        range(n), range(m), u,
        [(f"t{i}", p) for i, p in enumerate(priors)],
        {f"t{i}": w / sum(weights) for i, w in enumerate(weights)},
    )


@settings(max_examples=60, deadline=None)
@given(lazy_markets())
def test_lazy_revenue_matches_the_full_lp(env):
    menu, rev, _ = solve_explicit(env)
    full = lpmod.solve(build_menu_lp(env))
    assert rev == pytest.approx(full.objective_value, abs=1e-9)
    audit = audit_menu(env, menu)
    assert audit.max_ic_violation <= 1e-9 and audit.max_ir_violation <= 1e-9


def record_runs(monkeypatch) -> list:
    """(rows, iterations) of every LP run from here on."""
    runs = []
    real_solve = lpmod.solve

    def record(lp):
        sol = real_solve(lp)
        runs.append((lp.n_constraints(), sol.iterations))
        return sol

    monkeypatch.setattr(lpmod, "solve", record)
    return runs


def test_lazy_solve_is_deterministic(monkeypatch):
    env = random_env(np.random.default_rng([5, 12]), 3, 5, 12)
    runs = record_runs(monkeypatch)
    texts = []
    for _ in range(2):
        menu, rev, _ = solve_explicit(env)
        texts.append((iomod.dumps(iomod.menu_to_json(menu)), repr(rev)))
    assert texts[0] == texts[1]
    half = len(runs) // 2
    assert runs[:half] == runs[half:] and half >= 3          # lazy rounds, then the price LP


def test_lazy_solve_keeps_few_helper_rows_at_forty_types(monkeypatch):
    k, n, m = 40, 3, 5
    env = random_env(np.random.default_rng([7, 40]), n, m, k)
    runs = record_runs(monkeypatch)
    _, rev, rep = solve_explicit(env)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9
    helper_rows = max(rows for rows, _ in runs) - (k * k + k + k * n)
    assert helper_rows < k * k * m * m / 4
    # A few lazy rounds (two on this market), then the price LP.
    assert 2 <= len(runs) <= 5


def test_dual_bound_certifies_the_lazy_optimum(monkeypatch):
    env = random_env(np.random.default_rng([3, 9]), 3, 5, 9)
    bounds = []
    real_bound = lpmod.lagrangian_bound
    monkeypatch.setattr(lpmod, "lagrangian_bound",
                        lambda *a: bounds.append(real_bound(*a)) or bounds[-1])
    _, rev, _ = solve_explicit(env)
    full = lpmod.solve(build_menu_lp(env)).objective_value
    assert len(bounds) == 1                                  # no re-solve
    assert full - 1e-12 <= bounds[0] <= rev + explicit.CERTIFY_TOL


def test_optimum_box_holds_the_full_lp_optimum():
    rng = np.random.default_rng(41)
    for k in (1, 3, 6):
        env = random_env(rng, 3, 4, k)
        prog = build_menu_lp(env)
        box = explicit._optimum_box(env)
        assert box.shape == prog.bounds.shape and np.isfinite(box).all()
        assert (box[:, 0] >= prog.bounds[:, 0]).all() and (box[:, 1] <= prog.bounds[:, 1]).all()
        # Over the box, the full LP keeps its optimum.
        boxed = lpmod.ArrayLP(prog.c, prog.A_ub, prog.b_ub, prog.A_eq, prog.b_eq, box)
        assert lpmod.solve(boxed).objective_value == pytest.approx(
            lpmod.solve(prog).objective_value, abs=1e-12)


def test_gap_above_tolerance_triggers_one_tight_resolve(monkeypatch):
    env = random_env(np.random.default_rng([3, 9]), 3, 5, 9)
    tolerances = []

    class Session(lpmod.Session):
        def __init__(self, lp, feasibility_tol=None):
            if lp.A_eq.shape[0]:                             # not a price LP
                tolerances.append(feasibility_tol)
            super().__init__(lp, feasibility_tol)

    monkeypatch.setattr(lpmod, "Session", Session)
    real_bound = lpmod.lagrangian_bound
    monkeypatch.setattr(lpmod, "lagrangian_bound", lambda *a: real_bound(*a) + 1e-6)
    solve_explicit(env)
    assert tolerances == [None, explicit.RESOLVE_FEASIBILITY_TOL]
