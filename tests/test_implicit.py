"""Signal discretization, price repair, action discovery, oracle solving."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomenu import (
    BuyerType,
    Environment,
    Experiment,
    GridTooLarge,
    InvalidInstance,
    Menu,
    PairingMismatch,
    audit_menu,
    base_utility,
    build_action_sets,
    compress_menu,
    eps_ic_to_ic,
    experiment_value,
    merge_signals,
    repair_misspecified,
    round_experiment,
    solve_explicit,
    solve_implicit,
    tv_distance,
)
from infomenu import explicit
from infomenu import lp as lpmod
from infomenu.audit import benchmark_experiment, matching_environment
from infomenu.implicit import _cell_vertices, schedule_delta, simplex_lattice
from infomenu.oracles import (
    CNF,
    MatrixOracle,
    OracleMarket,
    SATOracle,
    TrafficOracle,
    build_sat_reduction,
    parse_traffic,
)
from named_lp import EQ, GE, NamedLP, assert_same_arrays

QUARTERS = st.integers(0, 4).map(lambda i: i / 4)


def uniform_env(priors=((0.5, 0.5),)):
    return matching_environment([(f"t{i}", list(p)) for i, p in enumerate(priors)])


# --- merge_signals -------------------------------------------------------------

def test_merge_identical_columns_is_exact():
    e = Experiment(np.array([[0.2, 0.2, 0.6], [0.1, 0.1, 0.8]]))
    out = merge_signals(e, 0.25)
    assert out.n_signals == 2
    np.testing.assert_allclose(out.matrix[:, 0], [0.4, 0.2])
    env = uniform_env()
    assert experiment_value(env, "t0", out) == pytest.approx(
        experiment_value(env, "t0", e), abs=1e-12
    )


def test_merge_benchmark_at_full_epsilon_collapses_to_null():
    env = uniform_env()
    e = benchmark_experiment()
    out = merge_signals(e, 1.0)
    assert out.n_signals == 1
    np.testing.assert_allclose(out.matrix, [[1.0], [1.0]])
    drop = experiment_value(env, "t0", e) - experiment_value(env, "t0", out)
    assert drop == pytest.approx(0.2)
    assert drop <= 2.0


def test_merge_bound_on_large_random_experiment():
    rng = np.random.default_rng(13)
    env = uniform_env([(0.5, 0.5)])
    cols = rng.dirichlet(np.ones(1000), size=2)
    e = Experiment(cols)
    eps = 0.1
    out = merge_signals(e, eps)
    assert out.n_signals <= 441
    drop = experiment_value(env, "t0", e) - experiment_value(env, "t0", out)
    assert drop <= 2 * eps + 1e-12


def test_merge_never_raises_any_types_value():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n_sig = int(rng.integers(2, 12))
        mat = rng.dirichlet(np.ones(n_sig), size=2)
        e = Experiment(mat)
        eps = float(rng.uniform(0.05, 0.9))
        out = merge_signals(e, eps)
        u = rng.uniform(size=(2, 3))
        prior = rng.dirichlet(np.ones(2))
        env = Environment.build(range(2), range(3), u, [("t0", prior)])
        assert experiment_value(env, "t0", out) <= experiment_value(env, "t0", e) + 1e-12


# --- round_experiment -----------------------------------------------------------

def test_round_on_grid_is_identity():
    e = Experiment(np.array([[0.3, 0.7], [0.1, 0.9]]))
    np.testing.assert_allclose(round_experiment(e, 0.1).matrix, e.matrix)


def test_round_largest_remainder_row():
    e = Experiment(np.array([[0.33, 0.67], [0.5, 0.5]]))
    out = round_experiment(e, 0.1)
    np.testing.assert_allclose(out.matrix[0], [0.3, 0.7])


def test_round_rows_sum_exactly_on_grid_counts():
    rng = np.random.default_rng(23)
    for _ in range(50):
        s = int(rng.integers(2, 25))
        e = Experiment(rng.dirichlet(np.ones(s), size=2))
        delta = 1.0 / int(rng.integers(3, 200))
        out = round_experiment(e, delta)
        counts = np.rint(out.matrix / delta).astype(int)
        np.testing.assert_allclose(out.matrix, counts * delta, atol=1e-12)
        assert (counts.sum(axis=1) == round(1.0 / delta)).all()


def test_round_value_change_bounded_by_delta_signals():
    rng = np.random.default_rng(29)
    env = uniform_env([(0.4, 0.6)])
    for _ in range(20):
        e = Experiment(rng.dirichlet(np.ones(20), size=2))
        out = round_experiment(e, 0.01)
        dv = abs(
            experiment_value(env, "t0", out) - experiment_value(env, "t0", e)
        )
        assert dv <= 0.01 * 20 + 1e-12


# --- eps_ic_to_ic ---------------------------------------------------------------

def test_repair_formula_and_exactness():
    env = uniform_env()
    full = Experiment.fully_informative(2)
    # Entry 0 is overpriced by exactly 0.04; entry 1 sits at price 0.5.
    menu = Menu(entries=[(full, 0.54), (full, 0.5)], assignment={"t0": 0})
    before = audit_menu(env, menu)
    assert before.max_ir_violation == pytest.approx(0.04)
    assert before.max_ic_violation == 0.0   # a single type has no cross entries
    repaired = eps_ic_to_ic(env, menu, 0.04)
    assert repaired.entries[1][1] == pytest.approx(0.8 * 0.5 - 0.04)   # 0.36
    assert repaired.entries[0][1] == pytest.approx(0.8 * 0.54 - 0.04)
    after = audit_menu(env, repaired)
    assert after.max_ic_violation <= 1e-9
    assert after.max_ir_violation <= 1e-9
    assert after.revenue >= (1 - 0.2) * before.revenue - 0.2 - 0.04


def test_repair_passes_through_exactly_ic_menus():
    env = uniform_env()
    menu = Menu(entries=[(Experiment.fully_informative(2), 0.5)], assignment={"t0": 0})
    assert eps_ic_to_ic(env, menu, 0.0) is menu
    assert eps_ic_to_ic(env, menu, 0.25) is menu


def test_repair_rejects_larger_violation_than_promised():
    env = uniform_env()
    menu = Menu(entries=[(Experiment.fully_informative(2), 0.9)], assignment={"t0": 0})
    with pytest.raises(Exception):
        eps_ic_to_ic(env, menu, 0.01)


def test_repair_on_random_perturbed_menus():
    rng = np.random.default_rng(31)
    eps = 0.04
    for _ in range(20):
        priors = rng.dirichlet(np.ones(2), size=2)
        env = matching_environment([("t0", priors[0]), ("t1", priors[1])])
        menu, rev, _ = solve_explicit(env)
        bumped = Menu(
            entries=[
                (ex, max(0.0, p + rng.uniform(-eps, eps) / 2)) for ex, p in menu.entries
            ],
            assignment=dict(menu.assignment),
        )
        before = audit_menu(env, bumped)
        assert max(before.max_ic_violation, before.max_ir_violation) <= eps
        repaired = eps_ic_to_ic(env, bumped, eps)
        after = audit_menu(env, repaired)
        assert after.max_ic_violation <= 1e-9 and after.max_ir_violation <= 1e-9
        assert after.revenue >= (1 - np.sqrt(eps)) * before.revenue - np.sqrt(eps) - eps


# --- grid schedule and action discovery ------------------------------------------

def test_schedule_delta_is_reciprocal_integer_and_fits_cap():
    for eps in (0.04, 0.1, 0.3):
        d = schedule_delta(2, eps)
        assert round(1.0 / d) == pytest.approx(1.0 / d)
        assert (round(1.0 / d) + 1) ** 2 <= 10**7 or d <= eps / 4


def test_schedule_rejects_four_states():
    with pytest.raises(GridTooLarge):
        schedule_delta(4, 0.05)


def test_build_action_sets_rejects_four_states():
    oracle = MatrixOracle(np.full((4, 2), 0.5))
    with pytest.raises(GridTooLarge):
        build_action_sets(oracle, [BuyerType("t0", [0.25, 0.25, 0.25, 0.25])], 0.05)


def test_solve_implicit_rejects_duplicate_type_ids():
    # The menu would assign one id for two types of different priors.
    types = [BuyerType("t0", np.array([0.9, 0.1])), BuyerType("t0", np.array([0.1, 0.9]))]
    with pytest.raises(InvalidInstance, match="duplicate type ids"):
        solve_implicit(MatrixOracle(np.eye(2)), types, {"t0": 0.5}, 0.1)


def test_simplex_lattice_counts():
    assert len(simplex_lattice(2, 10)) == 11
    lat = simplex_lattice(3, 6)
    assert len(lat) == 28          # C(8, 2)
    assert (lat.sum(axis=1) == 6).all()


def test_action_sets_matrix_oracle_subset():
    env = uniform_env([(0.5, 0.5), (0.9, 0.1)])
    oracle = MatrixOracle(np.eye(2))
    sets, grid = build_action_sets(oracle, env.types, 0.1)
    for tid, acts in sets.actions.items():
        assert set(acts) <= {0, 1}
    assert oracle.query_count <= len(env.types) * grid.n_columns


def test_action_sets_point_mass_prior_sees_one_action():
    oracle = MatrixOracle(np.array([[0.9, 0.1], [0.2, 0.8]]))
    sets, _ = build_action_sets(oracle, [BuyerType("t0", [1.0, 0.0])], 0.1)
    assert sets.actions["t0"] == [0]


def test_action_sets_traffic_matches_path_enumeration():
    text = """0 2 12
0 1 1 6
1 2 1 5
0 2 5 2
0 2 3 3
"""
    inst = parse_traffic(text)
    oracle = TrafficOracle(inst)
    sets, grid = build_action_sets(oracle, [BuyerType("t0", [0.5, 0.5])], 0.1)
    # Paths: (0,1) with times (2, 11); (2,) with (5, 2); (3,) with (3, 3).
    # Upper envelope over the same posterior net, computed directly.
    paths = {(0, 1): (2.0, 11.0), (2,): (5.0, 2.0), (3,): (3.0, 3.0)}
    steps = grid.steps
    expected = set()
    for k in range(steps + 1):
        p = k / steps
        best = min(paths, key=lambda pa: (p * paths[pa][0] + (1 - p) * paths[pa][1], pa))
        expected.add(best)
    assert set(sets.actions["t0"]) == expected


def full_scan_actions(oracle, bt, steps):
    """Reference discovery: query every lattice point, then the prior, and
    keep each answer's first appearance."""
    support = np.flatnonzero(bt.prior > 0.0)
    lattice = simplex_lattice(len(support), steps)
    posteriors = np.zeros((len(lattice) + 1, len(bt.prior)))
    posteriors[:-1, support] = lattice / steps
    posteriors[-1] = bt.prior
    tokens, _ = oracle.respond_many(posteriors)
    return list(dict.fromkeys(tokens))


def assert_matches_full_scan(make_oracle, types, epsilon):
    sets, grid = build_action_sets(make_oracle(), types, epsilon)
    reference = make_oracle()
    expected = {bt.id: full_scan_actions(reference, bt, grid.steps) for bt in types}
    assert sets.actions == expected          # same tokens in the same order


def test_action_sets_match_full_scan_on_random_matrix_markets():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = 1 + trial % 3
        u = rng.uniform(size=(n, int(rng.integers(1, 7))))
        if trial % 2:
            u = np.round(u, 1)                # ties between actions
        priors = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 4)))
        if n > 1 and trial % 4 < 2:
            priors[0, rng.integers(n)] = 0.0  # a zero-probability state
            priors[0] /= priors[0].sum()
        types = [BuyerType(f"t{i}", p) for i, p in enumerate(priors)]
        eps = [0.01, 0.04, 0.1][trial % 3] if n < 3 else 0.1
        assert_matches_full_scan(lambda: MatrixOracle(u), types, eps)


def test_action_sets_match_full_scan_on_traffic_and_sat():
    inst = parse_traffic("0 2 12\n0 1 1 6\n1 2 1 5\n0 2 5 2\n0 2 3 3\n")
    types = [BuyerType("t0", [0.5, 0.5]), BuyerType("t1", [0.85, 0.15])]
    assert_matches_full_scan(lambda: TrafficOracle(inst), types, 0.05)
    sat = build_sat_reduction(CNF(4, [[1, -2], [2, 3], [-3, 4], [-1, -4], [2, 4]]))
    types = [BuyerType("t0", sat.type_prior)]
    assert_matches_full_scan(lambda: SATOracle(sat), types, 0.1)


def assert_shared_discovery(make_oracle, types, epsilon):
    """Discovery over all types equals each type discovered alone on a
    fresh oracle, and asks the lattice once per distinct prior support plus
    each prior once."""
    oracle = make_oracle()
    sets, _ = build_action_sets(oracle, types, epsilon)
    lattice = {}
    for bt in types:
        alone = make_oracle()
        one, _ = build_action_sets(alone, [bt], epsilon)
        assert sets.actions[bt.id] == one.actions[bt.id]
        assert sets.utilities[bt.id].tobytes() == one.utilities[bt.id].tobytes()
        lattice[tuple(np.flatnonzero(bt.prior))] = alone.query_count - 1
    assert len(lattice) < len(types)                  # some support is shared
    assert oracle.query_count == sum(lattice.values()) + len(types)


def test_one_bisection_per_support_on_random_matrix_markets():
    rng = np.random.default_rng(17)
    for trial in range(12):
        u = rng.uniform(size=(3, int(rng.integers(2, 7))))
        if trial % 2:
            u = np.round(u, 1)                        # ties between actions
        priors = [*rng.dirichlet(np.ones(3), size=2), [0.5, 0.5, 0.0], [0.2, 0.8, 0.0],
                  [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.3, 0.7]]
        types = [BuyerType(f"t{i}", p) for i, p in enumerate(priors)]
        rng.shuffle(types)
        assert_shared_discovery(lambda: MatrixOracle(u), types, 0.1)
    # Only the first type's prior, off the grid, sees the spike action 2.
    priors = [[0.5 + 1 / 3001, 0.5 - 1 / 3001], [0.5, 0.5], [0.2, 0.8]]
    u = spike_utility(priors[0])
    types = [BuyerType(f"t{i}", p) for i, p in enumerate(priors)]
    assert_shared_discovery(lambda: MatrixOracle(u), types, 0.1)
    sets, _ = build_action_sets(MatrixOracle(u), types, 0.1)
    assert [2 in sets.actions[bt.id] for bt in types] == [True, False, False]


def test_one_bisection_per_support_on_traffic_and_sat():
    inst = parse_traffic("0 2 12\n0 1 1 6\n1 2 1 5\n0 2 5 2\n0 2 3 3\n")
    priors = [[0.5, 0.5], [1.0, 0.0], [0.85, 0.15], [0.0, 1.0], [1.0, 0.0], [0.3, 0.7]]
    types = [BuyerType(f"t{i}", p) for i, p in enumerate(priors)]
    assert_shared_discovery(lambda: TrafficOracle(inst), types, 0.05)
    sat = build_sat_reduction(CNF(4, [[1, -2], [2, 3], [-3, 4], [-1, -4], [2, 4]]))
    priors = [sat.type_prior, [0.3, 0.7], [1.0, 0.0], [0.0, 1.0], [0.9, 0.1]]
    types = [BuyerType(f"t{i}", p) for i, p in enumerate(priors)]
    assert_shared_discovery(lambda: SATOracle(sat), types, 0.1)


def spike_utility(q0, eta=1e-4):
    """Utilities (states x actions) whose last action is a best response only
    within about eta of the interior belief q0: one action per state, all
    tied at q0, plus their mean raised by eta."""
    q0 = np.asarray(q0, dtype=float)
    own = np.diag(q0.min() / q0)
    return np.column_stack([own, own.mean(axis=1) + eta])


def test_action_sets_find_best_responses_seen_at_one_grid_point():
    steps = 20
    for x in range(1, steps):
        u = spike_utility([x / steps, 1 - x / steps])
        types = [BuyerType("t0", [0.5, 0.5])]
        sets, _ = build_action_sets(MatrixOracle(u), types, 0.1, delta=1 / steps)
        assert 2 in sets.actions["t0"]
        assert sets.actions["t0"] == full_scan_actions(MatrixOracle(u), types[0], steps)
    steps = 6
    for x in simplex_lattice(3, steps - 3) + 1:  # interior points only
        u = spike_utility(x / steps)
        types = [BuyerType("t0", [0.2, 0.3, 0.5])]
        sets, _ = build_action_sets(MatrixOracle(u), types, 0.1, delta=1 / steps)
        assert 3 in sets.actions["t0"]
        assert sets.actions["t0"] == full_scan_actions(MatrixOracle(u), types[0], steps)


def test_action_sets_append_a_response_seen_only_at_the_prior():
    steps = 20
    prior = [0.5 + 1 / (3 * steps), 0.5 - 1 / (3 * steps)]   # between grid points
    oracle = MatrixOracle(spike_utility(prior))
    sets, _ = build_action_sets(oracle, [BuyerType("t0", prior)], 0.1, delta=1 / steps)
    assert sets.actions["t0"] == [1, 0, 2]


def test_action_sets_compare_every_vertex_of_a_cell():
    # The first cell's corners at states 2 and 0 agree, the corner at state 1
    # differs, and action 2 is optimal only inside the cell.
    u = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [1.0, 0.0, 0.6]])
    sets, _ = build_action_sets(MatrixOracle(u), [BuyerType("t0", [0.2, 0.3, 0.5])], 0.1)
    assert sets.actions["t0"] == [0, 2, 1]


def test_cell_vertices_include_edge_crossings_of_the_simplex_bound():
    assert set(_cell_vertices((0, 0), (4, 4), 6)) == {(0, 0), (4, 0), (0, 4), (4, 2), (2, 4)}
    assert set(_cell_vertices((2, 3), (4, 4), 6)) == {(2, 3), (3, 3), (2, 4)}
    assert _cell_vertices((4, 4), (6, 6), 6) == []
    assert _cell_vertices((), (), 5) == [()]


def test_two_state_discovery_queries_scale_with_breakpoints():
    # Each change of best response costs at most one query per bisection
    # level, on top of the two grid ends and the prior.
    rng = np.random.default_rng(11)
    for trial in range(40):
        u = rng.uniform(size=(2, int(rng.integers(1, 8))))
        if trial % 2:
            u = np.round(u, 1)
        bt = BuyerType("t0", rng.dirichlet(np.ones(2)))
        oracle = MatrixOracle(u)
        sets, grid = build_action_sets(oracle, [bt], [0.01, 0.04, 0.1][trial % 3])
        levels = math.ceil(math.log2(grid.steps))
        assert oracle.query_count <= 3 + (sets.size("t0") - 1) * levels


# --- solve_implicit ---------------------------------------------------------------

def test_implicit_matches_explicit_on_matrix_oracle():
    rng = np.random.default_rng(41)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        priors = rng.dirichlet(np.ones(2), size=k)
        u = rng.uniform(size=(2, 4))
        env = Environment.build(range(2), range(4), u, [(f"t{i}", priors[i]) for i in range(k)])
        _, rev_exp, _ = solve_explicit(env)
        res = solve_implicit(MatrixOracle(u), env.types, env.type_probs, 0.04)
        assert res.revenue <= rev_exp + 1e-9
        assert res.revenue >= rev_exp - (2 * np.sqrt(0.04) + 5 * 0.04)
        assert res.report.max_ic_violation <= 1e-9
        assert res.report.max_ir_violation <= 1e-9


def test_implicit_single_type_traffic_closed_form():
    inst = parse_traffic("0 1 3\n0 1 1 3\n0 1 3 1\n")
    oracle = TrafficOracle(inst)
    types = [BuyerType("t0", [0.5, 0.5])]
    res = solve_implicit(oracle, types, {"t0": 1.0}, 0.05)
    # Full revelation is worth (3-1)/3 in each state; prior-only driving
    # earns (3-2)/3; the single-type optimum is the difference.
    assert res.revenue == pytest.approx(2 / 3 - 1 / 3, abs=1e-6)


def test_implicit_large_epsilon_still_exactly_ic():
    env = uniform_env([(0.5, 0.5), (0.8, 0.2)])
    res = solve_implicit(MatrixOracle(np.eye(2)), env.types, env.type_probs, 0.5)
    assert res.report.max_ic_violation <= 1e-9
    assert res.report.max_ir_violation <= 1e-9


def test_implicit_separation_terminates_within_universe():
    env = uniform_env([(0.5, 0.5), (0.9, 0.1), (0.3, 0.7)])
    res = solve_implicit(MatrixOracle(np.eye(2)), env.types, env.type_probs, 0.04)
    max_signals = max(len(a) for a in res.action_sets.actions.values())
    universe = len(env.types) ** 2 * max_signals * 2
    assert res.separation_rounds <= universe + 1


def test_implicit_sat_reduction_hits_closed_form():
    cnf = CNF(2, [[1, 2], [-1, 2]])
    inst = build_sat_reduction(cnf)
    oracle = SATOracle(inst)
    types = [BuyerType("t0", np.asarray(inst.type_prior))]
    res = solve_implicit(oracle, types, {"t0": 1.0}, 0.1)
    m = len(cnf.clauses)
    assert res.revenue == pytest.approx(1 / (2 * m + 4), abs=1e-6)   # satisfiable


# --- the separation LP against the name-keyed construction --------------------------

def named_implicit_lps(oracle, types, type_probs, epsilon, solutions) -> list:
    """The menu LP of every separation round as the name-keyed builder made
    it, running the same separation loop on the given per-round solutions
    (those of ``solve_implicit``'s warm session): the test-only reference
    for the index arithmetic of ``solve_implicit``."""
    market = OracleMarket(oracle, types, type_probs)
    action_sets, grid = build_action_sets(oracle, types, epsilon)
    k, n = len(types), grid.n_states
    sizes = [action_sets.size(t.id) for t in types]
    actions = [action_sets.actions[t.id] for t in types]
    utils = [action_sets.utilities[t.id] for t in types]
    priors = [t.prior for t in types]
    base = [market.base(t.id) for t in types]
    prog = NamedLP(sense="max")
    for t in range(k):
        for w in range(n):
            for i in range(sizes[t]):
                prog.add_variable(f"pi[{t},{w},{i}]", 0.0, 1.0)
    for t in range(k):
        prog.add_variable(f"t[{t}]", None, None)
        prog.set_objective(f"t[{t}]", type_probs[types[t].id])
    for t in range(k):
        for t2 in range(k):
            for i in range(sizes[t2]):
                prog.add_variable(f"z[{i},{t},{t2}]", 0.0, None)

    def own(t):
        return {
            f"pi[{t},{w},{i}]": priors[t][w] * utils[t][i, w]
            for w in range(n)
            for i in range(sizes[t])
            if priors[t][w] * utils[t][i, w] != 0.0
        }

    def add_deviation(t, t2, i, payoff):
        coeffs = {f"z[{i},{t},{t2}]": 1.0}
        for w in range(n):
            c = priors[t][w] * payoff[w]
            if c != 0.0:
                coeffs[f"pi[{t2},{w},{i}]"] = -c
        prog.add_constraint(f"zlb[{len(prog.constraints)}]", coeffs, GE, 0.0)

    for t in range(k):
        for t2 in range(k):
            coeffs = own(t)
            coeffs[f"t[{t}]"] = coeffs.get(f"t[{t}]", 0.0) - 1.0
            for i in range(sizes[t2]):
                coeffs[f"z[{i},{t},{t2}]"] = -1.0
            coeffs[f"t[{t2}]"] = coeffs.get(f"t[{t2}]", 0.0) + 1.0
            prog.add_constraint(f"ic[{t},{t2}]", coeffs, GE, 0.0)
        coeffs = own(t)
        coeffs[f"t[{t}]"] = -1.0
        prog.add_constraint(f"ir[{t}]", coeffs, GE, float(base[t]))
    # The start rows: on a self pair every action of the type's set, on the
    # other pairs the recommended action of the signal.
    added = set()
    for t in range(k):
        for t2 in range(k):
            for i in range(sizes[t2]):
                for a in (range(sizes[t2]) if t2 == t else [i]):
                    added.add((t, t2, i, actions[t2][a]))
                    add_deviation(t, t2, i, utils[t2][a])
    for t in range(k):
        for w in range(n):
            prog.add_constraint(
                f"rowsum[{t},{w}]", {f"pi[{t},{w},{i}]": 1.0 for i in range(sizes[t])}, EQ, 1.0
            )

    lps = []
    while True:
        lps.append(prog.compile()[0])
        values = dict(zip(prog.index, solutions[len(lps) - 1].tolist()))
        new_rows = 0
        for t in range(k):
            for t2 in range(k):
                mat = np.clip([[values[f"pi[{t2},{w},{i}]"] for i in range(sizes[t2])]
                               for w in range(n)], 0.0, None)
                weighted = mat * priors[t][:, None]
                masses = weighted.sum(axis=0)
                for i in range(sizes[t2]):
                    if masses[i] <= 1e-15:
                        continue
                    tok, eu = oracle.respond(weighted[:, i] / masses[i])
                    key = (t, t2, i, tok)
                    violation = masses[i] * eu - values[f"z[{i},{t},{t2}]"]
                    if violation <= explicit.SEPARATION_TOL or key in added:
                        continue
                    added.add(key)
                    new_rows += 1
                    add_deviation(t, t2, i, [oracle.utility_of(tok, w) for w in range(n)])
        if new_rows == 0:
            return lps


def random_matrix_market(rng, k: int, n: int, m: int, zero_prior: bool):
    priors = rng.dirichlet(np.ones(n), size=k)
    if zero_prior and n > 1:
        priors[:, 0] = 0.0
        priors /= priors.sum(axis=1, keepdims=True)
    # Actions on a concave front, so that each is the best response somewhere.
    angles = np.sort(rng.uniform(0.0, np.pi / 2, size=m))
    u = np.vstack([np.sin(angles), np.cos(angles), rng.uniform(size=m)])[:n].round(2)
    types = [BuyerType(f"t{i}", priors[i]) for i in range(k)]
    probs = rng.dirichlet(np.ones(k))
    return u, types, {t.id: float(p) for t, p in zip(types, probs)}


IMPLICIT_SHAPES = [
    (k, n, m, zero_prior)
    for k in (1, 2, 3)
    for n, m, zero_prior in ((1, 3, False), (2, 1, False), (2, 4, False), (2, 4, True),
                             (3, 3, False), (3, 3, True))
]


def test_separation_lps_match_named_reference(monkeypatch):
    rounds_seen = []
    for shape in IMPLICIT_SHAPES:
        k, n, m, zero_prior = shape
        u, types, probs = random_matrix_market(np.random.default_rng(shape), k, n, m, zero_prior)
        epsilon = 0.1 if n < 3 else 0.3
        seen = []
        with monkeypatch.context() as patch:
            real_solve = lpmod.solve

            def record(lp):
                # The session's rows at this run, and what the run returned.
                seen.append((lp.array_lp() if isinstance(lp, lpmod.Session) else lp, real_solve(lp)))
                return seen[-1][1]

            patch.setattr(lpmod, "solve", record)
            res = solve_implicit(MatrixOracle(u), types, probs, epsilon)
        ref = named_implicit_lps(MatrixOracle(u), types, probs, epsilon,
                                 [sol.x for _, sol in seen])
        assert len(seen) == len(ref) == res.separation_rounds, shape
        for (arrays, sol), named in zip(seen, ref):
            assert_same_arrays(arrays, named)
            # The warm run is optimal for the round's rows.
            assert sol.objective_value == pytest.approx(lpmod.solve(arrays).objective_value,
                                                        abs=1e-9)
        rounds_seen.append(res.separation_rounds)
    # The first LP of each solve has no deviation rows; the later ones do.
    assert max(rounds_seen) >= 3, rounds_seen


def implicit_outputs(res) -> tuple:
    return (repr(res.revenue), repr(res.lp_objective), res.separation_rounds, res.lp_iterations,
            [(ex.matrix.tobytes(), repr(p)) for ex, p in res.menu.entries])


# A matrix market whose separation takes three rounds, and on which discovery
# finds every action for every type, in the market's order.
THREE_ROUND_U = np.array([[0.5, 0.9, 1.0], [0.9, 0.7, 0.3]])
THREE_ROUND_PRIORS = [("t0", [0.6, 0.4]), ("t1", [0.35, 0.65]), ("t2", [0.95, 0.05])]


def test_warm_session_gives_the_cold_menus(monkeypatch):
    u = THREE_ROUND_U
    env = Environment.build(range(2), range(3), u, THREE_ROUND_PRIORS)
    real_solve = lpmod.solve

    def outputs(solve):
        """Both solvers' outputs with every LP run made by ``solve``, and
        per solver whether each run was a menu LP (it has row sums)."""
        runs = []

        def record(lp):
            runs.append((lp.array_lp() if isinstance(lp, lpmod.Session) else lp).A_eq.shape[0] > 0)
            return solve(lp)

        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "solve", record)
            res = solve_implicit(MatrixOracle(u), env.types, env.type_probs, 0.04)
            implicit_runs = len(runs)
            menu = solve_explicit(env)[0]
        out = (implicit_outputs(res), [(ex.matrix.tobytes(), repr(p)) for ex, p in menu.entries])
        return out, (runs[:implicit_runs], runs[implicit_runs:])

    def menus(out):
        """The revenue, the LP objective and both solvers' menus."""
        (revenue, objective, _, _, entries), explicit_menu = out
        return revenue, objective, entries, explicit_menu

    # The cold reference: every run a fresh HiGHS solve of the rows so far.
    cold, _ = outputs(lambda lp: real_solve(lp.array_lp() if isinstance(lp, lpmod.Session) else lp))
    assert cold[0][2:4] == (3, 71)
    # The warm session passes through other optimal vertices on the way to
    # the same menus: 3 rounds and 27 iterations on this market.
    direct, (implicit_runs, explicit_runs) = outputs(real_solve)
    assert menus(direct) == menus(cold)
    assert direct[0][2:4] == (3, 27)
    # Every run is a menu LP: each separation round of solve_implicit, then
    # each lazy round of solve_explicit.  Prices come from shortest paths,
    # so no other LP runs.
    assert implicit_runs == [True] * direct[0][2]
    assert explicit_runs == [True] * len(explicit_runs) and explicit_runs


def test_implicit_and_explicit_start_from_the_same_lp(monkeypatch):
    # Discovery finds all three actions for every type, in the market's
    # order, so the oracle solver's first LP is the explicit solver's.
    u = THREE_ROUND_U
    env = Environment.build(range(2), range(3), u, THREE_ROUND_PRIORS)
    firsts = []
    real_init = lpmod.Session.__init__

    def init(session, lp, feasibility_tol=None):
        firsts.append(lp)
        real_init(session, lp, feasibility_tol)

    monkeypatch.setattr(lpmod.Session, "__init__", init)
    res = solve_implicit(MatrixOracle(u), env.types, env.type_probs, 0.04)
    solve_explicit(env)
    assert res.action_sets.actions == {t.id: [0, 1, 2] for t in env.types}
    assert len(firsts) == 2
    implicit_lp, explicit_lp = firsts
    assert implicit_lp.sense == explicit_lp.sense
    for field in ("c", "b_ub", "b_eq", "bounds"):
        np.testing.assert_array_equal(getattr(implicit_lp, field), getattr(explicit_lp, field))
    for field in ("A_ub", "A_eq"):
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(getattr(implicit_lp, field), attr),
                                          getattr(getattr(explicit_lp, field), attr))


def test_lp_iterations_are_deterministic():
    env = uniform_env([(0.5, 0.5), (0.9, 0.1), (0.3, 0.7)])
    runs = [solve_implicit(MatrixOracle(np.eye(2)), env.types, env.type_probs, 0.04)
            for _ in range(2)]
    assert runs[0].lp_iterations > 0
    assert runs[0].lp_iterations == runs[1].lp_iterations
    assert runs[0].separation_rounds == runs[1].separation_rounds


# --- implicit against explicit on degenerate markets ---------------------------------

@st.composite
def matrix_markets(draw):
    """Markets of one or two states, one to three types and actions, drawn
    to hit point-mass priors, duplicate and zero-probability types, tied
    actions and constant utilities."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    u = np.array(draw(st.lists(QUARTERS, min_size=n * m, max_size=n * m))).reshape(n, m)
    if draw(st.booleans()):
        u[:, 1:] = u[:, :1]                     # tied actions
    if draw(st.booleans()):
        u[:] = u[0, 0]                          # constant utilities
    k = draw(st.integers(1, 3))
    priors = []
    for _ in range(k):
        if priors and draw(st.booleans()):
            priors.append(priors[-1])           # duplicate type
        else:
            first = draw(st.integers(0, 20)) / 20       # 0 and 20 are point masses
            priors.append([first, 1.0 - first] if n == 2 else [1.0])
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.2]))
    env = Environment.build(
        range(n), range(m), u,
        [(f"t{i}", p) for i, p in enumerate(priors)],
        {f"t{i}": w / sum(weights) for i, w in enumerate(weights)},
    )
    return env, u, epsilon


@settings(max_examples=40, deadline=None)
@given(matrix_markets())
def test_implicit_within_the_epsilon_sandwich_of_explicit(market):
    env, u, epsilon = market
    _, rev_exp, _ = solve_explicit(env)
    res = solve_implicit(MatrixOracle(u), env.types, env.type_probs, epsilon)
    assert rev_exp - (2 * math.sqrt(epsilon) + 5 * epsilon) <= res.revenue <= rev_exp + 1e-9
    assert res.report.max_ic_violation <= 1e-9
    assert res.report.max_ir_violation <= 1e-9


# --- compression -------------------------------------------------------------------

def test_compress_identical_types_single_entry():
    env = matching_environment([("t0", [0.6, 0.4]), ("t1", [0.6, 0.4])])
    menu, rev, _ = solve_explicit(env)
    out = compress_menu(env, menu, 0.1)
    assert len(out.entries) == 1
    assert audit_menu(env, out).revenue == pytest.approx(rev, abs=1e-9)


def test_compress_merges_close_types_to_pricier_entry():
    env = matching_environment([("t0", [0.50, 0.50]), ("t1", [0.51, 0.49])])
    menu, _, _ = solve_explicit(env)
    eps = 0.4   # eps2/n = 0.1 step buckets both priors together
    out = compress_menu(env, menu, eps)
    assert len(out.entries) == 1
    rep = audit_menu(env, out)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9


def test_compress_entry_count_and_revenue_drop():
    rng = np.random.default_rng(43)
    k = 100
    priors = rng.dirichlet(np.ones(2), size=k)
    types = [(f"t{i}", priors[i]) for i in range(k)]
    env = matching_environment(types)
    full = Experiment.fully_informative(2)
    # Hand-built IC menu: full revelation at the lowest surplus across types.
    price = min(1.0 - base_utility(env, tid) for tid in env.type_ids())
    menu = Menu(
        entries=[(full, price)],
        assignment={tid: 0 for tid in env.type_ids()},
    )
    base_rev = audit_menu(env, menu).revenue
    eps = 0.1
    out = compress_menu(env, menu, eps)
    assert len(out.entries) <= 41
    rep = audit_menu(env, out)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9
    assert rep.revenue >= base_rev - 3 * np.sqrt(eps)


# --- misspecified repair -------------------------------------------------------------

def test_misspecified_zero_error_is_identity():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    menu, rev, _ = solve_explicit(env)
    out = repair_misspecified(env, menu, env.types, 0.0, 0.0)
    assert [p for _, p in out.entries] == [p for _, p in menu.entries]
    assert audit_menu(env, out).revenue == pytest.approx(rev)


def test_misspecified_perturbed_types_repair_to_exact_ic():
    rng = np.random.default_rng(47)
    true_priors = [np.array([0.45, 0.55]), np.array([0.85, 0.15])]
    eps2 = 0.01
    assumed = []
    for i, p in enumerate(true_priors):
        bump = rng.uniform(-eps2, eps2)
        q = np.clip(p + np.array([bump, -bump]), 1e-6, None)
        assumed.append(BuyerType(f"a{i}", q / q.sum()))
    assumed_env = matching_environment([(t.id, t.prior) for t in assumed])
    menu, _, _ = solve_explicit(assumed_env)
    true_env = matching_environment([("t0", true_priors[0]), ("t1", true_priors[1])])
    for at, tid in zip(assumed, true_env.type_ids()):
        assert tv_distance(at.prior, true_env.prior(tid)) <= eps2 + 1e-12
    out = repair_misspecified(true_env, menu, assumed, 0.01, eps2)
    rep = audit_menu(true_env, out)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9


def test_misspecified_price_formula_composition():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    menu, _, _ = solve_explicit(env)
    eps2 = 0.02
    # Perturb prices upward so the audit is violated and the formula fires.
    shifted = Menu(
        entries=[(ex, p + 0.01) for ex, p in menu.entries],
        assignment=dict(menu.assignment),
    )
    out = repair_misspecified(env, shifted, env.types, 0.0, eps2)
    eta = np.sqrt(2 * 2 * eps2)
    for (_, old), (_, new) in zip(shifted.entries, out.entries):
        assert new == pytest.approx(max(0.0, (1 - eta) * old - 2 * 2 * eps2))


def test_misspecified_pairing_validation():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    menu, _, _ = solve_explicit(env)
    with pytest.raises(PairingMismatch):
        repair_misspecified(env, menu, env.types[:1], 0.0, 0.0)
    far = [BuyerType("a0", [0.1, 0.9]), BuyerType("a1", [0.9, 0.1])]
    with pytest.raises(PairingMismatch):
        repair_misspecified(env, menu, far, 0.0, 0.01)
