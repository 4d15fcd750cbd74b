"""Best-response oracle contracts and the satisfiability reduction."""

import itertools

import numpy as np
import pytest

from infomenu.errors import InvalidInstance, NoPath, TooLarge
from infomenu.market import BuyerType, Experiment
from infomenu.oracles import (
    CNF,
    IPSATInstance,
    MatrixOracle,
    OracleMarket,
    SATOracle,
    TrafficInstance,
    TrafficOracle,
    build_sat_reduction,
    enumerate_environment,
    format_dimacs,
    max_satisfiable,
    oracle_value,
    parse_dimacs,
    parse_traffic,
    satisfied_counts,
)

TWO_EDGE_GRAPH = """# two parallel roads
0 1 3
0 1 1 3
0 1 3 1
"""


def two_edge_oracle() -> TrafficOracle:
    return TrafficOracle(parse_traffic(TWO_EDGE_GRAPH))


# --- traffic ------------------------------------------------------------------

def test_traffic_tie_takes_first_edge():
    path, util = two_edge_oracle().respond([0.5, 0.5])
    assert path == (0,)
    assert util == pytest.approx((3 - 2) / 3)


def test_traffic_known_state_picks_fast_road():
    path, util = two_edge_oracle().respond([1.0, 0.0])
    assert path == (0,)
    assert util == pytest.approx((3 - 1) / 3)
    path, util = two_edge_oracle().respond([0.0, 1.0])
    assert path == (1,)
    assert util == pytest.approx((3 - 1) / 3)


def test_traffic_skewed_belief():
    path, util = two_edge_oracle().respond([0.9, 0.1])
    assert path == (0,)
    assert util == pytest.approx((3 - 1.2) / 3)


def test_traffic_no_path():
    inst = TrafficInstance(3, [(0, 1, 1.0, 1.0)], 0, 2, 10.0)
    with pytest.raises(NoPath):
        TrafficOracle(inst).respond([0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_traffic_rejects_non_finite_times_and_horizon(bad):
    with pytest.raises(InvalidInstance):
        TrafficInstance(2, [(0, 1, bad, 1.0)], 0, 1, 10.0)
    with pytest.raises(InvalidInstance):
        TrafficInstance(2, [(0, 1, 1.0, bad)], 0, 1, 10.0)
    with pytest.raises(InvalidInstance):
        TrafficInstance(2, [(0, 1, 1.0, 1.0)], 0, 1, bad)


def test_traffic_utility_of_matches_respond():
    oracle = two_edge_oracle()
    rng = np.random.default_rng(2)
    for _ in range(50):
        b = rng.dirichlet(np.ones(2))
        path, util = oracle.respond(b)
        direct = sum(b[w] * oracle.utility_of(path, w) for w in range(2))
        assert util == pytest.approx(direct, abs=1e-9)


def _enumerate_paths(inst: TrafficInstance, cap: int = 64) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def walk(u, path, visited):
        if len(out) > cap:
            raise TooLarge("too many paths")
        if u == inst.sink:
            out.append(tuple(path))
            return
        for e, (a, b, _, _) in enumerate(inst.edges):
            if a == u and b not in visited:
                walk(b, path + [e], visited | {b})

    walk(inst.source, [], {inst.source})
    return out


def diamond_instance() -> TrafficInstance:
    text = """0 3 25
0 1 1 8
0 2 6 2
1 3 2 9
2 3 3 1
0 3 5 12
"""
    return parse_traffic(text)


def test_traffic_agrees_with_matrix_oracle_on_enumerable_graph():
    inst = diamond_instance()
    oracle = TrafficOracle(inst)
    paths = _enumerate_paths(inst)
    utility = np.array(
        [[oracle.utility_of(p, w) for p in paths] for w in range(2)]
    )
    matrix = MatrixOracle(np.clip(utility, 0.0, 1.0))
    rng = np.random.default_rng(4)
    for _ in range(200):
        b = rng.dirichlet(np.ones(2))
        _, u1 = oracle.respond(b)
        _, u2 = matrix.respond(b)
        assert u1 == pytest.approx(u2, abs=1e-9)


def test_traffic_lexicographic_tie_on_ties_of_paths():
    # Both two-hop routes cost 4 in every state; edge sequence (0, 2) wins.
    text = """0 3 10
0 1 2 2
0 2 2 2
1 3 2 2
2 3 2 2
"""
    oracle = TrafficOracle(parse_traffic(text))
    path, _ = oracle.respond([0.3, 0.7])
    assert path == (0, 2)


# --- oracle consistency (no probe beats the answer) ----------------------------

def test_oracle_consistency_matrix_and_traffic_and_sat():
    # No sampled probe action may ever beat the oracle's answer, and the
    # answer's utility must re-derive from utility_of under the belief.
    rng = np.random.default_rng(11)
    matrix = MatrixOracle(rng.uniform(size=(2, 30)))
    traffic = TrafficOracle(diamond_instance())
    traffic_probes = _enumerate_paths(diamond_instance())
    sat = SATOracle(build_sat_reduction(CNF(3, [[1, -2], [2, 3], [-1, -3]])))
    sat_probes = list(range(1 << 4))
    cases = [
        (matrix, list(range(30))),
        (traffic, traffic_probes),
        (sat, sat_probes),
    ]
    for oracle, probes in cases:
        picked = [probes[i] for i in rng.integers(0, len(probes), size=min(100, len(probes)))]
        probe_utils = np.array(
            [[oracle.utility_of(a, w) for a in picked] for w in range(2)]
        )
        beliefs = rng.dirichlet(np.ones(2), size=1000)
        probe_best = (beliefs @ probe_utils).max(axis=1)
        for b, cap in zip(beliefs, probe_best):
            ans, best = oracle.respond(b)
            assert cap <= best + 1e-9
            direct = sum(b[w] * oracle.utility_of(ans, w) for w in range(2))
            assert direct == pytest.approx(best, abs=1e-9)


# --- CNF and the satisfiability market -----------------------------------------

def test_parse_dimacs_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3
    assert cnf.clauses == [[1, -2], [2, 3]]
    assert parse_dimacs(format_dimacs(cnf)).clauses == cnf.clauses


def test_satisfied_counts_lexicographic_encoding():
    cnf = CNF(2, [[1], [2]])
    # ids 0..3 are (F,F),(F,T),(T,F),(T,T) over (x1,x2)
    np.testing.assert_array_equal(satisfied_counts(cnf, np.arange(4)), [0, 1, 1, 2])


def test_max_satisfiable():
    assert max_satisfiable(CNF(1, [[1], [-1]])) == 1
    assert max_satisfiable(CNF(2, [[1, 2], [-1], [-2]])) == 2


def test_sat_reduction_structure():
    cnf = CNF(2, [[1, 2]])
    inst = build_sat_reduction(cnf)
    assert inst.formulas[0].clauses == [[1, 2, 3], [1, 3], [-1, 3]]
    assert inst.formulas[1].clauses == [[1, 2, -3], [1, -3], [-1, -3]]
    assert all(len(f.clauses) == len(cnf.clauses) + 2 for f in inst.formulas)
    np.testing.assert_allclose(inst.type_prior, [0.5, 0.5])


def test_sat_respond_uniform_belief_formula():
    # Contradictory base formula: m = 2 clauses, k = 1 by exhaustion.
    cnf = CNF(1, [[1], [-1]])
    m = len(cnf.clauses)
    k = max_satisfiable(cnf)
    assert k == 1
    oracle = SATOracle(build_sat_reduction(cnf))
    _, u = oracle.respond([0.5, 0.5])
    assert u == pytest.approx((m + k + 3) / (2 * m + 4))


def test_sat_respond_degenerate_state_belief():
    oracle = SATOracle(build_sat_reduction(CNF(1, [[1], [-1]])))
    _, u = oracle.respond([1.0, 0.0])
    assert u == pytest.approx(1.0)


def test_sat_single_clause_both_states():
    cnf = CNF(1, [[1]])
    inst = IPSATInstance([cnf, cnf])
    oracle = SATOracle(inst)
    a, u = oracle.respond([0.4, 0.6])
    assert a == 1 and u == pytest.approx(1.0)   # x1 = True satisfies everything


@pytest.mark.parametrize(
    "prior",
    [[np.nan, 0.5], [np.inf, 0.0], [1.5, -0.5], [0.5, 0.6], [0.5, 0.5 + 1e-6], [1.0],
     [0.5, 0.25, 0.25]],
)
def test_sat_rejects_bad_type_prior(prior):
    cnf = CNF(1, [[1]])
    with pytest.raises(InvalidInstance):
        IPSATInstance([cnf, cnf], np.array(prior))


def test_sat_type_prior_within_tolerance_is_kept():
    cnf = CNF(1, [[1]])
    inst = IPSATInstance([cnf, cnf], [0.25, 0.75 + 1e-12])
    np.testing.assert_array_equal(inst.type_prior, [0.25, 0.75 + 1e-12])


def test_sat_cap_raises():
    cnf = CNF(30, [[1, 2, 3]])
    with pytest.raises(TooLarge):
        SATOracle(IPSATInstance([cnf, cnf]))


def test_sat_value_is_max_of_linear_functions():
    # On a 2-state grid, the answer must equal the upper envelope of the
    # returned actions' linear utilities.
    oracle = SATOracle(build_sat_reduction(CNF(2, [[1, 2], [-1, 2], [-2, 1]])))
    grid = np.linspace(0.0, 1.0, 41)
    actions = {}
    for p in grid:
        a, u = oracle.respond([p, 1.0 - p])
        actions[a] = (oracle.utility_of(a, 0), oracle.utility_of(a, 1))
    for p in grid:
        _, u = oracle.respond([p, 1.0 - p])
        envelope = max(p * u0 + (1 - p) * u1 for u0, u1 in actions.values())
        assert u == pytest.approx(envelope, abs=1e-12)


def test_enumerate_environment_matches_utilities():
    inst = build_sat_reduction(CNF(2, [[1, 2]]))
    env = enumerate_environment(inst)
    oracle = SATOracle(inst)
    for a in range(8):
        for w in range(2):
            assert env.utility["t0"][w, a] == pytest.approx(oracle.utility_of(a, w))
    with pytest.raises(TooLarge):
        enumerate_environment(build_sat_reduction(CNF(14, [[1]])))


def test_query_count_increments():
    oracle = MatrixOracle(np.eye(2))
    assert oracle.query_count == 0
    oracle.respond([0.5, 0.5])
    oracle.respond_many(np.array([[0.2, 0.8], [0.9, 0.1]]))
    assert oracle.query_count == 3


def test_traffic_rejects_non_binary_state_belief():
    with pytest.raises(InvalidInstance):
        two_edge_oracle().respond([0.5, 0.3, 0.2])


def test_oracles_reject_non_finite_beliefs():
    oracle = MatrixOracle(np.eye(2))
    with pytest.raises(InvalidInstance):
        oracle.respond([np.nan, 0.5])
    with pytest.raises(InvalidInstance):
        oracle.respond_many(np.array([[0.5, 0.5], [np.inf, 0.0]]))
    with pytest.raises(InvalidInstance):
        two_edge_oracle().respond_many(np.array([[np.nan, 0.5]]))
    assert oracle.query_count == 0
    with pytest.raises(InvalidInstance):
        MatrixOracle(np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize("bad", [[-0.5, 1.5], [0.5, 0.6], [0.3, 0.7 - 1e-8]])
def test_oracles_reject_beliefs_off_the_simplex(bad):
    sat = SATOracle(build_sat_reduction(CNF(1, [[1], [-1]])))
    for oracle in (MatrixOracle(np.eye(2)), two_edge_oracle(), sat):
        with pytest.raises(InvalidInstance):
            oracle.respond(bad)
        with pytest.raises(InvalidInstance):
            oracle.respond_many(np.array([[0.5, 0.5], bad]))
        assert oracle.query_count == 0
        oracle.respond([0.3, 0.7 - 1e-10])                  # within PROB_TOL
        oracle.respond([1.0 + 1e-10, -1e-10])


def test_market_value_accepts_experiment_dust():
    # Entries down to -PROB_TOL are valid experiment dust; a low-mass signal's
    # posterior must not magnify them into a rejected belief.
    ex = Experiment(np.array([[1.0 + 5e-10, -5e-10], [0.999, 0.001]]))
    types = [BuyerType("t0", np.array([0.5, 0.5]))]
    market = OracleMarket(MatrixOracle(np.eye(2)), types, {"t0": 1.0})
    assert market.value("t0", ex) == pytest.approx(0.5005, abs=1e-9)


def test_market_rejects_duplicate_type_ids():
    # Two types of one id would share one probability and one menu assignment.
    types = [BuyerType("t0", np.array([0.9, 0.1])), BuyerType("t0", np.array([0.1, 0.9]))]
    with pytest.raises(InvalidInstance, match="duplicate type ids"):
        OracleMarket(MatrixOracle(np.eye(2)), types, {"t0": 0.5})


def test_market_rejects_nan_type_probabilities():
    # A NaN probability would reach the menu LP's objective, where HiGHS never stops.
    types = [BuyerType("t0", np.array([0.9, 0.1])), BuyerType("t1", np.array([0.2, 0.8]))]
    with pytest.raises(InvalidInstance, match="type probabilities"):
        OracleMarket(MatrixOracle(np.eye(2)), types, {"t0": float("nan"), "t1": 1.0})


def test_sat_utility_of_cached_and_uncached_agree():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n_vars = int(rng.integers(2, 7))
        def clause():
            chosen = rng.choice(n_vars, size=int(rng.integers(1, 4)), replace=False) + 1
            return [int(v) * (1 if rng.random() < 0.5 else -1) for v in chosen]

        formulas = [CNF(n_vars, [clause() for _ in range(int(rng.integers(1, 8)))])
                    for _ in range(int(rng.integers(1, 4)))]
        cached = SATOracle(IPSATInstance(formulas))
        uncached = SATOracle(IPSATInstance(formulas))
        uncached._cache = None                  # the streaming path, as above 2^20 assignments
        assert cached._cache is not None
        for a in range(1 << n_vars):
            for w in range(len(formulas)):
                got = cached.utility_of(a, w)
                assert type(got) is float
                assert got == uncached.utility_of(a, w)


def test_market_value_is_memoized_by_matrix_contents():
    types = [BuyerType("t0", np.array([0.5, 0.5])), BuyerType("t1", np.array([0.9, 0.1]))]
    oracle = MatrixOracle(np.eye(2))
    market = OracleMarket(oracle, types, {"t0": 0.5, "t1": 0.5})
    ex = Experiment(np.eye(2))
    first = market.value("t0", ex)
    queries = oracle.query_count
    assert market.value("t0", Experiment(np.eye(2))) == first      # an equal matrix hits
    assert oracle.query_count == queries
    market.value("t1", ex)                                          # another type misses
    assert oracle.query_count == queries + 2
    ex.matrix[:] = 0.5                                              # a mutated matrix misses
    fresh = MatrixOracle(np.eye(2))
    assert market.value("t0", ex) == oracle_value(fresh, types[0].prior, ex.matrix)
    assert market.value("t0", ex) == pytest.approx(0.5)
    assert oracle.query_count == queries + 2 + 2
