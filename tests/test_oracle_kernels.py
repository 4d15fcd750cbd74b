"""The batched oracle kernels against their references.

``TrafficOracle`` answers a batch of beliefs with one Bellman-Ford sweep and
must return the heap Dijkstra's paths and utilities bit for bit;
``satisfied_table`` builds the satisfied-clause counts subcube by subcube and
must equal ``satisfied_counts``.  Every oracle answers ``respond`` as a batch of
one through its one kernel, and a belief's answer does not depend on the
batch it rides in.  The pins at the end hold ``solve_implicit`` and
``infomenu solve-implicit`` to their outputs before the kernels.
"""

import argparse
import contextlib
import io
import json
import sys
import threading

import numpy as np
import pytest

import dijkstra
from infomenu.cli import EXIT_OK, cmd_gen_traffic, dispatch
from infomenu.errors import NoPath
from infomenu.implicit import solve_implicit
from infomenu.market import BuyerType
from infomenu.oracles import (
    CNF,
    IPSATInstance,
    MatrixOracle,
    SATOracle,
    TrafficInstance,
    TrafficOracle,
    build_sat_reduction,
    enumerate_environment,
    max_satisfiable,
    parse_dimacs,
    parse_traffic,
    satisfied_counts,
    satisfied_table,
)


def gen_traffic(nodes: int, edges: int, seed: int) -> TrafficInstance:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cmd_gen_traffic(argparse.Namespace(nodes=nodes, edges=edges, seed=seed, out=None))
    return parse_traffic(buf.getvalue())


def random_digraph(rng, n: int, m: int, zero_cycles: bool = False) -> TrafficInstance:
    """Cycles, self-loops, parallel edges and zero times, with a planted
    source-sink path; times from a small set so that many paths tie.

    Unless ``zero_cycles``, only edges u -> v with u < v may take zero time,
    so every cycle costs time under every belief: the greedy walk of the
    reference cannot follow a zero-time cycle, on which it raises NoPath.
    """
    edges = []
    walk = [0] + rng.permutation(np.arange(1, n)).tolist()
    walk = walk[:walk.index(n - 1) + 1]
    for u, v in zip(walk, walk[1:]):
        edges.append((u, v))
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        edges.append((u, v))
        if rng.random() < 0.2:
            edges.append((u, v))                       # parallel edge
    edges = [edges[i] for i in rng.permutation(len(edges))]
    times = rng.choice([0.0, 0.5, 1.0, 2.0, 3.25], size=(len(edges), 2))
    if not zero_cycles:
        times[[u >= v for u, v in edges]] += 0.25
    full = [(u, v, float(t0), float(t1)) for (u, v), (t0, t1) in zip(edges, times)]
    horizon = float(times.max(axis=1).sum()) + 1.0
    return TrafficInstance(n, full, 0, n - 1, horizon)


def traffic_beliefs(rng, count: int = 200, steps: int = 20) -> np.ndarray:
    lattice = np.arange(steps + 1) / steps
    grid = np.column_stack([lattice, (steps - np.arange(steps + 1)) / steps])
    return np.vstack([grid, rng.dirichlet(np.ones(2), size=count - len(grid))])


def traffic_networks():
    rng = np.random.default_rng(2024)
    nets = [gen_traffic(30, 90, 11), gen_traffic(60, 180, 12)]
    nets += [random_digraph(rng, int(n), int(m))
             for n, m in [(2, 4), (3, 9), (6, 20), (9, 30), (12, 48), (20, 60)]]
    return nets


@pytest.mark.parametrize("inst", traffic_networks())
def test_traffic_sweep_matches_dijkstra_bitwise(inst):
    beliefs = traffic_beliefs(np.random.default_rng(inst.n_vertices))
    ref_paths, ref_utils = zip(*(dijkstra.respond(inst, b) for b in beliefs))
    oracle = TrafficOracle(inst)
    paths, utils = oracle.respond_many(beliefs)
    assert paths == list(ref_paths)
    assert utils.tobytes() == np.array(ref_utils).tobytes()
    for b, p, u in zip(beliefs[::25], ref_paths[::25], ref_utils[::25]):
        assert oracle.respond(b) == (p, u)
    assert oracle.query_count == len(beliefs) + len(beliefs[::25])


def test_traffic_walk_is_the_greedy_walk_wherever_that_reaches_the_sink():
    """On digraphs with zero-time cycles the greedy walk of the old
    reconstruction may cycle; the depth-first search then still returns a
    simple optimal path, and elsewhere the greedy walk's path."""
    rng = np.random.default_rng(31)
    agreed = recovered = 0
    for n, m in [(2, 4), (3, 9), (5, 16), (8, 30), (12, 48)] * 6:
        inst = random_digraph(rng, n, m, zero_cycles=True)
        beliefs = traffic_beliefs(rng, count=30, steps=4)
        paths, utils = TrafficOracle(inst).respond_many(beliefs)
        for belief, path, utility in zip(beliefs, paths, utils):
            weights = inst.times @ belief
            dist_s = dijkstra.dijkstra(inst, weights, inst.source, True)
            dist_t = dijkstra.dijkstra(inst, weights, inst.sink, False)
            try:
                assert path == dijkstra.greedy_walk(inst, dist_s, weights, dist_t)
                agreed += 1
                continue
            except NoPath:
                recovered += 1
            heads = [inst.edges[e][1] for e in path]
            assert [inst.edges[e][0] for e in path] == [inst.source] + heads[:-1]
            assert heads[-1] == inst.sink and len(set(heads)) == len(heads)
            assert inst.source not in heads
            assert sum(weights[list(path)]) == pytest.approx(dist_s[inst.sink], abs=1e-9)
            assert utility == (inst.horizon - dist_s[inst.sink]) / inst.horizon
    assert agreed > 100 and recovered > 0


def test_traffic_walk_leaves_a_zero_time_self_loop():
    # The self-loop 0 -> 0 is edge 0, on a shortest path under every belief.
    inst = parse_traffic("0 1 10\n0 0 0 0\n0 1 1 1\n")
    weights = inst.times @ np.array([0.5, 0.5])
    dist_s = dijkstra.dijkstra(inst, weights, 0, True)
    with pytest.raises(NoPath):
        dijkstra.greedy_walk(inst, dist_s, weights, dijkstra.dijkstra(inst, weights, 1, False))
    assert TrafficOracle(inst).respond([0.5, 0.5]) == ((1,), 0.9)


def test_traffic_unreachable_sink_raises_no_path():
    inst = TrafficInstance(4, [(0, 1, 1.0, 2.0), (1, 0, 0.0, 0.0), (3, 2, 1.0, 1.0)], 0, 3, 10.0)
    with pytest.raises(NoPath):
        dijkstra.respond(inst, [0.5, 0.5])
    oracle = TrafficOracle(inst)
    with pytest.raises(NoPath):
        oracle.respond([0.5, 0.5])
    with pytest.raises(NoPath):
        oracle.respond_many(np.array([[1.0, 0.0], [0.25, 0.75]]))
    with pytest.raises(NoPath):
        TrafficOracle(TrafficInstance(2, [], 0, 1, 1.0)).respond([0.5, 0.5])


def test_traffic_source_is_sink():
    inst = TrafficInstance(2, [(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)], 0, 0, 2.0)
    assert TrafficOracle(inst).respond([0.5, 0.5]) == ((), 1.0)


# --- satisfiability ---------------------------------------------------------------

def random_cnf(rng, n: int) -> CNF:
    """Literals drawn with replacement, so clauses repeat literals and some
    hold a variable both ways (tautologies)."""
    clauses = []
    for _ in range(int(rng.integers(1, 3 * n + 3))):
        width = int(rng.integers(1, 5))
        clauses.append([int(v) * int(s) for v, s in
                        zip(rng.integers(1, n + 1, size=width), rng.choice([-1, 1], size=width))])
    return CNF(n, clauses)


def test_satisfied_table_matches_counts():
    rng = np.random.default_rng(5)
    cnfs = [CNF(1, [[1], [-1], [1, -1], [1, 1]]), CNF(3, [[2, -2, 3], [-3, -3], [1, 2, 3]])]
    cnfs += [random_cnf(rng, n) for n in list(range(1, 11)) * 3]
    for cnf in cnfs:
        ids = np.arange(1 << cnf.num_vars)
        table = satisfied_table(cnf)
        assert table.dtype == np.int32
        np.testing.assert_array_equal(table, satisfied_counts(cnf, ids))


def test_satisfied_table_of_a_chunk_fixes_the_high_variables():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        cnf = random_cnf(rng, n)
        for free in range(n + 1):
            for prefix in range(1 << (n - free)):
                ids = np.arange(prefix << free, (prefix + 1) << free)
                np.testing.assert_array_equal(
                    satisfied_table(cnf, free, prefix), satisfied_counts(cnf, ids))


def test_verification_oracles_match_the_counts_reference():
    # enumerate_environment and max_satisfiable count by subcube; their
    # utilities, actions and optimum equal those of satisfied_counts.
    rng = np.random.default_rng(8)
    for n in list(range(1, 9)) * 2:
        formulas = [random_cnf(rng, n) for _ in range(int(rng.integers(1, 4)))]
        formulas[0].clauses.append([1, -1, 1])        # a tautology with a repeated literal
        env = enumerate_environment(IPSATInstance(formulas))
        ids = np.arange(1 << n)
        reference = np.stack([satisfied_counts(f, ids) / len(f.clauses) for f in formulas])
        assert env.actions == [int(a) for a in ids]
        assert np.ascontiguousarray(env.utility["t0"]).tobytes() == reference.tobytes()
        for f in formulas:
            assert max_satisfiable(f) == int(satisfied_counts(f, ids).max())


def test_streamed_sat_oracle_on_21_variables():
    # Past 2^20 assignments the oracle streams two chunks that fix variable 1.
    n = 21
    formulas = [
        CNF(n, [[1], [-1, 2], [-1, -21, 20], [5, -7, 1], [-2, -2], [3, -3, 9]]),
        CNF(n, [[-1, 21], [1, -20], [4, 6, -8], [-4], [19, 1, 1]]),
    ]
    oracle = SATOracle(IPSATInstance(formulas))
    assert oracle._cache is None
    ids = np.arange(1 << n)
    counts = [satisfied_counts(f, ids) for f in formulas]
    for f, c in zip(formulas, counts):
        for prefix in range(2):
            np.testing.assert_array_equal(satisfied_table(f, 20, prefix),
                                          c[prefix << 20:(prefix + 1) << 20])
    for belief in ([0.3, 0.7], [1.0, 0.0], [0.5, 0.5]):
        scores = sum(b * (c / len(f.clauses)) for b, c, f in zip(belief, counts, formulas))
        a = int(np.argmax(scores))
        got_a, got_u = oracle.respond(belief)
        assert got_u == scores[a]
        assert scores[got_a] == scores[a]


def test_sat_oracle_shared_across_threads():
    # Each thread scores in its own buffers; shared ones would mix answers.
    rng = np.random.default_rng(8)
    oracle = SATOracle(IPSATInstance([random_cnf(rng, 12) for _ in range(3)]))
    beliefs = rng.dirichlet(np.ones(3), size=24)
    expected = [SATOracle(oracle.instance).respond(b) for b in beliefs]
    got: dict[int, list] = {}

    def work(t: int) -> None:
        got[t] = [oracle.respond(b) for b in beliefs[t % 4::4]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in range(8):
        assert got[t] == expected[t % 4::4]
    assert oracle.query_count == 8 * 6


# --- one kernel: an answer depends on the belief alone ------------------------------

def mixed_beliefs(rng, n: int, count: int) -> np.ndarray:
    """Dirichlet beliefs, then beliefs with denominators up to 12, where
    payoffs tie more often."""
    counts = rng.integers(0, 4, size=(count // 2, n))
    counts[counts.sum(axis=1) == 0, 0] = 1
    rational = counts / counts.sum(axis=1, keepdims=True)
    return np.vstack([rng.dirichlet(np.ones(n), size=count - len(rational)), rational])


def assert_batch_free(oracle, beliefs: np.ndarray, rng) -> None:
    """Each belief's answer from ``respond``, from a batch of one, and at
    random positions of batches of 1 to 64 beliefs is the same, bit for bit."""
    alone = [oracle.respond(b) for b in beliefs]
    actions = [a for a, _ in alone]
    utils = np.array([u for _, u in alone])
    for r, b in enumerate(beliefs):
        one_actions, one_utils = oracle.respond_many(b[None])
        assert one_actions == [actions[r]]
        assert one_utils.tobytes() == utils[r:r + 1].tobytes()
    for size in rng.integers(1, 65, size=6):
        pick = rng.integers(len(beliefs), size=size)
        batch_actions, batch_utils = oracle.respond_many(beliefs[pick])
        assert batch_actions == [actions[i] for i in pick]
        assert batch_utils.tobytes() == utils[pick].tobytes()


def test_matrix_tie_goes_to_the_lowest_column_in_any_batch():
    # Columns 2, 3 and 4 are equal; a BLAS product scored them apart by a
    # last bit that depended on the batch.
    u = np.array([[3, 3, 2, 2, 2, 2, 1], [2, 2, 3, 3, 3, 1, 1]]) / 3
    b = np.array([0.14063007995567436, 0.8593699200443257])
    oracle = MatrixOracle(u)
    assert oracle.respond(b)[0] == 2
    assert oracle.respond_many(b[None])[0] == [2]
    assert oracle.respond_many(np.array([b, b]))[0] == [2, 2]
    assert oracle.respond_many(np.array([[0.5, 0.5], b]))[0] == [0, 2]


def test_matrix_answers_do_not_depend_on_the_batch():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        oracle = MatrixOracle(rng.integers(0, 4, size=(n, m)) / 3)
        assert_batch_free(oracle, mixed_beliefs(rng, n, 20), rng)


def test_traffic_answers_do_not_depend_on_the_batch():
    rng = np.random.default_rng(42)
    for inst in traffic_networks():
        assert_batch_free(TrafficOracle(inst), traffic_beliefs(rng, count=40, steps=8), rng)


def test_sat_answers_do_not_depend_on_the_batch():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n, states = int(rng.integers(1, 7)), int(rng.integers(2, 4))
        oracle = SATOracle(IPSATInstance([random_cnf(rng, n) for _ in range(states)]))
        assert_batch_free(oracle, mixed_beliefs(rng, states, 20), rng)


# --- pinned solve-implicit outputs ------------------------------------------------

TYPES = {"types": [{"id": "t0", "prior": [0.5, 0.5], "prob": 0.4},
                   {"id": "t1", "prior": [0.8, 0.2], "prob": 0.35},
                   {"id": "t2", "prior": [0.3, 0.7], "prob": 0.25}]}
PIN_CNF = ("p cnf 8 14\n1 -2 0\n2 3 -4 0\n-1 4 0\n5 -6 0\n-3 -5 0\n6 1 0\n-2 -6 0\n"
           "4 5 0\n-1 -4 3 0\n7 -8 0\n-7 0\n8 2 2 0\n3 -3 0\n-5 -8 -1 0\n")
TRAFFIC_STDOUT = (
    '{"action_set_sizes":{"t0":5,"t1":5,"t2":5},"audit":{"choices":{"t0":{"entry":0,'
    '"net_utility":0.919086007049},"t1":{"entry":1,"net_utility":0.918255319149},"t2":'
    '{"entry":2,"net_utility":0.922224304921}},"max_ic_violation":0.0,'
    '"max_ir_violation":0.0,"revenue":0.00857808216943,"v":1},"grid_delta":0.000602409638554,'
    '"menu":{"assignment":{"t0":0,"t1":1,"t2":2},"entries":[{"matrix":[[0.0,0.0,0.0,0.0,1.0],'
    '[1.0,0.0,0.0,0.0,0.0]],"price":0.0114725035896,"row_mass":1.0},{"matrix":'
    '[[0.0,0.0,0.0,1.0,0.0],[0.520858895705,0.0,0.0,0.479141104295,0.0]],"price":'
    '0.00320272810338,"row_mass":1.0},{"matrix":[[0.0,0.0,0.0,0.0,1.0],'
    '[1.0,0.0,0.0,0.0,0.0]],"price":0.0114725035896,"row_mass":1.0}],"v":1},'
    '"oracle_queries":139,"revenue":0.00857808216943,"separation_rounds":4,"v":1}\n'
)
SAT_STDOUT = (
    '{"action_set_sizes":{"t0":4},"audit":{"choices":{"t0":{"entry":0,"net_utility":0.96875}},'
    '"max_ic_violation":0.0,"max_ir_violation":0.0,"revenue":0.03125,"v":1},"grid_delta":'
    '0.00232558139535,"menu":{"assignment":{"t0":0},"entries":[{"matrix":[[0.0,0.0,1.0,0.0],'
    '[0.0,1.0,0.0,0.0]],"price":0.03125,"row_mass":1.0}],"v":1},"oracle_queries":30,'
    '"revenue":0.03125,"separation_rounds":1,"v":1}\n'
)
TRAFFIC_ACTIONS = [(0, 1, 31, 22), (32, 36, 26), (32, 36, 55), (32, 36, 53), (43, 41, 36, 53)]


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def test_pinned_traffic_solve_implicit(tmp_path):
    graph, types = tmp_path / "g.txt", tmp_path / "types.json"
    types.write_text(json.dumps(TYPES))
    code, text = run_cli(["--seed", "4", "gen-traffic", "--nodes", "24", "--edges", "72",
                          "--out", str(graph)])
    assert code == EXIT_OK
    code, out = run_cli(["solve-implicit", "--oracle", "traffic", "--graph", str(graph),
                         "--instance", str(types), "--epsilon", "0.05"])
    assert (code, out) == (EXIT_OK, TRAFFIC_STDOUT)
    oracle = TrafficOracle(parse_traffic(text))
    tys = [BuyerType(t["id"], np.array(t["prior"])) for t in TYPES["types"]]
    result = solve_implicit(oracle, tys, {t["id"]: t["prob"] for t in TYPES["types"]}, 0.05)
    assert result.action_sets.actions == {t.id: TRAFFIC_ACTIONS for t in tys}
    assert oracle.query_count == 139
    assert repr(float(result.revenue)) == "0.00857808216942917"


def test_pinned_sat_solve_implicit(tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(PIN_CNF)
    code, out = run_cli(["solve-implicit", "--oracle", "sat", "--cnf", str(cnf),
                         "--epsilon", "0.1"])
    assert (code, out) == (EXIT_OK, SAT_STDOUT)
    oracle = SATOracle(build_sat_reduction(parse_dimacs(PIN_CNF)))
    result = solve_implicit(oracle, [BuyerType("t0", np.array([0.5, 0.5]))], {"t0": 1.0}, 0.1)
    assert result.action_sets.actions == {"t0": [0, 480, 481, 1]}
    assert oracle.query_count == 30
    assert repr(float(result.revenue)) == "0.03125"
