"""Best-response oracles: black boxes mapping beliefs to optimal actions.

An oracle answers two questions: "given this belief over states, which action
maximizes expected payoff, and what is that payoff?" and "what does a given
action pay in a given state?".  Action ids are opaque tokens (ints, edge
tuples, assignment bitmasks) so callers never need the global action count.

Three implementations: an explicit utility matrix, a two-state traffic
network answered by shortest paths under expected edge times, and satisfied-
clause maximization over CNF formulas answered by bounded brute force.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInstance, NoPath, TooLarge
from .market import PROB_TOL, BuyerType, Environment, _as_prob_vector

SAT_BRUTE_FORCE_VARS = 24
_STREAM_VARS = 20          # cache per-state utility vectors up to this many vars


def _as_beliefs(beliefs) -> np.ndarray:
    """Beliefs as floats, each (along the last axis) a probability vector
    within ``PROB_TOL``, as ``market._as_prob_vector`` requires."""
    arr = np.asarray(beliefs, dtype=float)
    # One test on the fast path; NaN fails either comparison.
    if arr.size and not (arr.min() >= -PROB_TOL
                         and np.abs(arr.sum(axis=-1) - 1.0).max() <= PROB_TOL):
        if not np.isfinite(arr).all():
            raise InvalidInstance("beliefs must be finite")
        if np.any(arr < -PROB_TOL):
            raise InvalidInstance("beliefs have negative entries")
        raise InvalidInstance("beliefs must sum to 1")
    return arr


class BROracle:
    """Base class handling belief checks and the query counter; subclasses
    implement _respond and utility_of, and may batch _respond_many.  The
    counter update is lock-protected so oracles can be shared across
    threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._queries = 0

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._queries

    def _count(self, k: int = 1) -> None:
        with self._lock:
            self._queries += k

    def respond(self, belief) -> tuple[object, float]:
        belief = _as_beliefs(belief)
        self._count()
        return self._respond(belief)

    def respond_many(self, beliefs: np.ndarray) -> tuple[list[object], np.ndarray]:
        """Batched respond; equivalent to a loop but lets subclasses vectorize."""
        beliefs = _as_beliefs(beliefs)
        self._count(len(beliefs))
        return self._respond_many(beliefs)

    def _respond_many(self, beliefs: np.ndarray) -> tuple[list[object], np.ndarray]:
        actions, utilities = [], np.empty(len(beliefs))
        for r, b in enumerate(beliefs):
            a, u = self._respond(b)
            actions.append(a)
            utilities[r] = u
        return actions, utilities

    def _respond(self, belief: np.ndarray) -> tuple[object, float]:
        raise NotImplementedError

    def utility_of(self, action_id, state: int) -> float:
        raise NotImplementedError


class MatrixOracle(BROracle):
    """Oracle over an explicit (states x actions) utility matrix; action ids
    are column indices, ties go to the lowest index."""

    def __init__(self, utility: np.ndarray):
        super().__init__()
        u = np.asarray(utility, dtype=float)
        if u.ndim != 2:
            raise InvalidInstance("utility matrix must be 2-d")
        if not np.isfinite(u).all() or np.any(u < 0) or np.any(u > 1):
            raise InvalidInstance("utilities must lie in [0, 1]")
        self.utility = u

    def _respond(self, belief: np.ndarray) -> tuple[int, float]:
        scores = belief @ self.utility
        a = int(np.argmax(scores))
        return a, float(scores[a])

    def _respond_many(self, beliefs: np.ndarray) -> tuple[list[int], np.ndarray]:
        scores = beliefs @ self.utility
        actions = np.argmax(scores, axis=1)
        return [int(a) for a in actions], scores[np.arange(len(beliefs)), actions]

    def utility_of(self, action_id: int, state: int) -> float:
        return float(self.utility[state, action_id])


@dataclass(eq=False)
class TrafficInstance:
    """Directed network with per-edge travel times under two states.

    Payoffs are (H - travel time) / H so they land in [0, 1]; H must cover
    the slowest path a best response could ever use.
    """

    n_vertices: int
    edges: list[tuple[int, int, float, float]]   # (u, v, time_state0, time_state1)
    source: int
    sink: int
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidInstance("horizon H must be positive and finite")
        for u, v, t0, t1 in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InvalidInstance("edge endpoint out of range")
            if not (np.isfinite([t0, t1]).all() and t0 >= 0 and t1 >= 0):
                raise InvalidInstance("travel times must be nonnegative and finite")

    @property
    def times(self) -> np.ndarray:
        return np.array([[t0, t1] for _, _, t0, t1 in self.edges]).reshape(len(self.edges), 2)


def parse_traffic(text: str) -> TrafficInstance:
    """Parse the edge-list format: first data line ``source sink H``, then
    one ``u v time_state0 time_state1`` line per edge.  '#' starts a comment."""
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InvalidInstance("empty traffic file")
    head = lines[0].split()
    if len(head) != 3:
        raise InvalidInstance("first line must be: source sink H")
    source, sink, horizon = int(head[0]), int(head[1]), float(head[2])
    edges = []
    hi = max(source, sink)
    for ln in lines[1:]:
        p = ln.split()
        if len(p) != 4:
            raise InvalidInstance(f"bad edge line {ln!r}")
        u, v, t0, t1 = int(p[0]), int(p[1]), float(p[2]), float(p[3])
        edges.append((u, v, t0, t1))
        hi = max(hi, u, v)
    return TrafficInstance(hi + 1, edges, source, sink, horizon)


def format_traffic(inst: TrafficInstance) -> str:
    lines = [f"{inst.source} {inst.sink} {inst.horizon!r}"]
    for u, v, t0, t1 in inst.edges:
        lines.append(f"{u} {v} {t0!r} {t1!r}")
    return "\n".join(lines) + "\n"


class TrafficOracle(BROracle):
    """Shortest-path best responses: expected congestion becomes the edge
    length.  Action ids are tuples of edge indices; among minimum-time paths
    the lexicographically smallest edge sequence is returned.

    A batch of beliefs is answered by one Jacobi Bellman-Ford sweep over an
    (edges x beliefs) weight array, on the network (vertices 0..n-1, from the
    source) beside its reverse (vertices n..2n-1, from the sink).  Weights are
    nonnegative, so float addition is monotone and each distance is the least
    left-to-right float sum over walks, the same bits a Dijkstra returns.
    """

    def __init__(self, instance: TrafficInstance):
        super().__init__()
        self.instance = instance
        n = instance.n_vertices
        self._out: list[list[int]] = [[] for _ in range(n)]
        for e, (u, _, _, _) in enumerate(instance.edges):
            self._out[u].append(e)
        self._times = instance.times
        tails = np.array([u for u, _, _, _ in instance.edges], dtype=np.intp)
        heads = np.array([v for _, v, _, _ in instance.edges], dtype=np.intp)
        # Both copies' arcs sorted by head, so np.minimum.reduceat takes each
        # head's best arrival over one contiguous run.
        arc_tails = np.concatenate([tails, heads + n])
        arc_heads = np.concatenate([heads, tails + n])
        order = np.argsort(arc_heads, kind="stable")
        self._arc_edge = np.tile(np.arange(len(instance.edges)), 2)[order]
        self._arc_tail = arc_tails[order]
        sorted_heads = arc_heads[order]
        self._run_start = np.flatnonzero(np.diff(sorted_heads, prepend=-1))
        self._run_head = sorted_heads[self._run_start]

    def _distances(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(vertices x beliefs) distances from the source and to the sink,
        relaxing every arc per round until none improves."""
        inst = self.instance
        n = inst.n_vertices
        dist = np.full((2 * n, weights.shape[1]), np.inf)
        dist[inst.source] = 0.0
        dist[n + inst.sink] = 0.0
        w = weights[self._arc_edge]
        for _ in range(n):   # a simple path has < n edges; the last round only confirms
            reached = np.minimum.reduceat(dist[self._arc_tail] + w, self._run_start, axis=0)
            current = dist[self._run_head]
            if not (reached < current).any():
                return dist[:n], dist[n:]
            dist[self._run_head] = np.minimum(current, reached)
        raise InvalidInstance("shortest-path sweep did not settle within n_vertices rounds")

    def _respond(self, belief: np.ndarray) -> tuple[tuple[int, ...], float]:
        (path,), (utility,) = self._respond_many(belief[None, :])
        return path, float(utility)

    def _respond_many(self, beliefs: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
        if beliefs.shape[1] != 2:
            raise InvalidInstance("traffic oracle supports exactly two states")
        inst = self.instance
        weights = np.empty((len(inst.edges), len(beliefs)))
        for r, b in enumerate(beliefs):
            weights[:, r] = self._times @ b
        dist_s, dist_t = self._distances(weights)
        if not np.isfinite(dist_s[inst.sink]).all():
            raise NoPath("no source-sink path")
        paths, utilities = [], []
        for ds, w, dt in zip(dist_s.T.tolist(), weights.T.tolist(), dist_t.T.tolist()):
            paths.append(self._walk(ds, w, dt))
            utility = (inst.horizon - ds[inst.sink]) / inst.horizon
            if utility < -1e-12:
                raise InvalidInstance("horizon H smaller than an optimal path time")
            utilities.append(utility)
        return paths, np.array(utilities)

    def _walk(self, dist_s: list, weights: list, dist_t: list) -> tuple[int, ...]:
        """Depth-first search from the source over the edges on a shortest
        path, in index order, entering no vertex twice; yields the
        lexicographically least optimal simple path.  Where always taking
        the first such edge reaches the sink, that is the path returned."""
        inst = self.instance
        total = dist_s[inst.sink]
        tol = 1e-9 * max(1.0, total)
        path: list[int] = []
        pending = [iter(self._out[inst.source])]     # untried out-edges per path vertex
        visited = {inst.source}
        u = inst.source
        while u != inst.sink:
            for e in pending[-1]:
                v = inst.edges[e][1]
                if v not in visited and abs(dist_s[u] + weights[e] + dist_t[v] - total) <= tol:
                    visited.add(v)
                    path.append(e)
                    pending.append(iter(self._out[v]))
                    u = v
                    break
            else:
                pending.pop()
                if not path:
                    raise NoPath("shortest-path reconstruction stuck")
                path.pop()
                u = inst.edges[path[-1]][1] if path else inst.source
        return tuple(path)

    def utility_of(self, action_id: tuple[int, ...], state: int) -> float:
        t = float(sum(self.instance.edges[e][2 + state] for e in action_id))
        return (self.instance.horizon - t) / self.instance.horizon


@dataclass
class CNF:
    """A boolean formula in conjunctive normal form over variables 1..n;
    clauses are lists of nonzero signed ints (DIMACS literal convention)."""

    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        for cl in self.clauses:
            if not cl:
                raise InvalidInstance("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InvalidInstance(f"literal {lit} out of range")


def parse_dimacs(text: str) -> CNF:
    num_vars = 0
    clauses: list[list[int]] = []
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("c") or s.startswith("%"):
            continue
        if s.startswith("p"):
            parts = s.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise InvalidInstance("only 'p cnf' headers are supported")
            num_vars = int(parts[2])
            continue
        lits = [int(x) for x in s.split() if x != "0"]
        if lits:
            clauses.append(lits)
            num_vars = max(num_vars, max(abs(l) for l in lits))
    if not clauses:
        raise InvalidInstance("CNF has no clauses")
    return CNF(num_vars, clauses)


def format_dimacs(cnf: CNF) -> str:
    """DIMACS text of ``cnf``, which ``parse_dimacs`` reads back."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def satisfied_counts(cnf: CNF, assignment_ids: np.ndarray) -> np.ndarray:
    """Number of satisfied clauses for each assignment id.

    Assignment ids encode variable j (1-indexed) in bit (num_vars - j), so
    increasing id order is lexicographic order over (x_1, ..., x_n) with
    False < True.
    """
    ids = np.asarray(assignment_ids, dtype=np.int64)
    counts = np.zeros(len(ids), dtype=np.int32)
    for cl in cnf.clauses:
        sat = np.zeros(len(ids), dtype=bool)
        for lit in cl:
            bit = (ids >> (cnf.num_vars - abs(lit))) & 1
            sat |= (bit == 1) if lit > 0 else (bit == 0)
        counts += sat
    return counts


def satisfied_table(cnf: CNF, free_vars: int | None = None, prefix: int = 0) -> np.ndarray:
    """``satisfied_counts`` of the 2^free_vars consecutive assignment ids
    ``prefix << free_vars`` onward: variables 1..n-free_vars are fixed to the
    bits of ``prefix`` and the rest run over every value (all n by default).

    Every count starts at the clause count; each clause not satisfied by the
    fixed bits then loses 1 on the subcube where its free literals are all
    false, one strided in-place update of the table viewed as (2,) * free_vars
    with variable j on axis j - (n - free_vars) - 1.
    """
    n = cnf.num_vars
    free = n if free_vars is None else free_vars
    fixed = n - free
    counts = np.full(1 << free, len(cnf.clauses), dtype=np.int32)
    cube = counts.reshape((2,) * free)
    for cl in cnf.clauses:
        lits = set(cl)
        if any(-lit in lits for lit in lits):
            continue                                  # tautology: always satisfied
        index = [slice(None)] * free
        for lit in lits:
            j = abs(lit)
            if j <= fixed:
                if ((prefix >> (fixed - j)) & 1) == (lit > 0):
                    break                             # a fixed literal satisfies it
            else:
                index[j - fixed - 1] = 0 if lit > 0 else 1
        else:
            cube[tuple(index)] -= 1
    return counts


def max_satisfiable(cnf: CNF, cap: int = _STREAM_VARS) -> int:
    """max_a (#satisfied clauses) by exhaustive enumeration."""
    if cnf.num_vars > cap:
        raise TooLarge(f"CNF has {cnf.num_vars} > {cap} variables")
    return int(satisfied_table(cnf).max())


@dataclass(eq=False)
class IPSATInstance:
    """Per-state CNF formulas over shared variables; actions are assignments
    and the payoff in a state is the satisfied fraction of its formula."""

    formulas: list[CNF]
    type_prior: np.ndarray | None = None   # defaults to uniform over states

    def __post_init__(self):
        if not self.formulas:
            raise InvalidInstance("need at least one per-state formula")
        nv = {f.num_vars for f in self.formulas}
        if len(nv) != 1:
            raise InvalidInstance("formulas must share one variable set")
        self.num_vars = self.formulas[0].num_vars
        if self.type_prior is None:
            self.type_prior = np.full(len(self.formulas), 1.0 / len(self.formulas))
        self.type_prior = _as_prob_vector(self.type_prior, "type prior")
        if len(self.type_prior) != len(self.formulas):
            raise InvalidInstance("type prior length does not match the state count")

    @property
    def n_states(self) -> int:
        return len(self.formulas)


class SATOracle(BROracle):
    """Brute-force satisfied-fraction maximizer.

    Exhaustive over all assignments, capped at 24 variables; beyond the cap
    the query is refused since answering it is exactly the hard regime.
    Per-state utility vectors are cached up to 2^20 assignments and streamed
    in chunks of 2^20 above that, each built by ``satisfied_table``.
    """

    def __init__(self, instance: IPSATInstance):
        super().__init__()
        if instance.num_vars > SAT_BRUTE_FORCE_VARS:
            raise TooLarge(
                f"{instance.num_vars} variables exceed the brute-force cap {SAT_BRUTE_FORCE_VARS}"
            )
        self.instance = instance
        self._cache: list[np.ndarray] | None = None
        self._scratch = threading.local()
        if instance.num_vars <= _STREAM_VARS:
            self._cache = [satisfied_table(f) / len(f.clauses) for f in instance.formulas]

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """This thread's score and term arrays over the cached assignments,
        reused across queries: fresh 2^n temporaries per query cost more in
        page faults than the arithmetic."""
        local = self._scratch
        if not hasattr(local, "scores"):
            size = 1 << self.instance.num_vars
            local.scores, local.term = np.empty(size), np.empty(size)
        return local.scores, local.term

    def _respond(self, belief: np.ndarray) -> tuple[int, float]:
        inst = self.instance
        if len(belief) != inst.n_states:
            raise InvalidInstance("belief length does not match the state count")
        if self._cache is not None:
            scores, term = self._buffers()
            scores.fill(0.0)
            for b, u in zip(belief, self._cache):
                np.multiply(b, u, out=term)
                scores += term
            a = int(np.argmax(scores))
            return a, float(scores[a])
        best_a, best_u = 0, -1.0
        for prefix in range(1 << (inst.num_vars - _STREAM_VARS)):
            lo = prefix << _STREAM_VARS
            scores = np.zeros(1 << _STREAM_VARS)
            for b, f in zip(belief, inst.formulas):
                if b != 0.0:
                    scores += b * (satisfied_table(f, _STREAM_VARS, prefix) / len(f.clauses))
            a = int(np.argmax(scores))
            if scores[a] > best_u + 1e-15:
                best_a, best_u = lo + a, float(scores[a])
        return best_a, best_u

    def utility_of(self, action_id: int, state: int) -> float:
        if self._cache is not None:
            return float(self._cache[state][action_id])
        f = self.instance.formulas[state]
        return float(satisfied_counts(f, np.array([action_id]))[0]) / len(f.clauses)


def build_sat_reduction(cnf: CNF) -> IPSATInstance:
    """The two-state instance tying revenue to maximum satisfiability.

    A fresh switch variable y is appended; state 0 gets every clause with
    (or y) added plus (x1 or y), (not x1 or y); state 1 the same with y
    negated.  Both formulas have m + 2 clauses, and the single buyer type is
    uniform over the two states.
    """
    n = cnf.num_vars
    y = n + 1
    f0 = [cl + [y] for cl in cnf.clauses] + [[1, y], [-1, y]]
    f1 = [cl + [-y] for cl in cnf.clauses] + [[1, -y], [-1, -y]]
    return IPSATInstance(
        formulas=[CNF(y, f0), CNF(y, f1)],
        type_prior=np.array([0.5, 0.5]),
    )


def enumerate_environment(
    instance: IPSATInstance, type_id: str = "t0", max_vars: int = 12
) -> Environment:
    """Materialize an IP-SAT instance as an explicit environment.

    All 2^n assignments become explicit actions; refuse beyond ``max_vars``
    since the action count doubles per variable.
    """
    if instance.num_vars > max_vars:
        raise TooLarge(f"{instance.num_vars} variables exceed enumeration cap {max_vars}")
    utility = np.stack([satisfied_table(f) / len(f.clauses) for f in instance.formulas])
    return Environment.build(
        states=[f"w{w}" for w in range(instance.n_states)],
        actions=list(range(1 << instance.num_vars)),
        utility=utility,
        types=[BuyerType(type_id, np.asarray(instance.type_prior, dtype=float))],
        type_probs={type_id: 1.0},
    )


def oracle_value(oracle: BROracle, prior: np.ndarray, matrix: np.ndarray) -> float:
    """Value of an experiment matrix under ``prior``, evaluated via best-
    response queries (one per positive-mass signal).  Negative entries are
    experiment dust (at most ``PROB_TOL``) and count as 0, so that a
    low-mass signal's posterior is still a probability vector."""
    prior = np.asarray(prior, dtype=float)
    total = 0.0
    for k in range(matrix.shape[1]):
        weighted = prior * np.clip(matrix[:, k], 0.0, None)
        mass = float(weighted.sum())
        if mass <= 0.0:
            continue
        _, eu = oracle.respond(weighted / mass)
        total += mass * eu
    return total


class OracleMarket:
    """Market view backed by a best-response oracle (the implicit model).

    Exposes the same interface as Environment for menu auditing and repair:
    type ids, probabilities, base utilities, and experiment values, all
    answered through oracle queries.
    """

    def __init__(self, oracle: BROracle, types: list[BuyerType], type_probs: dict[str, float]):
        ids = [t.id for t in types]
        if len(set(ids)) != len(ids):
            raise InvalidInstance("duplicate type ids")
        total = sum(type_probs.get(t.id, -1.0) for t in types)
        if not abs(total - 1.0) <= 1e-9 or any(type_probs.get(t.id, -1.0) < -1e-9 for t in types):
            raise InvalidInstance("type probabilities must be nonnegative and sum to 1")
        self.oracle = oracle
        self.types = list(types)
        self.type_probs = dict(type_probs)
        self._base: dict[str, float] = {}
        self._value: dict[tuple, float] = {}

    def type_ids(self) -> list[str]:
        return [t.id for t in self.types]

    def prior(self, type_id: str) -> np.ndarray:
        for t in self.types:
            if t.id == type_id:
                return t.prior
        raise KeyError(type_id)

    def prob(self, type_id: str) -> float:
        return self.type_probs[type_id]

    def base(self, type_id: str) -> float:
        if type_id not in self._base:
            _, eu = self.oracle.respond(self.prior(type_id))
            self._base[type_id] = eu
        return self._base[type_id]

    def value(self, type_id: str, experiment) -> float:
        # Keyed by the matrix's contents: an Experiment is mutable.
        m = experiment.matrix
        key = (type_id, m.dtype.str, m.shape, m.tobytes())
        if key not in self._value:
            self._value[key] = oracle_value(self.oracle, self.prior(type_id), m)
        return self._value[key]
