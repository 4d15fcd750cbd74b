"""Selling one informative signal to competing buyers.

The exponential ex-post mechanism LP is replaced by its interim (reduced
form) counterpart: per buyer-type interim signaling matrices, win
probabilities, and prices.  Feasibility of a reduced form is the statement
that it mixes ex-post schemes, and the feasible set is exactly the convex
hull of the virtual-payoff-maximizer (VPM) schemes: allocate to the buyer
with the largest per-state-max weight sum and signal the per-state argmax.
Optimizing linear functionals over that hull is a closed-form sort-and-scan,
which makes column generation the natural solver: master LP over generated
VPM vertices, pricing by the VPM optimizer on the coupling duals.

The winning buyer never observes which scheme was drawn, so deviation values
are bounded against the interim matrices; prices depend only on the buyer's
own reported type.

Per buyer, the interim LP is the single-buyer menu LP over its types
(``explicit.menu_lp``) with one more column per type, its win probability
p: the type keeps its outside option with chance 1 - p, and its experiment
sends mass p.  Both LPs here start from these blocks side by side: the
column-generation master ties them to the VPM vertices found so far (one
``ArrayLP`` per pricing round), and the ex-post reference
``brute_force_multi`` ties them to per-profile allocations.  Each buyer
holds its single-buyer market (``MultiBuyer.market``), which checks the
buyer's inputs and gives its block, base utilities and audit values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp as lpmod
from .errors import InvalidInstance, NonConvergence, NumericalFailure, TooLarge
from .explicit import (CLEANUP_TOL, RESOLVE_FEASIBILITY_TOL, _explicit_parts, full_menu_lp,
                       value_matrix)
from .market import BuyerType, Environment, Experiment, base_utility

DECOMP_TOL = 1e-6
MAX_PROFILES = 256               # brute_force_multi's largest type-profile count
MAX_PRICING_ROUNDS = 500
PRICING_TOL = 1e-8


@dataclass(eq=False)
class MultiBuyer:
    """One buyer: its single-buyer market (``market``) over the state and
    action indices checks its utility, types and type probabilities."""

    id: str
    utility: np.ndarray                  # (n_states, n_actions)
    types: list[BuyerType]
    type_probs: dict[str, float]
    market: Environment = field(init=False, repr=False)

    def __post_init__(self):
        self.utility = np.asarray(self.utility, dtype=float)
        if self.utility.ndim != 2:
            raise InvalidInstance(f"buyer {self.id}: utility must be a matrix")
        for t in self.types:
            if self.type_probs.get(t.id, 0.0) <= 0.0:
                raise InvalidInstance(
                    f"buyer {self.id}: type {t.id} needs positive probability"
                )
        n, m = self.utility.shape
        try:
            self.market = Environment(list(range(n)), list(range(m)),
                                      {t.id: self.utility for t in self.types},
                                      self.types, self.type_probs)
        except InvalidInstance as exc:
            raise InvalidInstance(f"buyer {self.id}: {exc}") from None


@dataclass(eq=False)
class MultiEnvironment:
    """Independent private types, shared state and action spaces."""

    states: list
    actions: list
    buyers: list[MultiBuyer]

    def __post_init__(self):
        n, m = len(self.states), len(self.actions)
        ids = [b.id for b in self.buyers]
        if not ids:
            raise InvalidInstance("need at least one buyer")
        if len(set(ids)) != len(ids):
            raise InvalidInstance("duplicate buyer ids")
        for b in self.buyers:
            if b.utility.shape != (n, m):
                raise InvalidInstance(f"buyer {b.id}: utility matrix is not {n}x{m}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def slots(self) -> list[tuple[int, int]]:
        """All (buyer index, type index) pairs, buyer-major."""
        return [(i, s) for i, b in enumerate(self.buyers) for s in range(len(b.types))]

    def prob(self, i: int, s: int) -> float:
        b = self.buyers[i]
        return b.type_probs[b.types[s].id]


@dataclass(eq=False)
class VPMWeights:
    """Per buyer-type weight matrices over (state, signal) coordinates."""

    x: dict[tuple[str, str], np.ndarray]    # (buyer id, type id) -> (n_states, m)


@dataclass(eq=False)
class ReducedForm:
    """Interim signaling matrices, win probabilities, and prices."""

    pi_hat: dict[tuple[str, str], np.ndarray]   # (buyer, type) -> (n_states, m)
    p_hat: dict[tuple[str, str], float]
    t_hat: dict[tuple[str, str], float]

    def validate(self, tol: float = 1e-6) -> None:
        for key, mat in self.pi_hat.items():
            if np.any(mat < -tol):
                raise InvalidInstance(f"{key}: negative interim probability")
            p = self.p_hat[key]
            if not (-tol <= p <= 1 + tol):
                raise InvalidInstance(f"{key}: win probability {p} outside [0, 1]")
            rows = mat.sum(axis=1)
            if np.any(np.abs(rows - p) > tol):
                raise InvalidInstance(f"{key}: row masses {rows} disagree with p={p}")


@dataclass
class MechanismBlueprint:
    """Executable description: a lottery over VPM schemes plus interim prices."""

    mixture: list[tuple[float, VPMWeights]]
    t_hat: dict[tuple[str, str], float]

    def __post_init__(self):
        total = sum(w for w, _ in self.mixture)
        if not all(w >= 0.0 for w, _ in self.mixture) or abs(total - 1.0) > 1e-9:
            raise InvalidInstance("mixture weights must be a distribution")


def _slot_starts(env: MultiEnvironment) -> np.ndarray:
    """Each buyer's first slot: slots are (buyer, type) pairs, buyer-major."""
    return np.array([0, *itertools.accumulate(len(b.types) for b in env.buyers[:-1])])


def _vpm_table(env: MultiEnvironment, weights: VPMWeights) -> tuple[np.ndarray, np.ndarray]:
    """The VPM scheme ``weights`` at each slot: its value (over the states,
    the sum of its largest weight over the type's probability) and its
    recommended signal in each state (the first of largest weight)."""
    keys = [(b.id, t.id) for b in env.buyers for t in b.types]
    row_of = {key: row for row, key in enumerate(keys)}
    scaled = np.zeros((len(keys), env.n_states, env.n_actions))
    for key, mat in weights.x.items():
        if key not in row_of:
            raise InvalidInstance(f"VPM weights of {key} name no (buyer, type) of the market")
        if np.shape(mat) != scaled.shape[1:]:
            raise InvalidInstance(f"VPM weights of {key} are not {scaled.shape[1:]}")
        scaled[row_of[key]] = mat
    scaled /= np.array([b.type_probs[t.id] for b in env.buyers for t in b.types])[:, None, None]
    return scaled.max(axis=2).sum(axis=1), scaled.argmax(axis=2)


def vpm_allocate(
    env: MultiEnvironment, weights: VPMWeights, profile: dict[str, str]
) -> tuple[int, Experiment]:
    """Ex-post outcome of the VPM scheme at a realized type profile (buyer
    id -> type id).

    The largest value wins, ties to the lowest buyer index; the winner's
    experiment puts, for each state, all mass on the signal with the largest
    scaled weight (ties to the lowest signal).
    """
    unknown = set(profile) - {b.id for b in env.buyers}
    if unknown:
        raise InvalidInstance(f"profile names unknown buyers {sorted(map(str, unknown))}")
    slots = []
    for first, b in zip(_slot_starts(env).tolist(), env.buyers):
        ids = [t.id for t in b.types]
        if profile.get(b.id) not in ids:
            raise InvalidInstance(f"profile gives buyer {b.id} no type of its own: "
                                  f"{profile.get(b.id)!r}")
        slots.append(first + ids.index(profile[b.id]))
    values, signals = _vpm_table(env, weights)
    winner = int(np.argmax(values[slots]))
    mat = np.zeros((env.n_states, env.n_actions))
    mat[np.arange(env.n_states), signals[slots[winner]]] = 1.0
    return winner, Experiment(mat)


def rvpm(env: MultiEnvironment, weights: VPMWeights) -> ReducedForm:
    """Reduced form of the VPM scheme (prices zeroed).

    A buyer-type's win probability multiplies, over the other buyers, the
    chance their realized value loses (or ties from a higher index).
    """
    values, signals = _vpm_table(env, weights)
    vals = [values[a:a + len(b.types)] for a, b in zip(_slot_starts(env), env.buyers)]
    probs = [np.array([b.type_probs[t.id] for t in b.types]) for b in env.buyers]
    wins = []
    for i, s in env.slots():
        win = 1.0
        for l in range(len(env.buyers)):
            if l != i:
                lose = vals[l] <= vals[i][s] if l > i else vals[l] < vals[i][s]
                win *= float(probs[l][lose].sum())
        wins.append(win)
    n, m = env.n_states, env.n_actions
    pi = np.zeros((len(wins), n, m))
    pi[np.arange(len(wins))[:, None], np.arange(n), signals] = np.array(wins)[:, None]
    keys = [(b.id, t.id) for b in env.buyers for t in b.types]
    return ReducedForm(dict(zip(keys, pi)), dict(zip(keys, wins)), dict.fromkeys(keys, 0.0))


class _Coords:
    """Flat indexing of reduced-form signal coordinates (slot, state, signal)."""

    def __init__(self, env: MultiEnvironment):
        self.slots = env.slots()
        self.keys = [(env.buyers[i].id, env.buyers[i].types[s].id) for i, s in self.slots]
        self.shape = (env.n_states, env.n_actions)
        self.dim = len(self.slots) * env.n_states * env.n_actions

    def vector(self, rf: ReducedForm) -> np.ndarray:
        return np.concatenate([rf.pi_hat[key].ravel() for key in self.keys])

    def weights(self, flat: np.ndarray) -> VPMWeights:
        blocks = flat.reshape(len(self.keys), *self.shape)
        return VPMWeights({key: block.copy() for key, block in zip(self.keys, blocks)})


def mix_reduced_forms(
    env: MultiEnvironment, parts: list[tuple[float, ReducedForm]]
) -> ReducedForm:
    """Convex combination of reduced forms (prices combine linearly too)."""
    pi_hat: dict[tuple[str, str], np.ndarray] = {}
    p_hat: dict[tuple[str, str], float] = {}
    t_hat: dict[tuple[str, str], float] = {}
    for i, b in enumerate(env.buyers):
        for t in b.types:
            key = (b.id, t.id)
            pi_hat[key] = sum(w * rf.pi_hat[key] for w, rf in parts)
            p_hat[key] = sum(w * rf.p_hat[key] for w, rf in parts)
            t_hat[key] = sum(w * rf.t_hat[key] for w, rf in parts)
    return ReducedForm(pi_hat, p_hat, t_hat)


def audit_reduced_form(env: MultiEnvironment, rf: ReducedForm) -> tuple[float, float]:
    """Exact interim audit: deviation values use the true per-signal best
    action (``explicit.value_matrix`` on each buyer's market).  Returns (max
    BIC violation, max IIR violation).  Reporting s2 = s is a deviation too:
    it catches a recommendation the type would not obey.  A (buyer, type)
    of the market missing from ``rf`` is an ``InvalidInstance``."""
    max_bic = max_iir = 0.0
    for b in env.buyers:
        keys = [(b.id, t.id) for t in b.types]
        for key in keys:
            if not (key in rf.pi_hat and key in rf.p_hat and key in rf.t_hat):
                raise InvalidInstance(f"reduced form has no entry for {key}")
        pis = [rf.pi_hat[key] for key in keys]
        p = np.array([rf.p_hat[key] for key in keys])
        t = np.array([rf.t_hat[key] for key in keys])
        base = np.array([base_utility(b.market, bt.id) for bt in b.types])
        priors = np.array([bt.prior for bt in b.types])
        obedient = (np.array(pis) * priors[:, :, None] * b.utility).reshape(len(keys), -1)
        truthful = obedient.sum(axis=1) + (1.0 - p) * base - t
        deviation = value_matrix(b.market, pis) + (1.0 - p) * base[:, None] - t
        max_bic = max(max_bic, float((deviation - truthful[:, None]).max()))
        max_iir = max(max_iir, float((base - truthful).max()))
    return max_bic, max_iir


@dataclass
class MultiResult:
    reduced_form: ReducedForm
    blueprint: MechanismBlueprint
    revenue: float
    pricing_rounds: int
    master_iterations: int               # HiGHS simplex iterations over all master solves


def _initial_weight_sets(env: MultiEnvironment) -> list[VPMWeights]:
    """Feasible starting vertices: the zero-weight scheme (buyer 0 wins an
    uninformative recommendation) and, per buyer, the scheme always handing
    that buyer full revelation with each state's best action recommended.

    Recommending per-state argmax actions matters: it makes the truthful
    value equal the deviation value, so the round-0 master supports prices
    (e.g. all zero) and is feasible.
    """
    out = [VPMWeights({})]
    for i, b in enumerate(env.buyers):
        best = np.argmax(b.utility, axis=1)
        x = {}
        for t in b.types:
            mat = np.zeros((env.n_states, env.n_actions))
            mat[np.arange(env.n_states), best] = b.type_probs[t.id]
            x[(b.id, t.id)] = mat
        out.append(VPMWeights(x))
    return out


def _buyer_blocks(env: MultiEnvironment) -> tuple[lpmod.ArrayLP, np.ndarray]:
    """Each buyer's menu LP over its types, with win probabilities and every
    deviation row (``explicit.full_menu_lp``), side by side: a buyer's
    columns and rows follow the previous buyer's.  Returns it with the
    columns of each slot: its pi[w, j] in (state, signal) order, then its p
    and its price t, one row per slot."""
    n, m = env.n_states, env.n_actions
    blocks, slots, first = [], [], 0
    for b in env.buyers:
        layout, utils, base, probs = _explicit_parts(b.market, alloc=True)
        blocks.append(full_menu_lp(layout, utils, base, probs))
        k = np.arange(layout.k)[:, None]
        slots.append(first + np.hstack((n * layout.first[:, None] + np.arange(n * m),
                                        layout.alloc + k, layout.price + k)))
        first += layout.n_cols
    lp = lpmod.ArrayLP(
        np.concatenate([b.c for b in blocks]),
        lpmod.block_diag([b.A_ub for b in blocks]), np.concatenate([b.b_ub for b in blocks]),
        lpmod.block_diag([b.A_eq for b in blocks]), np.concatenate([b.b_eq for b in blocks]),
        np.concatenate([b.bounds for b in blocks]), "max")
    return lp, np.vstack(slots)


def _master_lp(blocks: lpmod.ArrayLP, slots: np.ndarray,
               vertices: list[np.ndarray]) -> lpmod.ArrayLP:
    """The column-generation master over the VPM ``vertices``.

    It is ``_buyer_blocks``'s LP (``blocks``, with the columns ``slots`` of
    each slot) with one more column per vertex, its weight lam[k] >= 0, and
    more equality rows: couple per coordinate (slot, w, j), pi[slot, w, j] =
    sum_k lam[k] vertex_k, in ``_Coords`` order, then convex, sum_k lam[k]
    = 1.  The lam columns follow every block column, so each couple row,
    its pi column then its nonzero lam columns, is already sorted.
    """
    pi = slots[:, :-2].ravel()
    dim, k, first = len(pi), len(vertices), len(blocks.c)
    n_cols = first + k
    # Couple row c: 1 at pi[c], then -vertex_k[c] at lam[k]; convex: 1 at
    # each lam[k].  Zeros are left out.
    values = np.zeros((dim + 1, k + 1))
    values[:dim, 0] = 1.0
    values[:dim, 1:] = -np.reshape(vertices, (k, dim)).T
    values[dim, 1:] = 1.0
    cols = np.empty((dim + 1, k + 1), np.int32)
    cols[:dim, 0] = pi
    cols[:, 1:] = np.arange(first, n_cols)
    keep = values != 0.0
    eq = blocks.A_eq
    A_eq = lpmod.CSR(np.concatenate((eq.data, values[keep])), np.concatenate((eq.indices, cols[keep])),
                     np.concatenate((eq.indptr, eq.nnz + np.cumsum(keep.sum(axis=1), dtype=np.int32))),
                     (eq.shape[0] + dim + 1, n_cols))
    return lpmod.ArrayLP(
        np.concatenate((blocks.c, np.zeros(k))),
        replace(blocks.A_ub, shape=(blocks.A_ub.shape[0], n_cols)), blocks.b_ub, A_eq,
        np.concatenate((blocks.b_eq, np.zeros(dim), [1.0])),
        np.concatenate((blocks.bounds, np.tile([0.0, np.inf], (k, 1)))), "max")


def solve_reduced_lp(env: MultiEnvironment) -> MultiResult:
    """Revenue-optimal mechanism via the interim LP with generated vertices.

    The master couples the interim matrices to a convex combination of VPM
    reduced forms; pricing asks the VPM optimizer for the vertex maximizing
    the coupling duals and stops when no vertex improves.  Each round solves
    the master over the vertices so far as one fresh ``ArrayLP``
    (``_master_lp``), a cold solve.  The final mixture is re-expressed over
    at most dim+1 vertices and verified to reproduce the optimal reduced
    form coordinate-wise.
    """
    coords = _Coords(env)
    n, m = env.n_states, env.n_actions
    blocks, slots = _buyer_blocks(env)
    # Master rows: the blocks' A_ub rows and row sums, then couple, convex.
    couple = blocks.n_constraints()
    convex = couple + coords.dim

    vertices: list[np.ndarray] = []
    vertex_weights: list[VPMWeights] = []
    seen: set[bytes] = set()

    def add_vertex(wts: VPMWeights, vec: np.ndarray) -> bool:
        key = np.round(vec, 12).tobytes()
        if key in seen:
            return False
        seen.add(key)
        vertices.append(vec)
        vertex_weights.append(wts)
        return True

    for wts in _initial_weight_sets(env):
        add_vertex(wts, coords.vector(rvpm(env, wts)))

    rounds = iterations = 0
    while True:
        rounds += 1
        if rounds > MAX_PRICING_ROUNDS:
            raise NonConvergence(f"pricing did not settle in {MAX_PRICING_ROUNDS} rounds")
        sol = lpmod.solve(_master_lp(blocks, slots, vertices))
        iterations += sol.iterations
        if sol.status != "Optimal":
            raise NumericalFailure(f"reduced-form master LP is {sol.status}")
        y = sol.row_duals[couple:convex]
        sigma = float(sol.row_duals[convex])
        candidate = coords.weights(y)
        vec = coords.vector(rvpm(env, candidate))
        score = float(y @ vec)
        if score <= sigma + PRICING_TOL:
            break
        if not add_vertex(candidate, vec):
            # The improving vertex is already a column; its reduced cost must
            # be nonpositive, so the duals are inconsistent.
            raise NumericalFailure("pricing returned an existing vertex as improving")

    slot_x = sol.x[slots]                                               # [slot, (pi, p, t)]
    pi_star = slot_x[:, : n * m].ravel()
    # The objective as a left-to-right sum in slot order, not a dot product.
    revenue = float(sum(env.prob(*slot) * t
                        for slot, t in zip(coords.slots, slot_x[:, -1].tolist())))
    # Entries below CLEANUP_TOL in magnitude are LP dust (-5e-14, -0.0) and read 0.0.
    snapped = np.where(np.abs(slot_x) < CLEANUP_TOL, 0.0, slot_x)
    rf = ReducedForm({}, {}, {})
    for key, (*pi, p, t) in zip(coords.keys, snapped.tolist()):
        rf.pi_hat[key] = np.clip(np.reshape(pi, (n, m)), 0.0, None)
        rf.p_hat[key] = float(np.clip(p, 0.0, 1.0))
        rf.t_hat[key] = t

    max_bic, max_iir = audit_reduced_form(env, rf)
    if max_bic > 1e-6 or max_iir > 1e-6:
        raise NumericalFailure(f"reduced form audits BIC={max_bic} IIR={max_iir}")

    lam, kept = _caratheodory(vertices, pi_star)
    mixture = [(float(lam[idx]), vertex_weights[kept[idx]]) for idx in range(len(kept))]
    blueprint = MechanismBlueprint(mixture=mixture, t_hat=dict(rf.t_hat))
    mixed = sum(w * vertices[kept[idx]] for idx, (w, _) in enumerate(mixture))
    gap = float(np.max(np.abs(mixed - pi_star)))
    if gap > DECOMP_TOL:
        raise NumericalFailure(f"mixture misses the reduced form by {gap}")
    if len(mixture) > coords.dim + 1:
        raise NumericalFailure("mixture uses more vertices than dim + 1")
    return MultiResult(
        reduced_form=rf,
        blueprint=blueprint,
        revenue=revenue,
        pricing_rounds=rounds,
        master_iterations=iterations,
    )


def _caratheodory(vertices: list[np.ndarray], target: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Express ``target`` as a convex combination of at most dim+1 vertices.

    A basic solution of the feasibility LP {V lam = target, sum lam = 1,
    lam >= 0} has at most (#rows) positive entries, which is the bound.
    """
    k = len(vertices)
    dense = np.vstack((np.array(vertices).T, np.ones(k)))
    rows, cols = np.indices(dense.shape)
    A_eq = lpmod.block_csr([(rows, cols, dense, dense != 0.0)], dense.shape)
    bounds = np.tile([0.0, np.inf], (k, 1))
    prog = lpmod.ArrayLP(np.zeros(k), lpmod.block_csr([], (0, k)), np.zeros(0), A_eq,
                         np.append(target, 1.0), bounds, "max")
    sol = lpmod.solve(prog)
    if sol.status != "Optimal":
        raise NumericalFailure(f"decomposition LP is {sol.status}")
    lam = sol.x
    kept = [idx for idx in range(k) if lam[idx] > 1e-12]
    out = lam[kept]
    return out / out.sum(), kept


def brute_force_multi(env: MultiEnvironment) -> float:
    """Optimal revenue from the ex-post LP over all type profiles.

    Exponential in the buyer count; refuses above ``MAX_PROFILES`` profiles.
    Deviation bounds are interim-aggregated (the deviator maps a signal to
    one action without seeing the others' types), matching the reduced form.

    It is ``_buyer_blocks``'s LP over interim variables with, per buyer i
    and profile r (itertools.product order of the type indices), the
    ex-post columns pi[i, r, w, j] and p[i, r] in [0, 1].  Equality rows
    link each slot (i, s): its pi[w, j] and p, in that order, equal the sums
    over the profiles r with r_i = s of fo_i(r) times pi[i, r, w, j] and
    p[i, r], where fo_i(r) is the others' probability; then sum_j pi[i, r, w,
    j] = p[i, r] per (i, r, w).  One "<=" row per profile caps sum_i p[i, r]
    at 1.  Per-profile prices and deviation bounds would enter only through
    their fo-weighted sums, the interim t and z, so the LP has none.  HiGHS
    solves it at ``RESOLVE_FEASIBILITY_TOL``: a type probability near the
    default tolerance 1e-7 would stop it up to 1e-8 short.
    """
    counts = [len(b.types) for b in env.buyers]
    n_prof = math.prod(counts)
    if n_prof > MAX_PROFILES:
        raise TooLarge(f"{n_prof} profiles exceed cap {MAX_PROFILES}")
    n, m, nb = env.n_states, env.n_actions, len(env.buyers)
    blocks, slots = _buyer_blocks(env)
    profiles = np.array(list(itertools.product(*[range(c) for c in counts]))).T   # [buyer, r]
    f = np.array([[env.prob(i, s) for s in row] for i, row in enumerate(profiles)])
    fo = np.ones((nb, n_prof))                   # the others' probability, in buyer order
    for i, l in itertools.permutations(range(nb), 2):
        fo[i] *= f[l]
    first, width = len(blocks.c), n * m + 1      # per (i, r): pi[i, r, w, j], then p[i, r]
    ex = first + np.arange(nb * n_prof * width).reshape(nb, n_prof, width)
    n_cols, n_linked = first + ex.size, len(slots) * width
    linked = (_slot_starts(env)[:, None] + profiles)[..., None] * width + np.arange(width)
    sums = n_linked + np.arange(nb * n_prof * n).reshape(nb, n_prof, n)
    rows = lpmod.block_csr(
        [(np.arange(n_linked), slots[:, :-1].ravel(), 1.0, True),
         (linked, ex, -fo[..., None], True),
         (sums[..., None], ex[..., :-1].reshape(nb, n_prof, n, m), 1.0, True),
         (sums, ex[..., -1:], -1.0, True)],
        (n_linked + sums.size, n_cols))
    capacity = lpmod.block_csr([(np.arange(n_prof), ex[..., -1], 1.0, True)], (n_prof, n_cols))
    prog = lpmod.ArrayLP(
        np.concatenate((blocks.c, np.zeros(ex.size))),
        lpmod.vstack([replace(blocks.A_ub, shape=(blocks.A_ub.shape[0], n_cols)), capacity]),
        np.concatenate((blocks.b_ub, np.ones(n_prof))),
        lpmod.vstack([replace(blocks.A_eq, shape=(blocks.A_eq.shape[0], n_cols)), rows]),
        np.concatenate((blocks.b_eq, np.zeros(rows.shape[0]))),
        np.concatenate((blocks.bounds, np.tile([0.0, 1.0], (ex.size, 1)))), "max")
    sol = lpmod.solve(lpmod.Session(prog, RESOLVE_FEASIBILITY_TOL))
    if sol.status != "Optimal":
        raise NumericalFailure(f"ex-post LP is {sol.status}")
    # The objective as a left-to-right sum in slot order.
    t = slots[:, -1]
    return float(sum(coeff * x for coeff, x in zip(prog.c[t].tolist(), sol.x[t].tolist())))


@dataclass
class MechanismRun:
    winner: int
    experiment: Experiment
    payments: dict[str, float]
    component: int


def run_mechanism(
    blueprint: MechanismBlueprint,
    env: MultiEnvironment,
    profile: dict[str, str],
    seed: int,
) -> MechanismRun:
    """One execution: draw a VPM component, allocate, charge interim prices.

    Payments depend only on reported types, never on the drawn component, so
    the price leaks nothing about the scheme.  ``t_hat`` must price each
    (buyer, type) of the market and nothing else; otherwise the blueprint
    is an ``InvalidInstance``.
    """
    odd = set(blueprint.t_hat) ^ {(b.id, t.id) for b in env.buyers for t in b.types}
    if odd:
        raise InvalidInstance("interim prices must cover exactly the (buyer, type) pairs "
                              f"of the market; mismatched: {sorted(map(str, odd))}")
    rng = np.random.default_rng(seed)
    lams = np.array([w for w, _ in blueprint.mixture])
    k = int(rng.choice(len(lams), p=lams / lams.sum()))
    winner, experiment = vpm_allocate(env, blueprint.mixture[k][1], profile)
    payments = {b.id: blueprint.t_hat[(b.id, profile[b.id])] for b in env.buyers}
    return MechanismRun(winner, experiment, payments, k)


def simulate_interim(
    blueprint: MechanismBlueprint,
    env: MultiEnvironment,
    n_draws: int,
    seed: int,
) -> tuple[dict[tuple[str, str], np.ndarray], dict[tuple[str, str], int]]:
    """Monte-Carlo estimate of the blueprint's interim signaling matrices.

    ``n_draws`` mixture components, then ``n_draws`` types per buyer, are
    sampled.  Each draw is one cell of the table component x type profile,
    and the cells are counted at once.  Every occupied cell adds its count
    to the winner's hits at the signal its component recommends in each
    state.  Returns the empirical matrices (hits over the buyer-type's
    draws) and the per-(buyer, type) draw counts.
    """
    if not isinstance(n_draws, numbers.Integral) or n_draws < 0:
        raise InvalidInstance(f"n_draws must be a nonnegative integer, not {n_draws!r}")
    lams = np.array([w for w, _ in blueprint.mixture])
    shape = (len(lams), *(len(b.types) for b in env.buyers))
    n_cells = math.prod(shape)
    if n_cells > np.iinfo(np.int64).max:
        raise TooLarge(f"{n_cells} (component, type profile) cells do not fit an int64 index")
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(lams), size=n_draws, p=lams / lams.sum())
    draws = []
    for b in env.buyers:
        probs = np.array([b.type_probs[t.id] for t in b.types])
        draws.append(rng.choice(len(b.types), size=n_draws, p=probs / probs.sum()))

    cell = comp
    for k, d in zip(shape[1:], draws):
        cell = cell * k + d
    if n_cells <= n_draws:          # a dense table costs no more memory than the draws
        counts = np.bincount(cell, minlength=n_cells)
        cells = np.flatnonzero(counts)
        counts = counts[cells]
    else:
        cells, counts = np.unique(cell, return_counts=True)
    k_of, *types_of = np.unravel_index(cells, shape)

    n, m = env.n_states, env.n_actions
    tables = [_vpm_table(env, wts) for _, wts in blueprint.mixture]
    values = np.array([v for v, _ in tables])                 # [component, slot]
    signals = np.array([r for _, r in tables])                # [component, slot, state]
    slots = _slot_starts(env) + np.stack(types_of, axis=1)    # [cell, buyer]
    winner = np.argmax(values[k_of[:, None], slots], axis=1)  # ties -> lowest index
    won = slots[np.arange(len(cells)), winner]
    hits = np.zeros((values.shape[1], n, m), dtype=np.int64)
    np.add.at(hits, (won[:, None], np.arange(n), signals[k_of, won]), counts[:, None])
    totals = np.zeros(values.shape[1], dtype=np.int64)
    np.add.at(totals, slots, counts[:, None])

    empirical: dict[tuple[str, str], np.ndarray] = {}
    draw_counts: dict[tuple[str, str], int] = {}
    for slot, (i, s) in enumerate(env.slots()):
        key = (env.buyers[i].id, env.buyers[i].types[s].id)
        total = draw_counts[key] = int(totals[slot])
        empirical[key] = hits[slot] / total if total else np.zeros((n, m))
    return empirical, draw_counts
