"""Per-draw replay and rebuilt master LP: the test-only references for the
multi-buyer fast path.

The library replays a blueprint from a table of (component, type profile)
cell counts, reads the VPM values and recommended signals from one table
per component, and writes each round's column-generation master straight
as CSR (``_master_lp``).  The references here do the same work the direct
way: one scaled weight matrix per (buyer, type) looked up when needed, one
boolean mask per (buyer, type) over all draws, and one fresh ``ArrayLP``
per pricing round rebuilt from CSC pieces with ``scipy.sparse``.  The tests
require byte-equal outputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from infomenu import lp as lpmod
from infomenu.errors import NonConvergence, NumericalFailure
from infomenu.market import Experiment
from infomenu.multiagent import (
    MAX_PRICING_ROUNDS,
    PRICING_TOL,
    MechanismBlueprint,
    MultiEnvironment,
    ReducedForm,
    VPMWeights,
    _buyer_blocks,
    _caratheodory,
    _Coords,
    _initial_weight_sets,
    _master_lp,
)
from named_lp import as_scipy


def scaled(env: MultiEnvironment, weights: VPMWeights, i: int, s: int) -> np.ndarray:
    """Buyer i's type-s weight matrix over its type probability."""
    b = env.buyers[i]
    t = b.types[s]
    mat = weights.x.get((b.id, t.id))
    if mat is None:
        return np.zeros((env.n_states, env.n_actions))
    return np.asarray(mat, dtype=float) / b.type_probs[t.id]


def values(env: MultiEnvironment, weights: VPMWeights) -> list[np.ndarray]:
    """Per buyer, the VPM value of each type."""
    return [np.array([scaled(env, weights, i, s).max(axis=1).sum() for s in range(len(b.types))])
            for i, b in enumerate(env.buyers)]


def vpm_allocate(env: MultiEnvironment, weights: VPMWeights,
                 profile: dict[str, str]) -> tuple[int, Experiment]:
    type_index = [[t.id for t in b.types].index(profile[b.id]) for b in env.buyers]
    vals = [float(scaled(env, weights, i, type_index[i]).max(axis=1).sum())
            for i in range(len(env.buyers))]
    winner = vals.index(max(vals))          # ties go to the lowest buyer index
    mat = np.zeros((env.n_states, env.n_actions))
    mat[np.arange(env.n_states),
        np.argmax(scaled(env, weights, winner, type_index[winner]), axis=1)] = 1.0
    return winner, Experiment(mat)


def rvpm(env: MultiEnvironment, weights: VPMWeights) -> ReducedForm:
    vals = values(env, weights)
    rf = ReducedForm({}, {}, {})
    for i, b in enumerate(env.buyers):
        for s, t in enumerate(b.types):
            v = vals[i][s]
            win = 1.0
            for l, bl in enumerate(env.buyers):
                if l == i:
                    continue
                pl = np.array([bl.type_probs[tt.id] for tt in bl.types])
                lose = vals[l] <= v if l > i else vals[l] < v
                win *= float(pl[lose].sum())
            mat = np.zeros((env.n_states, env.n_actions))
            mat[np.arange(env.n_states), np.argmax(scaled(env, weights, i, s), axis=1)] = win
            key = (b.id, t.id)
            rf.pi_hat[key], rf.p_hat[key], rf.t_hat[key] = mat, win, 0.0
    return rf


def simulate_interim(blueprint: MechanismBlueprint, env: MultiEnvironment, n_draws: int,
                     seed: int):
    """The blueprint's empirical interim matrices, one mask per (buyer, type)."""
    rng = np.random.default_rng(seed)
    nb = len(env.buyers)
    n, m = env.n_states, env.n_actions
    K = len(blueprint.mixture)
    lams = np.array([w for w, _ in blueprint.mixture])
    vals = [values(env, wts) for _, wts in blueprint.mixture]
    recs = [[np.stack([np.argmax(scaled(env, wts, i, s), axis=1) for s in range(len(b.types))])
             for i, b in enumerate(env.buyers)] for _, wts in blueprint.mixture]

    comp = rng.choice(K, size=n_draws, p=lams / lams.sum())
    draws = []
    for b in env.buyers:
        probs = np.array([b.type_probs[t.id] for t in b.types])
        draws.append(rng.choice(len(b.types), size=n_draws, p=probs / probs.sum()))

    value_mat = np.empty((nb, n_draws))
    for i in range(nb):
        value_mat[i] = np.stack([vals[k][i] for k in range(K)])[comp, draws[i]]
    winner = np.argmax(value_mat, axis=0)

    empirical, counts = {}, {}
    for i, b in enumerate(env.buyers):
        rec_k = np.stack([recs[k][i] for k in range(K)])
        for s, t in enumerate(b.types):
            mask = draws[i] == s
            total = int(mask.sum())
            key = (b.id, t.id)
            counts[key] = total
            mat = np.zeros((n, m))
            if total:
                rec = rec_k[comp[mask & (winner == i)], s]
                for w in range(n):
                    mat[w] = np.bincount(rec[:, w], minlength=m) / total
            empirical[key] = mat
    return empirical, counts


def solve_reduced_lp(env: MultiEnvironment):
    """Column generation with the master rebuilt as one fresh ``ArrayLP``
    per round.  Returns (reduced form, revenue, rounds, master iterations,
    mixture as (weight, VPMWeights))."""
    coords = _Coords(env)
    n, m = env.n_states, env.n_actions
    n_slots = len(coords.slots)
    blocks, slots = _buyer_blocks(env)
    fixed = _master_lp(blocks, slots, [])
    ub = fixed.A_ub
    n_ub = ub.shape[0]
    couple = n_slots * n
    convex = couple + coords.dim
    A = as_scipy(fixed.A_eq).tocsc()
    indptr, indices, data = [A.indptr], [A.indices], [A.data]
    vertices, vertex_weights, seen = [], [], set()

    def add_vertex(wts, vec) -> bool:
        key = np.round(vec, 12).tobytes()
        if key in seen:
            return False
        seen.add(key)
        vertices.append(vec)
        vertex_weights.append(wts)
        nz = np.flatnonzero(vec)
        indices.append(np.append(couple + nz, convex))
        data.append(np.append(-vec[nz], 1.0))
        indptr.append(indptr[-1][-1:] + len(nz) + 1)
        return True

    for wts in _initial_weight_sets(env):
        add_vertex(wts, coords.vector(rvpm(env, wts)))

    rounds = iterations = 0
    while True:
        rounds += 1
        if rounds > MAX_PRICING_ROUNDS:
            raise NonConvergence("pricing did not settle")
        n_lam = len(vertices)
        n_cols = A.shape[1] + n_lam
        A_ub = sp.csr_matrix((ub.data, ub.indices, ub.indptr), shape=(n_ub, n_cols))
        csc = tuple(np.concatenate(part) for part in (data, indices, indptr))
        A_eq = sp.csc_matrix(csc, shape=(A.shape[0], n_cols)).tocsr()
        c = np.concatenate((fixed.c, np.zeros(n_lam)))
        bounds = np.concatenate((fixed.bounds, np.tile([0.0, np.inf], (n_lam, 1))))
        sol = lpmod.solve(lpmod.ArrayLP(c, A_ub, fixed.b_ub, A_eq, fixed.b_eq, bounds, "max"))
        iterations += sol.iterations
        if sol.status != "Optimal":
            raise NumericalFailure(f"reduced-form master LP is {sol.status}")
        y = sol.row_duals[n_ub + couple:n_ub + convex]
        sigma = float(sol.row_duals[n_ub + convex])
        candidate = coords.weights(y)
        vec = coords.vector(rvpm(env, candidate))
        if float(y @ vec) <= sigma + PRICING_TOL:
            break
        if not add_vertex(candidate, vec):
            raise NumericalFailure("pricing returned an existing vertex as improving")

    slot_x = sol.x[slots]                                   # [slot, (pi, p, t)]
    pi_star = slot_x[:, : n * m].ravel()
    rf = ReducedForm({}, {}, {})
    for key, (*pi, p, t) in zip(coords.keys, slot_x.tolist()):
        rf.pi_hat[key] = np.clip(np.reshape(pi, (n, m)), 0.0, None)
        rf.p_hat[key] = float(np.clip(p, 0.0, 1.0))
        rf.t_hat[key] = t
    revenue = float(sum(env.prob(*slot) * t for slot, t in zip(coords.slots, rf.t_hat.values())))
    lam, kept = _caratheodory(vertices, pi_star)
    mixture = [(float(lam[idx]), vertex_weights[kept[idx]]) for idx in range(len(kept))]
    return rf, revenue, rounds, iterations, mixture
