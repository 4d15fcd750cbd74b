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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import InvalidInstance, NonConvergence, NumericalFailure, TooLarge
from .market import BuyerType, Experiment, PROB_TOL

DECOMP_TOL = 1e-6


@dataclass(eq=False)
class MultiBuyer:
    id: str
    utility: np.ndarray                  # (n_states, n_actions)
    types: list[BuyerType]
    type_probs: dict[str, float]

    def __post_init__(self):
        self.utility = np.asarray(self.utility, dtype=float)
        if not np.isfinite(self.utility).all():
            raise InvalidInstance(f"buyer {self.id}: utilities must be finite")
        if np.any(self.utility < -PROB_TOL) or np.any(self.utility > 1 + PROB_TOL):
            raise InvalidInstance(f"buyer {self.id}: utilities must lie in [0, 1]")
        total = sum(self.type_probs.get(t.id, -1.0) for t in self.types)
        if not np.isfinite(total) or abs(total - 1.0) > PROB_TOL:
            raise InvalidInstance(f"buyer {self.id}: type probabilities sum to {total}")
        for t in self.types:
            if self.type_probs.get(t.id, 0.0) <= 0.0:
                raise InvalidInstance(
                    f"buyer {self.id}: type {t.id} needs positive probability"
                )


@dataclass(eq=False)
class MultiEnvironment:
    """Independent private types, shared state and action spaces."""

    states: list
    actions: list
    buyers: list[MultiBuyer]

    def __post_init__(self):
        n, m = len(self.states), len(self.actions)
        ids = [b.id for b in self.buyers]
        if len(set(ids)) != len(ids):
            raise InvalidInstance("duplicate buyer ids")
        for b in self.buyers:
            if b.utility.shape != (n, m):
                raise InvalidInstance(f"buyer {b.id}: utility matrix is not {n}x{m}")
            for t in b.types:
                if t.prior.shape != (n,):
                    raise InvalidInstance(f"buyer {b.id} type {t.id}: bad prior length")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def slots(self) -> list[tuple[int, int]]:
        """All (buyer index, type index) pairs, buyer-major."""
        return [(i, s) for i, b in enumerate(self.buyers) for s in range(len(b.types))]

    def base_utilities(self) -> list[np.ndarray]:
        """Per buyer: best prior-only payoff of each type."""
        out = []
        for b in self.buyers:
            out.append(
                np.array([(t.prior @ b.utility).max() for t in b.types])
            )
        return out

    def prob(self, i: int, s: int) -> float:
        b = self.buyers[i]
        return b.type_probs[b.types[s].id]


@dataclass(eq=False)
class VPMWeights:
    """Per buyer-type weight matrices over (state, signal) coordinates."""

    x: dict[tuple[str, str], np.ndarray]    # (buyer id, type id) -> (n_states, m)

    def scaled(self, env: MultiEnvironment, i: int, s: int) -> np.ndarray:
        b = env.buyers[i]
        t = b.types[s]
        mat = self.x.get((b.id, t.id))
        if mat is None:
            return np.zeros((env.n_states, env.n_actions))
        return np.asarray(mat, dtype=float) / b.type_probs[t.id]


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
        if any(w < -1e-12 for w, _ in self.mixture) or abs(total - 1.0) > 1e-9:
            raise InvalidInstance("mixture weights must be a distribution")


def _values(env: MultiEnvironment, weights: VPMWeights) -> list[np.ndarray]:
    """v^i(type) = sum over states of the best per-state scaled weight."""
    out = []
    for i, b in enumerate(env.buyers):
        out.append(
            np.array(
                [weights.scaled(env, i, s).max(axis=1).sum() for s in range(len(b.types))]
            )
        )
    return out


def _winner(values: list[float]) -> int:
    """Largest value wins; ties go to the lowest buyer index."""
    best = max(values)
    for i, v in enumerate(values):
        if v == best:
            return i
    raise AssertionError


def vpm_allocate(
    env: MultiEnvironment, weights: VPMWeights, profile: dict[str, str]
) -> tuple[int, Experiment]:
    """Ex-post outcome of the VPM scheme at a realized type profile.

    The winner's experiment puts, for each state, all mass on the signal
    with the largest scaled weight (ties to the lowest signal).
    """
    type_index = []
    for b in env.buyers:
        tid = profile[b.id]
        type_index.append([t.id for t in b.types].index(tid))
    vals = [
        float(weights.scaled(env, i, type_index[i]).max(axis=1).sum())
        for i in range(len(env.buyers))
    ]
    winner = _winner(vals)
    scaled = weights.scaled(env, winner, type_index[winner])
    mat = np.zeros((env.n_states, env.n_actions))
    mat[np.arange(env.n_states), np.argmax(scaled, axis=1)] = 1.0
    return winner, Experiment(mat)


def rvpm(env: MultiEnvironment, weights: VPMWeights) -> ReducedForm:
    """Reduced form of the VPM scheme (prices zeroed).

    A buyer-type's win probability multiplies, over the other buyers, the
    chance their realized value loses (or ties from a higher index).
    """
    vals = _values(env, weights)
    pi_hat: dict[tuple[str, str], np.ndarray] = {}
    p_hat: dict[tuple[str, str], float] = {}
    t_hat: dict[tuple[str, str], float] = {}
    for i, b in enumerate(env.buyers):
        for s, t in enumerate(b.types):
            v = vals[i][s]
            win = 1.0
            for l, bl in enumerate(env.buyers):
                if l == i:
                    continue
                pl = np.array([bl.type_probs[tt.id] for tt in bl.types])
                if l > i:
                    lose = vals[l] <= v
                else:
                    lose = vals[l] < v
                win *= float(pl[lose].sum())
            scaled = weights.scaled(env, i, s)
            mat = np.zeros((env.n_states, env.n_actions))
            mat[np.arange(env.n_states), np.argmax(scaled, axis=1)] = win
            key = (b.id, t.id)
            pi_hat[key] = mat
            p_hat[key] = win
            t_hat[key] = 0.0
    return ReducedForm(pi_hat, p_hat, t_hat)


class _Coords:
    """Flat indexing of reduced-form signal coordinates (slot, state, signal)."""

    def __init__(self, env: MultiEnvironment):
        self.env = env
        self.slots = env.slots()
        self.n = env.n_states
        self.m = env.n_actions
        self.dim = len(self.slots) * self.n * self.m

    def flat(self, slot: int, w: int, j: int) -> int:
        return (slot * self.n + w) * self.m + j

    def vector(self, rf: ReducedForm) -> np.ndarray:
        out = np.empty(self.dim)
        for slot, (i, s) in enumerate(self.slots):
            b = self.env.buyers[i]
            key = (b.id, b.types[s].id)
            out[slot * self.n * self.m : (slot + 1) * self.n * self.m] = rf.pi_hat[
                key
            ].ravel()
        return out

    def weights(self, flat: np.ndarray) -> VPMWeights:
        x = {}
        for slot, (i, s) in enumerate(self.slots):
            b = self.env.buyers[i]
            block = flat[slot * self.n * self.m : (slot + 1) * self.n * self.m]
            x[(b.id, b.types[s].id)] = block.reshape(self.n, self.m).copy()
        return VPMWeights(x)


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
    action.  Returns (max BIC violation, max IIR violation)."""
    base = env.base_utilities()
    max_bic = 0.0
    max_iir = 0.0
    for i, b in enumerate(env.buyers):
        for s, t in enumerate(b.types):
            key = (b.id, t.id)
            truthful = (
                float(np.sum(rf.pi_hat[key] * t.prior[:, None] * b.utility))
                + (1.0 - rf.p_hat[key]) * base[i][s]
                - rf.t_hat[key]
            )
            max_iir = max(max_iir, base[i][s] - truthful)
            for s2, t2 in enumerate(b.types):
                key2 = (b.id, t2.id)
                weighted = rf.pi_hat[key2] * t.prior[:, None]      # (n, m)
                per_signal = weighted.T @ b.utility                 # (m signals, m actions)
                dev = (
                    float(per_signal.max(axis=1).sum())
                    + (1.0 - rf.p_hat[key2]) * base[i][s]
                    - rf.t_hat[key2]
                )
                max_bic = max(max_bic, dev - truthful)
    return max_bic, max_iir


@dataclass
class MultiResult:
    reduced_form: ReducedForm
    blueprint: MechanismBlueprint
    revenue: float
    vertices: list[np.ndarray]
    pricing_rounds: int


def _initial_weight_sets(env: MultiEnvironment, coords: _Coords) -> list[VPMWeights]:
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


def solve_reduced_lp(
    env: MultiEnvironment,
    *,
    max_rounds: int = 500,
    pricing_tol: float = 1e-8,
) -> MultiResult:
    """Revenue-optimal mechanism via the interim LP with generated vertices.

    The master couples the interim matrices to a convex combination of VPM
    reduced forms; pricing asks the VPM optimizer for the vertex maximizing
    the coupling duals and stops when no vertex improves.  The final mixture
    is re-expressed over at most dim+1 vertices and verified to reproduce
    the optimal reduced form coordinate-wise.
    """
    coords = _Coords(env)
    n, m = env.n_states, env.n_actions
    base = env.base_utilities()

    prog = lpmod.LinearProgram(sense="max")
    for slot, (i, s) in enumerate(coords.slots):
        for w in range(n):
            for j in range(m):
                prog.add_variable(f"pi[{slot},{w},{j}]", 0.0, 1.0)
        prog.add_variable(f"p[{slot}]", 0.0, 1.0)
        prog.add_variable(f"t[{slot}]", None, None)
        prog.set_objective(f"t[{slot}]", env.prob(i, s))
    slot_of = {pair: idx for idx, pair in enumerate(coords.slots)}
    for i, b in enumerate(env.buyers):
        for s in range(len(b.types)):
            for s2 in range(len(b.types)):
                for j in range(m):
                    prog.add_variable(f"z[{i},{s},{s2},{j}]", 0.0, None)

    def truthful_coeffs(i: int, s: int) -> dict[str, float]:
        slot = slot_of[(i, s)]
        b = env.buyers[i]
        theta = b.types[s].prior
        coeffs = {
            f"pi[{slot},{w},{j}]": theta[w] * b.utility[w, j]
            for w in range(n)
            for j in range(m)
            if theta[w] * b.utility[w, j] != 0.0
        }
        coeffs[f"p[{slot}]"] = -base[i][s]
        coeffs[f"t[{slot}]"] = -1.0
        return coeffs

    for i, b in enumerate(env.buyers):
        for s in range(len(b.types)):
            own = truthful_coeffs(i, s)
            for s2 in range(len(b.types)):
                slot2 = slot_of[(i, s2)]
                coeffs = dict(own)
                for j in range(m):
                    coeffs[f"z[{i},{s},{s2},{j}]"] = (
                        coeffs.get(f"z[{i},{s},{s2},{j}]", 0.0) - 1.0
                    )
                coeffs[f"p[{slot2}]"] = coeffs.get(f"p[{slot2}]", 0.0) + base[i][s]
                coeffs[f"t[{slot2}]"] = coeffs.get(f"t[{slot2}]", 0.0) + 1.0
                prog.add_constraint(f"bic[{i},{s},{s2}]", coeffs, lpmod.GE, 0.0)
            prog.add_constraint(f"iir[{i},{s}]", truthful_coeffs(i, s), lpmod.GE, 0.0)
            theta = b.types[s].prior
            slot = slot_of[(i, s)]
            for s2 in range(len(b.types)):
                slot2 = slot_of[(i, s2)]
                for j in range(m):
                    for a in range(m):
                        coeffs = {f"z[{i},{s},{s2},{j}]": 1.0}
                        for w in range(n):
                            c = theta[w] * b.utility[w, a]
                            if c != 0.0:
                                coeffs[f"pi[{slot2},{w},{j}]"] = (
                                    coeffs.get(f"pi[{slot2},{w},{j}]", 0.0) - c
                                )
                        prog.add_constraint(
                            f"zlb[{i},{s},{s2},{j},{a}]", coeffs, lpmod.GE, 0.0
                        )
            for w in range(n):
                coeffs = {f"pi[{slot},{w},{j}]": 1.0 for j in range(m)}
                coeffs[f"p[{slot}]"] = -1.0
                prog.add_constraint(f"alloc[{slot},{w}]", coeffs, lpmod.EQ, 0.0)

    couple_names = []
    for slot in range(len(coords.slots)):
        for w in range(n):
            for j in range(m):
                name = f"couple[{slot},{w},{j}]"
                couple_names.append(name)
                prog.add_constraint(name, {f"pi[{slot},{w},{j}]": 1.0}, lpmod.EQ, 0.0)
    prog.add_constraint("convex", {}, lpmod.EQ, 1.0)

    vertices: list[np.ndarray] = []
    vertex_weights: list[VPMWeights] = []
    seen: set[bytes] = set()

    def add_vertex(wts: VPMWeights) -> bool:
        vec = coords.vector(rvpm(env, wts))
        key = np.round(vec, 12).tobytes()
        if key in seen:
            return False
        seen.add(key)
        vertices.append(vec)
        vertex_weights.append(wts)
        kidx = len(vertices) - 1
        entries = {"convex": 1.0}
        for c in range(coords.dim):
            if vec[c] != 0.0:
                entries[couple_names[c]] = -vec[c]
        prog.add_column(f"lam[{kidx}]", 0.0, None, 0.0, entries)
        return True

    for wts in _initial_weight_sets(env, coords):
        add_vertex(wts)

    sol = None
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise NonConvergence(f"pricing did not settle in {max_rounds} rounds")
        sol = lpmod.solve(prog)
        if sol.status != "Optimal":
            raise NumericalFailure(f"reduced-form master LP is {sol.status}")
        duals = sol.duals
        y = np.array([duals.get(name, 0.0) for name in couple_names])
        sigma = duals.get("convex", 0.0)
        candidate = coords.weights(y)
        vec = coords.vector(rvpm(env, candidate))
        score = float(y @ vec)
        if score <= sigma + pricing_tol:
            break
        if not add_vertex(candidate):
            # The improving vertex is already a column; its reduced cost must
            # be nonpositive, so the duals are inconsistent.
            raise NumericalFailure("pricing returned an existing vertex as improving")

    pi_star = np.array(
        [
            sol.values[f"pi[{slot},{w},{j}]"]
            for slot in range(len(coords.slots))
            for w in range(n)
            for j in range(m)
        ]
    )
    rf = ReducedForm({}, {}, {})
    for slot, (i, s) in enumerate(coords.slots):
        b = env.buyers[i]
        key = (b.id, b.types[s].id)
        block = pi_star[slot * n * m : (slot + 1) * n * m].reshape(n, m)
        rf.pi_hat[key] = np.clip(block, 0.0, None)
        rf.p_hat[key] = float(np.clip(sol.values[f"p[{slot}]"], 0.0, 1.0))
        rf.t_hat[key] = float(sol.values[f"t[{slot}]"])

    max_bic, max_iir = audit_reduced_form(env, rf)
    if max_bic > 1e-6 or max_iir > 1e-6:
        raise NumericalFailure(f"reduced form audits BIC={max_bic} IIR={max_iir}")

    lam, kept = _caratheodory(vertices, pi_star)
    mixture = [(float(lam[idx]), vertex_weights[kept[idx]]) for idx in range(len(kept))]
    blueprint = MechanismBlueprint(mixture=mixture, t_hat=dict(rf.t_hat))
    mixed = sum(
        w * vertices[kept[idx]] for idx, (w, _) in enumerate(mixture)
    )
    gap = float(np.max(np.abs(mixed - pi_star)))
    if gap > DECOMP_TOL:
        raise NumericalFailure(f"mixture misses the reduced form by {gap}")
    if len(mixture) > coords.dim + 1:
        raise NumericalFailure("mixture uses more vertices than dim + 1")
    return MultiResult(
        reduced_form=rf,
        blueprint=blueprint,
        revenue=sol.objective_value,
        vertices=[vertices[i] for i in kept],
        pricing_rounds=rounds,
    )


def _caratheodory(vertices: list[np.ndarray], target: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Express ``target`` as a convex combination of at most dim+1 vertices.

    A basic solution of the feasibility LP {V lam = target, sum lam = 1,
    lam >= 0} has at most (#rows) positive entries, which is the bound.
    """
    prog = lpmod.LinearProgram(sense="max")
    for kidx in range(len(vertices)):
        prog.add_variable(f"lam[{kidx}]", 0.0, None)
    dim = len(target)
    for c in range(dim):
        coeffs = {
            f"lam[{kidx}]": float(vertices[kidx][c])
            for kidx in range(len(vertices))
            if vertices[kidx][c] != 0.0
        }
        prog.add_constraint(f"coord[{c}]", coeffs, lpmod.EQ, float(target[c]))
    prog.add_constraint(
        "convex", {f"lam[{kidx}]": 1.0 for kidx in range(len(vertices))}, lpmod.EQ, 1.0
    )
    sol = lpmod.solve(prog, want_duals=False)
    if sol.status != "Optimal":
        raise NumericalFailure(f"decomposition LP is {sol.status}")
    lam = np.array([sol.values[f"lam[{k}]"] for k in range(len(vertices))])
    kept = [k for k in range(len(vertices)) if lam[k] > 1e-12]
    out = lam[kept]
    return out / out.sum(), kept


def brute_force_multi(env: MultiEnvironment, profile_cap: int = 256) -> float:
    """Optimal revenue from the full ex-post LP over all type profiles.

    Exponential in the buyer count; refuses above ``profile_cap`` profiles.
    Deviation bounds are interim-aggregated (the deviator maps a signal to
    one action without seeing the others' types), matching the reduced form.
    """
    import itertools

    counts = [len(b.types) for b in env.buyers]
    n_prof = int(np.prod(counts))
    if n_prof > profile_cap:
        raise TooLarge(f"{n_prof} profiles exceed cap {profile_cap}")
    n, m = env.n_states, env.n_actions
    nb = len(env.buyers)
    base = env.base_utilities()
    profiles = list(itertools.product(*[range(c) for c in counts]))
    prof_index = {p: r for r, p in enumerate(profiles)}

    def fprob(prof: tuple[int, ...]) -> float:
        out = 1.0
        for i, s in enumerate(prof):
            out *= env.prob(i, s)
        return out

    def others(i: int) -> list[tuple[int, ...]]:
        ranges = [range(c) for l, c in enumerate(counts) if l != i]
        return list(itertools.product(*ranges))

    def fprob_others(i: int, rest: tuple[int, ...]) -> float:
        out = 1.0
        pos = 0
        for l in range(nb):
            if l == i:
                continue
            out *= env.prob(l, rest[pos])
            pos += 1
        return out

    def merge(i: int, s: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        lst = list(rest)
        lst.insert(i, s)
        return tuple(lst)

    prog = lpmod.LinearProgram(sense="max")
    for i in range(nb):
        for r in range(n_prof):
            for w in range(n):
                for j in range(m):
                    prog.add_variable(f"pi[{i},{r},{w},{j}]", 0.0, 1.0)
            prog.add_variable(f"p[{i},{r}]", 0.0, 1.0)
            prog.add_variable(f"t[{i},{r}]", None, None)
            prog.set_objective(f"t[{i},{r}]", fprob(profiles[r]))
    for i in range(nb):
        for s in range(counts[i]):
            for s2 in range(counts[i]):
                for rest_idx in range(len(others(i))):
                    for j in range(m):
                        prog.add_variable(f"z[{i},{s},{s2},{rest_idx},{j}]", 0.0, None)

    for i, b in enumerate(env.buyers):
        rest_list = others(i)
        for s in range(counts[i]):
            theta = b.types[s].prior

            def truthful(s_report: int, sign: float, coeffs: dict[str, float]):
                for rest in rest_list:
                    fo = fprob_others(i, rest)
                    r = prof_index[merge(i, s_report, rest)]
                    for w in range(n):
                        for j in range(m):
                            c = sign * fo * theta[w] * b.utility[w, j]
                            if c != 0.0:
                                key = f"pi[{i},{r},{w},{j}]"
                                coeffs[key] = coeffs.get(key, 0.0) + c
                    coeffs[f"p[{i},{r}]"] = (
                        coeffs.get(f"p[{i},{r}]", 0.0) - sign * fo * base[i][s]
                    )
                    coeffs[f"t[{i},{r}]"] = coeffs.get(f"t[{i},{r}]", 0.0) - sign * fo

            # IIR: truthful interim utility >= base utility.
            coeffs: dict[str, float] = {}
            truthful(s, 1.0, coeffs)
            prog.add_constraint(f"iir[{i},{s}]", coeffs, lpmod.GE, 0.0)

            for s2 in range(counts[i]):
                coeffs = {}
                truthful(s, 1.0, coeffs)
                # minus the deviation payoff of reporting s2
                for rest_idx, rest in enumerate(rest_list):
                    fo = fprob_others(i, rest)
                    r2 = prof_index[merge(i, s2, rest)]
                    for j in range(m):
                        key = f"z[{i},{s},{s2},{rest_idx},{j}]"
                        coeffs[key] = coeffs.get(key, 0.0) - fo
                    coeffs[f"p[{i},{r2}]"] = coeffs.get(f"p[{i},{r2}]", 0.0) + fo * base[i][s]
                    coeffs[f"t[{i},{r2}]"] = coeffs.get(f"t[{i},{r2}]", 0.0) + fo
                prog.add_constraint(f"bic[{i},{s},{s2}]", coeffs, lpmod.GE, 0.0)

                for j in range(m):
                    for a in range(m):
                        coeffs = {}
                        for rest_idx, rest in enumerate(rest_list):
                            fo = fprob_others(i, rest)
                            r2 = prof_index[merge(i, s2, rest)]
                            coeffs[f"z[{i},{s},{s2},{rest_idx},{j}]"] = fo
                            for w in range(n):
                                c = fo * theta[w] * b.utility[w, a]
                                if c != 0.0:
                                    key = f"pi[{i},{r2},{w},{j}]"
                                    coeffs[key] = coeffs.get(key, 0.0) - c
                        prog.add_constraint(
                            f"zlb[{i},{s},{s2},{j},{a}]", coeffs, lpmod.GE, 0.0
                        )

    for i in range(nb):
        for r in range(n_prof):
            for w in range(n):
                coeffs = {f"pi[{i},{r},{w},{j}]": 1.0 for j in range(m)}
                coeffs[f"p[{i},{r}]"] = -1.0
                prog.add_constraint(f"alloc[{i},{r},{w}]", coeffs, lpmod.EQ, 0.0)
    for r in range(n_prof):
        prog.add_constraint(
            f"cap[{r}]", {f"p[{i},{r}]": 1.0 for i in range(nb)}, lpmod.LE, 1.0
        )

    sol = lpmod.solve(prog, want_duals=False)
    if sol.status != "Optimal":
        raise NumericalFailure(f"full ex-post LP is {sol.status}")
    return sol.objective_value


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
    the price leaks nothing about the scheme.
    """
    rng = np.random.default_rng(seed)
    lams = np.array([w for w, _ in blueprint.mixture])
    k = int(rng.choice(len(lams), p=lams / lams.sum()))
    winner, experiment = vpm_allocate(env, blueprint.mixture[k][1], profile)
    payments = {
        b.id: blueprint.t_hat[(b.id, profile[b.id])] for b in env.buyers
    }
    return MechanismRun(winner, experiment, payments, k)


def simulate_interim(
    blueprint: MechanismBlueprint,
    env: MultiEnvironment,
    n_draws: int,
    seed: int,
) -> tuple[dict[tuple[str, str], np.ndarray], dict[tuple[str, str], int]]:
    """Monte-Carlo estimate of the blueprint's interim signaling matrices.

    Vectorized over draws: types and the mixture component are sampled, the
    winner and per-state recommended signal are table lookups.  Returns the
    empirical matrices and the per-(buyer, type) draw counts.
    """
    rng = np.random.default_rng(seed)
    nb = len(env.buyers)
    n, m = env.n_states, env.n_actions
    K = len(blueprint.mixture)
    lams = np.array([w for w, _ in blueprint.mixture])

    vals = np.empty((K, nb), dtype=object)
    recs = np.empty((K, nb), dtype=object)
    for k, (_, wts) in enumerate(blueprint.mixture):
        per = _values(env, wts)
        for i in range(nb):
            vals[k, i] = per[i]
            recs[k, i] = np.stack(
                [
                    np.argmax(wts.scaled(env, i, s), axis=1)
                    for s in range(len(env.buyers[i].types))
                ]
            )  # (types_i, n_states)

    comp = rng.choice(K, size=n_draws, p=lams / lams.sum())
    draws = []
    for i, b in enumerate(env.buyers):
        probs = np.array([b.type_probs[t.id] for t in b.types])
        draws.append(rng.choice(len(b.types), size=n_draws, p=probs / probs.sum()))

    value_mat = np.empty((nb, n_draws))
    for i in range(nb):
        per_k = np.stack([vals[k, i] for k in range(K)])      # (K, types_i)
        value_mat[i] = per_k[comp, draws[i]]
    winner = np.argmax(value_mat, axis=0)                     # ties -> lowest index

    empirical: dict[tuple[str, str], np.ndarray] = {}
    counts: dict[tuple[str, str], int] = {}
    for i, b in enumerate(env.buyers):
        rec_k = np.stack([recs[k, i] for k in range(K)])      # (K, types_i, n_states)
        for s, t in enumerate(b.types):
            mask = draws[i] == s
            total = int(mask.sum())
            key = (b.id, t.id)
            counts[key] = total
            mat = np.zeros((n, m))
            if total:
                won = mask & (winner == i)
                rec = rec_k[comp[won], s]                      # (wins, n_states)
                for w in range(n):
                    mat[w] = np.bincount(rec[:, w], minlength=m) / total
            empirical[key] = mat
    return empirical, counts
