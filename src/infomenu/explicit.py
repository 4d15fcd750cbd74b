"""Exact revenue-optimal menus for explicitly specified markets, and the
menu LP that the oracle solver shares.

The menu design problem is one LP (README, "The menu LP and the array form
of an LP"): per-type experiments with one signal per action of the type's
action set (signal i recommends action i), per-type prices, and bounds
z[i, t, t2] on the value type t gets from signal i of type t2's experiment.
Both solvers hand HiGHS part of it in one warm session and add, per
(t, t2, i), the best deviation while it beats z (``separate``):
``solve_explicit`` takes an argmax over the market's actions and checks its
optimum against a dual bound; ``implicit.solve_implicit`` asks a
best-response oracle.
"""

from __future__ import annotations

import logging

import numpy as np

from . import lp as lpmod
from .errors import NonConvergence, NumericalFailure
from .market import (
    AuditReport,
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
)

log = logging.getLogger(__name__)

CLEANUP_TOL = 1e-9
ENTRY_TOL = 1e-7             # HiGHS primal feasibility tolerance
AUDIT_TOL = 1e-6
SEPARATION_TOL = 1e-9        # deviation rows violated by more join the session
MAX_SEPARATION_ROUNDS = 200
CERTIFY_TOL = 1e-9           # largest dual-bound gap accepted without a re-solve
RESOLVE_FEASIBILITY_TOL = 1e-10


class MenuLayout:
    """The columns of the menu LP for k types over n states, type t with
    ``sizes[t]`` actions (layout in README).  Signal ``c = first[t] + i`` of
    the S in all is signal i of type t (``owner[c]``, ``signal[c]``); group
    ``g = t*S + c`` is (t, owner[c], signal[c]), with its z at
    ``price + k + g``.  With ``alloc``, as in a buyer's block of the
    multi-buyer LPs, type t's win probability p_t follows at ``alloc + t``;
    without it, ``alloc`` is None and every type is served."""

    def __init__(self, priors, sizes, alloc: bool = False):
        self.priors = np.asarray(priors, dtype=float)
        self.k, self.n = self.priors.shape
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.first = np.cumsum(self.sizes) - self.sizes
        self.total = int(self.sizes.sum())
        self.owner = np.repeat(np.arange(self.k), self.sizes)
        self.signal = np.arange(self.total) - self.first[self.owner]
        self.price = self.n * self.total
        self.n_cols = self.price + self.k + self.k * self.total
        self.alloc = self.n_cols if alloc else None
        self.n_cols += self.k if alloc else 0

    def pi(self, x: np.ndarray, t: int) -> np.ndarray:
        """Type t's experiment in ``x``, as an (n, sizes[t]) view."""
        start = self.n * self.first[t]
        return x[start:start + self.n * self.sizes[t]].reshape(self.n, self.sizes[t])

    def deviation_rows(self, group: np.ndarray, payoff: np.ndarray) -> lpmod.CSR:
        """Per group g = (t, t2, i) and payoff row over states, the row
        z[i, t, t2] >= sum_w theta_t(w) payoff(w) pi[t2, w, i], as "<=" 0."""
        t, c = np.divmod(group, self.total)
        t2, coeffs = self.owner[c], self.priors[t] * payoff
        step = self.sizes[t2][:, None] * np.arange(self.n)               # w * sizes[t2]
        pi = (self.n * self.first[t2] + self.signal[c])[:, None] + step
        r = np.arange(len(group))
        return lpmod.block_csr([(r[:, None], pi, coeffs, coeffs != 0.0),
                                (r, self.price + self.k + group, -1.0, True)],
                               (len(group), self.n_cols))


def menu_lp(layout: MenuLayout, own: np.ndarray, base: np.ndarray, probs,
            deviations: lpmod.CSR) -> lpmod.ArrayLP:
    """The menu LP with the deviation rows ``deviations`` (layout in README):
    per type, its IC rows then its IR row; then ``deviations``; the row sums
    as equality rows.  ``own[c]`` is the payoff over states of
    signal c's action to its owner.  With ``layout.alloc``, type t keeps
    base_t with chance 1 - p_t: IC(t, t2) gains base_t (p_t - p_t2), IR(t)
    gains base_t p_t with right-hand side 0, and the row sums equal p_t."""
    k, n, total, price = layout.k, layout.n, layout.total, layout.price
    typ = np.repeat(np.arange(k), n * layout.sizes)                    # per pi column
    w, i = np.divmod(np.arange(price) - n * layout.first[typ], layout.sizes[typ])
    value = layout.priors[typ, w] * own[layout.first[typ] + i, w]     # theta_t(w) u(w, a_i)
    rows = np.arange(k * (k + 1)).reshape(k, k + 1)                    # ic[t, 0..k-1], ir[t]
    others = np.arange(k + 1) != np.arange(k)[:, None]
    icir = [
        (rows[typ], np.arange(price)[:, None], -value[:, None], value[:, None] != 0.0),
        (rows, price + np.arange(k)[:, None], 1.0, others),            # ic[t, t] nets to 0
        (rows[:, :k], price + np.arange(k), -1.0, others[:, :k]),
        (rows[:, layout.owner], price + k + np.arange(k * total).reshape(k, total), 1.0, True),
    ]
    rhs = np.zeros((k, k + 1))
    sums = [(typ * n + w, np.arange(price), 1.0, True)]
    b_eq = np.ones(k * n)
    if layout.alloc is None:
        rhs[:, k] = base
    else:
        p, base = layout.alloc + np.arange(k), np.asarray(base, dtype=float)[:, None]
        icir += [(rows, p[:, None], base, others), (rows[:, :k], p, -base, others[:, :k])]
        sums.append((np.arange(k * n), np.repeat(p, n), -1.0, True))
        b_eq = np.zeros(k * n)
    c = np.zeros(layout.n_cols)
    c[price:price + k] = probs
    bounds = np.repeat([(0.0, 1.0), (-np.inf, np.inf), (0.0, np.inf), (0.0, 1.0)],
                       [price, k, k * total, 0 if layout.alloc is None else k], axis=0)
    return lpmod.ArrayLP(
        c, lpmod.vstack([lpmod.block_csr(icir, (k * (k + 1), layout.n_cols)), deviations]),
        -np.concatenate((rhs.ravel(), np.zeros(deviations.shape[0]))),
        lpmod.block_csr(sums, (k * n, layout.n_cols)), b_eq, bounds, "max")


def start_rows(layout: MenuLayout) -> tuple[np.ndarray, np.ndarray]:
    """The deviation rows a session starts from, as (group, a) with a an
    action of A_t2, in (t, t2, i, a) order: every action on a self pair
    (t2 = t), which keeps each experiment responsive for its owner, and
    obedience (a = i) on the others."""
    g, a = np.indices((layout.k * layout.total, int(layout.sizes.max())))
    t, c = np.divmod(g, layout.total)
    t2 = layout.owner[c]
    keep = (a < layout.sizes[t2]) & ((t2 == t) | (a == layout.signal[c]))
    return g[keep], a[keep]


def separate(session: lpmod.Session, layout: MenuLayout, best,
             in_model: set) -> tuple[lpmod.LPSolution, int, int]:
    """Run the menu-LP ``session`` and append deviation rows until none is
    violated; return the last solution, the runs and their iterations.

    ``best(x, in_model)`` names one deviation per group: the groups, the row
    keys, the payoffs over states and the values sum_w theta_t(w) payoff(w)
    pi[t2, w, i].  A row whose value beats z by more than ``SEPARATION_TOL``
    joins unless its key is in ``in_model``; such a stale row is in the LP,
    which holds it to HiGHS's feasibility tolerance ``ENTRY_TOL``.
    """
    rounds = iterations = 0
    while True:
        rounds += 1
        if rounds > MAX_SEPARATION_ROUNDS:
            raise NonConvergence(f"separation did not settle in {MAX_SEPARATION_ROUNDS} rounds")
        sol = lpmod.solve(session)
        iterations += sol.iterations
        if sol.status != "Optimal":
            raise NumericalFailure(f"menu LP is {sol.status}")
        group, keys, payoff, value = best(sol.x, in_model)
        violation = value - sol.x[layout.price + layout.k + group]
        new, stale = [], 0.0
        for r in np.flatnonzero(violation > SEPARATION_TOL).tolist():
            if keys[r] in in_model:
                stale = max(stale, violation[r])
            else:
                in_model.add(keys[r])
                new.append(r)
        if not new:
            if stale > ENTRY_TOL:
                raise NumericalFailure(f"a deviation row of the LP is still violated by {stale}")
            return sol, rounds, iterations
        session.add_rows(layout.deviation_rows(group[new], payoff[new]), np.full(len(new), -0.0))


def _explicit_parts(env: Environment, alloc: bool = False):
    """The layout of an explicit market (every type has every action; with
    ``alloc``, a win probability per type), ``utils[t, j]``, the payoffs of
    action j to type t over states, the base utilities and the type
    probabilities."""
    utils = np.array([env.utility[bt.id].T for bt in env.types])       # (k, m, n)
    layout = MenuLayout([bt.prior for bt in env.types], [env.n_actions] * len(env.types), alloc)
    base = np.array([base_utility(env, bt.id) for bt in env.types])
    return layout, utils, base, np.array([env.prob(bt.id) for bt in env.types])


def full_menu_lp(layout: MenuLayout, utils: np.ndarray, base, probs) -> lpmod.ArrayLP:
    """The menu LP with every deviation row (t, t2, i, j), in that order,
    where every type has every action and ``utils[t, j]`` is the payoff of
    action j to type t over states."""
    m = utils.shape[1]
    group, j = np.divmod(np.arange(layout.k * layout.total * m), m)
    rows = layout.deviation_rows(group, utils[group // layout.total, j])
    return menu_lp(layout, utils.reshape(-1, layout.n), base, probs, rows)


def build_menu_lp(env: Environment) -> lpmod.ArrayLP:
    """The full menu LP of an explicit environment."""
    return full_menu_lp(*_explicit_parts(env))


def clean_experiment_matrix(raw: np.ndarray) -> np.ndarray:
    """Clamp LP dust and renormalize rows to exact unit mass.

    Entries may sit below zero by the backend's feasibility tolerance; any
    further below is a genuine failure.
    """
    if np.any(raw < -ENTRY_TOL):
        raise NumericalFailure(f"experiment entry below -{ENTRY_TOL}: {raw.min()}")
    m = np.clip(raw, 0.0, None)
    sums = m.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise NumericalFailure(f"experiment row sums {sums} too far from 1")
    return m / sums[:, None]


def optimal_prices(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The greatest prices that keep fixed per-type experiments IC and IR.

    ``values[t, t2]`` is type t's value for the experiment assigned to type
    t2.  The price rows are difference constraints, p_t - p_t2 <= values[t, t]
    - values[t, t2] (IC) and p_t <= values[t, t] - base_t (IR), so their
    componentwise greatest solution is the shortest-path distances from the
    IR rows, which maximize the revenue for every type distribution (README,
    "Prices by shortest paths").  A cycle above -``CLEANUP_TOL`` is LP dust
    and counts as zero; a lower one leaves no feasible prices.
    """
    own = np.diag(values)
    dist = own - values.T                # dist[t2, t]: p_t <= p_t2 + dist[t2, t]
    for v in range(len(own)):
        np.minimum(dist, dist[:, v, None] + dist[v], out=dist)
    cycle = dist.diagonal().min()
    if cycle < -CLEANUP_TOL:
        raise NumericalFailure(f"IC prices have a negative cycle ({cycle})")
    return ((own - base)[:, None] + dist).min(axis=0)


def _dedupe_actions(env: Environment) -> tuple[Environment, list[int]]:
    """Collapse actions whose utility columns coincide for every type.

    Duplicate actions are interchangeable in any menu, so solving on the
    representative set (first occurrence kept, preserving tie order) yields
    the same optimum; callers re-expand signal columns to original indices.
    """
    stacked = np.concatenate([env.utility[t.id] for t in env.types], axis=0)
    seen: dict[bytes, int] = {}
    keep: list[int] = []
    for a in range(env.n_actions):
        key = stacked[:, a].tobytes()
        if key not in seen:
            seen[key] = a
            keep.append(a)
    if len(keep) == len(env.actions):
        return env, keep
    reduced = Environment(
        states=env.states,
        actions=[env.actions[a] for a in keep],
        utility={t.id: env.utility[t.id][:, keep] for t in env.types},
        types=env.types,
        type_probs=env.type_probs,
    )
    return reduced, keep


def _assert_responsive(env: Environment, menu: Menu, tol: float = 1e-6) -> None:
    """Each positive-mass signal of a type's experiment must recommend an
    action that is optimal at the induced posterior (up to value ties)."""
    for t, bt in enumerate(env.types):
        entry = menu.assignment[bt.id]
        ex, _ = menu.entries[entry]
        weighted = ex.matrix * bt.prior[:, None]
        per_action = weighted.T @ env.utility[bt.id]   # (signals, actions)
        for i in range(ex.n_signals):
            if weighted[:, i].sum() <= 1e-12:
                continue
            if per_action[i].max() - per_action[i, i] > tol:
                raise NumericalFailure(
                    f"signal {i} of type {bt.id} recommends a suboptimal action"
                )


def _optimum_box(env: Environment) -> np.ndarray:
    """Finite bounds per menu-LP column that keep an optimum (README, "Start
    rows, separation and the dual bound"): pi in [0, 1], every price in
    [-G, G] with G the sum over types of full(t) - base(t), and z[i, t, t2]
    in [0, full(t)], where full(t) is type t's value of full revelation."""
    n, m, k = env.n_states, env.n_actions, len(env.types)
    full = np.array([bt.prior @ np.maximum(env.utility[bt.id].max(axis=1), 0.0)
                     for bt in env.types])
    base = np.array([base_utility(env, bt.id) for bt in env.types])
    gap = float((full - base).sum())
    upper = np.concatenate((np.ones(k * n * m), np.full(k, gap), np.repeat(full, k * m)))
    lower = np.concatenate((np.zeros(k * n * m), np.full(k, -gap), np.zeros(k * k * m)))
    return np.column_stack((lower, upper))


def extract_menu(types, pis, values_of, base: np.ndarray, small_prices,
                 expand: tuple[list[int], int] | None = None) -> Menu:
    """The menu of a menu-LP optimum, type t taking entry t: each pi in
    ``pis`` cleaned (``clean_experiment_matrix``) and, given ``expand =
    (keep, m)``, put back on m actions at the columns ``keep``; then
    ``optimal_prices`` on ``values_of(experiments)``, the k x k values, with
    ``small_prices`` applied."""
    experiments = []
    for pi in pis:
        mat = clean_experiment_matrix(pi)
        if expand is not None and len(expand[0]) < expand[1]:
            full = np.zeros((len(mat), expand[1]))
            full[:, expand[0]] = mat
            mat = full
        experiments.append(Experiment(mat))
    prices = small_prices(optimal_prices(values_of(experiments), base))
    return Menu(entries=[(ex, float(p)) for ex, p in zip(experiments, prices)],
                assignment={bt.id: t for t, bt in enumerate(types)})


def value_matrix(env: Environment, matrices) -> np.ndarray:
    """``values[t, t2]``, type t's value of the signaling matrix
    ``matrices[t2]`` (``experiment_value`` of its ``Experiment``; rows may
    sum to any mass), from one product per type.  It is a stacked
    ``matmul``: each matrix meets the same BLAS call as in
    ``experiment_value``, so the values agree bit for bit, and the audit
    sees exactly the numbers the prices were set on."""
    stacked = np.stack(matrices)                                         # (k, n, m)
    return np.array([
        ((stacked * bt.prior[:, None]).transpose(0, 2, 1) @ env.utility[bt.id])
        .max(axis=2).sum(axis=1)
        for bt in env.types
    ])


def solve_explicit(env: Environment) -> tuple[Menu, float, AuditReport]:
    """Solve the menu LP and extract a verified optimal menu.

    Returns the menu (one entry per type with the identity assignment), its
    revenue, and the audit report.  Prices are re-derived from the extracted
    experiments so the audit is exact rather than backend-tolerance loose.
    The session starts from ``start_rows``; ``separate`` then adds, per
    (t, t2, i), the row of the most valuable action not yet in it, computed
    from pi.  The final session's duals give an upper bound on the optimum
    of the full LP; when it exceeds the audited revenue by more than
    ``CERTIFY_TOL``, the LP is solved once more with HiGHS's feasibility
    tolerances at ``RESOLVE_FEASIBILITY_TOL``, and that answer is returned,
    with a warning if its gap still shows.
    """
    reduced, keep = _dedupe_actions(env)
    layout, utils, base, probs = _explicit_parts(reduced)
    k, n, m = layout.k, layout.n, reduced.n_actions
    value_of = (layout.priors[:, None, :] * utils).reshape(k * m, n)   # [(t, j), w]

    def best(x: np.ndarray, in_model: set):
        # value[g, j] = sum_w theta_t(w) u_t(w, a_j) pi[t2, w, i] for g = (t, t2, i).
        pis = x[:layout.price].reshape(k, n, m).transpose(1, 0, 2).reshape(n, k * m)
        value = (value_of @ pis).reshape(k, m, k * m).transpose(0, 2, 1).reshape(-1, m)
        value.flat[np.fromiter(in_model, np.int64, len(in_model))] = -np.inf
        j = value.argmax(axis=1)
        group = np.arange(len(j))
        return group, (group * m + j).tolist(), utils[group // layout.total, j], value[group, j]

    group, a = start_rows(layout)
    start = menu_lp(layout, utils.reshape(-1, n), base, probs,
                    layout.deviation_rows(group, utils[group // layout.total, a]))
    box = _optimum_box(reduced)
    # The audit's base utilities: merging actions can change ``base`` in the last bit.
    audit_base = np.array([base_utility(env, bt.id) for bt in env.types])
    for tol in (None, RESOLVE_FEASIBILITY_TOL):
        session = lpmod.Session(start, tol)
        sol, _, _ = separate(session, layout, best, set((group * m + a).tolist()))
        menu = extract_menu(env.types, [layout.pi(sol.x, t) for t in range(k)],
                            lambda exs: value_matrix(env, [ex.matrix for ex in exs]), audit_base,
                            lambda p: np.where(np.abs(p) < CLEANUP_TOL, 0.0, p),
                            (keep, env.n_actions))
        revenue = float(probs @ menu.prices)
        if abs(revenue - sol.objective_value) > 1e-7:
            raise NumericalFailure(
                f"polished revenue {revenue} drifted from LP objective {sol.objective_value}")
        report = audit_menu(env, menu)
        if report.max_ic_violation > AUDIT_TOL or report.max_ir_violation > AUDIT_TOL:
            raise NumericalFailure(
                f"extracted menu audits IC={report.max_ic_violation} IR={report.max_ir_violation}"
            )
        _assert_responsive(env, menu)
        gap = lpmod.lagrangian_bound(session.array_lp(), sol.row_duals, box) - report.revenue
        if gap <= CERTIFY_TOL:
            break
    else:
        log.warning("menu revenue %r is %.3g below the LP's dual bound", report.revenue, gap)
    return menu, report.revenue, report
