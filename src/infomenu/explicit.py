"""Exact revenue-optimal menus for explicitly specified markets.

The menu design problem is one big LP: per-type experiment matrices with one
signal per action (signal i recommends action i), per-type prices, and helper
variables bounding the value a deviating type can extract from each signal of
another type's experiment.  Self-deviation rows (theta' = theta) force every
experiment to be responsive for its owner.  ``solve_explicit`` hands HiGHS
the helper rows lazily, in one warm session, and checks the optimum it
extracts against a dual bound.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .errors import NumericalFailure
from .market import (
    AuditReport,
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
    experiment_value,
)

log = logging.getLogger(__name__)

CLEANUP_TOL = 1e-9
ENTRY_TOL = 1e-7             # HiGHS primal feasibility tolerance
AUDIT_TOL = 1e-6
VIOLATION_TOL = 1e-9         # helper rows violated by more join the lazy LP
CERTIFY_TOL = 1e-9           # largest dual-bound gap accepted without a re-solve
RESOLVE_FEASIBILITY_TOL = 1e-10


def build_menu_lp(env: Environment) -> lpmod.ArrayLP:
    """The full menu-design LP for an explicit environment.

    Columns: pi[t, w, i] at (t*n + w)*m + i, then the k prices, then
    z[i, t, t2] at k*n*m + k + (i*k + t)*k + t2, which bounds the value type t
    gets from signal i of type t2's experiment.  Inequality rows, each a ">="
    row negated into "<=": one IC row per ordered type pair (t, t2) including
    the self pair, at t*k + t2; one helper lower bound per (t, t2, i, j), at
    k^2 + ((t*k + t2)*m + i)*m + j; one IR row per type.  Equality rows: one
    row sum per (type, state), at t*n + w.
    """
    n, m, k = env.n_states, env.n_actions, len(env.types)
    priors = np.array([bt.prior for bt in env.types])                  # (k, n)
    utils = np.array([env.utility[bt.id] for bt in env.types])         # (k, n, m)
    own = priors[:, :, None] * utils             # [t, w, i]: theta_t[w] u_t[w, a_i]
    n_pi = k * n * m
    n_cols = n_pi + k + m * k * k
    pi = np.arange(n_pi).reshape(k, n, m)
    price = n_pi + np.arange(k)
    z = (n_pi + k + np.arange(m * k * k)).reshape(m, k, k).transpose(1, 2, 0)   # [t, t2, i]
    ic = np.arange(k * k).reshape(k, k)                                 # [t, t2]
    zlb = k * k + np.arange(k * k * m * m).reshape(k, k, m, m)         # [t, t2, i, j]
    ir = k * k * (1 + m * m) + np.arange(k)
    off_diagonal = ~np.eye(k, dtype=bool)
    own_dev = own.transpose(0, 2, 1)[:, None, None]     # [t, ., ., j, w]: theta_t[w] u_t[w, a_j]

    A_ub = lpmod.block_csr(
        [
            # IC(t, t2): sum_i z[i, t, t2] + price[t] - price[t2] - own value of t <= 0;
            # the two price terms of IC(t, t) cancel, so that row has none.
            (ic[:, :, None, None], pi[:, None], -own[:, None], own[:, None] != 0.0),
            (ic[:, :, None], z, 1.0, True),
            (ic, price[:, None], 1.0, off_diagonal),
            (ic, price[None, :], -1.0, off_diagonal),
            # zlb(t, t2, i, j): sum_w theta_t[w] u_t[w, a_j] pi[t2, w, i] - z[i, t, t2] <= 0
            (zlb, z[:, :, :, None], -1.0, True),
            (zlb[..., None], pi.transpose(0, 2, 1)[None, :, :, None], own_dev, own_dev != 0.0),
            # IR(t): price[t] - own value of t <= -base(t)
            (ir[:, None, None], pi, -own, own != 0.0),
            (ir, price, 1.0, True),
        ],
        (k * k * (1 + m * m) + k, n_cols),
    )
    A_eq = lpmod.block_csr([(np.arange(k * n).reshape(k, n, 1), pi, 1.0, True)], (k * n, n_cols))
    base = np.array([base_utility(env, bt.id) for bt in env.types])
    b_ub = -np.concatenate([np.zeros(k * k * (1 + m * m)), base])

    c = np.zeros(n_cols)
    c[price] = [env.prob(bt.id) for bt in env.types]
    bounds = np.zeros((n_cols, 2))
    bounds[:n_pi, 1] = 1.0
    bounds[price] = (-np.inf, np.inf)
    bounds[n_pi + k:, 1] = np.inf
    return lpmod.ArrayLP(c, A_ub, b_ub, A_eq, np.ones(k * n), bounds, "max")


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


def optimal_prices(values: np.ndarray, base: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Revenue-maximizing prices for fixed per-type experiments.

    ``values[i, j]`` is type i's value for the experiment assigned to type j.
    Solving this tiny LP on exactly the numbers the audit recomputes makes
    the extracted menu audit to zero violations instead of backend epsilon.
    """
    k = len(base)
    own = np.diag(values)
    # Per type i, k rows: IC against every j != i in order, then IR; each is a
    # ">=" row negated into "<=".
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    ic = i * k + j - (j > i)
    ir = np.arange(k) * k + k - 1
    A_ub = lpmod.block_csr(
        [(ic, i, 1.0, True), (ic, j, -1.0, True), (ir, np.arange(k), 1.0, True)], (k * k, k)
    )
    b_ub = np.empty(k * k)
    b_ub[ic] = -(values[i, j] - own[i])
    b_ub[ir] = -(base - own)
    bounds = np.tile([-np.inf, np.inf], (k, 1))
    prog = lpmod.ArrayLP(probs, A_ub, b_ub, sp.csr_matrix((0, k)), np.zeros(0), bounds)
    sol = lpmod.solve(prog)
    if sol.status != "Optimal":
        raise NumericalFailure(f"price LP is {sol.status}")
    return sol.x


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


def _lazy_solve(prog: lpmod.ArrayLP, k: int, m: int,
                feasibility_tol: float | None) -> tuple[lpmod.Session, lpmod.LPSolution]:
    """Solve the menu LP ``prog`` (k types, m actions) with its helper rows
    added on demand, in one warm session.

    The session starts from the IC, IR and row-sum rows, every helper row
    of a self pair (t2 = t) and the obedience helper rows (j = i).  After
    each run, every group (t, t2, i) whose most violated helper row outside
    the model exceeds ``VIOLATION_TOL`` has that row appended.  The last
    solution meets every row of ``prog``: those in the session within
    HiGHS's tolerance, the rest within ``VIOLATION_TOL``.
    """
    helpers = prog.A_ub[k * k:k * k * (1 + m * m)]
    t, t2, i, j = np.indices((k, k, m, m))
    in_model = ((t == t2) | (i == j)).reshape(k * k * m, m)
    first = np.concatenate((np.arange(k * k), k * k + np.flatnonzero(in_model),
                            k * k * (1 + m * m) + np.arange(k)))
    session = lpmod.Session(
        lpmod.ArrayLP(prog.c, prog.A_ub[first], prog.b_ub[first], prog.A_eq, prog.b_eq,
                      prog.bounds, prog.sense),
        feasibility_tol,
    )
    while True:
        sol = lpmod.solve(session)
        if sol.status != "Optimal":
            raise NumericalFailure(f"menu LP is {sol.status}")
        violation = (helpers @ sol.x).reshape(k * k * m, m)      # helper rhs are 0
        violation[in_model] = -np.inf
        worst = violation.argmax(axis=1)
        groups = np.flatnonzero(violation[np.arange(len(worst)), worst] > VIOLATION_TOL)
        if not len(groups):
            return session, sol
        rows = groups * m + worst[groups]
        in_model.flat[rows] = True
        session.add_rows(helpers[rows], prog.b_ub[k * k + rows])


def _optimum_box(env: Environment) -> np.ndarray:
    """Finite bounds per menu-LP column that keep an optimum (README, "Lazy
    helper rows and the dual bound"): pi in [0, 1], every price in [-G, G]
    with G the sum over types of full(t) - base(t), and z[i, t, t2] in
    [0, full(t)], where full(t) is type t's value of full revelation."""
    n, m, k = env.n_states, env.n_actions, len(env.types)
    full = np.array([bt.prior @ np.maximum(env.utility[bt.id].max(axis=1), 0.0)
                     for bt in env.types])
    base = np.array([base_utility(env, bt.id) for bt in env.types])
    gap = float((full - base).sum())
    z_hi = np.tile(np.repeat(full, k), m)                 # z[i, t, t2] in (i, t, t2) order
    upper = np.concatenate((np.ones(k * n * m), np.full(k, gap), z_hi))
    lower = np.concatenate((np.zeros(k * n * m), np.full(k, -gap), np.zeros(m * k * k)))
    return np.column_stack((lower, upper))


def _extract(env: Environment, reduced: Environment, keep: list[int],
             sol: lpmod.LPSolution) -> tuple[Menu, AuditReport]:
    """The audited menu of a menu-LP optimum: cleaned experiments, re-expanded
    to every action, with prices re-derived on the audited values."""
    n, m_red, k = reduced.n_states, reduced.n_actions, len(reduced.types)
    pis = sol.x[: k * n * m_red].reshape(k, n, m_red)
    entries: list[tuple[Experiment, float]] = []
    for t in range(k):
        mat = clean_experiment_matrix(pis[t])
        if len(keep) != env.n_actions:
            full = np.zeros((n, env.n_actions))
            full[:, keep] = mat
            mat = full
        entries.append((Experiment(mat), 0.0))

    values = np.array(
        [[experiment_value(env, bt.id, ex) for ex, _ in entries] for bt in env.types]
    )
    base = np.array([base_utility(env, bt.id) for bt in env.types])
    probs = np.array([env.prob(bt.id) for bt in env.types])
    prices = optimal_prices(values, base, probs)
    prices = np.where(np.abs(prices) < CLEANUP_TOL, 0.0, prices)
    menu = Menu(
        entries=[(ex, float(p)) for (ex, _), p in zip(entries, prices)],
        assignment={bt.id: t for t, bt in enumerate(env.types)},
    )
    if abs(float(probs @ prices) - sol.objective_value) > 1e-7:
        raise NumericalFailure(
            f"polished revenue {float(probs @ prices)} drifted from LP objective {sol.objective_value}"
        )
    report = audit_menu(env, menu)
    if report.max_ic_violation > AUDIT_TOL or report.max_ir_violation > AUDIT_TOL:
        raise NumericalFailure(
            f"extracted menu audits IC={report.max_ic_violation} IR={report.max_ir_violation}"
        )
    _assert_responsive(env, menu)
    return menu, report


def solve_explicit(env: Environment) -> tuple[Menu, float, AuditReport]:
    """Solve the menu LP and extract a verified optimal menu.

    Returns the menu (one entry per type with the identity assignment), its
    revenue, and the audit report.  Prices are re-derived from the extracted
    experiments so the audit is exact rather than backend-tolerance loose.
    The helper rows are added lazily (``_lazy_solve``).  The final session's
    duals give an upper bound on the optimum of the full LP; when it exceeds
    the audited revenue by more than ``CERTIFY_TOL``, the LP is solved once
    more with HiGHS's feasibility tolerances at ``RESOLVE_FEASIBILITY_TOL``,
    and that answer is returned, with a warning if its gap still shows.
    """
    reduced, keep = _dedupe_actions(env)
    prog = build_menu_lp(reduced)
    box = _optimum_box(reduced)
    for tol in (None, RESOLVE_FEASIBILITY_TOL):
        session, sol = _lazy_solve(prog, len(reduced.types), reduced.n_actions, tol)
        menu, report = _extract(env, reduced, keep, sol)
        gap = lpmod.lagrangian_bound(session.array_lp(), sol.row_duals, box) - report.revenue
        if gap <= CERTIFY_TOL:
            break
    else:
        log.warning("menu revenue %r is %.3g below the LP's dual bound", report.revenue, gap)
    return menu, report.revenue, report
