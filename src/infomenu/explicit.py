"""Exact revenue-optimal menus for explicitly specified markets.

The menu design problem is one big LP: per-type experiment matrices with one
signal per action (signal i recommends action i), per-type prices, and helper
variables bounding the value a deviating type can extract from each signal of
another type's experiment.  Self-deviation rows (theta' = theta) force every
experiment to be responsive for its owner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .errors import NumericalFailure
from .market import AuditReport, Environment, Experiment, Menu, audit_menu, base_utility

CLEANUP_TOL = 1e-9
ENTRY_TOL = 1e-7             # HiGHS primal feasibility tolerance
AUDIT_TOL = 1e-6


@dataclass(frozen=True)
class ExplicitLPIndex:
    """Bijective naming of the LP variable blocks.

    Types, states and signals are addressed by position; signal index i
    ranges over the action count since each signal recommends one action.
    """

    n_types: int
    n_states: int
    n_actions: int

    def pi(self, t: int, w: int, i: int) -> str:
        return f"pi[{t},{w},{i}]"

    def price(self, t: int) -> str:
        return f"t[{t}]"

    def z(self, i: int, t: int, t2: int) -> str:
        return f"z[{i},{t},{t2}]"


def build_menu_lp(env: Environment) -> tuple[lpmod.LinearProgram, ExplicitLPIndex]:
    """The full menu-design LP for an explicit environment.

    Constraint groups, in order: one IC row per ordered type pair (including
    the self pair), one helper lower bound per (pair, signal, action), one IR
    row per type, one row-sum equality per (type, state).
    """
    n, m, k = env.n_states, env.n_actions, len(env.types)
    ix = ExplicitLPIndex(k, n, m)
    prog = lpmod.LinearProgram(sense="max")

    for t in range(k):
        for w in range(n):
            for i in range(m):
                prog.add_variable(ix.pi(t, w, i), 0.0, 1.0)
    for t in range(k):
        prog.add_variable(ix.price(t), None, None)
        prog.set_objective(ix.price(t), env.prob(env.types[t].id))
    for i in range(m):
        for t in range(k):
            for t2 in range(k):
                prog.add_variable(ix.z(i, t, t2), 0.0, None)

    utils = [env.utility[t.id] for t in env.types]
    priors = [t.prior for t in env.types]

    def own_value_coeffs(t: int) -> dict[str, float]:
        # sum_i sum_w theta_w * pi[t,w,i] * u[w, a_i]
        return {
            ix.pi(t, w, i): priors[t][w] * utils[t][w, i]
            for w in range(n)
            for i in range(m)
            if priors[t][w] * utils[t][w, i] != 0.0
        }

    for t in range(k):
        own = own_value_coeffs(t)
        for t2 in range(k):
            coeffs = dict(own)
            coeffs[ix.price(t)] = coeffs.get(ix.price(t), 0.0) - 1.0
            for i in range(m):
                coeffs[ix.z(i, t, t2)] = -1.0
            coeffs[ix.price(t2)] = coeffs.get(ix.price(t2), 0.0) + 1.0
            prog.add_constraint(f"ic[{t},{t2}]", coeffs, lpmod.GE, 0.0)

    for t in range(k):
        for t2 in range(k):
            for i in range(m):
                for j in range(m):
                    coeffs = {ix.z(i, t, t2): 1.0}
                    for w in range(n):
                        c = priors[t][w] * utils[t][w, j]
                        if c != 0.0:
                            coeffs[ix.pi(t2, w, i)] = coeffs.get(ix.pi(t2, w, i), 0.0) - c
                    prog.add_constraint(f"zlb[{i},{j},{t},{t2}]", coeffs, lpmod.GE, 0.0)

    for t in range(k):
        coeffs = own_value_coeffs(t)
        coeffs[ix.price(t)] = coeffs.get(ix.price(t), 0.0) - 1.0
        prog.add_constraint(
            f"ir[{t}]", coeffs, lpmod.GE, base_utility(env, env.types[t].id)
        )

    for t in range(k):
        for w in range(n):
            coeffs = {ix.pi(t, w, i): 1.0 for i in range(m)}
            prog.add_constraint(f"rowsum[{t},{w}]", coeffs, lpmod.EQ, 1.0)

    return prog, ix


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
    prog = lpmod.LinearProgram(sense="max")
    for t in range(k):
        prog.add_variable(f"t[{t}]", None, None)
        prog.set_objective(f"t[{t}]", float(probs[t]))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            prog.add_constraint(
                f"ic[{i},{j}]",
                {f"t[{i}]": -1.0, f"t[{j}]": 1.0},
                lpmod.GE,
                float(values[i, j] - values[i, i]),
            )
        prog.add_constraint(f"ir[{i}]", {f"t[{i}]": -1.0}, lpmod.GE, float(base[i] - values[i, i]))
    sol = lpmod.solve(prog, want_duals=False)
    if sol.status != "Optimal":
        raise NumericalFailure(f"price LP is {sol.status}")
    return np.array([sol.values[f"t[{t}]"] for t in range(k)])


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


def solve_explicit(env: Environment) -> tuple[Menu, float, AuditReport]:
    """Solve the menu LP and extract a verified optimal menu.

    Returns the menu (one entry per type with the identity assignment), its
    revenue, and the audit report.  Prices are re-derived from the extracted
    experiments so the audit is exact rather than backend-tolerance loose.
    """
    reduced, keep = _dedupe_actions(env)
    prog, ix = build_menu_lp(reduced)
    sol = lpmod.solve(prog, want_duals=False)
    if sol.status != "Optimal":
        raise NumericalFailure(f"menu LP is {sol.status}")

    n, m_red, k = reduced.n_states, reduced.n_actions, len(reduced.types)
    entries: list[tuple[Experiment, float]] = []
    for t in range(k):
        raw = np.array([[sol.values[ix.pi(t, w, i)] for i in range(m_red)] for w in range(n)])
        mat = clean_experiment_matrix(raw)
        if len(keep) != env.n_actions:
            full = np.zeros((n, env.n_actions))
            full[:, keep] = mat
            mat = full
        entries.append((Experiment(mat), 0.0))

    values = np.array(
        [
            [
                float(
                    (entries[j][0].matrix * env.prior(bt.id)[:, None]).T
                    .dot(env.utility[bt.id])
                    .max(axis=1)
                    .sum()
                )
                for j in range(k)
            ]
            for bt in env.types
        ]
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
    return menu, report.revenue, report
