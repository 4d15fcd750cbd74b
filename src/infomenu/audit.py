"""Independent verification oracles for the solvers.

Nothing here goes through the LP pipeline it checks: revenue brackets come
from exhaustive grid search over responsive menus, and known-answer optima
come from closed forms (single-type full revelation, maximum-satisfiability
arithmetic).  The acceptance suite and the CLI both lean on this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure, TooLarge
from .explicit import optimal_prices, solve_explicit
from .market import (
    BuyerType,
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
    experiment_value,
)
from .oracles import CNF, max_satisfiable


def matching_environment(types, type_probs=None, n: int = 2) -> Environment:
    """The n-state, n-action environment paying 1 when action matches state."""
    return Environment.build(
        states=[f"w{i}" for i in range(n)],
        actions=[f"a{i}" for i in range(n)],
        utility=np.eye(n),
        types=types,
        type_probs=type_probs,
    )


def benchmark_experiment() -> Experiment:
    """The standard two-signal diagnostic: 70% accurate in either state."""
    return Experiment(np.array([[0.7, 0.3], [0.3, 0.7]]))


def benchmark_experiment_value(theta: float) -> float:
    """Closed-form value of the 70%-accurate experiment under matching
    utilities for the prior (theta, 1 - theta).

    Below 0.3 the buyer ignores it toward the likely state, above 0.7
    likewise; in between each signal flips his action.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    if theta <= 0.3:
        return 1.0 - theta
    if theta <= 0.7:
        return 0.7
    return theta


def single_type_optimum(env: Environment) -> float:
    """Closed-form optimal revenue when only one type exists: sell full
    revelation at its value minus the base utility."""
    if len(env.types) != 1:
        raise ValueError("closed form applies to single-type environments")
    tid = env.types[0].id
    full_value = float((env.prior(tid)[:, None] * env.utility[tid]).max(axis=1).sum())
    return full_value - base_utility(env, tid)


def sat_reduction_optimum(cnf: CNF, max_vars: int = 20) -> float:
    """Optimal revenue of the two-state satisfiability market for ``cnf``.

    With m clauses and k the maximum satisfiable count, the seller's best
    take is (m - k + 1) / (2m + 4): full revelation priced at the buyer's
    value gap.  Exhaustive in the variable count.
    """
    if cnf.num_vars > max_vars:
        raise TooLarge(f"{cnf.num_vars} variables exceed cap {max_vars}")
    m = len(cnf.clauses)
    k = max_satisfiable(cnf, cap=max_vars)
    return (m - k + 1) / (2 * m + 4)


@dataclass(frozen=True)
class AnalyticInstance:
    """A known-answer problem: builder plus its closed-form optimal revenue."""

    name: str
    build: Callable[[], Environment]
    optimum: float
    note: str


def analytic_instances() -> list[AnalyticInstance]:
    out = [
        AnalyticInstance(
            name="uniform-matching-2x2",
            build=lambda: matching_environment([("t0", [0.5, 0.5])]),
            optimum=0.5,
            note="single type: full revelation at 1 - max(p, 1-p)",
        ),
        AnalyticInstance(
            name="point-mass-prior",
            build=lambda: matching_environment([("t0", [1.0, 0.0])]),
            optimum=0.0,
            note="certain buyer: information is worthless",
        ),
        AnalyticInstance(
            name="constant-utilities",
            build=lambda: Environment.build(
                states=["w0", "w1"],
                actions=["a0", "a1"],
                utility=np.full((2, 2), 0.4),
                types=[("t0", [0.3, 0.7])],
            ),
            optimum=0.0,
            note="flat payoffs: every experiment is worth the base utility",
        ),
    ]
    for p in (0.6, 0.8, 0.9):
        out.append(
            AnalyticInstance(
                name=f"skewed-matching-{p}",
                build=lambda p=p: matching_environment([("t0", [p, 1.0 - p])]),
                optimum=1.0 - p,
                note="single type: full revelation at 1 - max(p, 1-p)",
            )
        )
    return out


def _grid_rows(n_signals: int, steps: int) -> np.ndarray:
    """All probability rows with entries in multiples of 1/steps."""
    combos = itertools.combinations_with_replacement(range(n_signals), steps)
    counts = []
    for combo in combos:
        row = np.zeros(n_signals)
        for idx in combo:
            row[idx] += 1
        counts.append(row)
    return np.array(counts) / steps


def _responsive_candidates(env: Environment, type_id: str, steps: int) -> list[np.ndarray]:
    """Grid experiments that are responsive for the type: every positive-mass
    signal i recommends an action optimal at its induced posterior."""
    rows = _grid_rows(env.n_actions, steps)
    theta = env.prior(type_id)
    u = env.utility[type_id]
    out = []
    for picks in itertools.product(range(len(rows)), repeat=env.n_states):
        mat = rows[list(picks)]
        weighted = mat * theta[:, None]
        per_action = weighted.T @ u
        best = per_action.max(axis=1)
        ok = True
        for i in range(env.n_actions):
            if weighted[:, i].sum() > 1e-12 and best[i] - per_action[i, i] > 1e-12:
                ok = False
                break
        if ok:
            out.append(mat)
    return out


@dataclass
class SearchBracket:
    lower: float
    upper: float
    menu: Menu | None


def brute_force_menu_search(
    env: Environment, grid_step: float, upper: float | None = None,
    combo_cap: int = 2_000_000,
) -> SearchBracket:
    """Bracket the optimal revenue by exhaustive search over grid menus.

    Enumerates per-type responsive experiments with entries on the grid,
    deduplicated by their value vectors; for every assignment of experiments
    the revenue-optimal prices follow from binding the participation and
    envy constraints (so the lower bound is an exactly feasible menu, not a
    price-grid artifact).  The upper bound is the LP relaxation value,
    computed lazily by the caller or passed in.
    """
    if env.n_states != 2:
        raise TooLarge("grid search supports exactly two states")
    if len(env.types) > 3 or env.n_actions > 3:
        raise TooLarge("grid search caps at three types and three actions")
    if grid_step < 0.05 - 1e-12:
        raise TooLarge("grid step below 0.05 explodes the enumeration")
    steps = round(1.0 / grid_step)

    tids = env.type_ids()
    cands: list[list[np.ndarray]] = []
    values: list[np.ndarray] = []        # values[t] has shape (|Theta|, |cands_t|)
    for tid in tids:
        mats = _responsive_candidates(env, tid, steps)
        vals = np.array(
            [
                [
                    float((mat * env.prior(t2)[:, None]).T.dot(env.utility[t2]).max(axis=1).sum())
                    for mat in mats
                ]
                for t2 in tids
            ]
        )
        # Dedupe by the full value vector: menus only see experiments through
        # per-type values, so one representative per vector suffices.
        _, keep = np.unique(np.round(vals, 12), axis=1, return_index=True)
        keep = np.sort(keep)
        cands.append([mats[i] for i in keep])
        values.append(vals[:, keep])

    base = np.array([base_utility(env, tid) for tid in tids])
    probs = np.array([env.prob(tid) for tid in tids])
    k = len(tids)
    combos = int(np.prod([len(c) for c in cands]))
    if combos > combo_cap:
        raise TooLarge(f"{combos} experiment assignments exceed cap {combo_cap}")

    best_rev = 0.0
    best_pick: tuple[int, ...] | None = None
    if k == 1:
        rev = values[0][0] - base[0]
        j = int(np.argmax(rev))
        best_rev = max(0.0, float(rev[j]))
        best_pick = (j,)
    elif k == 2:
        v00 = values[0][0]      # type0's value of type0-candidates
        v10 = values[0][1]      # type1's value of type0-candidates
        v01 = values[1][0]      # type0's value of type1-candidates
        v11 = values[1][1]      # type1's value of type1-candidates
        # Broadcast over (cand for type0) x (cand for type1); optimal prices
        # come from pushing both to their caps and settling the two envy
        # constraints, which converges in two passes.
        b0 = (v00 - base[0])[:, None]           # IR caps
        b1 = (v11 - base[1])[None, :]
        q0 = v00[:, None] - v01[None, :]        # t0 - t1 <= q0
        q1 = v11[None, :] - v10[:, None]        # t1 - t0 <= q1
        t0 = np.minimum(b0, b1 + q0)
        t1 = np.minimum(b1, t0 + q1)
        t0 = np.minimum(t0, t1 + q0)
        rev = probs[0] * t0 + probs[1] * t1
        # Cross-subsidy pricing never beats some nonnegative-priced
        # assignment, so negatively priced pairs can be dropped outright.
        bad = (q0 + q1 < -1e-12) | (t0 < -1e-12) | (t1 < -1e-12)
        rev = np.where(bad, -np.inf, rev)
        flat = int(np.argmax(rev))
        i0, i1 = np.unravel_index(flat, rev.shape)
        best_rev = max(0.0, float(rev[i0, i1]))
        best_pick = (int(i0), int(i1))
    else:
        for picks in itertools.product(*[range(len(c)) for c in cands]):
            vmat = np.array(
                [[values[j][t][picks[j]] for j in range(k)] for t in range(k)]
            )
            try:
                prices = optimal_prices(vmat, base)
            except NumericalFailure:       # a negative IC cycle: no prices exist
                continue
            if np.any(prices < -1e-9):
                continue
            rev = float(probs @ prices)
            if rev > best_rev:
                best_rev = rev
                best_pick = picks

    menu = None
    if best_pick is not None and best_rev > 0.0:
        vmat = np.array(
            [[values[j][t][best_pick[j]] for j in range(k)] for t in range(k)]
        )
        prices = np.clip(optimal_prices(vmat, base), 0.0, None)
        menu = Menu(
            entries=[
                (Experiment(cands[j][best_pick[j]]), float(prices[j])) for j in range(k)
            ],
            assignment={tid: j for j, tid in enumerate(tids)},
        )
        report = audit_menu(env, menu)
        if report.max_ic_violation > 1e-9 or report.max_ir_violation > 1e-9:
            raise AssertionError("grid search produced an infeasible menu")
        best_rev = report.revenue
    if upper is None:
        _, upper, _ = solve_explicit(env)
    return SearchBracket(lower=best_rev, upper=float(upper) + 1e-9, menu=menu)
