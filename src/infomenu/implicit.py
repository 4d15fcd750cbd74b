"""Approximately optimal menus with only best-response oracle access.

The pipeline: discretize signal columns on a grid whose step keeps the
rounding loss below epsilon, learn per-type action sets by querying the
oracle across induced posteriors, solve the menu LP restricted to those
action sets with lazily separated deviation bounds, and finish with the
price-discount repair that turns an almost-incentive-compatible menu into an
exactly incentive-compatible one.

Also here: the signal-merging and entry-rounding transforms the guarantee
rests on, menu compression across nearby types, and price repair for menus
designed under misspecified type data.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .errors import (
    GridTooLarge,
    InvalidInstance,
    PairingMismatch,
)
from .explicit import (  # optimal_prices is re-exported: perfbench hooks the name
    MenuLayout,
    extract_menu,
    menu_lp,
    optimal_prices,
    separate,
    start_rows,
)
from .market import (
    AuditReport,
    BuyerType,
    Experiment,
    Menu,
    audit_menu,
    choose_from_menu,
)
from .oracles import BROracle, OracleMarket

log = logging.getLogger(__name__)

DEFAULT_GRID_CAP = 10**7
EXACT_IC_TOL = 1e-9          # observed violations below this count as exact


def tv_distance(p, q) -> float:
    """Total variation distance between discrete distributions (half L1)."""
    return 0.5 * float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


def _half_down_bucket(x: np.ndarray, step: float) -> np.ndarray:
    """Nearest-multiple bucket indices with boundary ties to the lower bucket."""
    return np.ceil(x / step - 0.5).astype(np.int64)


def _lattice_key(vec: np.ndarray, steps: int) -> tuple:
    """Quantize a distribution onto the 1/steps simplex lattice by largest-
    remainder apportionment; the key identifies the nearest lattice point."""
    scaled = np.asarray(vec, dtype=float) * steps
    floors = np.floor(scaled).astype(np.int64)
    short = steps - int(floors.sum())
    order = np.argsort(-(scaled - floors), kind="stable")
    floors[order[:short]] += 1
    return tuple(floors)


def merge_signals(experiment: Experiment, epsilon: float) -> Experiment:
    """Merge signal columns whose normalized versions bucket together.

    Columns are normalized to unit mass, bucketed to multiples of
    epsilon/n_states, and summed per bucket; zero columns are dropped.  The
    owner's value drops by at most 2*epsilon and no type's value for the
    result exceeds its value for the input.
    """
    if not (0.0 < epsilon <= 1.0):
        raise InvalidInstance("epsilon must lie in (0, 1]")
    m = experiment.matrix
    n = experiment.n_states
    step = epsilon / n
    sums = m.sum(axis=0)
    buckets: dict[tuple, int] = {}
    merged: list[np.ndarray] = []
    for k in range(experiment.n_signals):
        if sums[k] <= 0.0:
            continue
        key = tuple(_half_down_bucket(m[:, k] / sums[k], step))
        if key in buckets:
            merged[buckets[key]] = merged[buckets[key]] + m[:, k]
        else:
            buckets[key] = len(merged)
            merged.append(m[:, k].copy())
    if not merged:
        raise InvalidInstance("experiment has no positive-mass column")
    return Experiment(np.column_stack(merged), row_mass=experiment.row_mass)


def round_experiment(experiment: Experiment, delta: float) -> Experiment:
    """Round entries to multiples of delta, keeping every row an exact unit
    by largest-remainder apportionment (remainder ties to the lower index)."""
    steps = 1.0 / delta
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9:
        raise InvalidInstance("1/delta must be an integer")
    m = experiment.matrix
    out = np.empty_like(m)
    for w in range(experiment.n_states):
        scaled = m[w] * n_steps
        floors = np.floor(scaled).astype(np.int64)
        short = n_steps - int(floors.sum())
        remainders = scaled - floors
        # stable argsort descending: ties resolved toward lower index
        order = np.argsort(-remainders, kind="stable")
        floors[order[:short]] += 1
        out[w] = floors / n_steps
    return Experiment(out, row_mass=experiment.row_mass)


def eps_ic_to_ic(view, menu: Menu, epsilon: float) -> Menu:
    """Repair an almost-IC menu into an exactly IC and IR one by pricing.

    If the audited violations are numerically zero the menu passes through
    unchanged.  Otherwise every price becomes (1 - sqrt(eps)) * t - eps,
    floored at zero, and each type is reassigned its best choice; revenue
    falls by at most sqrt(eps) + eps plus the sqrt(eps) discount fraction.
    """
    if epsilon < 0:
        raise InvalidInstance("epsilon must be nonnegative")
    report = audit_menu(view, menu)
    observed = max(report.max_ic_violation, report.max_ir_violation)
    if observed > epsilon + 1e-7:
        raise InvalidInstance(
            f"menu violates constraints by {observed}, above the promised {epsilon}"
        )
    if observed <= EXACT_IC_TOL:
        return menu
    eta = math.sqrt(epsilon)
    new_entries = [
        (ex, max(0.0, (1.0 - eta) * price - epsilon)) for ex, price in menu.entries
    ]
    repaired = Menu(entries=new_entries)
    repaired.assignment = {
        tid: choose_from_menu(view, tid, repaired)[0] for tid in view.type_ids()
    }
    return repaired


@dataclass(frozen=True)
class SignalGrid:
    """The discretized column universe: entries are multiples of delta."""

    delta: float
    n_states: int

    @property
    def steps(self) -> int:
        return round(1.0 / self.delta)

    @property
    def n_columns(self) -> int:
        return (self.steps + 1) ** self.n_states


@dataclass
class ActionSets:
    """Per-type candidate actions discovered through oracle queries, with
    their per-state payoffs materialized for LP coefficient building."""

    actions: dict[str, list]                 # type id -> ordered opaque tokens
    utilities: dict[str, np.ndarray]         # type id -> (n_actions, n_states)

    def size(self, type_id: str) -> int:
        return len(self.actions[type_id])


def _bucket_count_bound(n_states: int, epsilon: float) -> int:
    """Upper bound on the number of merge buckets of normalized columns.

    Bucketed simplex points have integer index sums within a window of width
    n_states around 1/step; summing compositions over that window bounds the
    distinct bucket count from above (a safe overestimate: it only shrinks
    the grid step).
    """
    step = epsilon / n_states
    k = 1.0 / step
    lo = math.floor(k - n_states / 2.0) + 1
    hi = math.floor(k + n_states / 2.0)
    return sum(
        math.comb(s + n_states - 1, n_states - 1) for s in range(max(lo, 0), hi + 1)
    )


def schedule_delta(n_states: int, epsilon: float, grid_cap: int = DEFAULT_GRID_CAP) -> float:
    """Grid step: epsilon divided by the merge-bucket bound, clamped so the
    full column grid fits under ``grid_cap``.

    The clamp is admissible while delta stays below epsilon/(2*n_states):
    querying best responses on a posterior net of that resolution loses at
    most epsilon of value, which the repair budget already absorbs.  Beyond
    that (in particular for 4+ states at practical epsilon) the grid is
    genuinely too large and GridTooLarge is raised.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidInstance("epsilon must lie in (0, 1)")
    buckets = _bucket_count_bound(n_states, epsilon)
    steps = math.ceil(buckets / epsilon)
    if (steps + 1) ** n_states <= grid_cap:
        return 1.0 / steps
    capped = int(grid_cap ** (1.0 / n_states))
    while (capped + 1) ** n_states > grid_cap:
        capped -= 1
    if capped < 1 or 1.0 / capped > epsilon / (2.0 * n_states):
        raise GridTooLarge(
            f"grid needs {(steps + 1) ** n_states} columns, cap is {grid_cap}"
        )
    log.info(
        "signal grid clamped: schedule step 1/%d exceeds cap, using 1/%d", steps, capped
    )
    return 1.0 / capped


def simplex_lattice(n_parts: int, resolution: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``n_parts`` summing to
    ``resolution``, in lexicographic order.

    Stars and bars: each vector is a choice of ``n_parts - 1`` bar positions
    among ``resolution + n_parts - 1`` slots, and lexicographic bar choices
    give lexicographic vectors.
    """
    slots = resolution + n_parts - 1
    bars = list(itertools.combinations(range(slots), n_parts - 1))
    bars = np.array(bars, dtype=np.int64).reshape(len(bars), n_parts - 1)
    fences = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots)))
    return np.diff(fences, axis=1) - 1


def _cell_vertices(lo: tuple, hi: tuple, steps: int) -> list[tuple]:
    """Vertices of the integer box [lo, hi] clipped by sum(x) <= steps.

    These are the box corners inside the bound plus the points where box
    edges cross sum(x) = steps; all are lattice points.
    """
    out: dict[tuple, None] = {}
    for corner in itertools.product(*zip(lo, hi)):
        total = sum(corner)
        if total > steps:
            continue
        out[corner] = None
        for i, (l, h) in enumerate(zip(lo, hi)):
            if corner[i] == l and total - l + h > steps > total:
                out[corner[:i] + (l + steps - total,) + corner[i + 1:]] = None
    return list(out)


def _discover_actions(oracle: BROracle, priors: np.ndarray, steps: int) -> tuple[list, list]:
    """The distinct best responses over the posterior grid of one prior
    support, in the order a full lattice scan meets them, and the answer at
    each row of ``priors`` (priors with that support).

    Grid points are the integer vectors x >= 0 with sum(x) <= steps in the
    free coordinates of the support (the last support coordinate is
    steps - sum(x)).  Cells of that set are bisected: the posterior value
    max_a q.u_a is convex, so when the oracle gives the same action at every
    vertex of a convex cell, that action is optimal on the whole cell, and
    the oracle's fixed tie-break returns it at every lattice point inside.
    Such cells are dropped unsplit; a cell whose sides are all <= 1 has no
    lattice points besides its vertices.  Each token is ordered by its
    lexicographically smallest queried point, which is the full scan's
    first appearance because a convex cell's lex-min point is a vertex.
    The lattice and the answers on it depend only on the support, so one
    bisection serves every prior with it; the priors ride in the first
    oracle batch.
    """
    support = np.flatnonzero(priors[0] > 0.0)
    free = len(support) - 1
    answers: dict[tuple, object] = {}
    cells = [((0,) * free, (steps,) * free)]
    while cells:
        vertices = [_cell_vertices(lo, hi, steps) for lo, hi in cells]
        new = list(dict.fromkeys(p for vs in vertices for p in vs if p not in answers))
        coords = np.array(new, dtype=np.int64).reshape(len(new), free)
        posteriors = np.zeros((len(new), priors.shape[1]))
        posteriors[:, support[:free]] = coords / steps
        posteriors[:, support[-1]] = (steps - coords.sum(axis=1)) / steps
        if not answers:                      # first batch: the priors ride along
            tokens, _ = oracle.respond_many(np.vstack([posteriors, priors]))
            prior_tokens = tokens[len(new):]
        elif new:
            tokens, _ = oracle.respond_many(posteriors)
        answers.update(zip(new, tokens))
        split = []
        for (lo, hi), vs in zip(cells, vertices):
            sides = [h - l for l, h in zip(lo, hi)]
            if not vs or max(sides, default=0) <= 1:
                continue
            if all(answers[v] == answers[vs[0]] for v in vs):
                continue
            i = sides.index(max(sides))
            mid = (lo[i] + hi[i]) // 2
            split.append((lo, hi[:i] + (mid,) + hi[i + 1:]))
            split.append((lo[:i] + (mid,) + lo[i + 1:], hi))
        cells = split
    return list(dict.fromkeys(answers[p] for p in sorted(answers))), prior_tokens


def build_action_sets(
    oracle: BROracle,
    types: list[BuyerType],
    epsilon: float,
    *,
    grid_cap: int = DEFAULT_GRID_CAP,
    delta: float | None = None,
) -> tuple[ActionSets, SignalGrid]:
    """Discover the actions each type could best-respond with.

    For each type, the distinct oracle answers across a posterior net of grid
    resolution covering every posterior a grid column can induce, in the
    order a scan of the net meets them, then the prior's answer if it is
    new, form that type's action set.  The net depends only on the prior's
    support, so it is searched once per distinct support, by convex-cell
    bisection (``_discover_actions``): queries go only where the answer
    changes, and the result equals a scan of every net point.  Each token's
    utility row is asked of the oracle once.
    """
    if not types:
        raise InvalidInstance("need at least one type")
    n_states = len(types[0].prior)
    for t in types:
        if len(t.prior) != n_states:
            raise InvalidInstance("types disagree on the state count")
    if delta is None:
        delta = schedule_delta(n_states, epsilon, grid_cap)
    grid = SignalGrid(delta, n_states)
    if grid.n_columns > grid_cap:
        raise GridTooLarge(f"{grid.n_columns} grid columns exceed cap {grid_cap}")

    groups: dict[tuple, list[int]] = {}
    for i, bt in enumerate(types):
        groups.setdefault(tuple(np.flatnonzero(bt.prior > 0.0)), []).append(i)
    found: list[list] = [[] for _ in types]
    for members in groups.values():
        shared, prior_tokens = _discover_actions(
            oracle, np.array([types[i].prior for i in members]), grid.steps)
        for i, tok in zip(members, prior_tokens):
            found[i] = shared + [tok] if tok not in shared else list(shared)
    rows: dict[object, list[float]] = {}
    actions: dict[str, list] = {}
    utilities: dict[str, np.ndarray] = {}
    for bt, ordered in zip(types, found):
        for tok in ordered:
            if tok not in rows:
                rows[tok] = [oracle.utility_of(tok, w) for w in range(n_states)]
        actions[bt.id] = ordered
        utilities[bt.id] = np.array([rows[tok] for tok in ordered])
    return ActionSets(actions, utilities), grid


@dataclass
class ImplicitResult:
    menu: Menu
    revenue: float
    report: AuditReport
    action_sets: ActionSets
    grid: SignalGrid
    lp_objective: float
    separation_rounds: int
    lp_iterations: int                       # HiGHS simplex iterations over the rounds


def solve_implicit(
    oracle: BROracle,
    types: list[BuyerType],
    type_probs: dict[str, float],
    epsilon: float,
    *,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> ImplicitResult:
    """Oracle-driven menu optimization within epsilon-ish of optimal.

    Solves the menu LP over each type's discovered action set in one warm
    ``lp.Session`` (``explicit.menu_lp``), started from
    ``explicit.start_rows``: the payoffs of those rows are the action sets'
    utilities, so they need no query.  ``explicit.separate`` then grows the
    deviation bounds: after each run, the oracle names the best deviating
    action against every signal of every experiment, for every type, and
    any bound it beats becomes a new row.  ``explicit.extract_menu`` prices
    the extracted menu on exactly audited values, and it passes through the
    4*epsilon repair (a no-op whenever the solution is already exactly IC,
    the usual case).
    """
    market = OracleMarket(oracle, types, type_probs)
    action_sets, grid = build_action_sets(oracle, types, epsilon, grid_cap=grid_cap)
    k, n = len(types), grid.n_states
    layout = MenuLayout([t.prior for t in types], [action_sets.size(t.id) for t in types])
    tokens = [tok for t in types for tok in action_sets.actions[t.id]]       # per signal
    own = np.vstack([action_sets.utilities[t.id] for t in types])            # (S, n)
    payoffs = dict(zip(tokens, own))
    base = np.array([market.base(t.id) for t in types])
    probs = [float(type_probs[t.id]) for t in types]

    def best(x: np.ndarray, in_model: set):
        # The oracle's answer at the posterior of every positive-mass signal
        # of every experiment, for every type; ``separate`` checks the stale.
        pis = np.clip(np.hstack([layout.pi(x, t) for t in range(k)]), 0.0, None)   # (n, S)
        weighted = (layout.priors[:, None, :] * pis.T).reshape(-1, n)            # [t*S + c, w]
        mass = weighted.sum(axis=1)
        group = np.flatnonzero(mass > 1e-15)
        answers, eus = oracle.respond_many(weighted[group] / mass[group, None])
        for tok in answers:
            if tok not in payoffs:
                payoffs[tok] = np.array([oracle.utility_of(tok, w) for w in range(n)])
        return (group, list(zip(group.tolist(), answers)),
                np.array([payoffs[tok] for tok in answers]), mass[group] * np.asarray(eus))

    group, a = start_rows(layout)
    col = layout.first[layout.owner[group % layout.total]] + a       # the action a of A_t2
    start = menu_lp(layout, own, base, probs, layout.deviation_rows(group, own[col]))
    in_model = {(g, tokens[c]) for g, c in zip(group.tolist(), col.tolist())}
    sol, rounds, iterations = separate(lpmod.Session(start), layout, best, in_model)

    menu = extract_menu(
        types, [layout.pi(sol.x, t) for t in range(k)],
        lambda exs: np.array([[market.value(t.id, ex) for ex in exs] for t in types]),
        base, lambda p: np.clip(p, 0.0, None))
    repaired = eps_ic_to_ic(market, menu, 4.0 * epsilon)
    report = audit_menu(market, repaired)
    # The LP objective as a left-to-right sum in type order, not a dot product.
    lp_objective = float(sum(p * x for p, x in zip(probs, sol.x[layout.price:][:k].tolist())))
    return ImplicitResult(
        menu=repaired,
        revenue=report.revenue,
        report=report,
        action_sets=action_sets,
        grid=grid,
        lp_objective=lp_objective,
        separation_rounds=rounds,
        lp_iterations=iterations,
    )


def compress_menu(view, menu: Menu, epsilon: float) -> Menu:
    """Shrink a menu so its entry count depends only on the state count.

    Types are bucketed onto the epsilon/(n_states^2)-step simplex lattice
    (nearest lattice distribution, so bucketed types sit within
    epsilon/n_states of each other in total variation); every type in a
    bucket is handed the most expensive experiment among the bucket's
    assigned entries (first assignee wins price ties), after which the
    standard price repair restores exact IC and IR.
    """
    if menu.assignment is None:
        raise InvalidInstance("compression needs an assigned menu")
    tids = view.type_ids()
    n_states = len(view.prior(tids[0]))
    eps2 = epsilon / n_states
    steps = math.ceil(n_states / eps2)
    groups: dict[tuple, list[str]] = {}
    for tid in tids:
        key = _lattice_key(view.prior(tid), steps)
        groups.setdefault(key, []).append(tid)

    chosen_entry: dict[str, int] = {}
    used: list[int] = []
    for _, members in groups.items():
        rep = None
        rep_price = -np.inf
        for tid in members:
            idx = menu.assignment[tid]
            price = menu.entries[idx][1] if idx is not None else 0.0
            if price > rep_price:
                rep, rep_price = idx, price
        for tid in members:
            chosen_entry[tid] = rep
        if rep is not None and rep not in used:
            used.append(rep)

    remap = {old: new for new, old in enumerate(used)}
    squeezed = Menu(
        entries=[menu.entries[old] for old in used],
        assignment={
            tid: (remap[chosen_entry[tid]] if chosen_entry[tid] is not None else None)
            for tid in tids
        },
    )
    return eps_ic_to_ic(view, squeezed, 2.0 * n_states * eps2)


def repair_misspecified(
    true_view,
    menu: Menu,
    assumed_types: list[BuyerType],
    eps1: float,
    eps2: float,
) -> Menu:
    """Reprice a menu designed under perturbed types and type distribution.

    ``assumed_types`` must pair with the true types index by index within
    eps2 in total variation (eps1 bounds the distribution error and only
    affects the revenue guarantee, not the repair itself).  The repaired
    menu is exactly IC and IR under the true view; its true revenue trails
    the misspecified revenue by O(eps1 + sqrt(n_states * eps2)).
    """
    true_ids = true_view.type_ids()
    if len(assumed_types) != len(true_ids):
        raise PairingMismatch(
            f"{len(assumed_types)} assumed types vs {len(true_ids)} true types"
        )
    for at, tid in zip(assumed_types, true_ids):
        d = tv_distance(at.prior, true_view.prior(tid))
        if d > eps2 + 1e-12:
            raise PairingMismatch(
                f"assumed type {at.id} is {d} away from true type {tid}, above {eps2}"
            )
    n_states = len(true_view.prior(true_ids[0]))
    remapped = Menu(
        entries=list(menu.entries),
        assignment={
            tid: menu.assignment[at.id] for at, tid in zip(assumed_types, true_ids)
        }
        if menu.assignment is not None
        else None,
    )
    return eps_ic_to_ic(true_view, remapped, 2.0 * n_states * eps2)
