"""Core market model: buyers, experiments, menus, and their semantics.

A buyer facing uncertainty over states holds a prior belief (his *type*),
chooses actions with known per-state payoffs in [0, 1], and values an
experiment (a state-indexed family of signal distributions) by the expected
payoff of best-responding to each signal's posterior.  A menu is a priced
collection of experiments from which each type self-selects; the implicit
outside option is the free uninformative experiment.

All operations here are pure functions over effectively-immutable inputs and
are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInstance, ZeroMassSignal

PROB_TOL = 1e-9

TypeId = str


def _as_prob_vector(v, name: str, tol: float = PROB_TOL) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InvalidInstance(f"{name} must be a vector")
    if not np.isfinite(arr).all():
        raise InvalidInstance(f"{name} has non-finite entries")
    if np.any(arr < -tol):
        raise InvalidInstance(f"{name} has negative entries")
    if abs(arr.sum() - 1.0) > tol:
        raise InvalidInstance(f"{name} sums to {arr.sum()}, expected 1")
    return arr


@dataclass(frozen=True)
class BuyerType:
    """A buyer type: an id plus a prior belief over states."""

    id: TypeId
    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prior", _as_prob_vector(self.prior, f"prior of {self.id}"))


@dataclass(eq=False)
class Experiment:
    """A signaling scheme: rows are states, columns are signals.

    Every row sums to ``row_mass`` (1.0 for ordinary experiments; the
    allocation probability in multi-agent ex-post schemes).  Zero columns are
    permitted: LP solvers produce them and they carry no information.
    """

    matrix: np.ndarray
    row_mass: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] < 1:
            raise InvalidInstance("experiment matrix must be 2-d with >= 1 signal")
        if not (np.isfinite(m).all() and np.isfinite(self.row_mass)):
            raise InvalidInstance("experiment has non-finite entries")
        if np.any(m < -PROB_TOL):
            raise InvalidInstance("experiment has negative entries")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - self.row_mass) > PROB_TOL):
            raise InvalidInstance(
                f"experiment rows sum to {sums}, expected {self.row_mass}"
            )
        self.matrix = m

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_signals(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def null(n_states: int) -> "Experiment":
        """The uninformative single-signal experiment."""
        return Experiment(np.ones((n_states, 1)))

    @staticmethod
    def fully_informative(n_states: int) -> "Experiment":
        """One distinct signal per state."""
        return Experiment(np.eye(n_states))


@dataclass(eq=False)
class Menu:
    """A priced collection of experiments.

    ``assignment`` optionally records which entry each type takes (``None``
    meaning the free null option).  Prices live unbounded in principle; LP
    output may carry harmless negative dust which callers clamp.
    """

    entries: list[tuple[Experiment, float]] = field(default_factory=list)
    assignment: dict[TypeId, int | None] | None = None

    def __post_init__(self):
        for ex, price in self.entries:
            if not np.isfinite(price):
                raise InvalidInstance(f"menu price {price} is not finite")
            if price < -PROB_TOL:
                raise InvalidInstance(f"menu price {price} is negative")
        if self.assignment is not None:
            for tid, idx in self.assignment.items():
                if idx is not None and not (0 <= idx < len(self.entries)):
                    raise InvalidInstance(f"assignment of {tid} out of range")

    @property
    def prices(self) -> np.ndarray:
        return np.array([p for _, p in self.entries], dtype=float)


@dataclass
class AuditReport:
    """Outcome of checking a menu's incentive and participation constraints."""

    max_ic_violation: float
    max_ir_violation: float
    revenue: float
    choices: dict[TypeId, tuple[int | None, float]]


@dataclass(eq=False)
class Environment:
    """A fully specified single-agent market.

    Utilities are stored per type (all types may share one matrix, which
    reproduces the base model where payoffs are public and common).
    """

    states: list
    actions: list
    utility: dict[TypeId, np.ndarray]
    types: list[BuyerType]
    type_probs: dict[TypeId, float]

    def __post_init__(self):
        n, m = len(self.states), len(self.actions)
        if n < 1 or m < 1:
            raise InvalidInstance("need at least one state and one action")
        ids = [t.id for t in self.types]
        if len(set(ids)) != len(ids):
            raise InvalidInstance("duplicate type ids")
        for t in self.types:
            if t.prior.shape != (n,):
                raise InvalidInstance(f"prior of {t.id} has wrong length")
            if t.id not in self.utility:
                raise InvalidInstance(f"no utility matrix for type {t.id}")
        for tid, u in self.utility.items():
            u = np.asarray(u, dtype=float)
            if u.shape != (n, m):
                raise InvalidInstance(f"utility matrix of {tid} is not {n}x{m}")
            if not np.isfinite(u).all():
                raise InvalidInstance(f"utility matrix of {tid} has non-finite entries")
            if np.any(u < -PROB_TOL) or np.any(u > 1 + PROB_TOL):
                raise InvalidInstance("utilities must lie in [0, 1]")
            self.utility[tid] = u
        total = sum(self.type_probs.get(t.id, -1.0) for t in self.types)
        if not np.isfinite(total):
            raise InvalidInstance("type probabilities must be finite")
        if any(self.type_probs.get(t.id, -1.0) < -PROB_TOL for t in self.types):
            raise InvalidInstance("type probabilities missing or negative")
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidInstance(f"type probabilities sum to {total}")

    @classmethod
    def build(cls, states, actions, utility, types, type_probs=None) -> "Environment":
        """Convenience constructor.

        ``utility`` may be a single matrix shared by every type or a dict
        keyed by type id.  ``types`` is a list of (id, prior) pairs or
        BuyerType objects; ``type_probs`` defaults to uniform.
        """
        tlist = [
            t if isinstance(t, BuyerType) else BuyerType(t[0], np.asarray(t[1], dtype=float))
            for t in types
        ]
        if not isinstance(utility, dict):
            u = np.asarray(utility, dtype=float)
            utility = {t.id: u for t in tlist}
        if type_probs is None:
            type_probs = {t.id: 1.0 / len(tlist) for t in tlist}
        return cls(list(states), list(actions), dict(utility), tlist, dict(type_probs))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def type_ids(self) -> list[TypeId]:
        return [t.id for t in self.types]

    def get_type(self, type_id: TypeId) -> BuyerType:
        for t in self.types:
            if t.id == type_id:
                return t
        raise KeyError(type_id)

    def prior(self, type_id: TypeId) -> np.ndarray:
        return self.get_type(type_id).prior

    def prob(self, type_id: TypeId) -> float:
        return self.type_probs[type_id]

    # MarketView interface shared with oracle-backed markets.
    def value(self, type_id: TypeId, experiment: Experiment) -> float:
        return experiment_value(self, type_id, experiment)

    def base(self, type_id: TypeId) -> float:
        return base_utility(self, type_id)


def posterior(prior, column) -> np.ndarray:
    """Bayes update of ``prior`` on observing a signal sent with per-state
    probabilities ``column``.

    Raises ZeroMassSignal when the signal is never sent under this prior;
    callers iterating over signals must skip those columns.
    """
    p = np.asarray(prior, dtype=float)
    c = np.asarray(column, dtype=float)
    mass = float(p @ c)
    if mass <= 0.0:
        raise ZeroMassSignal("signal has zero probability under this prior")
    return (p * c) / mass


def best_action(env: Environment, type_id: TypeId, belief) -> tuple[int, float]:
    """Utility-maximizing action index under ``belief``; ties go to the
    smallest index."""
    b = np.asarray(belief, dtype=float)
    scores = b @ env.utility[type_id]
    idx = int(np.argmax(scores))
    return idx, float(scores[idx])


def base_utility(env: Environment, type_id: TypeId) -> float:
    """Best expected payoff achievable from the prior alone."""
    return best_action(env, type_id, env.prior(type_id))[1]


def experiment_value(env: Environment, type_id: TypeId, experiment: Experiment) -> float:
    """Expected payoff of best-responding to each signal's posterior.

    Computed as the sum over signals of max_a of the unnormalized posterior
    scores, so zero-mass columns contribute exactly 0 and the null experiment
    evaluates to the base utility exactly.
    """
    theta = env.prior(type_id)
    weighted = experiment.matrix * theta[:, None]        # (states, signals)
    per_action = weighted.T @ env.utility[type_id]       # (signals, actions)
    return float(per_action.max(axis=1).sum())


def choose_from_menu(view, type_id: TypeId, menu: Menu) -> tuple[int | None, float]:
    """The entry (or None for the free null option) maximizing net utility.

    Ties break toward lower price, then lower entry index; the null option
    ranks after all listed entries.  Works for any market view exposing
    ``value`` and ``base``.
    """
    base = view.base(type_id)
    best: tuple[float, float, int] | None = None   # (-net, price, position)
    best_out: tuple[int | None, float] = (None, base)
    candidates = [(view.value(type_id, ex) - price, price, j) for j, (ex, price) in enumerate(menu.entries)]
    candidates.append((base, 0.0, len(menu.entries)))
    for net, price, pos in candidates:
        key = (-net, price, pos)
        if best is None or key < best:
            best = key
            best_out = (pos if pos < len(menu.entries) else None, net)
    return best_out


def make_responsive(env: Environment, type_id: TypeId, experiment: Experiment) -> Experiment:
    """Merge signals leading ``type_id`` to the same best action.

    The result has exactly one column per action, column j reserved for
    action j (zero when unused), and the same value for the owning type.
    Columns with zero mass under the type's prior land on action 0.
    """
    theta = env.prior(type_id)
    m = env.n_actions
    out = np.zeros((env.n_states, m))
    weighted = experiment.matrix * theta[:, None]
    per_action = weighted.T @ env.utility[type_id]       # (signals, actions)
    targets = np.argmax(per_action, axis=1)
    for k in range(experiment.n_signals):
        out[:, targets[k]] += experiment.matrix[:, k]
    return Experiment(out, row_mass=experiment.row_mass)


def _entry_values(view, menu: Menu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value matrix (types x entries), base utilities, and prices."""
    tids = view.type_ids()
    values = np.array(
        [[view.value(tid, ex) for ex, _ in menu.entries] for tid in tids]
    ).reshape(len(tids), len(menu.entries))
    base = np.array([view.base(tid) for tid in tids])
    return values, base, menu.prices


def audit_menu(view, menu: Menu) -> AuditReport:
    """Check the menu's assignment against all unilateral deviations.

    IC violation: how much some type gains by taking another type's entry.
    IR violation: how far some type's net utility falls below its base
    utility.  Revenue weights assigned prices by the type distribution.
    """
    if menu.assignment is None:
        raise InvalidInstance("audit requires a menu with an assignment")
    tids = view.type_ids()
    for tid in tids:
        if tid not in menu.assignment:
            raise InvalidInstance(f"assignment does not cover type {tid}")
    values, base, prices = _entry_values(view, menu)
    if not (np.isfinite(values).all() and np.isfinite(base).all() and np.isfinite(prices).all()):
        raise InvalidInstance("audit needs finite prices and values")

    def net(ti: int, entry: int | None) -> float:
        if entry is None:
            return base[ti]
        return values[ti, entry] - prices[entry]

    max_ic = 0.0
    max_ir = 0.0
    revenue = 0.0
    choices: dict[TypeId, tuple[int | None, float]] = {}
    own = [net(i, menu.assignment[tid]) for i, tid in enumerate(tids)]
    for i, tid in enumerate(tids):
        for tid2 in tids:
            dev = net(i, menu.assignment[tid2])
            max_ic = max(max_ic, dev - own[i])
        max_ir = max(max_ir, base[i] - own[i])
        entry = menu.assignment[tid]
        revenue += view.prob(tid) * (prices[entry] if entry is not None else 0.0)
        choices[tid] = (entry, own[i])
    return AuditReport(max_ic, max_ir, revenue, choices)
