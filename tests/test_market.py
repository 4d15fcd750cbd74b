"""Buyer-side semantics: posteriors, values, menu choice, audits."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomenu import (
    Environment,
    Experiment,
    InvalidInstance,
    Menu,
    ZeroMassSignal,
    audit_menu,
    base_utility,
    best_action,
    choose_from_menu,
    experiment_value,
    make_responsive,
    posterior,
)
from infomenu.audit import benchmark_experiment, matching_environment


def uniform_env(priors=((0.5, 0.5),)):
    return matching_environment([(f"t{i}", list(p)) for i, p in enumerate(priors)])


# --- posterior ---------------------------------------------------------------

def test_posterior_uniform_prior_passes_column_through():
    np.testing.assert_allclose(posterior([0.5, 0.5], [0.7, 0.3]), [0.7, 0.3])


def test_posterior_point_mass_prior_is_invariant():
    np.testing.assert_allclose(posterior([1.0, 0.0], [0.7, 0.3]), [1.0, 0.0])


def test_posterior_bayes_rule_cross_checked_with_fractions():
    # Independent calculation in exact rational arithmetic.
    prior = (Fraction(1, 5), Fraction(4, 5))
    col = (Fraction(7, 10), Fraction(3, 10))
    mass = prior[0] * col[0] + prior[1] * col[1]
    expected = [float(prior[i] * col[i] / mass) for i in range(2)]
    np.testing.assert_allclose(posterior([0.2, 0.8], [0.7, 0.3]), expected, atol=1e-15)
    np.testing.assert_allclose(expected, [0.14 / 0.38, 0.24 / 0.38], atol=1e-12)


def test_posterior_zero_mass_raises():
    with pytest.raises(ZeroMassSignal):
        posterior([1.0, 0.0], [0.0, 0.5])


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
)
def test_posterior_sums_to_one(raw_prior, raw_col):
    n = min(len(raw_prior), len(raw_col))
    prior = np.array(raw_prior[:n]) / np.sum(raw_prior[:n])
    col = np.array(raw_col[:n])
    if float(prior @ col) <= 0.0:
        return
    assert abs(posterior(prior, col).sum() - 1.0) <= 1e-12


# --- best action and base utility --------------------------------------------

def test_best_action_tie_breaks_to_lowest_index():
    env = uniform_env()
    assert best_action(env, "t0", [0.5, 0.5]) == (0, 0.5)


def test_best_action_dominant_coordinate():
    env = uniform_env()
    idx, val = best_action(env, "t0", [0.2, 0.8])
    assert idx == 1 and val == pytest.approx(0.8)


def test_best_action_at_benchmark_posterior():
    env = uniform_env()
    idx, val = best_action(env, "t0", posterior([0.5, 0.5], [0.7, 0.3]))
    assert idx == 0 and val == pytest.approx(0.7)


def test_base_utility_matching():
    assert base_utility(uniform_env(), "t0") == pytest.approx(0.5)
    assert base_utility(uniform_env([(0.9, 0.1)]), "t0") == pytest.approx(0.9)


# --- experiment value ---------------------------------------------------------

def test_benchmark_values():
    e = benchmark_experiment()
    assert experiment_value(uniform_env([(0.2, 0.8)]), "t0", e) == pytest.approx(0.8)
    assert experiment_value(uniform_env(), "t0", e) == pytest.approx(0.7)


def test_fully_informative_value_is_one():
    for p in (0.1, 0.5, 0.75):
        env = uniform_env([(p, 1 - p)])
        assert experiment_value(env, "t0", Experiment.fully_informative(2)) == pytest.approx(1.0)


def test_null_experiment_value_equals_base_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        prior = rng.dirichlet(np.ones(3))
        u = rng.uniform(size=(3, 4))
        env = Environment.build(range(3), range(4), u, [("t0", prior)])
        assert experiment_value(env, "t0", Experiment.null(3)) == base_utility(env, "t0")


def test_value_bounded_between_base_and_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m, s = rng.integers(2, 4), rng.integers(2, 5), rng.integers(1, 6)
        prior = rng.dirichlet(np.ones(n))
        u = rng.uniform(size=(n, m))
        env = Environment.build(range(n), range(m), u, [("t0", prior)])
        mat = rng.dirichlet(np.ones(s), size=n)
        v = experiment_value(env, "t0", Experiment(mat))
        assert base_utility(env, "t0") - 1e-12 <= v <= 1.0 + 1e-12


def test_value_invariant_under_column_permutation_and_monotone_under_splits():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, s = 2, int(rng.integers(2, 6))
        prior = rng.dirichlet(np.ones(n))
        u = rng.uniform(size=(n, 3))
        env = Environment.build(range(n), range(3), u, [("t0", prior)])
        mat = rng.dirichlet(np.ones(s), size=n)
        v = experiment_value(env, "t0", Experiment(mat))

        perm = rng.permutation(s)
        v_perm = experiment_value(env, "t0", Experiment(mat[:, perm]))
        assert v_perm == pytest.approx(v, abs=1e-12)

        # split a random column in two: value cannot decrease
        k = int(rng.integers(0, s))
        frac = rng.uniform(size=n)
        split = np.column_stack([mat[:, :k], mat[:, k] * frac, mat[:, k] * (1 - frac), mat[:, k + 1:]])
        v_split = experiment_value(env, "t0", Experiment(split))
        assert v_split >= v - 1e-12

        # merge two random columns: value cannot increase
        if s >= 2:
            i, j = rng.choice(s, size=2, replace=False)
            keep = [c for c in range(s) if c not in (i, j)]
            merged = np.column_stack([mat[:, keep], mat[:, i] + mat[:, j]])
            v_merged = experiment_value(env, "t0", Experiment(merged))
            assert v_merged <= v + 1e-12


# --- menu choice ---------------------------------------------------------------

def test_choose_buys_when_price_below_surplus():
    env = uniform_env()
    menu = Menu(entries=[(Experiment.fully_informative(2), 0.4)])
    assert choose_from_menu(env, "t0", menu) == (0, pytest.approx(0.6))


def test_choose_walks_away_when_price_too_high():
    env = uniform_env()
    menu = Menu(entries=[(Experiment.fully_informative(2), 0.6)])
    entry, net = choose_from_menu(env, "t0", menu)
    assert entry is None and net == pytest.approx(0.5)


def test_choose_from_empty_menu_returns_null():
    env = uniform_env([(0.3, 0.7)])
    entry, net = choose_from_menu(env, "t0", Menu())
    assert entry is None and net == pytest.approx(0.7)


def test_choose_ties_break_to_lower_price():
    env = uniform_env()
    full = Experiment.fully_informative(2)
    menu = Menu(entries=[(full, 0.5), (full, 0.3)])
    assert choose_from_menu(env, "t0", menu)[0] == 1


# --- responsive reduction -------------------------------------------------------

def test_make_responsive_merges_same_action_columns():
    env = uniform_env([(0.9, 0.1)])
    mat = np.array([[0.6, 0.4], [0.5, 0.5]])   # both columns favor action 0
    out = make_responsive(env, "t0", Experiment(mat))
    np.testing.assert_allclose(out.matrix, [[1.0, 0.0], [1.0, 0.0]])


def test_make_responsive_keeps_benchmark_distinct_signals():
    env = uniform_env()
    e = benchmark_experiment()
    out = make_responsive(env, "t0", e)
    np.testing.assert_allclose(out.matrix, e.matrix)   # already signal i -> action i


def test_make_responsive_constant_best_action_collapses():
    u = np.zeros((3, 3))
    u[:, 2] = 1.0   # action 2 dominates in every state
    env = Environment.build(range(3), range(3), u, [("t0", [0.2, 0.3, 0.5])])
    out = make_responsive(env, "t0", Experiment.fully_informative(3))
    np.testing.assert_allclose(out.matrix[:, 2], np.ones(3))
    np.testing.assert_allclose(out.matrix[:, :2], np.zeros((3, 2)))


def test_make_responsive_preserves_owner_value():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, m, s = 2, 3, int(rng.integers(1, 8))
        prior = rng.dirichlet(np.ones(n))
        u = rng.uniform(size=(n, m))
        env = Environment.build(range(n), range(m), u, [("t0", prior)])
        e = Experiment(rng.dirichlet(np.ones(s), size=n))
        out = make_responsive(env, "t0", e)
        assert out.n_signals == m
        assert experiment_value(env, "t0", out) == pytest.approx(
            experiment_value(env, "t0", e), abs=1e-9
        )


# --- audits ---------------------------------------------------------------------

def test_audit_exactly_priced_full_revelation():
    env = uniform_env([(0.7, 0.3)])
    u = base_utility(env, "t0")
    menu = Menu(entries=[(Experiment.fully_informative(2), 1.0 - u)], assignment={"t0": 0})
    rep = audit_menu(env, menu)
    assert rep.max_ic_violation == pytest.approx(0.0, abs=1e-12)
    assert rep.max_ir_violation == pytest.approx(0.0, abs=1e-12)
    assert rep.revenue == pytest.approx(1.0 - u)


def test_audit_null_assignment():
    env = uniform_env()
    menu = Menu(entries=[(Experiment.null(2), 0.0)], assignment={"t0": 0})
    rep = audit_menu(env, menu)
    assert rep.max_ic_violation == 0.0 and rep.max_ir_violation == 0.0
    assert rep.revenue == 0.0


def test_audit_overpriced_entry_reports_ir_gap():
    env = uniform_env([(0.7, 0.3)])
    u = base_utility(env, "t0")
    menu = Menu(entries=[(Experiment.fully_informative(2), 1.0 - u + 0.1)], assignment={"t0": 0})
    rep = audit_menu(env, menu)
    assert rep.max_ir_violation == pytest.approx(0.1)


def test_audit_requires_full_assignment():
    env = uniform_env([(0.5, 0.5), (0.9, 0.1)])
    menu = Menu(entries=[(Experiment.null(2), 0.0)], assignment={"t0": 0})
    with pytest.raises(InvalidInstance):
        audit_menu(env, menu)


# --- validation ------------------------------------------------------------------

def test_experiment_rejects_bad_rows():
    with pytest.raises(InvalidInstance):
        Experiment(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidInstance):
        Experiment(np.array([[-0.1, 1.1], [0.5, 0.5]]))


def test_environment_rejects_bad_probabilities():
    with pytest.raises(InvalidInstance):
        Environment.build(range(2), range(2), np.eye(2), [("t0", [0.6, 0.6])])
    with pytest.raises(InvalidInstance):
        Environment.build(
            range(2), range(2), np.eye(2), [("t0", [0.5, 0.5])], {"t0": 0.7}
        )


def test_menu_rejects_non_finite_price():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInstance):
            Menu(entries=[(Experiment.null(2), bad)], assignment={"t0": 0})


def test_environment_rejects_non_finite_inputs():
    with pytest.raises(InvalidInstance):
        Environment.build(range(2), range(2), np.eye(2), [("t0", [np.inf, 0.5])])
    with pytest.raises(InvalidInstance):
        Environment.build(range(2), range(2), [[np.nan, 0.0], [0.0, 1.0]], [("t0", [0.5, 0.5])])
    with pytest.raises(InvalidInstance):
        Environment.build(
            range(2), range(2), np.eye(2), [("t0", [0.5, 0.5]), ("t1", [0.2, 0.8])],
            {"t0": np.nan, "t1": 1.0},
        )
    with pytest.raises(InvalidInstance):
        Experiment(np.array([[np.nan, 1.0], [0.5, 0.5]]))

