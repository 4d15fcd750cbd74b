"""Reduced forms, VPM schemes, the interim solver, and mechanism replay."""

import itertools

import numpy as np
import pytest

from infomenu import (
    BuyerType,
    InvalidInstance,
    MultiBuyer,
    MultiEnvironment,
    TooLarge,
    VPMWeights,
    audit_reduced_form,
    brute_force_multi,
    mix_reduced_forms,
    run_mechanism,
    rvpm,
    simulate_interim,
    solve_explicit,
    solve_reduced_lp,
    vpm_allocate,
)
from infomenu.audit import matching_environment


def one_buyer(types, probs=None) -> MultiEnvironment:
    tl = [BuyerType(f"t{i}", p) for i, p in enumerate(types)]
    probs = probs or {t.id: 1.0 / len(tl) for t in tl}
    return MultiEnvironment(
        states=["w0", "w1"],
        actions=["a0", "a1"],
        buyers=[MultiBuyer("b0", np.eye(2), tl, probs)],
    )


def two_buyers(types0, types1, probs0=None, probs1=None, u0=None, u1=None) -> MultiEnvironment:
    tl0 = [BuyerType(f"t{i}", p) for i, p in enumerate(types0)]
    tl1 = [BuyerType(f"t{i}", p) for i, p in enumerate(types1)]
    probs0 = probs0 or {t.id: 1.0 / len(tl0) for t in tl0}
    probs1 = probs1 or {t.id: 1.0 / len(tl1) for t in tl1}
    return MultiEnvironment(
        states=["w0", "w1"],
        actions=["a0", "a1"],
        buyers=[
            MultiBuyer("b0", np.eye(2) if u0 is None else u0, tl0, probs0),
            MultiBuyer("b1", np.eye(2) if u1 is None else u1, tl1, probs1),
        ],
    )


def identity_weights(env: MultiEnvironment, buyer: int, scale: float = 1.0) -> VPMWeights:
    b = env.buyers[buyer]
    return VPMWeights(
        {
            (b.id, t.id): scale * b.type_probs[t.id] * np.eye(env.n_states, env.n_actions)
            for t in b.types
        }
    )


# --- vpm_allocate ----------------------------------------------------------------

def test_vpm_allocate_higher_weight_wins():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    w = VPMWeights(
        {
            ("b0", "t0"): np.eye(2),
            ("b1", "t0"): 0.5 * np.eye(2),
        }
    )
    winner, experiment = vpm_allocate(env, w, {"b0": "t0", "b1": "t0"})
    assert winner == 0
    np.testing.assert_allclose(experiment.matrix, np.eye(2))


def test_vpm_allocate_tie_goes_to_first_buyer():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    w = VPMWeights({("b0", "t0"): np.eye(2), ("b1", "t0"): np.eye(2)})
    winner, _ = vpm_allocate(env, w, {"b0": "t0", "b1": "t0"})
    assert winner == 0


def test_vpm_allocate_uniform_best_action_collapses_signals():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    mat = np.zeros((2, 2))
    mat[:, 1] = 1.0   # signal 1 dominates in every state
    w = VPMWeights({("b0", "t0"): mat})
    _, experiment = vpm_allocate(env, w, {"b0": "t0", "b1": "t0"})
    np.testing.assert_allclose(experiment.matrix[:, 1], [1.0, 1.0])


# --- rvpm -------------------------------------------------------------------------

def test_rvpm_single_buyer_always_wins():
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    rf = rvpm(env, identity_weights(env, 0))
    for t in env.buyers[0].types:
        assert rf.p_hat[("b0", t.id)] == pytest.approx(1.0)


def test_rvpm_two_buyers_one_type_each():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    w = VPMWeights({("b0", "t0"): np.eye(2), ("b1", "t0"): 0.5 * np.eye(2)})
    rf = rvpm(env, w)
    assert rf.p_hat[("b0", "t0")] == pytest.approx(1.0)
    assert rf.p_hat[("b1", "t0")] == pytest.approx(0.0)


def _rvpm_by_enumeration(env: MultiEnvironment, w: VPMWeights):
    """Independent reduced form: average vpm_allocate over all profiles."""
    counts = [len(b.types) for b in env.buyers]
    pi = {
        (b.id, t.id): np.zeros((env.n_states, env.n_actions))
        for b in env.buyers
        for t in b.types
    }
    p = {k: 0.0 for k in pi}
    for prof in itertools.product(*[range(c) for c in counts]):
        fp = 1.0
        profile = {}
        for i, s in enumerate(prof):
            b = env.buyers[i]
            fp *= b.type_probs[b.types[s].id]
            profile[b.id] = b.types[s].id
        winner, experiment = vpm_allocate(env, w, profile)
        wb = env.buyers[winner]
        key = (wb.id, profile[wb.id])
        # condition on the winner's own type: divide by its probability
        pi[key] += fp / wb.type_probs[profile[wb.id]] * experiment.matrix
        p[key] += fp / wb.type_probs[profile[wb.id]]
    return pi, p


def test_rvpm_matches_profile_enumeration():
    rng = np.random.default_rng(53)
    for trial in range(20):
        env = two_buyers(
            [rng.dirichlet(np.ones(2)) for _ in range(2)],
            [rng.dirichlet(np.ones(2)) for _ in range(2)],
            u0=rng.uniform(size=(2, 2)),
            u1=rng.uniform(size=(2, 2)),
        )
        x = {}
        for b in env.buyers:
            for t in b.types:
                x[(b.id, t.id)] = rng.normal(size=(2, 2))
        w = VPMWeights(x)
        rf = rvpm(env, w)
        pi, p = _rvpm_by_enumeration(env, w)
        for key in pi:
            np.testing.assert_allclose(rf.pi_hat[key], pi[key], atol=1e-12)
            assert rf.p_hat[key] == pytest.approx(p[key], abs=1e-12)


def test_rvpm_win_probabilities_with_value_ties():
    # Buyer 0 values {3, 1}; buyer 1 values {2, 2}; uniform types.
    env = two_buyers([[0.5, 0.5], [0.9, 0.1]], [[0.6, 0.4], [0.2, 0.8]])
    x = {}
    for (bid, tid), v in [
        (("b0", "t0"), 3.0), (("b0", "t1"), 1.0),
        (("b1", "t0"), 2.0), (("b1", "t1"), 2.0),
    ]:
        mat = np.zeros((2, 2))
        mat[0, 0] = v * 0.5    # type prob is 0.5, so scaled weight = v at (w0, a0)
        x[(bid, tid)] = mat
    rf = rvpm(env, VPMWeights(x))
    assert rf.p_hat[("b0", "t0")] == pytest.approx(1.0)   # 3 beats both
    assert rf.p_hat[("b0", "t1")] == pytest.approx(0.0)   # 1 loses to both
    # buyer 1's types (value 2) beat only buyer-0's low type (1): prob 0.5
    assert rf.p_hat[("b1", "t0")] == pytest.approx(0.5)
    assert rf.p_hat[("b1", "t1")] == pytest.approx(0.5)
    pi, p = _rvpm_by_enumeration(env, VPMWeights(x))
    for key in p:
        assert rf.p_hat[key] == pytest.approx(p[key], abs=1e-12)


# --- feasibility closure -------------------------------------------------------------

def test_random_mixtures_satisfy_reduced_form_invariants():
    rng = np.random.default_rng(59)
    env = two_buyers(
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
    )
    parts = []
    lam = rng.dirichlet(np.ones(5))
    for k in range(5):
        x = {}
        for b in env.buyers:
            for t in b.types:
                x[(b.id, t.id)] = rng.normal(size=(2, 2))
        parts.append((float(lam[k]), rvpm(env, VPMWeights(x))))
    mixed = mix_reduced_forms(env, parts)
    mixed.validate(tol=1e-9)


# --- solver -----------------------------------------------------------------------

def test_single_buyer_reduces_to_menu_problem():
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    result = solve_reduced_lp(env)
    menu_env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    _, rev, _ = solve_explicit(menu_env)
    assert result.revenue == pytest.approx(rev, abs=1e-6)
    assert brute_force_multi(env) == pytest.approx(rev, abs=1e-6)


def test_two_buyers_single_types_match_brute_force():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    result = solve_reduced_lp(env)
    assert result.revenue == pytest.approx(brute_force_multi(env), abs=1e-6)


def test_two_buyers_two_types_match_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(3):
        env = two_buyers(
            [rng.dirichlet(np.ones(2)) for _ in range(2)],
            [rng.dirichlet(np.ones(2)) for _ in range(2)],
            u0=rng.uniform(size=(2, 2)),
            u1=rng.uniform(size=(2, 2)),
        )
        result = solve_reduced_lp(env)
        assert result.revenue == pytest.approx(brute_force_multi(env), abs=1e-6)


def test_revenue_monotone_in_buyers():
    env1 = one_buyer([[0.5, 0.5], [0.8, 0.2]])
    rev1 = solve_reduced_lp(env1).revenue
    env2 = two_buyers([[0.5, 0.5], [0.8, 0.2]], [[0.3, 0.7]])
    rev2 = solve_reduced_lp(env2).revenue
    assert rev2 >= rev1 - 1e-8


def test_brute_force_dominates_single_agent_carveout():
    env = two_buyers([[0.5, 0.5], [0.8, 0.2]], [[0.3, 0.7], [0.6, 0.4]])
    rev = brute_force_multi(env)
    menu_env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.8, 0.2])])
    _, rev_single, _ = solve_explicit(menu_env)
    assert rev >= rev_single - 1e-7


def test_brute_force_symmetric_buyers_invariant_under_swap():
    types = [[0.5, 0.5], [0.8, 0.2]]
    env = two_buyers(types, types)
    env_swapped = two_buyers(types, types)
    env_swapped.buyers = env_swapped.buyers[::-1]
    for b, name in zip(env_swapped.buyers, ["b0", "b1"]):
        b.id = name
    assert brute_force_multi(env) == pytest.approx(
        brute_force_multi(env_swapped), abs=1e-7
    )


def test_brute_force_cap():
    types = [list(p) for p in np.random.default_rng(0).dirichlet(np.ones(2), 17)]
    env = two_buyers(types, types)
    with pytest.raises(TooLarge):
        brute_force_multi(env, profile_cap=256)


def test_blueprint_decomposition_and_size():
    rng = np.random.default_rng(67)
    env = two_buyers(
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
    )
    result = solve_reduced_lp(env)
    dim = env.n_actions * env.n_states * sum(len(b.types) for b in env.buyers)
    assert len(result.blueprint.mixture) <= dim + 1
    parts = [(w, rvpm(env, wts)) for w, wts in result.blueprint.mixture]
    mixed = mix_reduced_forms(env, parts)
    for key, mat in result.reduced_form.pi_hat.items():
        np.testing.assert_allclose(mixed.pi_hat[key], mat, atol=1e-6)
    max_bic, max_iir = audit_reduced_form(env, result.reduced_form)
    assert max_bic <= 1e-6 and max_iir <= 1e-6


def test_multi_buyer_rejects_non_finite_inputs():
    tl = [BuyerType("t0", [0.5, 0.5]), BuyerType("t1", [0.2, 0.8])]
    with pytest.raises(InvalidInstance):
        MultiBuyer("b0", np.array([[np.nan, 0.0], [0.0, 1.0]]), tl, {"t0": 0.5, "t1": 0.5})
    with pytest.raises(InvalidInstance):
        MultiBuyer("b0", np.eye(2), tl, {"t0": np.inf, "t1": 0.5})


# --- execution --------------------------------------------------------------------

def test_run_mechanism_single_component_is_deterministic():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    w = VPMWeights({("b0", "t0"): np.eye(2)})
    blueprint_prices = {("b0", "t0"): 0.25, ("b1", "t0"): 0.0}
    from infomenu.multiagent import MechanismBlueprint

    bp = MechanismBlueprint(mixture=[(1.0, w)], t_hat=blueprint_prices)
    runs = {run_mechanism(bp, env, {"b0": "t0", "b1": "t0"}, seed).winner for seed in range(20)}
    assert runs == {0}


def test_payments_never_depend_on_sampled_component():
    rng = np.random.default_rng(71)
    env = two_buyers(
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
    )
    result = solve_reduced_lp(env)
    profile = {"b0": "t1", "b1": "t0"}
    pays = {
        tuple(sorted(run_mechanism(result.blueprint, env, profile, seed).payments.items()))
        for seed in range(100)
    }
    assert len(pays) == 1


def test_monte_carlo_reproduces_interim_matrices():
    rng = np.random.default_rng(73)
    env = two_buyers(
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
        [rng.dirichlet(np.ones(2)) for _ in range(2)],
    )
    result = solve_reduced_lp(env)
    emp, counts = simulate_interim(result.blueprint, env, 200_000, seed=11)
    for key, expect in result.reduced_form.pi_hat.items():
        n = counts[key]
        sigma = np.sqrt(np.clip(expect * (1 - expect), 0.0, None) / max(n, 1))
        assert np.all(np.abs(emp[key] - expect) <= 3 * sigma + 1e-9)
