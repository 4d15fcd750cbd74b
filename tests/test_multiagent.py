"""Reduced forms, VPM schemes, the interim solver, and mechanism replay."""

import itertools
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomenu import lp as lpmod
from infomenu import multiagent
from infomenu import (
    BuyerType,
    Environment,
    InvalidInstance,
    MultiBuyer,
    MultiEnvironment,
    ReducedForm,
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
from infomenu.explicit import CLEANUP_TOL
from infomenu.io import blueprint_from_json, blueprint_to_json
from infomenu.multiagent import MechanismBlueprint, _initial_weight_sets, _master_lp, _slot_index
from named_lp import EQ, GE, LE, NamedLP, as_scipy, assert_same_arrays

import multi_reference as ref


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


def type_prob(env: MultiEnvironment, i: int, s: int) -> float:
    """Buyer i's probability of its type s."""
    b = env.buyers[i]
    return b.type_probs[b.types[s].id]


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

def one_buyer_draw(seed: int) -> tuple[MultiEnvironment, Environment]:
    """A random one-buyer market, as a multi-buyer and as an explicit
    environment: from ``default_rng(seed)``, (n, m, k) in [2, 3] x [2, 4] x
    [1, 4], then uniform utilities, Dirichlet priors and type probabilities."""
    rng = np.random.default_rng(seed)
    n, m, k = int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(1, 5))
    utility = rng.uniform(size=(n, m))
    types = [BuyerType(f"t{s}", prior) for s, prior in enumerate(rng.dirichlet(np.ones(n), k))]
    probs = {t.id: float(p) for t, p in zip(types, rng.dirichlet(np.ones(k)))}
    states, actions = [f"w{w}" for w in range(n)], [f"a{j}" for j in range(m)]
    return (MultiEnvironment(states, actions, [MultiBuyer("b0", utility, types, probs)]),
            Environment(states, actions, {t.id: utility for t in types}, types, probs))


def test_single_buyer_reduces_to_menu_problem():
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    result = solve_reduced_lp(env)
    menu_env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    _, rev, _ = solve_explicit(menu_env)
    assert result.revenue == pytest.approx(rev, abs=1e-6)
    assert brute_force_multi(env) == pytest.approx(rev, abs=1e-6)
    # Column generation is not pinned on these draws: its pricing rounds
    # follow the master's vertex path and can reach the cap (ROADMAP item 2).
    for seed in range(40):
        env, menu_env = one_buyer_draw(seed)
        assert brute_force_multi(env) == pytest.approx(solve_explicit(menu_env)[1], abs=1e-9)


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
    env_swapped = MultiEnvironment(env.states, env.actions, [
        replace(b, id=name) for b, name in zip(env.buyers[::-1], ["b0", "b1"])])
    assert brute_force_multi(env) == pytest.approx(
        brute_force_multi(env_swapped), abs=1e-7
    )


def test_ex_post_reference_is_tight_at_tiny_type_probabilities():
    # Draw 4 of one-buyer markets from default_rng(1) with two types at
    # probability 1e-7: an objective coefficient at HiGHS's default dual
    # tolerance, where the ex-post LP stopped 1.07e-8 below the optimum.
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, m, k = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (2, 5), (2, 4)))
        utility = rng.uniform(size=(n, m))
        priors = rng.dirichlet(np.ones(n), size=k)
    assert (n, m, k) == (3, 4, 3)
    types = [BuyerType(f"t{s}", prior) for s, prior in enumerate(priors)]
    probs = {t.id: 1e-7 for t in types[1:]} | {"t0": 1.0 - (k - 1) * 1e-7}
    states, actions = [f"w{w}" for w in range(n)], [f"a{j}" for j in range(m)]
    env = MultiEnvironment(states, actions, [MultiBuyer("b0", utility, types, probs)])
    menu_env = Environment(states, actions, {t.id: utility for t in types}, types, probs)
    assert brute_force_multi(env) == pytest.approx(solve_explicit(menu_env)[1], abs=1e-12)


def test_brute_force_cap():
    types = [list(p) for p in np.random.default_rng(0).dirichlet(np.ones(2), 17)]
    env = two_buyers(types, types)
    with pytest.raises(TooLarge):
        brute_force_multi(env)


def reduced_form(parts) -> ReducedForm:
    """The reduced form giving type i of buyer b0 (pi, p, t) = parts[i]."""
    keys = [("b0", f"t{i}") for i in range(len(parts))]
    return ReducedForm(*[dict(zip(keys, column)) for column in zip(*parts)])


def test_audit_finds_an_unresponsive_recommendation_and_an_iir_violation():
    env = one_buyer([[0.5, 0.5]])
    swapped = np.array([[0.0, 1.0], [1.0, 0.0]])
    # Obeying the swapped recommendation pays 0; following it backwards
    # pays 1; the prior alone pays 0.5.
    assert audit_reduced_form(env, reduced_form([(swapped, 1.0, 0.0)])) == (1.0, 0.5)
    bic, iir = audit_reduced_form(env, reduced_form([(np.eye(2), 1.0, 0.7)]))
    assert bic == 0.0 and iir == pytest.approx(0.2, abs=1e-15)


def test_audit_finds_a_profitable_misreport():
    # Type t0 pays 0.3 for full revelation and gets 1 - 0.3; reporting t1
    # gets revelation with chance 0.5 (value 0.5), keeps its base 0.5 with
    # chance 0.5 and pays 0.02: 0.73.  Type t1 gets 0.93 and would get 0.7.
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    rf = reduced_form([(np.eye(2), 1.0, 0.3), (0.5 * np.eye(2), 0.5, 0.02)])
    bic, iir = audit_reduced_form(env, rf)
    assert bic == pytest.approx(0.03, abs=1e-15) and iir == 0.0


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


def test_environment_needs_a_buyer():
    with pytest.raises(InvalidInstance):
        MultiEnvironment(states=["w0"], actions=["a0"], buyers=[])


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


# --- the master LP against the name-keyed construction ---------------------------

def named_buyer_blocks(env: MultiEnvironment) -> NamedLP:
    """Each buyer's menu LP with win probabilities as the name-keyed builder
    makes it, buyer after buyer: the test-only reference for the index
    arithmetic of the multi-buyer LPs.  A buyer's columns are its pi[slot, w,
    j] and prices t[slot] per type, its z[i, s, s2, j], then its p[slot]; its
    "<=" rows are, per type s, the BIC row of each report s2 then the IIR
    row, then every zlb[s, s2, j, a]; its equality rows are the row sums."""
    first = _slot_index(env)[2].tolist()
    n, m = env.n_states, env.n_actions
    base = [[max(t.prior @ b.utility) for t in b.types] for b in env.buyers]
    prog = NamedLP(sense="max")
    for i, b in enumerate(env.buyers):
        slots = [first[i] + s for s in range(len(b.types))]
        for slot in slots:
            for w in range(n):
                for j in range(m):
                    prog.add_variable(f"pi[{slot},{w},{j}]", 0.0, 1.0)
        for s, slot in enumerate(slots):
            prog.add_variable(f"t[{slot}]", None, None)
            prog.set_objective(f"t[{slot}]", type_prob(env, i, s))
        for s in range(len(b.types)):
            for s2 in range(len(b.types)):
                for j in range(m):
                    prog.add_variable(f"z[{i},{s},{s2},{j}]", 0.0, None)
        for slot in slots:
            prog.add_variable(f"p[{slot}]", 0.0, 1.0)

        def truthful_coeffs(s: int) -> dict[str, float]:
            theta = b.types[s].prior
            coeffs = {
                f"pi[{slots[s]},{w},{j}]": theta[w] * b.utility[w, j]
                for w in range(n)
                for j in range(m)
                if theta[w] * b.utility[w, j] != 0.0
            }
            coeffs[f"p[{slots[s]}]"] = -base[i][s]
            coeffs[f"t[{slots[s]}]"] = -1.0
            return coeffs

        for s in range(len(b.types)):
            for s2 in range(len(b.types)):
                coeffs = truthful_coeffs(s)
                for j in range(m):
                    coeffs[f"z[{i},{s},{s2},{j}]"] = -1.0
                coeffs[f"p[{slots[s2]}]"] = coeffs.get(f"p[{slots[s2]}]", 0.0) + base[i][s]
                coeffs[f"t[{slots[s2]}]"] = coeffs.get(f"t[{slots[s2]}]", 0.0) + 1.0
                prog.add_constraint(f"bic[{i},{s},{s2}]", coeffs, GE, 0.0)
            prog.add_constraint(f"iir[{i},{s}]", truthful_coeffs(s), GE, 0.0)
        for s, t in enumerate(b.types):
            for s2 in range(len(b.types)):
                for j in range(m):
                    for a in range(m):
                        coeffs = {f"z[{i},{s},{s2},{j}]": 1.0}
                        for w in range(n):
                            c = t.prior[w] * b.utility[w, a]
                            if c != 0.0:
                                coeffs[f"pi[{slots[s2]},{w},{j}]"] = -c
                        prog.add_constraint(f"zlb[{i},{s},{s2},{j},{a}]", coeffs, GE, 0.0)
        for slot in slots:
            for w in range(n):
                coeffs = {f"pi[{slot},{w},{j}]": 1.0 for j in range(m)}
                coeffs[f"p[{slot}]"] = -1.0
                prog.add_constraint(f"alloc[{slot},{w}]", coeffs, EQ, 0.0)
    return prog


def named_master_lp(env: MultiEnvironment, vectors: list[np.ndarray]) -> NamedLP:
    """The master as the name-keyed builder makes it, with one lam column per
    vertex vector: the buyers' blocks, then couple per coordinate and
    convex."""
    n, m = env.n_states, env.n_actions
    prog = named_buyer_blocks(env)
    for k in range(len(vectors)):
        prog.add_variable(f"lam[{k}]", 0.0, None)
    for slot in range(len(_slot_index(env)[0])):
        for w in range(n):
            for j in range(m):
                c = (slot * n + w) * m + j
                coeffs = {f"pi[{slot},{w},{j}]": 1.0}
                for k, vec in enumerate(vectors):
                    if vec[c] != 0.0:
                        coeffs[f"lam[{k}]"] = float(-vec[c])
                prog.add_constraint(f"couple[{slot},{w},{j}]", coeffs, EQ, 0.0)
    prog.add_constraint("convex", {f"lam[{k}]": 1.0 for k in range(len(vectors))}, EQ, 1.0)
    return prog


def random_multi(rng, type_counts, n: int, m: int, zero_utility: bool) -> MultiEnvironment:
    buyers = []
    for i, k in enumerate(type_counts):
        priors = rng.dirichlet(np.ones(n), size=k)
        utility = rng.uniform(size=(n, m)).round(1)
        if zero_utility and i == 0:
            utility[:] = 0.0
        types = [BuyerType(f"t{s}", priors[s]) for s in range(k)]
        probs = rng.dirichlet(np.ones(k))
        buyers.append(MultiBuyer(f"b{i}", utility, types,
                                 {t.id: float(p) for t, p in zip(types, probs)}))
    return MultiEnvironment([f"w{w}" for w in range(n)], [f"a{j}" for j in range(m)], buyers)


MASTER_SHAPES = [
    ((1,), 1, 1, False),
    ((3,), 2, 2, True),
    ((2, 1), 1, 3, False),
    ((1, 3), 3, 1, True),
    ((2, 2), 3, 2, False),
    ((2, 3, 1), 2, 2, False),
    ((3, 2, 2), 2, 3, True),
]


class _FirstSolve(Exception):
    pass


@pytest.mark.parametrize("shape", MASTER_SHAPES)
def test_master_arrays_match_named_reference(shape, monkeypatch):
    type_counts, n, m, zero_utility = shape
    rng = np.random.default_rng([len(type_counts), *type_counts, n, m])
    env = random_multi(rng, type_counts, n, m, zero_utility)
    slot_keys = _slot_index(env)[0]
    masters, reduced = [], []
    real_solve, real_rvpm = lpmod.solve, multiagent.rvpm

    def rvpm(*args):
        reduced.append(real_rvpm(*args))
        return reduced[-1]

    # The master of each round, then the decomposition LP.
    monkeypatch.setattr(lpmod, "solve", lambda prog: masters.append(prog) or real_solve(prog))
    monkeypatch.setattr(multiagent, "rvpm", rvpm)
    result = solve_reduced_lp(env)
    # rvpm runs once per starting vertex and once per round; the last
    # round's vertex does not improve and joins no master.
    n_start = len(_initial_weight_sets(env))
    reduced = [np.concatenate([rf.pi_hat[key].ravel() for key in slot_keys]) for rf in reduced]
    vectors, keys = [], set()
    for vec in reduced[:n_start]:
        if np.round(vec, 12).tobytes() not in keys:
            keys.add(np.round(vec, 12).tobytes())
            vectors.append(vec)
    blocks, slots = multiagent._buyer_blocks(env)
    for rounds in (1, result.pricing_rounds):
        master = _master_lp(blocks, slots, vectors)
        assert_same_arrays(master, named_master_lp(env, vectors).compile()[0])
        solved = masters[rounds - 1]
        for A, B in ((master.A_ub, solved.A_ub), (master.A_eq, solved.A_eq)):
            # Written straight as canonical CSR (sorted rows, one entry per
            # position), and handed to HiGHS as built.
            canon = as_scipy(A)
            canon.sum_duplicates()
            for attr in ("data", "indices", "indptr"):
                assert getattr(A, attr).tobytes() == getattr(canon, attr).tobytes()
                assert getattr(A, attr).tobytes() == getattr(B, attr).tobytes()
        vectors += reduced[n_start:-1]


def test_master_iterations_are_deterministic():
    env = random_multi(np.random.default_rng(89), (2, 3), 2, 2, False)
    first, again = solve_reduced_lp(env), solve_reduced_lp(env)
    assert first.master_iterations > 0
    assert again.master_iterations == first.master_iterations
    assert again.pricing_rounds == first.pricing_rounds


def named_ex_post_lp(env: MultiEnvironment) -> NamedLP:
    """The ex-post LP as the name-keyed builder makes it: the buyers'
    blocks, then per buyer i and profile r the columns pi[i, r, w, j] and
    p[i, r]; rows linking each slot's pi and p to the fo-weighted ex-post
    ones, the ex-post row sums, and one capacity row per profile.  The
    test-only reference for brute_force_multi's index arithmetic."""
    counts = [len(b.types) for b in env.buyers]
    n, m = env.n_states, env.n_actions
    profiles = list(itertools.product(*[range(c) for c in counts]))
    first = _slot_index(env)[2].tolist()
    slot_of = {(i, s): first[i] + s for i, c in enumerate(counts) for s in range(c)}
    prog = named_buyer_blocks(env)

    def fo(i: int, prof: tuple[int, ...]) -> float:
        out = 1.0
        for l, s in enumerate(prof):
            if l != i:
                out *= type_prob(env, l, s)
        return out

    for i in range(len(env.buyers)):
        for r in range(len(profiles)):
            for w in range(n):
                for j in range(m):
                    prog.add_variable(f"pi[{i},{r},{w},{j}]", 0.0, 1.0)
            prog.add_variable(f"p[{i},{r}]", 0.0, 1.0)
    for (i, s), slot in slot_of.items():
        mine = [r for r, prof in enumerate(profiles) if prof[i] == s]
        for w in range(n):
            for j in range(m):
                coeffs = {f"pi[{slot},{w},{j}]": 1.0}
                coeffs.update({f"pi[{i},{r},{w},{j}]": -fo(i, profiles[r]) for r in mine})
                prog.add_constraint(f"link[{slot},{w},{j}]", coeffs, EQ, 0.0)
        coeffs = {f"p[{slot}]": 1.0}
        coeffs.update({f"p[{i},{r}]": -fo(i, profiles[r]) for r in mine})
        prog.add_constraint(f"link[{slot}]", coeffs, EQ, 0.0)
    for i in range(len(env.buyers)):
        for r in range(len(profiles)):
            for w in range(n):
                coeffs = {f"pi[{i},{r},{w},{j}]": 1.0 for j in range(m)}
                coeffs[f"p[{i},{r}]"] = -1.0
                prog.add_constraint(f"alloc[{i},{r},{w}]", coeffs, EQ, 0.0)
    for r in range(len(profiles)):
        prog.add_constraint(f"cap[{r}]", {f"p[{i},{r}]": 1.0 for i in range(len(env.buyers))},
                            LE, 1.0)
    return prog


def named_per_profile_lp(env: MultiEnvironment) -> NamedLP:
    """The ex-post LP with a price and deviation bounds per type profile,
    which enter only through their fo-weighted sums: an independent value
    reference for brute_force_multi."""
    counts = [len(b.types) for b in env.buyers]
    n_prof = int(np.prod(counts))
    n, m = env.n_states, env.n_actions
    nb = len(env.buyers)
    base = [[max(t.prior @ b.utility) for t in b.types] for b in env.buyers]
    profiles = list(itertools.product(*[range(c) for c in counts]))
    prof_index = {p: r for r, p in enumerate(profiles)}

    def fprob(prof: tuple[int, ...]) -> float:
        out = 1.0
        for i, s in enumerate(prof):
            out *= type_prob(env, i, s)
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
            out *= type_prob(env, l, rest[pos])
            pos += 1
        return out

    def merge(i: int, s: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        lst = list(rest)
        lst.insert(i, s)
        return tuple(lst)

    prog = NamedLP(sense="max")
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
            prog.add_constraint(f"iir[{i},{s}]", coeffs, GE, 0.0)

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
                prog.add_constraint(f"bic[{i},{s},{s2}]", coeffs, GE, 0.0)

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
                            f"zlb[{i},{s},{s2},{j},{a}]", coeffs, GE, 0.0
                        )

    for i in range(nb):
        for r in range(n_prof):
            for w in range(n):
                coeffs = {f"pi[{i},{r},{w},{j}]": 1.0 for j in range(m)}
                coeffs[f"p[{i},{r}]"] = -1.0
                prog.add_constraint(f"alloc[{i},{r},{w}]", coeffs, EQ, 0.0)
    for r in range(n_prof):
        prog.add_constraint(
            f"cap[{r}]", {f"p[{i},{r}]": 1.0 for i in range(nb)}, LE, 1.0
        )
    return prog


@pytest.mark.parametrize("shape", MASTER_SHAPES)
def test_ex_post_arrays_match_named_reference(shape, monkeypatch):
    type_counts, n, m, zero_utility = shape
    rng = np.random.default_rng([7, len(type_counts), *type_counts, n, m])
    env = random_multi(rng, type_counts, n, m, zero_utility)
    seen = []

    def first_solve(session):
        seen.append(session.array_lp())
        raise _FirstSolve

    monkeypatch.setattr(lpmod, "solve", first_solve)
    with pytest.raises(_FirstSolve):
        brute_force_multi(env)
    assert_same_arrays(seen[0], named_ex_post_lp(env).compile()[0])


def test_ex_post_lp_matches_the_per_profile_lp():
    rng = np.random.default_rng(109)
    shapes = [shape[:3] for shape in MASTER_SHAPES]
    for _ in range(20):
        shapes.append((tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4)))),
                       *(int(v) for v in rng.integers(1, 4, size=2))))
    for type_counts, n, m in shapes:
        env = random_multi(rng, type_counts, n, m, bool(rng.integers(2)))
        sol = lpmod.solve(named_per_profile_lp(env).compile()[0])
        assert sol.status == "Optimal"
        assert brute_force_multi(env) == pytest.approx(sol.objective_value, abs=1e-12)


# --- differential: column generation against the ex-post LP ------------------------

HALVES = st.integers(0, 2).map(lambda i: i / 2)


@st.composite
def tiny_multi_markets(draw) -> MultiEnvironment:
    """One to three buyers with one or two types each, one or two states and
    actions, drawn to hit point-mass priors, duplicate types, tied or
    constant utilities and a single action."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    buyers = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            u = np.full((n, m), draw(HALVES))                  # constant utilities
        else:
            u = np.array(draw(st.lists(HALVES, min_size=n * m, max_size=n * m))).reshape(n, m)
        priors = []
        for s in range(draw(st.integers(1, 2))):
            if priors and draw(st.booleans()):
                priors.append(priors[-1])                       # duplicate type
            else:
                q = draw(st.integers(0, 4)) / 4 if n == 2 else 1.0   # 0 and 1: point masses
                priors.append([q, 1.0 - q][:n])
        weights = draw(st.lists(st.integers(1, 3), min_size=len(priors), max_size=len(priors)))
        types = [BuyerType(f"t{s}", p) for s, p in enumerate(priors)]
        buyers.append(MultiBuyer(f"b{i}", u, types,
                                 {t.id: w / sum(weights) for t, w in zip(types, weights)}))
    return MultiEnvironment([f"w{w}" for w in range(n)], [f"a{j}" for j in range(m)], buyers)


@settings(max_examples=60, deadline=None)
@given(tiny_multi_markets())
def test_column_generation_matches_ex_post_lp(env):
    result = solve_reduced_lp(env)
    assert result.revenue == pytest.approx(brute_force_multi(env), abs=1e-9)


# --- the fast path against the per-draw replay and the rebuilt master -------------

def snapped(values):
    """The library's last step on the master's reduced form: entries below
    ``CLEANUP_TOL`` in magnitude read 0.0."""
    return np.where(np.abs(values) < CLEANUP_TOL, 0.0, values)


def assert_same_result(result, reference) -> None:
    """Bytes-equal revenue, reduced form, mixture and iteration counts; the
    reference's reduced form is compared as the library snaps it."""
    rf, revenue, rounds, iterations, mixture = reference
    assert repr(result.revenue) == repr(revenue)
    assert (result.pricing_rounds, result.master_iterations) == (rounds, iterations)
    got = result.reduced_form
    assert repr(got.t_hat) == repr({key: float(snapped(t)) for key, t in rf.t_hat.items()})
    assert repr(got.p_hat) == repr({key: float(snapped(p)) for key, p in rf.p_hat.items()})
    assert got.pi_hat.keys() == rf.pi_hat.keys()
    assert all(got.pi_hat[key].tobytes() == snapped(rf.pi_hat[key]).tobytes() for key in rf.pi_hat)
    assert [repr(w) for w, _ in result.blueprint.mixture] == [repr(w) for w, _ in mixture]
    for (_, got_w), (_, ref_w) in zip(result.blueprint.mixture, mixture):
        assert got_w.x.keys() == ref_w.x.keys()
        assert all(got_w.x[key].tobytes() == ref_w.x[key].tobytes() for key in ref_w.x)


def test_column_session_master_matches_the_rebuilt_master():
    rng = np.random.default_rng(97)
    shapes = [((1,), 1, 3), ((3,), 2, 3), ((2, 1), 3, 2), ((2, 2), 2, 2), ((1, 3), 3, 3),
              ((3, 2), 2, 2), ((2, 2, 1), 3, 2), ((2, 1, 2), 2, 3), ((1, 1, 1), 3, 3),
              ((2, 2), 3, 3)]
    for type_counts, n, m in shapes * 2:
        env = random_multi(rng, type_counts, n, m, bool(rng.integers(2)))
        assert_same_result(solve_reduced_lp(env), ref.solve_reduced_lp(env))


@settings(max_examples=40, deadline=None)
@given(tiny_multi_markets())
def test_column_session_master_matches_the_rebuilt_master_on_ties(env):
    assert_same_result(solve_reduced_lp(env), ref.solve_reduced_lp(env))


def random_blueprint(rng, env: MultiEnvironment, k: int, ties: bool) -> MechanismBlueprint:
    """k VPM schemes that leave some (buyer, type) weights out; with
    ``ties``, small integer weights, so that values tie within and across
    buyers of equal type probabilities."""
    n, m = env.n_states, env.n_actions
    mixture = []
    for w in rng.dirichlet(np.ones(k)):
        x = {}
        for b in env.buyers:
            for t in b.types:
                if rng.random() < 0.85:
                    x[(b.id, t.id)] = (rng.integers(0, 3, size=(n, m)).astype(float) if ties
                                       else rng.uniform(size=(n, m)))
        mixture.append((float(w), VPMWeights(x)))
    total = sum(w for w, _ in mixture)
    mixture = [(w / total, wts) for w, wts in mixture]
    return MechanismBlueprint(mixture, dict.fromkeys(_slot_index(env)[0], 0.0))


def replay_cases(seed: int, count: int):
    """Random 1-3 buyer environments with blueprints of 1-4 components;
    half of them with uniform type probabilities and tying weights."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        ties = case % 2 == 0
        type_counts = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        n, m = (int(v) for v in rng.integers(1, 4, size=2))
        env = random_multi(rng, type_counts, n, m, False)
        if ties:
            env = MultiEnvironment(env.states, env.actions, [
                replace(b, type_probs={t.id: 1.0 / len(b.types) for t in b.types})
                for b in env.buyers])
        yield rng, env, random_blueprint(rng, env, int(rng.integers(1, 5)), ties)


def test_count_table_replay_matches_the_per_draw_replay():
    for rng, env, bp in replay_cases(101, 40):
        for n_draws in (0, 1, 9, 400, 20_000):
            seed = int(rng.integers(2**31))
            emp, counts = simulate_interim(bp, env, n_draws, seed)
            ref_emp, ref_counts = ref.simulate_interim(bp, env, n_draws, seed)
            assert counts == ref_counts and sum(counts.values()) == n_draws * len(env.buyers)
            assert emp.keys() == ref_emp.keys()
            assert all(emp[key].tobytes() == ref_emp[key].tobytes() for key in emp)


def test_vpm_table_matches_the_per_slot_reference():
    for _, env, bp in replay_cases(103, 40):
        for _, wts in bp.mixture:
            got, want = rvpm(env, wts), ref.rvpm(env, wts)
            assert repr(got.p_hat) == repr(want.p_hat)
            assert all(got.pi_hat[key].tobytes() == want.pi_hat[key].tobytes()
                       for key in want.pi_hat)
            for types in itertools.product(*[[t.id for t in b.types] for b in env.buyers]):
                profile = dict(zip([b.id for b in env.buyers], types))
                winner, exp = vpm_allocate(env, wts, profile)
                ref_winner, ref_exp = ref.vpm_allocate(env, wts, profile)
                assert winner == ref_winner
                assert exp.matrix.tobytes() == ref_exp.matrix.tobytes()


def test_fast_path_matches_the_references_on_benchmark_draws():
    """The multi-buyer benchmark's recipe, one draw per shape, replayed with
    its 100,000 draws."""
    rng = np.random.default_rng(107)
    for shape in [(2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 3), (2, 3, 3, 2)]:
        buyers, k, n, m = shape
        env = random_multi(rng, (k,) * buyers, n, m, False)
        result = solve_reduced_lp(env)
        assert_same_result(result, ref.solve_reduced_lp(env))
        emp, counts = simulate_interim(result.blueprint, env, 100_000, 5)
        ref_emp, ref_counts = ref.simulate_interim(result.blueprint, env, 100_000, 5)
        assert counts == ref_counts
        assert all(emp[key].tobytes() == ref_emp[key].tobytes() for key in emp)


# --- input checks ---------------------------------------------------------------------

@pytest.mark.parametrize("profile", [
    {"b0": "t0", "b1": "t0", "b2": "t0"},      # unknown buyer
    {"b0": "t0", "b1": "t9"},                  # unknown type
    {"b0": "t0"},                              # a buyer without a type
    {"b0": "t1", "b1": "t0"},                  # another buyer's type
])
def test_profiles_with_unknown_ids_are_invalid(profile):
    env = two_buyers([[0.5, 0.5]], [[0.3, 0.7], [0.9, 0.1]])
    bp = MechanismBlueprint([(1.0, identity_weights(env, 0))],
                            dict.fromkeys(_slot_index(env)[0], 0.0))
    with pytest.raises(InvalidInstance):
        vpm_allocate(env, bp.mixture[0][1], profile)
    with pytest.raises(InvalidInstance):
        run_mechanism(bp, env, profile, seed=0)


def test_a_profile_without_an_interim_price_is_invalid():
    env = one_buyer([[0.5, 0.5]])
    with pytest.raises(InvalidInstance, match=r"\('b0', 't0'\)"):
        run_mechanism(MechanismBlueprint([(1.0, VPMWeights({}))], {}), env, {"b0": "t0"}, 0)
    run = run_mechanism(MechanismBlueprint([(1.0, VPMWeights({}))], {("b0", "t0"): 0.25}),
                        env, {"b0": "t0"}, 0)
    assert run.payments == {"b0": 0.25}


@pytest.mark.parametrize("n_draws", [-1, 2.0, 2.5, "10", None])
def test_replay_needs_a_nonnegative_integer_draw_count(n_draws):
    env = one_buyer([[0.5, 0.5]])
    bp = MechanismBlueprint([(1.0, identity_weights(env, 0))], {("b0", "t0"): 0.0})
    with pytest.raises(InvalidInstance):
        simulate_interim(bp, env, n_draws, seed=0)
    emp, counts = simulate_interim(bp, env, np.int64(3), seed=0)
    assert counts == {("b0", "t0"): 3} and emp[("b0", "t0")].tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_vpm_weights_of_the_wrong_shape_are_invalid():
    env = one_buyer([[0.5, 0.5]])
    bp = MechanismBlueprint([(1.0, VPMWeights({("b0", "t0"): np.ones((3, 2))}))],
                            {("b0", "t0"): 0.0})
    with pytest.raises(InvalidInstance):
        run_mechanism(bp, env, {"b0": "t0"}, seed=0)
    with pytest.raises(InvalidInstance):
        simulate_interim(bp, env, 10, seed=0)


@pytest.mark.parametrize("key", [("bX", "t0"), ("b1", "tY")])
def test_vpm_weights_naming_no_slot_are_invalid(key):
    # Read as zero weights, such a key would let buyer b0 win every draw.
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    bp = MechanismBlueprint([(1.0, VPMWeights({key: np.eye(2)}))],
                            {("b0", "t0"): 0.0, ("b1", "t0"): 0.0})
    with pytest.raises(InvalidInstance, match="name no"):
        run_mechanism(bp, env, {"b0": "t0", "b1": "t0"}, seed=0)
    with pytest.raises(InvalidInstance, match="name no"):
        simulate_interim(bp, env, 10, seed=0)


@pytest.mark.parametrize("prices", [{("b0", "t0"): 0.0, ("bX", "t9"): 5.0},
                                    {("b0", "t0"): 0.0, ("b0", "tY"): 5.0},
                                    {("b0", "t1"): 0.0}, {}])
def test_interim_prices_off_the_market_slots_are_invalid(prices):
    # A price naming no (buyer, type) used to be dropped without an error;
    # a blueprint prices every (buyer, type) of the market, reported or not.
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    bp = MechanismBlueprint([(1.0, VPMWeights({}))], prices)
    with pytest.raises(InvalidInstance, match="interim prices"):
        run_mechanism(bp, env, {"b0": "t1"}, seed=0)


@pytest.mark.parametrize("field", ["pi_hat", "p_hat", "t_hat"])
def test_audit_names_a_buyer_type_missing_from_the_reduced_form(field):
    env = one_buyer([[0.5, 0.5]])
    with pytest.raises(InvalidInstance, match=r"\('b0', 't0'\)"):
        audit_reduced_form(env, ReducedForm({}, {}, {}))
    rf = reduced_form([(np.eye(2), 1.0, 0.0)])
    del getattr(rf, field)[("b0", "t0")]
    with pytest.raises(InvalidInstance, match=r"\('b0', 't0'\)"):
        audit_reduced_form(env, rf)


def test_duplicate_type_ids_are_invalid():
    # Two types of one id would share one (buyer, type) slot of the reduced form.
    types = [BuyerType("t0", [0.9, 0.1]), BuyerType("t0", [0.1, 0.9])]
    with pytest.raises(InvalidInstance, match="duplicate type ids"):
        MultiBuyer("b0", np.eye(2), types, {"t0": 0.5})


def test_negative_mixture_weights_are_invalid():
    # Within 1e-9 of a distribution, but a replay cannot draw a negative weight.
    env = one_buyer([[0.5, 0.5]])
    mixture = [(1.0 + 1e-13, identity_weights(env, 0)), (-1e-13, VPMWeights({}))]
    with pytest.raises(InvalidInstance, match="mixture weights"):
        MechanismBlueprint(mixture, {("b0", "t0"): 0.0})
    doc = blueprint_to_json(env, MechanismBlueprint([(0.5, VPMWeights({}))] * 2,
                                                    {("b0", "t0"): 0.0}))
    doc["mixture"][0]["weight"], doc["mixture"][1]["weight"] = 1.0 + 1e-13, -1e-13
    with pytest.raises(InvalidInstance, match="mixture weights"):
        blueprint_from_json(doc)


def test_replay_refuses_cells_beyond_an_int64_index():
    buyers = [MultiBuyer(f"b{i}", np.eye(2), [BuyerType("t0", [0.5, 0.5]),
                                               BuyerType("t1", [0.2, 0.8])],
                         {"t0": 0.5, "t1": 0.5}) for i in range(64)]
    env = MultiEnvironment(["w0", "w1"], ["a0", "a1"], buyers)
    bp = MechanismBlueprint([(1.0, VPMWeights({}))], dict.fromkeys(_slot_index(env)[0], 0.0))
    with pytest.raises(TooLarge):
        simulate_interim(bp, env, 10, seed=0)


def test_a_buyer_is_frozen_with_its_market():
    # Rebinding type_probs used to leave b.market at 0.5/0.5: solve_reduced_lp
    # read the new probabilities (revenue 0.45), brute_force_multi the old (0.25).
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    b = env.buyers[0]
    with pytest.raises(FrozenInstanceError):
        b.type_probs = {"t0": 0.9, "t1": 0.1}
    with pytest.raises(FrozenInstanceError):
        b.id = "b1"
    fresh = MultiEnvironment(env.states, env.actions,
                             [replace(b, type_probs={"t0": 0.9, "t1": 0.1})])
    assert fresh.buyers[0].market.type_probs == {"t0": 0.9, "t1": 0.1}
    assert solve_reduced_lp(fresh).revenue == pytest.approx(0.45, abs=1e-9)
    assert brute_force_multi(fresh) == pytest.approx(0.45, abs=1e-9)


@pytest.mark.parametrize("field", ["pi_hat", "t_hat"])
def test_non_finite_reduced_forms_are_invalid(field):
    env = one_buyer([[0.5, 0.5], [0.9, 0.1]])
    rf = solve_reduced_lp(env).reduced_form
    getattr(rf, field)[("b0", "t0")] = np.full((2, 2), np.nan) if field == "pi_hat" else np.nan
    with pytest.raises(InvalidInstance, match="not finite"):
        audit_reduced_form(env, rf)


def test_validate_refuses_a_non_finite_reduced_form():
    reduced_form([(np.eye(2), 1.0, 0.0)]).validate()
    for pi, p in ((np.array([[np.nan, 1.0], [0.0, 1.0]]), 1.0), (np.eye(2), np.nan)):
        with pytest.raises(InvalidInstance, match="non-finite"):
            reduced_form([(pi, p, 0.0)]).validate()


def test_non_finite_vpm_weights_are_invalid():
    # vpm_allocate would award b1 at every t0 profile (nan wins argmax), while
    # rvpm would give ('b1', 't0') win probability 0 (nan loses every comparison).
    env = two_buyers([[0.5, 0.5], [0.9, 0.1]], [[0.5, 0.5], [0.9, 0.1]])
    w = VPMWeights({("b1", "t0"): np.array([[np.nan, 0.0], [0.0, 0.0]])})
    bp = MechanismBlueprint([(1.0, w)], dict.fromkeys(_slot_index(env)[0], 0.0))
    profile = {"b0": "t0", "b1": "t0"}
    for call in (lambda: rvpm(env, w), lambda: vpm_allocate(env, w, profile),
                 lambda: run_mechanism(bp, env, profile, seed=0),
                 lambda: simulate_interim(bp, env, 10, seed=0)):
        with pytest.raises(InvalidInstance, match=r"\('b1', 't0'\) are not finite"):
            call()


def test_a_blueprint_document_with_a_nan_weight_is_refused_at_run():
    env = two_buyers([[0.5, 0.5]], [[0.5, 0.5]])
    doc = blueprint_to_json(env, MechanismBlueprint([(1.0, VPMWeights({}))],
                                                    {("b0", "t0"): 0.0, ("b1", "t0"): 0.0}))
    doc["mixture"][0]["directions"]["b1"]["t0"][0][0] = float("nan")
    text = json.dumps(doc)
    assert "NaN" in text
    bp = blueprint_from_json(json.loads(text))
    with pytest.raises(InvalidInstance, match="not finite"):
        run_mechanism(bp, env, {"b0": "t0", "b1": "t0"}, seed=0)
