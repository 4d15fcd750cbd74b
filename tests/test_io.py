"""Document round trips and a few cross-cutting behaviors."""

import json

import numpy as np
import pytest

from infomenu import (
    BuyerType,
    Environment,
    NumericalFailure,
    solve_explicit,
    solve_reduced_lp,
)
from infomenu import io as iomod
from infomenu.audit import matching_environment
from infomenu.multiagent import MultiBuyer, MultiEnvironment
from infomenu.oracles import CNF, IPSATInstance


def test_environment_round_trip_shared_utility():
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    doc = json.loads(iomod.dumps(iomod.environment_to_json(env)))
    back = iomod.environment_from_json(doc)
    assert back.states == env.states
    assert back.type_ids() == env.type_ids()
    for tid in env.type_ids():
        np.testing.assert_allclose(back.utility[tid], env.utility[tid])
        np.testing.assert_allclose(back.prior(tid), env.prior(tid))
        assert back.prob(tid) == env.prob(tid)


def test_environment_round_trip_per_type_utilities():
    env = Environment.build(
        states=["w0", "w1"],
        actions=["a0", "a1"],
        utility={"cautious": np.array([[1.0, 0.2], [0.0, 0.9]]),
                 "bold": np.array([[0.8, 0.0], [0.1, 1.0]])},
        types=[("cautious", [0.5, 0.5]), ("bold", [0.3, 0.7])],
    )
    doc = json.loads(iomod.dumps(iomod.environment_to_json(env)))
    assert isinstance(doc["utility"], dict)
    back = iomod.environment_from_json(doc)
    for tid in env.type_ids():
        np.testing.assert_allclose(back.utility[tid], env.utility[tid])


def test_per_type_utilities_solve_end_to_end():
    # Buyer types that differ in payoffs, not just priors.
    env = Environment.build(
        states=["w0", "w1"],
        actions=["a0", "a1"],
        utility={"t0": np.eye(2), "t1": np.array([[0.5, 0.4], [0.4, 0.5]])},
        types=[("t0", [0.5, 0.5]), ("t1", [0.5, 0.5])],
    )
    menu, rev, rep = solve_explicit(env)
    assert rep.max_ic_violation <= 1e-9 and rep.max_ir_violation <= 1e-9
    # The flat-payoff type values information a tenth as much as the matching
    # type, so envy-freeness prices it out entirely: full revelation goes to
    # the matching type at its whole surplus and the flat type takes nothing.
    assert rev == pytest.approx(0.5 * 0.5, abs=1e-6)


def test_menu_round_trip_with_null_assignment():
    from infomenu import Experiment, Menu

    menu = Menu(
        entries=[(Experiment.fully_informative(2), 0.25)],
        assignment={"t0": 0, "t1": None},
    )
    back = iomod.menu_from_json(json.loads(iomod.dumps(iomod.menu_to_json(menu))))
    assert back.assignment == {"t0": 0, "t1": None}
    np.testing.assert_allclose(back.entries[0][0].matrix, np.eye(2))


def test_blueprint_round_trip():
    env = MultiEnvironment(
        states=["w0", "w1"],
        actions=["a0", "a1"],
        buyers=[
            MultiBuyer("b0", np.eye(2), [BuyerType("t0", [0.5, 0.5])], {"t0": 1.0}),
            MultiBuyer("b1", np.eye(2), [BuyerType("t0", [0.7, 0.3])], {"t0": 1.0}),
        ],
    )
    result = solve_reduced_lp(env)
    doc = json.loads(iomod.dumps(iomod.blueprint_to_json(env, result.blueprint, result.reduced_form)))
    back = iomod.blueprint_from_json(doc)
    assert len(back.mixture) == len(result.blueprint.mixture)
    assert back.t_hat == pytest.approx(result.blueprint.t_hat)


def test_ipsat_round_trip():
    inst = IPSATInstance([CNF(2, [[1, 2], [-1]]), CNF(2, [[2]])], np.array([0.4, 0.6]))
    back = iomod.ipsat_from_json(json.loads(iomod.dumps(iomod.ipsat_to_json(inst))))
    assert [f.clauses for f in back.formulas] == [f.clauses for f in inst.formulas]
    np.testing.assert_allclose(back.type_prior, inst.type_prior)


def test_dumps_is_deterministic_and_rounded():
    text = iomod.dumps({"b": 0.1 + 0.2, "a": [1 / 3]})
    assert text == '{"a":[0.333333333333],"b":0.3}\n'


def test_dumps_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(NumericalFailure):
            iomod.dumps({"x": [1.0, bad]})
