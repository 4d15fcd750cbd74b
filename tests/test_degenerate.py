"""A corpus of degenerate single-buyer markets, solved by independent paths.

Random Dirichlet draws almost never reach the edges of the input space:
ties, zero-probability states, a type at the probability floor.  Each kind
below forces one of them on a random market with n <= 4 states, m <= 5
actions and k <= 5 types (n = 1, m = 1 and k = 1 included):

- ``rounded``: utilities rounded to {0, 1/2, 1};
- ``dominating``: one action pays 1 in every state;
- ``duplicate``: the last action is a copy of the first;
- ``face``: each prior is zero on a random subset of the states;
- ``identical``: every type has the first type's prior;
- ``tiny``: k - 1 types at probability 1e-7.

``solve_explicit`` must match the full menu LP solved at
``RESOLVE_FEASIBILITY_TOL`` to 1e-9, and ``solve_implicit`` with the
matrix oracle (n <= 3) must pass the multi-oracle benchmark's check: an
exactly IC and IR menu whose revenue lies in the epsilon band below the
explicit optimum.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from infomenu import BuyerType, Environment, MatrixOracle, lp, solve_explicit, solve_implicit
from infomenu.explicit import RESOLVE_FEASIBILITY_TOL, build_menu_lp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402

KINDS = ("rounded", "dominating", "duplicate", "face", "identical", "tiny")
DRAWS = 48                        # per kind
EPSILON = 0.04


def degenerate_market(rng, kind: str) -> Environment:
    """A random market of the degenerate ``kind``; its types share one utility matrix."""
    n, m, k = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    utility = rng.uniform(size=(n, m))
    priors = rng.dirichlet(np.ones(n), size=k)
    probs = rng.dirichlet(np.ones(k))
    if kind == "rounded":
        utility = np.round(2.0 * utility) / 2.0
    elif kind == "dominating":
        utility[:, rng.integers(m)] = 1.0
    elif kind == "duplicate":
        utility[:, -1] = utility[:, 0]
    elif kind == "face":
        zero = rng.random((k, n)) < 0.5
        zero[np.arange(k), rng.integers(n, size=k)] = False     # one state stays positive
        priors[zero] = 0.0
        priors /= priors.sum(axis=1, keepdims=True)
    elif kind == "identical":
        priors[:] = priors[0]
    elif kind == "tiny":
        probs = np.array([1.0 - (k - 1) * 1e-7] + [1e-7] * (k - 1))
    types = [BuyerType(f"t{s}", prior) for s, prior in enumerate(priors)]
    return Environment(list(range(n)), list(range(m)), {t.id: utility for t in types}, types,
                       {t.id: float(p) for t, p in zip(types, probs)})


def corpus(kind: str):
    rng = np.random.default_rng([KINDS.index(kind)])
    return [degenerate_market(rng, kind) for _ in range(DRAWS)]


def test_corpus_reaches_the_smallest_markets():
    shapes = {(env.n_states, env.n_actions, len(env.types))
              for kind in KINDS for env in corpus(kind)}
    assert {n for n, _, _ in shapes} >= {1, 4} and {m for _, m, _ in shapes} >= {1, 5}
    assert {k for _, _, k in shapes} >= {1, 5}


@pytest.mark.parametrize("kind", KINDS)
def test_explicit_matches_the_tight_full_lp(kind):
    for env in corpus(kind):
        reference = lp.solve(lp.Session(build_menu_lp(env), RESOLVE_FEASIBILITY_TOL))
        assert reference.status == "Optimal"
        assert solve_explicit(env)[1] == pytest.approx(reference.objective_value, abs=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_implicit_lies_in_the_oracle_band(kind):
    for env in corpus(kind):
        if env.n_states > 3:
            continue
        inp = workloads.OracleInput("matrix", EPSILON, env.types, env.type_probs, env=env)
        oracle = MatrixOracle(env.utility[env.types[0].id])
        result = solve_implicit(oracle, env.types, env.type_probs, EPSILON)
        workloads.check_oracle(inp, result, workloads.reference_oracle(inp))
