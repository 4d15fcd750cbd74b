"""The benchmark's trace hooks name functions the library still has, and
its LP counters keep their meaning.

A hook whose target is gone does not fail the benchmark run; its layer
metrics silently go missing.  Likewise an LP run that bypassed ``lp.solve``
would drop out of ``lp.solve_calls``, ``implicit.separation_rounds`` and
``implicit.deviation_rows``.  These guards run with the library's suite.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from infomenu import Environment, explicit, implicit
from infomenu import lp as lpmod
from infomenu.oracles import MatrixOracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans, workloads  # noqa: E402


def test_every_hook_target_resolves():
    missing = [(module, attr) for _, module, attr, _, _ in spans.HOOKS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def traced_runs(monkeypatch, solve):
    """Run ``solve`` under the benchmark's tracer (which wraps module
    attributes, so ``solve`` must call through them); return its output,
    the spans, and per LP run the row count and whether it was a menu LP."""
    runs = []
    real_run = lpmod.Session._run

    def run(session):
        runs.append((session.n_constraints(), session.array_lp().A_eq.shape[0] > 0))
        return real_run(session)

    monkeypatch.setattr(lpmod.Session, "_run", run)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = solve()
    finally:
        tracer.uninstall()
    return out, spans.View(tracer.spans), runs


def test_every_separation_round_is_one_traced_solve(monkeypatch):
    # A market whose separation takes three rounds.
    u = np.array([[0.5, 0.9, 1.0], [0.9, 0.7, 0.3]])
    env = Environment.build(range(2), range(3), u,
                            [("t0", [0.6, 0.4]), ("t1", [0.35, 0.65]), ("t2", [0.95, 0.05])])
    res, view, runs = traced_runs(
        monkeypatch, lambda: implicit.solve_implicit(MatrixOracle(u), env.types, env.type_probs, 0.04))
    rounds = [rows for rows, menu_lp in runs if menu_lp]
    assert len(rounds) == len(runs)                  # HiGHS runs only in the menu session
    assert res.separation_rounds == len(rounds) >= 3
    assert view.count("lp.solve", under="implicit.solve") == res.separation_rounds
    assert view.count("lp.solve") == len(runs)
    assert view.deviation_rows() == rounds[-1] - rounds[0] > 0


def test_every_lazy_round_is_one_traced_solve(monkeypatch):
    env = workloads.WORKLOADS["explicit-lp"].make_input(11, 0).env
    _, view, runs = traced_runs(monkeypatch, lambda: explicit.solve_explicit(env))
    rounds = [rows for rows, menu_lp in runs if menu_lp]
    assert len(rounds) >= 2 and rounds == sorted(set(rounds))     # each round adds rows
    assert view.count("lp.solve", under="explicit.solve") == len(rounds)
    # Prices come from shortest paths: HiGHS runs only in the menu session.
    assert view.count("lp.solve", under="explicit.prices") == len(runs) - len(rounds) == 0
    assert [s.fields["rows"] for _, s in view.select("lp.solve", under="explicit.solve")] == rounds


class _Keeper:
    """The tracer as an op's observer, keeping the oracles it hands out."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer, self.oracles = tracer, []

    def oracle(self, kind, make):
        self.oracles.append(self.tracer.oracle(kind, make))
        return self.oracles[-1]


@pytest.mark.parametrize("index", [0, 2, 8])          # a sat, a matrix and a traffic op
def test_traced_queries_are_the_oracle_query_count(index):
    # The tracer wraps an oracle's public respond and respond_many; were
    # respond to call the public respond_many, its queries would count twice.
    inp = workloads.WORKLOADS["oracle-menus"].make_input(0, index)
    keeper = _Keeper(spans.Tracer())
    workloads.op_oracle(inp, keeper)
    (oracle,) = keeper.oracles
    traced = spans.View(keeper.tracer.spans).field_sum(f"oracles.{inp.kind}.respond", "queries")
    assert traced == oracle.query_count > 0
