"""Benchmark ops run and checked as the benchmark does: one whole cycle of
size strata of every workload, and ops that once failed their check.

Each op is built, run and checked exactly as ``perfbench/run.py`` does it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("seed, index", [
    # 30-node traffic network at epsilon 0.05: HiGHS's duals on the full menu
    # LP were infeasible by 4.3e-8 on z columns, and the explicit reference
    # came out 1.8e-8 below the oracle menu's audited revenue.
    (51, 62),
    # 60-node traffic network at epsilon 0.1: extraction lost 6.2e-8 of the
    # LP optimum; the dual bound now shows the gap and triggers the tight
    # re-solve.
    (502, 564),
])
def test_oracle_menu_op_passes_its_check(seed, index):
    wl = workloads.WORKLOADS["oracle-menus"]
    inp = wl.make_input(seed, index)
    out = wl.op(inp, workloads.PlainObserver())
    wl.check(inp, out, wl.reference(inp))


@pytest.mark.parametrize("name", ["explicit-lp", "oracle-menus", "multi-buyer"])
def test_one_stratum_cycle_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]
    for index in range(len(wl.strata)):
        inp = wl.make_input(17, index)
        out = wl.op(inp, workloads.PlainObserver())
        wl.check(inp, out, wl.reference(inp))
