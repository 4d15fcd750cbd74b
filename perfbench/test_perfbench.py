"""Tests of the benchmark harness itself (not collected by the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced passes over one seed's op set must report identical count
metrics, the self times of an op's spans must fit in the op's wall time, and
a hook whose target has gone must turn its metrics into missing ones without
breaking the run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, spans, workloads  # noqa: E402

SEED = 11


def _inputs(wl, count=None):
    return {i: wl.make_input(SEED, i) for i in range(count or len(wl.strata))}


def _descendants(tracer, root: int) -> list[int]:
    inside = {root}
    out = []
    for i, s in enumerate(tracer.spans):
        if s.parent in inside:
            inside.add(i)
            out.append(i)
    return out


@pytest.mark.parametrize("name", ["explicit-lp", "oracle-menus", "multi-buyer"])
def test_traced_counts_repeat_and_self_times_fit(name):
    wl = workloads.WORKLOADS[name]
    inputs = _inputs(wl)
    counts = []
    for _ in range(2):
        tracer, records = run.traced_pass(wl, spans, inputs)
        run.verify(wl, workloads, inputs, records)
        values, missing = spans.layer_metrics(tracer)
        assert missing == []
        exact = {m.name: values[m.name] for m in spans.METRICS if m.exact}
        exact["failed"] = sum(r.error is not None for r in records)
        counts.append(exact)

        view = spans.View(tracer.spans)
        roots = [i for i, s in enumerate(tracer.spans) if s.name == "op"]
        assert len(roots) == len(records)
        for root, rec in zip(roots, records):
            inner = sum(view.self_time[i] for i in _descendants(tracer, root))
            assert 0.0 <= inner <= rec.seconds
    assert counts[0] == counts[1]
    assert counts[0]["failed"] == 0
    assert counts[0]["lp.solve_calls"] > 0


def test_missing_hook_target_reports_metrics_missing(monkeypatch):
    hooks = [h if h[0] != "lp.highs" else (h[0], h[1], "renamed_linprog", h[3], h[4])
             for h in spans.HOOKS]
    monkeypatch.setattr(spans, "HOOKS", hooks)
    wl = workloads.WORKLOADS["explicit-lp"]
    inputs = _inputs(wl, count=1)
    tracer, records = run.traced_pass(wl, spans, inputs)
    values, missing = spans.layer_metrics(tracer)
    assert {"lp.highs_iters", "lp.highs_s", "lp.assemble_s", "lp.nnz_max"} <= set(missing)
    assert values["lp.solve_calls"] == 2
    assert records[0].error is None
    import infomenu.lp

    assert not hasattr(infomenu.lp, "renamed_linprog")
    assert infomenu.lp.solve.__module__ == "infomenu.lp"


def test_outermost_span_restores_recursive_function():
    import infomenu.implicit

    original = infomenu.implicit.simplex_lattice
    tracer = spans.Tracer()
    tracer.install()
    try:
        lattice = infomenu.implicit.simplex_lattice(3, 4)
    finally:
        tracer.uninstall()
    assert infomenu.implicit.simplex_lattice is original
    assert len(lattice) == 15
    assert [s.name for s in tracer.spans] == ["implicit.lattice"]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 46)]) == (35.0, 77, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)
