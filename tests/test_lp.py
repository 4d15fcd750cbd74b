"""The array form of an LP, the HiGHS row session, the binding it needs,
its input checks, duals and the dual bound."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import infomenu
from infomenu import lp as lpmod
from infomenu.errors import NumericalFailure
from infomenu.lp import ArrayLP, solve
from named_lp import as_scipy


def array_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=(), bounds=None, sense="max") -> ArrayLP:
    """An ArrayLP from dense rows; variables are >= 0 unless ``bounds`` says otherwise."""
    n = len(c)
    if bounds is None:
        bounds = [(0.0, np.inf)] * n
    rows = lambda A: sp.csr_matrix(np.array(A, dtype=float).reshape(-1, n))  # noqa: E731
    return ArrayLP(np.array(c, dtype=float), rows(A_ub), np.array(b_ub, dtype=float),
                   rows(A_eq), np.array(b_eq, dtype=float), np.array(bounds, dtype=float), sense)


def simple_max() -> ArrayLP:
    """max x subject to x <= 1, x >= 0."""
    return array_lp([1.0], [[1.0]], [1.0])


def max_violation(lp: ArrayLP, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x``."""
    return float(np.concatenate((
        lp.bounds[:, 0] - x, x - lp.bounds[:, 1],
        as_scipy(lp.A_ub) @ x - lp.b_ub, np.abs(as_scipy(lp.A_eq) @ x - lp.b_eq),
    )).max(initial=0.0))


def test_solve_simple_bound():
    sol = solve(simple_max())
    assert sol.status == "Optimal"
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_degenerate_optimum():
    sol = solve(array_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.objective_value == pytest.approx(1.0)


def test_solve_minimization():
    # min x + 2y subject to x + y >= 1 (as -x - y <= -1).
    sol = solve(array_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0], sense="min"))
    assert sol.objective_value == pytest.approx(1.0)
    np.testing.assert_allclose(sol.x, [1.0, 0.0])


def test_solve_infeasible():
    free = [(-np.inf, np.inf)]
    lp = array_lp([1.0], [[-1.0], [1.0]], [-2.0, 1.0], bounds=free)
    assert solve(lp).status == "Infeasible"


def test_optimal_solutions_respect_constraints():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        n_ub = int(rng.integers(1, 5))
        lp = array_lp(rng.normal(size=n), rng.normal(size=(n_ub, n)), rng.uniform(0.5, 2.0, n_ub),
                      bounds=[(0.0, 1.0)] * n)
        sol = solve(lp)
        if sol.status == "Optimal":
            assert max_violation(lp, sol.x) <= 1e-7


def test_duals_sign_convention():
    assert solve(simple_max()).row_duals[0] == pytest.approx(1.0)


def test_equality_duals():
    sol = solve(array_lp([2.0], A_eq=[[1.0]], b_eq=[3.0], bounds=[(-np.inf, np.inf)]))
    assert sol.objective_value == pytest.approx(6.0)
    assert sol.row_duals[0] == pytest.approx(2.0)


def random_array_lp(rng) -> ArrayLP:
    """A feasible, bounded maximization: box-bounded columns, "<=" rows with
    a positive rhs and "==" rows that x = 0 meets."""
    n, n_ub, n_eq = (int(v) for v in rng.integers(1, 6, size=3))
    A_ub = sp.random(n_ub, n, density=0.6, random_state=rng, format="csr")
    A_eq = sp.random(n_eq, n, density=0.6, random_state=rng, format="csr")
    bounds = np.column_stack((np.zeros(n), rng.uniform(0.5, 2.0, n)))
    return ArrayLP(rng.normal(size=n), A_ub, rng.uniform(0.5, 2.0, n_ub),
                   A_eq, np.zeros(n_eq), bounds, "max")


def test_direct_rowwise_call_matches_linprog_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(40):
        lp = random_array_lp(rng)
        direct = solve(lp)
        # linprog minimizes -c; its marginals are d(min-obj)/d(rhs).
        res = linprog(-lp.c, A_ub=as_scipy(lp.A_ub), b_ub=lp.b_ub, A_eq=as_scipy(lp.A_eq),
                      b_eq=lp.b_eq, bounds=lp.bounds, method="highs")
        assert direct.status == "Optimal" and res.status == 0
        assert direct.x.tobytes() == res.x.tobytes()
        duals = -np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
        assert direct.row_duals.tobytes() == duals.tobytes()
        assert direct.objective_value == float(lp.c @ res.x)
        assert direct.iterations == res.nit


def test_array_lp_reports_infeasible_and_unbounded():
    free = [(-np.inf, np.inf)]
    infeasible = array_lp([1.0], [[-1.0], [1.0]], [-2.0, 1.0], bounds=free)
    assert solve(infeasible).status == "Infeasible"
    assert solve(lpmod.Session(infeasible)).status == "Infeasible"
    for sense, objective in (("max", np.inf), ("min", -np.inf)):
        unbounded = array_lp([1.0 if sense == "max" else -1.0, 0.0], [[1.0, -1.0]], [1.0],
                             bounds=free + [(0.0, np.inf)], sense=sense)
        sol = solve(unbounded)
        assert (sol.status, sol.objective_value) == ("Unbounded", objective)


def test_binding_check_needs_every_name_used(monkeypatch):
    assert lpmod._binding() is lpmod._highs
    monkeypatch.setattr(lpmod, "_BINDING_NAMES", lpmod._BINDING_NAMES + ("_Highs.noSuchMethod",))
    with pytest.raises(ImportError, match=r"_Highs\.noSuchMethod"):
        lpmod._binding()


def lp_binding_reads() -> set[str]:
    """The binding attributes lp.py reads, as dotted names from the binding:
    chains from the module-level ``_highs``, ``HighsModelStatus`` members
    through the local ``status``, and ``_Highs`` methods through a
    session's ``_solver`` or the local ``highs``."""
    tree = ast.parse(Path(lpmod.__file__).read_text())
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    roots = {"_highs": "", "status": "HighsModelStatus.", "highs": "_Highs.", "self._solver": "_Highs."}
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        chain = ".".join([node.id, *reversed(parts)])
        for root, prefix in roots.items():
            if chain.startswith(root + "."):
                reads.add(prefix + chain[len(root) + 1:])
    return reads


def test_binding_names_are_what_lp_reads():
    reads = lp_binding_reads()
    assert "HighsModelStatus.kInfeasible" in reads and "_Highs.addRows" in reads
    listed = set(lpmod._BINDING_NAMES)
    # A class or enum read on its way to a listed member is covered by it.
    unlisted = {name for name in reads - listed
                if not any(full.startswith(name + ".") for full in listed)}
    assert not unlisted, f"lp reads binding names not in _BINDING_NAMES: {sorted(unlisted)}"
    assert not listed - reads, f"_BINDING_NAMES lists names lp never reads: {sorted(listed - reads)}"


def one_column_lp(**fields) -> ArrayLP:
    """max x subject to x <= 1 on [0, 2], with ``fields`` replaced."""
    lp = array_lp([1.0], [[1.0]], [1.0], bounds=[(0.0, 2.0)])
    for name, value in fields.items():
        setattr(lp, name, np.array(value, dtype=float))
    return lp


@pytest.mark.parametrize("field, value", [
    ("c", [np.nan]), ("c", [np.inf]), ("b_ub", [np.nan]), ("bounds", [[np.nan, 2.0]]),
    ("bounds", [[0.0, np.nan]]),
])
def test_a_nan_or_infinite_value_is_a_numerical_failure(field, value):
    with pytest.raises(NumericalFailure, match=rf"\b{field}\b"):
        solve(one_column_lp(**{field: value}))


def test_a_nonfinite_matrix_entry_is_a_numerical_failure():
    lp = one_column_lp()
    lp.A_ub = sp.csr_matrix([[np.nan]])
    with pytest.raises(NumericalFailure, match=r"\bA_ub\b"):
        solve(lp)
    session = lpmod.Session(one_column_lp())
    for A, b, field in (([[np.inf]], [1.0], "A"), ([[1.0]], [np.nan], "b")):
        with pytest.raises(NumericalFailure, match=rf"\b{field}\b"):
            session.add_rows(sp.csr_matrix(A), np.array(b))
    assert session.n_constraints() == 1


def test_infinite_rhs_and_bounds_stay_open():
    open_lp = one_column_lp(b_ub=[np.inf], bounds=[[-np.inf, 2.0]])
    assert solve(open_lp).objective_value == 2.0
    session = lpmod.Session(one_column_lp())
    session.add_rows(sp.csr_matrix([[1.0]]), np.array([np.inf]))
    assert solve(session).objective_value == 1.0


def test_iterations_are_reported():
    rng = np.random.default_rng(3)
    for lp in (random_array_lp(rng) for _ in range(2)):
        runs = [solve(lp).iterations for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
    lp = array_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [1.5], bounds=[(0.0, 1.0)] * 3)
    assert solve(lp).iterations >= 1


def stacked(lp: ArrayLP, A, b) -> ArrayLP:
    """``lp`` with the rows ``A @ x <= b`` after its inequality rows."""
    return ArrayLP(lp.c, sp.vstack([lp.A_ub, sp.csr_matrix(A)], format="csr"),
                   np.concatenate((lp.b_ub, b)), lp.A_eq, lp.b_eq, lp.bounds, lp.sense)


def test_one_run_session_is_the_one_shot_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        lp = random_array_lp(rng)
        once, session = solve(lp), solve(lpmod.Session(lp))
        assert once.x.tobytes() == session.x.tobytes()
        assert once.row_duals.tobytes() == session.row_duals.tobytes()
        assert once.iterations == session.iterations


def test_appended_rows_join_the_warm_run():
    rng = np.random.default_rng(17)
    for _ in range(40):
        lp = random_array_lp(rng)
        session = lpmod.Session(lp)
        first = solve(session)
        # Cut off the first optimum: the rows a @ x <= a @ x* - 0.1.
        A = sp.random(2, lp.n_variables(), density=0.8, random_state=rng, format="csr")
        b = A @ first.x - 0.1
        session.add_rows(A, b)
        assert session.n_constraints() == lp.n_constraints() + 2
        cold = solve(stacked(lp, A, b))
        warm = solve(session)
        assert warm.status == cold.status
        if cold.status != "Optimal":
            continue
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        grown = session.array_lp()
        assert max_violation(grown, warm.x) <= 1e-7
        # Duals follow array_lp's row order: they price the objective.
        assert lpmod.lagrangian_bound(grown, warm.row_duals, grown.bounds) == pytest.approx(
            warm.objective_value, abs=1e-7)


def test_session_replays_the_same_vertex():
    rng = np.random.default_rng(19)
    lp = random_array_lp(rng)
    A = sp.random(3, lp.n_variables(), density=0.8, random_state=rng, format="csr")

    def grow():
        session = lpmod.Session(lp)
        out = [solve(session)]
        session.add_rows(A, A @ out[0].x - 0.05)
        out.append(solve(session))
        return [(s.status, s.x.tobytes() if s.x is not None else None, s.iterations) for s in out]

    assert grow() == grow()


def test_lagrangian_bound_bounds_the_optimum_from_any_duals():
    # max x + y subject to x + 2y <= 2, 3x + y <= 3 on the box [0, 1]^2; optimum 1.4.
    lp = array_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [2.0, 3.0], bounds=[(0.0, 1.0)] * 2)
    sol = solve(lp)
    assert lpmod.lagrangian_bound(lp, sol.row_duals, lp.bounds) == pytest.approx(1.4)
    rng = np.random.default_rng(23)
    for y in rng.normal(size=(50, 2)):
        assert lpmod.lagrangian_bound(lp, y, lp.bounds) >= 1.4 - 1e-12
    # Negative "<=" duals are clipped to zero: then the bound is the box's.
    assert lpmod.lagrangian_bound(lp, np.array([-1.0, -1.0]), lp.bounds) == 2.0


def test_tight_tolerances_reach_highs():
    for tol, expected in ((1e-10, 1e-10), (None, 1e-7)):
        session = lpmod.Session(simple_max(), feasibility_tol=tol)
        assert solve(session).objective_value == pytest.approx(1.0)
        options = session._solver.getOptions()
        assert options.primal_feasibility_tolerance == options.dual_feasibility_tolerance == expected


def assert_same_csr(ours, ref) -> None:
    """Equal CSR arrays, bit for bit, and equal shapes."""
    assert ours.shape == ref.shape and ours.nnz == ref.nnz
    for attr in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(ours, attr), getattr(ref, attr))
    assert ours.data.tobytes() == ref.data.astype(np.float64).tobytes()


def as_lp_csr(A) -> lpmod.CSR:
    """A scipy CSR matrix as the library's CSR over the same arrays."""
    return lpmod.CSR(A.data, A.indices, A.indptr, A.shape)


def random_blocks(rng, shape, n_entries):
    """COO blocks with repeated (row, column) pairs, explicit zeros, pairs
    that sum to zero, and entries dropped by ``keep``."""
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(0, n_entries + 1)) if shape[0] else 0
        r, c = rng.integers(0, shape[0] or 1, size=size), rng.integers(0, shape[1], size=size)
        v = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, rng.normal()], size=size)
        blocks.append((r, c, v, rng.uniform(size=size) < 0.8))
    return blocks


def test_block_csr_is_scipys_canonical_csr():
    rng = np.random.default_rng(31)
    shapes = [(0, 3), (1, 1), (2, 5), (4, 3), (6, 6)]
    for shape in shapes * 20:
        # Up to 16 entries: scipy sorts a row that short stably, so its sums
        # of repeated entries follow input order, as block_csr's do.
        blocks = random_blocks(rng, shape, 5)
        r, c, v = (np.concatenate([np.broadcast_to(b[i], b[3].shape)[b[3]] for b in blocks])
                   for i in range(3))
        assert_same_csr(lpmod.block_csr(blocks, shape), sp.csr_matrix((v, (r, c)), shape=shape))
    # Broadcast blocks, and a block with nothing kept.
    rows, cols = np.arange(3)[:, None], np.arange(4)
    ours = lpmod.block_csr([(rows, cols, rows - cols, rows != cols), (0, 0, 2.0, True),
                            (1, 2, 5.0, False)], (3, 4))
    dense = np.where(rows != cols, rows - cols, 0.0)
    dense[0, 0] = 2.0
    np.testing.assert_array_equal(as_scipy(ours).toarray(), dense)
    assert_same_csr(lpmod.block_csr([], (0, 5)), sp.csr_matrix((0, 5)))
    assert_same_csr(lpmod.block_csr([], (2, 5)), sp.csr_matrix((2, 5)))


def test_vstack_is_scipys_vstack():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        blocks = [lpmod.block_csr(random_blocks(rng, (m, n), 8), (m, n))
                  for m in rng.integers(0, 4, size=int(rng.integers(1, 4)))]
        assert_same_csr(lpmod.vstack(blocks),
                        sp.vstack([as_scipy(B) for B in blocks], format="csr"))


def test_block_diag_is_scipys_block_diag():
    rng = np.random.default_rng(47)
    # Blocks with zero rows and blocks with no entries.
    cases = [[lpmod.block_csr([], (0, 3)), lpmod.block_csr([(0, 1, 2.0, True)], (2, 2))],
             [lpmod.block_csr([], shape) for shape in ((2, 2), (0, 1), (1, 3))]]
    for _ in range(40):
        shapes = [(int(rng.integers(0, 4)), int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(1, 4)))]
        cases.append([lpmod.block_csr(random_blocks(rng, shape, 6), shape) for shape in shapes])
    for blocks in cases:
        ours = lpmod.block_diag(blocks)
        ref = sp.block_diag([as_scipy(B) for B in blocks], format="csr")
        assert_same_csr(ours, ref)
        assert ours.indptr.dtype == ours.indices.dtype == ref.indptr.dtype == np.int32


def test_rmatvec_is_the_transposed_product_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(30):
        shape = tuple(int(x) for x in rng.integers(0, 30, size=2))
        A = sp.random(*shape, density=0.5, random_state=rng, format="csr",
                      data_rvs=lambda size: rng.normal(size=size))
        y = rng.normal(size=shape[0])
        assert lpmod.rmatvec(A, y).tobytes() == (A.T @ y).tobytes()
        assert lpmod.rmatvec(as_lp_csr(A), y).tobytes() == (A.T @ y).tobytes()


def test_lagrangian_bound_is_the_same_on_scipy_and_numpy_csr():
    rng = np.random.default_rng(43)
    for _ in range(20):
        lp = random_array_lp(rng)
        ours = ArrayLP(lp.c, as_lp_csr(lp.A_ub), lp.b_ub, as_lp_csr(lp.A_eq), lp.b_eq, lp.bounds,
                       lp.sense)
        y = rng.normal(size=lp.n_constraints())
        box = np.column_stack((np.zeros(lp.n_variables()), np.ones(lp.n_variables())))
        assert lpmod.lagrangian_bound(ours, y, box) == lpmod.lagrangian_bound(lp, y, box)


def run_python(code: str, ok: bool = True) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this infomenu;
    check that it exits 0, or with ``ok=False`` that it fails."""
    src = str(Path(infomenu.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode == 0) == ok, done.stderr
    return done


def test_import_loads_the_binding_without_scipy_optimize():
    run_python("""
import sys
import numpy as np
import infomenu, infomenu.cli
from infomenu import (BuyerType, Environment, MatrixOracle, MultiBuyer, MultiEnvironment, lp,
                      solve_explicit, solve_implicit, solve_reduced_lp)
assert lp._highs is sys.modules["scipy.optimize._highspy._core"]
env = Environment.build(range(2), range(2), np.eye(2), [("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
assert solve_explicit(env)[1] > 0.0
assert solve_implicit(MatrixOracle(np.eye(2)), env.types, env.type_probs, 0.1).revenue > 0.0
types = [BuyerType("t0", np.array([0.5, 0.5])), BuyerType("t1", np.array([0.9, 0.1]))]
buyer = MultiBuyer("b0", np.eye(2), types, {"t0": 0.5, "t1": 0.5})
assert solve_reduced_lp(MultiEnvironment(["w0", "w1"], ["a0", "a1"], [buyer])).revenue > 0.0
# Every solve kind ran without scipy.sparse or scipy.optimize; the binding
# was found without importing the scipy package.
assert "scipy.sparse" not in sys.modules and "scipy.optimize" not in sys.modules
assert "scipy" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core
assert _core is lp._highs
res = lp.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.status == 0 and res.fun == 1.0
assert scipy.optimize.linprog([1.0], bounds=[(2.0, 3.0)]).x.tolist() == [2.0]
""")


def test_binding_falls_back_to_the_package_import():
    run_python("""
import sys
import scipy
scipy.__spec__.origin = "/nonexistent/scipy/__init__.py"
from infomenu import lp
assert "scipy.optimize" in sys.modules
assert lp._highs is sys.modules["scipy.optimize._highspy._core"]
""")


@pytest.mark.parametrize("missing, setup", [
    ("kHighsInf", """
import sys, types
from scipy.optimize._highspy import _core
stub = types.ModuleType(_core.__name__)
stub.__dict__.update({k: v for k, v in vars(_core).items() if k != "kHighsInf"})
sys.modules[_core.__name__] = stub
"""),
    ("scipy", """
import importlib.util
real = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: None if name == "scipy" else real(name, *a)
"""),
], ids=["binding-name", "scipy"])
def test_import_fails_without_the_binding(missing, setup):
    error = run_python(setup + "import infomenu\n", ok=False).stderr.strip().splitlines()[-1]
    assert error.startswith("ImportError") and missing in error
    # The error names the scipy floor pyproject.toml declares.
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'"scipy>=([0-9.]+)"', pyproject).group(1)
    assert f"scipy>={floor}" in error
