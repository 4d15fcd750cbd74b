"""CLI dispatch: JSON plumbing, determinism, and the exit-code contract."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from infomenu import audit_menu
from infomenu import io as iomod
from infomenu.audit import matching_environment
from infomenu.cli import EXIT_INVALID, EXIT_OK, EXIT_TOO_LARGE, dispatch


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


@pytest.fixture()
def instance_file(tmp_path):
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    path = tmp_path / "env.json"
    path.write_text(iomod.dumps(iomod.environment_to_json(env)))
    return str(path)


@pytest.fixture()
def cnf_file(tmp_path):
    path = tmp_path / "phi.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    return str(path)


def test_solve_explicit_round_trip(instance_file, tmp_path):
    out = tmp_path / "menu.json"
    code, text = run_cli(["solve-explicit", "--instance", instance_file, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["v"] == 1
    assert doc["revenue"] == pytest.approx(0.25, abs=1e-7)
    # The emitted menu re-parses and re-audits to the reported violations.
    menu = iomod.menu_from_json(json.loads(out.read_text()))
    env = iomod.environment_from_json(json.loads(open(instance_file).read()))
    rep = audit_menu(env, menu)
    assert rep.max_ic_violation == pytest.approx(doc["audit"]["max_ic_violation"], abs=1e-12)
    assert rep.revenue == pytest.approx(doc["revenue"], abs=1e-9)


def test_stdout_is_byte_identical_across_runs(instance_file):
    code1, text1 = run_cli(["solve-explicit", "--instance", instance_file])
    code2, text2 = run_cli(["solve-explicit", "--instance", instance_file])
    assert code1 == code2 == EXIT_OK
    assert text1 == text2


def test_audit_command(instance_file, tmp_path, capsys):
    out = tmp_path / "menu.json"
    run_cli(["solve-explicit", "--instance", instance_file, "--out", str(out)])
    code, text = run_cli(["audit", "--menu", str(out), "--instance", instance_file])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["max_ic_violation"] <= 1e-9
    assert doc["revenue"] == pytest.approx(0.25, abs=1e-7)


def test_audit_rejects_nan_price(instance_file, tmp_path):
    out = tmp_path / "menu.json"
    run_cli(["solve-explicit", "--instance", instance_file, "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["entries"][0]["price"] = float("nan")
    out.write_text(json.dumps(doc))                  # writes the token NaN
    code, text = run_cli(["audit", "--menu", str(out), "--instance", instance_file])
    assert code == EXIT_INVALID
    assert text == ""


def test_respond_never_prints_nan(instance_file):
    code, text = run_cli(
        ["oracle", "respond", "--kind", "matrix", "--instance", instance_file,
         "--belief", "nan,0.5"]
    )
    assert code == EXIT_INVALID
    assert "NaN" not in text


def test_matrix_oracle_needs_one_shared_utility(tmp_path):
    env = matching_environment([("t0", [0.5, 0.5]), ("t1", [0.9, 0.1])])
    env.utility["t1"] = env.utility["t1"][:, ::-1].copy()
    path = tmp_path / "per_type.json"
    path.write_text(iomod.dumps(iomod.environment_to_json(env)))
    for argv in (["oracle", "respond", "--kind", "matrix", "--belief", "0.5,0.5"],
                 ["solve-implicit", "--oracle", "matrix", "--epsilon", "0.1"]):
        code, text = run_cli(argv + ["--instance", str(path)])
        assert (code, text) == (EXIT_INVALID, "")


def test_oracle_sat_opt(cnf_file):
    code, text = run_cli(["oracle", "sat-opt", "--cnf", cnf_file])
    assert code == EXIT_OK
    assert json.loads(text)["optimum"] == pytest.approx(0.25)


def test_solve_implicit_sat(cnf_file):
    code, text = run_cli(
        ["solve-implicit", "--oracle", "sat", "--cnf", cnf_file, "--epsilon", "0.1"]
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["revenue"] == pytest.approx(0.25, abs=1e-6)
    assert doc["audit"]["max_ic_violation"] <= 1e-9


def test_solve_implicit_too_many_variables(tmp_path):
    lits = " ".join(str(v) for v in range(1, 31)) + " 0\n"
    big = tmp_path / "big.cnf"
    big.write_text("p cnf 30 1\n" + lits)
    code, _ = run_cli(
        ["solve-implicit", "--oracle", "sat", "--cnf", str(big), "--epsilon", "0.1"]
    )
    assert code == EXIT_TOO_LARGE


TEST_SOLVE_MULTI_DOC = {
    "v": 1,
    "states": ["w0", "w1"],
    "actions": ["a0", "a1"],
    "buyers": [
        {
            "id": "b0",
            "utility": [[1.0, 0.0], [0.0, 1.0]],
            "types": [{"id": "t0", "prior": [0.5, 0.5], "prob": 1.0}],
        },
        {
            "id": "b1",
            "utility": [[1.0, 0.0], [0.0, 1.0]],
            "types": [{"id": "t0", "prior": [0.8, 0.2], "prob": 1.0}],
        },
    ],
}


def test_solve_multi(tmp_path):
    doc = TEST_SOLVE_MULTI_DOC
    path = tmp_path / "multi.json"
    path.write_text(iomod.dumps(doc))
    code, text = run_cli(["solve-multi", "--instance", str(path)])
    assert code == EXIT_OK
    out = json.loads(text)
    assert out["revenue"] >= 0.0
    bp = iomod.blueprint_from_json(out["blueprint"])
    assert abs(sum(w for w, _ in bp.mixture) - 1.0) <= 1e-9


def roadmap_multi_doc() -> dict:
    """The ROADMAP (2,2,2,2) multi-buyer draw: from default_rng(0), per
    buyer Dirichlet priors then uniform utilities; uniform type probabilities."""
    rng = np.random.default_rng(0)
    buyers = []
    for i in range(2):
        priors = rng.dirichlet(np.ones(2), size=2)
        utility = rng.uniform(size=(2, 2))
        types = [{"id": f"t{s}", "prior": priors[s].tolist(), "prob": 0.5} for s in range(2)]
        buyers.append({"id": f"b{i}", "utility": utility.tolist(), "types": types})
    return {"v": 1, "states": ["w0", "w1"], "actions": ["a0", "a1"], "buyers": buyers}


# solve-multi stdout on TEST_SOLVE_MULTI_DOC and the ROADMAP draw, as printed
# before the column session and the count-table replay; the 0.0 prices and
# win probabilities are LP dust.
SOLVE_MULTI_STDOUT = {
    "two-buyers": (
        '{"blueprint":{"mixture":[{"directions":{"b0":{"t0":[[1.0,0.0],[0.0,1.0]]},'
        '"b1":{"t0":[[0.0,0.0],[0.0,0.0]]}},"weight":1.0}],"prices":{"b0":{"t0":0.5},'
        '"b1":{"t0":0.0}},"reduced_form":{"b0":{"t0":{"p":1.0,"pi":[[1.0,0.0],[0.0,1.0]]}},'
        '"b1":{"t0":{"p":0.0,"pi":[[0.0,0.0],[0.0,0.0]]}}},"v":1},"revenue":0.5,"v":1}\n'
    ),
    "roadmap-2222": (
        '{"blueprint":{"mixture":[{"directions":{"b0":{"t0":[[0.0,0.0],[0.0,0.0]],'
        '"t1":[[0.0,0.0],[0.0,0.0]]},"b1":{"t0":[[0.5,0.0],[0.5,0.0]],'
        '"t1":[[0.5,0.0],[0.5,0.0]]}},"weight":1.0}],"prices":{"b0":{"t0":0.0,"t1":0.0},'
        '"b1":{"t0":0.0,"t1":0.0}},"reduced_form":{"b0":{"t0":{"p":0.0,'
        '"pi":[[0.0,0.0],[0.0,0.0]]},"t1":{"p":0.0,"pi":[[0.0,0.0],[0.0,0.0]]}},'
        '"b1":{"t0":{"p":1.0,"pi":[[1.0,0.0],[1.0,0.0]]},"t1":{"p":1.0,'
        '"pi":[[1.0,0.0],[1.0,0.0]]}}},"v":1},"revenue":0.0,"v":1}\n'
    ),
}


@pytest.mark.parametrize("name", sorted(SOLVE_MULTI_STDOUT))
def test_solve_multi_stdout_is_pinned(tmp_path, name):
    doc = TEST_SOLVE_MULTI_DOC if name == "two-buyers" else roadmap_multi_doc()
    path = tmp_path / "multi.json"
    path.write_text(iomod.dumps(doc))
    assert run_cli(["solve-multi", "--instance", str(path)]) == (EXIT_OK, SOLVE_MULTI_STDOUT[name])


def test_duplicate_type_ids_exit_invalid(tmp_path):
    types = [{"id": "t0", "prior": [0.9, 0.1], "prob": 0.5},
             {"id": "t0", "prior": [0.1, 0.9], "prob": 0.5}]
    multi = tmp_path / "multi.json"
    multi.write_text(iomod.dumps({**TEST_SOLVE_MULTI_DOC, "buyers": [
        {"id": "b0", "utility": [[1.0, 0.0], [0.0, 1.0]], "types": types}]}))
    assert run_cli(["solve-multi", "--instance", str(multi)]) == (EXIT_INVALID, "")
    graph, instance = tmp_path / "g.txt", tmp_path / "types.json"
    graph.write_text("0 1 3\n0 1 1 3\n0 1 3 1\n")
    instance.write_text(json.dumps({"types": types}))
    assert run_cli(["solve-implicit", "--oracle", "traffic", "--graph", str(graph),
                    "--instance", str(instance), "--epsilon", "0.1"]) == (EXIT_INVALID, "")


def test_gen_traffic_and_respond(tmp_path):
    out = tmp_path / "g.txt"
    code, text = run_cli(["gen-traffic", "--nodes", "5", "--edges", "8", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text() == text
    code, text = run_cli(
        ["oracle", "respond", "--kind", "traffic", "--graph", str(out), "--belief", "0.5,0.5"]
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert 0.0 <= doc["expected_utility"] <= 1.0


def test_respond_leaves_a_zero_time_self_loop(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 10\n0 0 0 0\n0 1 1 1\n")
    code, text = run_cli(["oracle", "respond", "--kind", "traffic", "--graph", str(graph),
                          "--belief", "0.5,0.5"])
    assert (code, json.loads(text)) == (EXIT_OK, {"action": [1], "expected_utility": 0.9, "v": 1})


@pytest.mark.parametrize("graph, belief", [
    ("0 2 100\n0 1 1 3\n1 0 1 3\n1 2 1 1\n", "-1,0.1"),     # a negative cycle
    ("0 1 3\n0 1 2 10\n0 1 3 1\n", "1.5,-0.5"),             # a utility above 1
    ("0 1 3\n0 1 2 10\n0 1 3 1\n", "0.5,0.6"),
])
def test_respond_rejects_beliefs_off_the_simplex(tmp_path, graph, belief):
    path = tmp_path / "g.txt"
    path.write_text(graph)
    code, text = run_cli(
        ["oracle", "respond", "--kind", "traffic", "--graph", str(path), f"--belief={belief}"]
    )
    assert (code, text) == (EXIT_INVALID, "")


def test_gen_sat_instance(cnf_file):
    code, text = run_cli(["gen-sat-instance", "--cnf", cnf_file])
    assert code == EXIT_OK
    inst = iomod.ipsat_from_json(json.loads(text))
    assert all(len(f.clauses) == 4 for f in inst.formulas)


def test_solve_implicit_traffic(tmp_path, instance_file):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 3\n0 1 1 3\n0 1 3 1\n")
    code, text = run_cli(
        [
            "solve-implicit",
            "--oracle",
            "traffic",
            "--graph",
            str(graph),
            "--instance",
            instance_file,
            "--epsilon",
            "0.1",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["audit"]["max_ic_violation"] <= 1e-9
    assert doc["revenue"] > 0.0


def test_invalid_input_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _ = run_cli(["solve-explicit", "--instance", missing])
    assert code == EXIT_INVALID
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["solve-explicit", "--instance", str(bad)])
    assert code == EXIT_INVALID


def test_unknown_flag_exit_code(instance_file):
    code, _ = run_cli(["solve-explicit", "--instance", instance_file, "--bogus"])
    assert code == EXIT_INVALID
