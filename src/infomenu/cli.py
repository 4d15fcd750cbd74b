"""Command-line interface: every solver, oracle, generator, and audit.

All commands read and write JSON (schema "v": 1) on stdio; logs go to
stderr only, so stdout is byte-stable for identical inputs and seeds.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 too large.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import audit as auditmod
from . import io as iomod
from .errors import (
    InfoMenuError,
    InvalidInstance,
    NoPath,
    NumericalFailure,
    PairingMismatch,
    TooLarge,
    ZeroMassSignal,
)
from .explicit import solve_explicit
from .implicit import solve_implicit
from .market import BuyerType, audit_menu
from .multiagent import solve_reduced_lp
from .oracles import (
    MatrixOracle,
    SATOracle,
    TrafficInstance,
    TrafficOracle,
    build_sat_reduction,
    format_traffic,
    parse_dimacs,
    parse_traffic,
)

log = logging.getLogger("infomenu")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_TOO_LARGE = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(doc: dict) -> None:
    sys.stdout.write(iomod.dumps(doc))


def _load_types(path: str):
    doc = json.loads(_read(path))
    if "types" not in doc:
        raise InvalidInstance("instance document has no types")
    types = [BuyerType(t["id"], np.asarray(t["prior"], dtype=float)) for t in doc["types"]]
    probs = {t["id"]: float(t["prob"]) for t in doc["types"]}
    return types, probs


def cmd_solve_explicit(args) -> int:
    env = iomod.environment_from_json(json.loads(_read(args.instance)))
    menu, revenue, report = solve_explicit(env)
    menu_doc = iomod.menu_to_json(menu)
    if args.out:
        _write(args.out, iomod.dumps(menu_doc))
    _emit(
        {
            "v": 1,
            "revenue": revenue,
            "menu": menu_doc,
            "audit": iomod.audit_report_to_json(report),
        }
    )
    return EXIT_OK


def _oracle(kind: str, args):
    """The best-response oracle of ``kind`` the arguments name, with the
    buyer types and probabilities of its instance (None for a traffic graph,
    which carries no types)."""
    if kind == "matrix":
        if not args.instance:
            raise InvalidInstance("matrix oracle needs --instance")
        env = iomod.environment_from_json(json.loads(_read(args.instance)))
        mats = [env.utility[t.id] for t in env.types]
        if not all(np.array_equal(mats[0], m) for m in mats):
            raise InvalidInstance("oracle-backed solving needs one shared utility matrix")
        return MatrixOracle(mats[0]), env.types, env.type_probs
    if kind == "traffic":
        if not args.graph:
            raise InvalidInstance("traffic oracle needs --graph")
        return TrafficOracle(parse_traffic(_read(args.graph))), None, None
    if kind == "sat":
        if args.cnf:
            inst = build_sat_reduction(parse_dimacs(_read(args.cnf)))
        elif args.instance:
            inst = iomod.ipsat_from_json(json.loads(_read(args.instance)))
        else:
            raise InvalidInstance("sat oracle needs --cnf or --instance")
        types = [BuyerType("t0", np.asarray(inst.type_prior, dtype=float))]
        return SATOracle(inst), types, {"t0": 1.0}
    raise InvalidInstance(f"unknown oracle kind {kind!r}")


def cmd_solve_implicit(args) -> int:
    oracle, types, probs = _oracle(args.oracle, args)
    if types is None:
        if not args.instance:
            raise InvalidInstance("--oracle traffic needs --instance")
        types, probs = _load_types(args.instance)
    result = solve_implicit(
        oracle,
        types,
        probs,
        args.epsilon,
        grid_cap=args.grid_cap,
    )
    menu_doc = iomod.menu_to_json(result.menu)
    if args.out:
        _write(args.out, iomod.dumps(menu_doc))
    _emit(
        {
            "v": 1,
            "revenue": result.revenue,
            "menu": menu_doc,
            "audit": iomod.audit_report_to_json(result.report),
            "grid_delta": result.grid.delta,
            "action_set_sizes": {
                tid: len(acts) for tid, acts in result.action_sets.actions.items()
            },
            "oracle_queries": oracle.query_count,
            "separation_rounds": result.separation_rounds,
        }
    )
    return EXIT_OK


def cmd_solve_multi(args) -> int:
    env = iomod.multi_environment_from_json(json.loads(_read(args.instance)))
    result = solve_reduced_lp(env)
    doc = iomod.blueprint_to_json(env, result.blueprint, result.reduced_form)
    if args.out:
        _write(args.out, iomod.dumps(doc))
    _emit({"v": 1, "revenue": result.revenue, "blueprint": doc})
    return EXIT_OK


def cmd_audit(args) -> int:
    env = iomod.environment_from_json(json.loads(_read(args.instance)))
    menu = iomod.menu_from_json(json.loads(_read(args.menu)))
    report = audit_menu(env, menu)
    _emit(iomod.audit_report_to_json(report))
    return EXIT_OK


def cmd_gen_sat_instance(args) -> int:
    inst = build_sat_reduction(parse_dimacs(_read(args.cnf)))
    doc = iomod.ipsat_to_json(inst)
    if args.out:
        _write(args.out, iomod.dumps(doc))
    _emit(doc)
    return EXIT_OK


def cmd_gen_traffic(args) -> int:
    if args.nodes < 2:
        raise InvalidInstance("need at least two nodes")
    rng = np.random.default_rng(args.seed)
    n = args.nodes
    edges: list[tuple[int, int, float, float]] = []
    for u in range(n - 1):
        t = rng.uniform(1.0, 10.0, size=2)
        edges.append((u, u + 1, round(float(t[0]), 2), round(float(t[1]), 2)))
    extra = max(0, args.edges - len(edges))
    for _ in range(extra):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        t = rng.uniform(1.0, 10.0, size=2)
        edges.append((u, v, round(float(t[0]), 2), round(float(t[1]), 2)))
    # Longest path over the DAG (edges only go forward) under the slower state
    # of each edge; H above that keeps every payoff nonnegative.
    longest = np.zeros(n)
    for u in range(n):
        for (a, b, t0, t1) in edges:
            if a == u:
                longest[b] = max(longest[b], longest[u] + max(t0, t1))
    inst = TrafficInstance(n, edges, 0, n - 1, float(np.ceil(longest[n - 1]) + 1.0))
    text = format_traffic(inst)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "sat-opt":
        cnf = parse_dimacs(_read(args.cnf))
        _emit({"v": 1, "optimum": auditmod.sat_reduction_optimum(cnf)})
        return EXIT_OK
    if args.oracle_cmd == "respond":
        belief = np.array([float(x) for x in args.belief.split(",")])
        oracle, _, _ = _oracle(args.kind, args)
        action, utility = oracle.respond(belief)
        _emit({"v": 1, "action": list(action) if isinstance(action, tuple) else action,
               "expected_utility": utility})
        return EXIT_OK
    raise InvalidInstance(f"unknown oracle subcommand {args.oracle_cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomenu",
        description="Revenue-optimal menus and mechanisms for selling information",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-explicit", help="optimal menu for an explicit instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_explicit)

    p = sub.add_parser("solve-implicit", help="near-optimal menu via a best-response oracle")
    p.add_argument("--oracle", required=True, choices=["matrix", "traffic", "sat"])
    p.add_argument("--instance")
    p.add_argument("--graph")
    p.add_argument("--cnf")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--grid-cap", type=int, default=10**7, dest="grid_cap")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_implicit)

    p = sub.add_parser("solve-multi", help="optimal mechanism for competing buyers")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_multi)

    p = sub.add_parser("audit", help="check a menu against an instance")
    p.add_argument("--menu", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen-sat-instance", help="satisfiability market from a DIMACS CNF")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_sat_instance)

    p = sub.add_parser("gen-traffic", help="random two-state traffic network")
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--edges", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_traffic)

    p = sub.add_parser("oracle", help="query verification oracles directly")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("sat-opt", help="closed-form optimum of a satisfiability market")
    q.add_argument("--cnf", required=True)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("respond", help="one best-response query")
    q.add_argument("--kind", required=True, choices=["matrix", "traffic", "sat"])
    q.add_argument("--instance")
    q.add_argument("--graph")
    q.add_argument("--cnf")
    q.add_argument("--belief", required=True, help="comma-separated probabilities")
    q.set_defaults(func=cmd_oracle)

    return parser


def dispatch(argv: list[str]) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError, InvalidInstance, ZeroMassSignal,
            PairingMismatch, NoPath, ValueError, KeyError) as exc:
        log.error("invalid input: %s", exc)
        return EXIT_INVALID
    except TooLarge as exc:
        log.error("too large: %s", exc)
        return EXIT_TOO_LARGE
    except NumericalFailure as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except InfoMenuError as exc:
        log.error("error: %s", exc)
        return EXIT_INVALID


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
