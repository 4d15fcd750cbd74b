"""JSON schemas for instances, menus, blueprints, and reports (all "v": 1).

Floats are serialized at 12 significant digits and keys are sorted, so a
given object always renders to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InvalidInstance, NumericalFailure
from .market import AuditReport, BuyerType, Environment, Experiment, Menu
from .multiagent import MechanismBlueprint, MultiBuyer, MultiEnvironment, ReducedForm, VPMWeights
from .oracles import CNF, IPSATInstance

SCHEMA_VERSION = 1


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 12-significant-digit floats.

    Non-finite floats have no JSON form and raise NumericalFailure.
    """
    try:
        text = json.dumps(
            _round_floats(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise NumericalFailure(f"non-finite value in output: {exc}") from exc
    return text + "\n"


def _expect_version(doc: dict) -> None:
    if doc.get("v") != SCHEMA_VERSION:
        raise InvalidInstance(f"expected schema v{SCHEMA_VERSION}, got {doc.get('v')!r}")


def environment_to_json(env: Environment) -> dict:
    """The single-buyer instance document; one utility matrix if all types share it."""
    shared = None
    mats = [env.utility[t.id] for t in env.types]
    if all(np.array_equal(mats[0], m) for m in mats):
        shared = mats[0]
    return {
        "v": SCHEMA_VERSION,
        "states": list(env.states),
        "actions": list(env.actions),
        "utility": shared.tolist()
        if shared is not None
        else {t.id: env.utility[t.id].tolist() for t in env.types},
        "types": [
            {"id": t.id, "prior": t.prior.tolist(), "prob": env.prob(t.id)}
            for t in env.types
        ],
    }


def environment_from_json(doc: dict) -> Environment:
    _expect_version(doc)
    try:
        types = [(t["id"], t["prior"]) for t in doc["types"]]
        probs = {t["id"]: float(t["prob"]) for t in doc["types"]}
        utility = doc["utility"]
        if isinstance(utility, dict):
            utility = {tid: np.asarray(mat, dtype=float) for tid, mat in utility.items()}
        else:
            utility = np.asarray(utility, dtype=float)
        return Environment.build(doc["states"], doc["actions"], utility, types, probs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad environment document: {exc}") from exc


def menu_to_json(menu: Menu) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "entries": [
            {"matrix": ex.matrix.tolist(), "row_mass": ex.row_mass, "price": price}
            for ex, price in menu.entries
        ],
        "assignment": menu.assignment,
    }


def menu_from_json(doc: dict) -> Menu:
    _expect_version(doc)
    try:
        entries = [
            (
                Experiment(np.asarray(e["matrix"], dtype=float), e.get("row_mass", 1.0)),
                float(e["price"]),
            )
            for e in doc["entries"]
        ]
        assignment = doc.get("assignment")
        if assignment is not None:
            assignment = {
                tid: (None if idx is None else int(idx)) for tid, idx in assignment.items()
            }
        return Menu(entries=entries, assignment=assignment)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad menu document: {exc}") from exc


def audit_report_to_json(report: AuditReport) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "max_ic_violation": report.max_ic_violation,
        "max_ir_violation": report.max_ir_violation,
        "revenue": report.revenue,
        "choices": {
            tid: {"entry": entry, "net_utility": net}
            for tid, (entry, net) in report.choices.items()
        },
    }


def multi_environment_from_json(doc: dict) -> MultiEnvironment:
    _expect_version(doc)
    try:
        buyers = []
        for b in doc["buyers"]:
            types = [BuyerType(t["id"], np.asarray(t["prior"], dtype=float)) for t in b["types"]]
            probs = {t["id"]: float(t["prob"]) for t in b["types"]}
            buyers.append(
                MultiBuyer(b["id"], np.asarray(b["utility"], dtype=float), types, probs)
            )
        return MultiEnvironment(doc["states"], doc["actions"], buyers)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad multi-agent document: {exc}") from exc


def blueprint_to_json(env: MultiEnvironment, blueprint: MechanismBlueprint,
                      reduced_form: ReducedForm | None = None) -> dict:
    doc = {
        "v": SCHEMA_VERSION,
        "mixture": [
            {
                "weight": w,
                "directions": {
                    b.id: {
                        t.id: wts.x.get((b.id, t.id), np.zeros((len(env.states), len(env.actions)))).tolist()
                        for t in b.types
                    }
                    for b in env.buyers
                },
            }
            for w, wts in blueprint.mixture
        ],
        "prices": {
            b.id: {t.id: blueprint.t_hat[(b.id, t.id)] for t in b.types}
            for b in env.buyers
        },
    }
    if reduced_form is not None:
        doc["reduced_form"] = {
            b.id: {
                t.id: {
                    "pi": reduced_form.pi_hat[(b.id, t.id)].tolist(),
                    "p": reduced_form.p_hat[(b.id, t.id)],
                }
                for t in b.types
            }
            for b in env.buyers
        }
    return doc


def blueprint_from_json(doc: dict) -> MechanismBlueprint:
    """Checks the document's shape only; ``run_mechanism`` checks it against a market."""
    _expect_version(doc)
    try:
        mixture = []
        for comp in doc["mixture"]:
            x = {}
            for bid, per_type in comp["directions"].items():
                for tid, mat in per_type.items():
                    arr = np.asarray(mat, dtype=float)
                    if np.any(arr != 0.0):
                        x[(bid, tid)] = arr
            mixture.append((float(comp["weight"]), VPMWeights(x)))
        t_hat = {
            (bid, tid): float(p)
            for bid, per_type in doc["prices"].items()
            for tid, p in per_type.items()
        }
        return MechanismBlueprint(mixture=mixture, t_hat=t_hat)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad blueprint document: {exc}") from exc


def ipsat_to_json(instance: IPSATInstance) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "num_vars": instance.num_vars,
        "clauses_by_state": [f.clauses for f in instance.formulas],
        "type_prior": list(np.asarray(instance.type_prior, dtype=float)),
    }


def ipsat_from_json(doc: dict) -> IPSATInstance:
    _expect_version(doc)
    try:
        nv = int(doc["num_vars"])
        formulas = [CNF(nv, [list(map(int, cl)) for cl in st]) for st in doc["clauses_by_state"]]
        return IPSATInstance(formulas, np.asarray(doc["type_prior"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad satisfiability-market document: {exc}") from exc
