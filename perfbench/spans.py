"""Span tracing for the per-layer metrics, installed from outside the library.

A ``Tracer`` replaces module-level functions of ``infomenu`` (looked up by
name when it is installed) and methods of the benchmark's own oracle
instances with wrappers that record spans: name, start, end, parent and a
few fields.  A hook whose target no longer exists is skipped and every
metric that needs it is reported as missing; the untraced run never
installs a tracer.

``layer_metrics`` turns one traced pass into the ``<module>.<metric>``
values listed in ``METRICS``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int                       # index of the enclosing span, -1 at a root
    end: float = 0.0
    error: str | None = None          # exception type name when the call raised
    fields: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _lp_shape(args, kwargs) -> dict:
    prog = args[0] if args else kwargs["lp"]
    return {"rows": prog.n_constraints(), "cols": prog.n_variables()}


def _highs_nnz(args, kwargs) -> dict:
    return {"nnz": sum(kwargs[k].nnz for k in ("A_ub", "A_eq") if k in kwargs)}


def _highs_result(res) -> dict:
    return {"iters": int(res.nit), "status": int(res.status)}


def _actions_found(res) -> dict:
    return {"actions": sum(len(toks) for toks in res[0].actions.values())}


def _replay_draws(args, kwargs) -> dict:
    return {"draws": int(args[2] if len(args) > 2 else kwargs["n_draws"])}


# (span name, module, attribute, fields from the call, fields from the result)
HOOKS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("lp.solve", "infomenu.lp", "solve", _lp_shape, None),
    ("lp.highs", "infomenu.lp", "linprog", _highs_nnz, _highs_result),
    ("explicit.solve", "infomenu.explicit", "solve_explicit", None, None),
    ("explicit.build", "infomenu.explicit", "build_menu_lp", None, None),
    ("explicit.prices", "infomenu.explicit", "optimal_prices", None, None),
    ("market.audit", "infomenu.explicit", "audit_menu", None, None),
    ("implicit.solve", "infomenu.implicit", "solve_implicit", None, None),
    ("implicit.discovery", "infomenu.implicit", "build_action_sets", None, _actions_found),
    ("implicit.lattice", "infomenu.implicit", "simplex_lattice", None, None),
    ("implicit.prices", "infomenu.implicit", "optimal_prices", None, None),
    ("market.audit", "infomenu.implicit", "audit_menu", None, None),
    ("market.audit", "infomenu.implicit", "eps_ic_to_ic", None, None),
    ("multiagent.solve", "infomenu.multiagent", "solve_reduced_lp", None, None),
    ("multiagent.pricing", "infomenu.multiagent", "rvpm", None, None),
    ("multiagent.decompose", "infomenu.multiagent", "_caratheodory", None, None),
    ("multiagent.audit", "infomenu.multiagent", "audit_reduced_form", None, None),
    ("multiagent.replay", "infomenu.multiagent", "simulate_interim", _replay_draws, None),
    ("multiagent.replay", "infomenu.multiagent", "run_mechanism", lambda a, k: {"draws": 1}, None),
    ("io.serialize", "infomenu.io", "menu_to_json", None, None),
    ("io.serialize", "infomenu.io", "dumps", None, None),
]

# Recursive functions: only the outermost call is a span; the recursion runs
# on the original function.
OUTERMOST_ONLY = {"implicit.lattice"}

ORACLE_KINDS = ("matrix", "traffic", "sat")


def _safe(extract: Callable | None, *args) -> dict:
    """Fields for a span; a hook that no longer fits its target records none."""
    if extract is None:
        return {}
    try:
        return extract(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {}


class Tracer:
    """Records spans while installed; also the observer that traced ops get."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans
    def open(self, name: str, **fields) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, fields=fields))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def call(self, name, fn, args, kwargs, on_call=None, on_return=None, **fields):
        idx = self.open(name, **fields, **_safe(on_call, args, kwargs))
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(idx, exc)
            raise
        self.close(idx)
        self.spans[idx].fields.update(_safe(on_return, out))
        return out

    def wrap(self, name, fn, on_call=None, on_return=None, **fields):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_call, on_return, **fields)
        return traced

    # -- module hooks
    def install(self) -> None:
        for name, module, attr, on_call, on_return in HOOKS:
            try:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            if name in OUTERMOST_ONLY:
                traced = self._outermost(owner, attr, name, original)
            else:
                traced = self.wrap(name, original, on_call, on_return)
            setattr(owner, attr, traced)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _outermost(self, owner, attr, name, original):
        def traced(*args, **kwargs):
            setattr(owner, attr, original)
            try:
                return self.call(name, original, args, kwargs)
            finally:
                setattr(owner, attr, traced)
        return traced

    # -- observer interface used by ops
    def oracle(self, kind: str, make: Callable[[], Any]) -> Any:
        if kind == "sat":
            oracle = self.call("oracles.sat.setup", make, (), {})
        else:
            oracle = make()
        name = f"oracles.{kind}.respond"
        for attr, many in (("respond", False), ("respond_many", True)):
            fn = getattr(oracle, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            queries = (lambda a, k: {"queries": len(a[0])}) if many else (lambda a, k: {"queries": 1})
            setattr(oracle, attr, self.wrap(name, fn, queries, many=many))
        return oracle


class View:
    """Totals over the spans of one traced pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_time = [s.seconds for s in spans]
        for s in spans:
            if s.parent >= 0:
                self.self_time[s.parent] -= s.seconds

    def parent_name(self, s: Span) -> str | None:
        return self.spans[s.parent].name if s.parent >= 0 else None

    def select(self, name: str, under: str | None = None, outermost: bool = False):
        for i, s in enumerate(self.spans):
            if s.name != name or (under is not None and self.parent_name(s) != under):
                continue
            if outermost and self._inside(s, name):
                continue
            yield i, s

    def _inside(self, s: Span, name: str) -> bool:
        while s.parent >= 0:
            s = self.spans[s.parent]
            if s.name == name:
                return True
        return False

    def seconds(self, name, under=None, outermost=False) -> float:
        return sum(s.seconds for _, s in self.select(name, under, outermost))

    def self_seconds(self, name) -> float:
        return sum(self.self_time[i] for i, _ in self.select(name))

    def count(self, name, under=None) -> int:
        return sum(1 for _ in self.select(name, under))

    def field_sum(self, name, key, under=None, **match) -> int:
        return sum(
            s.fields.get(key, 0)
            for _, s in self.select(name, under)
            if all(s.fields.get(k) == v for k, v in match.items())
        )

    def field_max(self, name, key) -> int:
        return max((s.fields.get(key, 0) for _, s in self.select(name)), default=0)

    def errors(self, name, error) -> int:
        return sum(1 for _, s in self.select(name) if s.error == error)

    def kind_total(self, key, under=None, **match) -> int:
        return sum(
            self.field_sum(f"oracles.{k}.respond", key, under, **match) for k in ORACLE_KINDS
        )

    def deviation_rows(self) -> int:
        """Rows added by separation: last minus first LP size of each solve."""
        rows = defaultdict(list)
        for _, s in self.select("lp.solve", under="implicit.solve"):
            rows[s.parent].append(s.fields.get("rows", 0))
        return sum(r[-1] - r[0] for r in rows.values())


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    needs: tuple[str, ...]             # span names the value is computed from
    value: Callable[[View], float]

    @property
    def exact(self) -> bool:
        """Counts (and ratios of counts) repeat exactly for a fixed input."""
        return self.unit in ("count", "ratio")


def _oracle_metrics() -> list[Metric]:
    out = []
    for kind in ORACLE_KINDS:
        span = f"oracles.{kind}.respond"
        out.append(Metric(f"oracles.{kind}.queries", "count", (span,),
                          lambda v, s=span: v.field_sum(s, "queries")))
        out.append(Metric(f"oracles.{kind}.respond_s", "s", (span,),
                          lambda v, s=span: v.seconds(s)))
    return out


RESPONDS = tuple(f"oracles.{k}.respond" for k in ORACLE_KINDS)

METRICS: list[Metric] = [
    Metric("lp.solve_calls", "count", ("lp.solve",), lambda v: v.count("lp.solve")),
    Metric("lp.highs_iters", "count", ("lp.highs",), lambda v: v.field_sum("lp.highs", "iters")),
    Metric("lp.highs_s", "s", ("lp.highs",), lambda v: v.seconds("lp.highs")),
    Metric("lp.assemble_s", "s", ("lp.solve", "lp.highs"), lambda v: v.self_seconds("lp.solve")),
    Metric("lp.rows_max", "count", ("lp.solve",), lambda v: v.field_max("lp.solve", "rows")),
    Metric("lp.cols_max", "count", ("lp.solve",), lambda v: v.field_max("lp.solve", "cols")),
    Metric("lp.nnz_max", "count", ("lp.highs",), lambda v: v.field_max("lp.highs", "nnz")),
    Metric("lp.nonoptimal", "count", ("lp.highs",),
           lambda v: sum(1 for _, s in v.select("lp.highs") if s.fields.get("status", 0) != 0)),
    Metric("explicit.build_s", "s", ("explicit.build",), lambda v: v.seconds("explicit.build")),
    Metric("explicit.polish_s", "s",
           ("explicit.solve", "explicit.build", "explicit.prices", "lp.solve", "market.audit"),
           lambda v: v.seconds("explicit.prices") + v.self_seconds("explicit.solve")),
    Metric("implicit.discovery_s", "s", ("implicit.discovery",),
           lambda v: v.seconds("implicit.discovery")),
    Metric("implicit.lattice_s", "s", ("implicit.lattice",), lambda v: v.seconds("implicit.lattice")),
    Metric("implicit.self_s", "s",
           ("implicit.solve", "implicit.discovery", "implicit.prices", "lp.solve", "market.audit")
           + RESPONDS,
           lambda v: v.self_seconds("implicit.solve")),
    Metric("implicit.separation_rounds", "count", ("implicit.solve", "lp.solve"),
           lambda v: v.count("lp.solve", under="implicit.solve")),
    Metric("implicit.deviation_rows", "count", ("implicit.solve", "lp.solve"),
           lambda v: v.deviation_rows()),
    Metric("implicit.separation_queries", "count", ("implicit.solve",) + RESPONDS,
           lambda v: v.kind_total("queries", under="implicit.solve", many=True)),
    Metric("implicit.separation_yield", "ratio", ("implicit.solve", "lp.solve") + RESPONDS,
           lambda v: _ratio(v.deviation_rows(),
                            v.kind_total("queries", under="implicit.solve", many=True))),
    Metric("implicit.nonconvergence", "count", ("implicit.solve",),
           lambda v: v.errors("implicit.solve", "NonConvergence")),
    *_oracle_metrics(),
    Metric("oracles.sat.setup_s", "s", ("oracles.sat.setup",),
           lambda v: v.seconds("oracles.sat.setup")),
    Metric("oracles.discovery_queries", "count", ("implicit.discovery",) + RESPONDS,
           lambda v: v.kind_total("queries", under="implicit.discovery")),
    Metric("oracles.discovery_actions", "count", ("implicit.discovery",),
           lambda v: v.field_sum("implicit.discovery", "actions")),
    Metric("oracles.discovery_yield", "ratio", ("implicit.discovery",) + RESPONDS,
           lambda v: _ratio(v.field_sum("implicit.discovery", "actions"),
                            v.kind_total("queries", under="implicit.discovery"))),
    Metric("market.audit_s", "s", ("market.audit",),
           lambda v: v.seconds("market.audit", outermost=True)),
    Metric("multiagent.pricing_rounds", "count", ("multiagent.solve", "lp.solve"),
           lambda v: v.count("lp.solve", under="multiagent.solve")),
    Metric("multiagent.master_s", "s", ("multiagent.solve", "lp.solve"),
           lambda v: v.seconds("lp.solve", under="multiagent.solve")),
    Metric("multiagent.pricing_s", "s", ("multiagent.pricing",),
           lambda v: v.seconds("multiagent.pricing")),
    Metric("multiagent.decompose_s", "s", ("multiagent.decompose",),
           lambda v: v.seconds("multiagent.decompose")),
    Metric("multiagent.audit_s", "s", ("multiagent.audit",), lambda v: v.seconds("multiagent.audit")),
    Metric("multiagent.replay_s", "s", ("multiagent.replay",), lambda v: v.seconds("multiagent.replay")),
    Metric("multiagent.replay_draws", "count", ("multiagent.replay",),
           lambda v: v.field_sum("multiagent.replay", "draws")),
    Metric("multiagent.replay_draws_per_s", "1/s", ("multiagent.replay",),
           lambda v: _ratio(v.field_sum("multiagent.replay", "draws"), v.seconds("multiagent.replay"))),
    Metric("multiagent.nonconvergence", "count", ("multiagent.solve",),
           lambda v: v.errors("multiagent.solve", "NonConvergence")),
    Metric("io.serialize_s", "s", ("io.serialize",), lambda v: v.seconds("io.serialize")),
]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """(value of every metric whose spans were recorded, names of the rest)."""
    view = View(tracer.spans)
    values, missing = {}, []
    for m in METRICS:
        if tracer.missing.intersection(m.needs):
            missing.append(m.name)
        else:
            values[m.name] = m.value(view)
    return values, missing
