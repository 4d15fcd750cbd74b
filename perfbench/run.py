"""Benchmark of the infomenu solvers: one seeded workload per run.

    python3 perfbench/run.py --workload explicit-lp --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The load is a closed loop with one client: one process,
ops back to back, no extra threads.

``--trace 0`` runs ops for ``--seconds`` seconds, then to the end of the
current cycle of size strata, checks every output against an independent
reference and reports the end-to-end metrics.  ``--trace 1`` repeats a fixed
set of ops (one of each stratum) in pairs of passes, one plain and one
traced in alternating order, for at least ``--seconds`` seconds, and reports
the per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object.  Exit code 2 means the library or
workload could not be loaded, 3 that a reference answer could not be
computed; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
TAIL_SAMPLES = 10
# One client, no extra threads: keep BLAS from starting a thread pool.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

TRACE_UNITS = {
    "trace.ops": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import infomenu from this checkout's ``src`` and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "infomenu" / "__init__.py").is_file():
        raise LibraryMissing(f"no infomenu package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import infomenu

    if not Path(infomenu.__file__).resolve().is_relative_to(src.resolve()):
        raise LibraryMissing(f"infomenu imported from {infomenu.__file__}, not {src}")
    from perfbench import workloads

    return workloads


# ----------------------------------------------------------------- op records

@dataclass
class Record:
    """One attempted op: its input index, wall time, and output or error."""

    index: int
    seconds: float
    out: object = None
    error: str | None = None          # exception raised by the op, or check miss
    missed: bool = False


def timed_op(wl, inp, index: int, obs) -> Record:
    from infomenu.errors import InfoMenuError

    start = time.perf_counter()
    try:
        out = wl.op(inp, obs)
    except InfoMenuError as exc:
        return Record(index, time.perf_counter() - start, error=type(exc).__name__)
    return Record(index, time.perf_counter() - start, out)


def verify(wl, workloads, inputs: dict, records: list[Record]) -> None:
    """Check each completed op against its reference (one per input)."""
    from infomenu.errors import InfoMenuError

    refs = {}
    for rec in records:
        if rec.error is not None:
            continue
        if rec.index not in refs:
            try:
                refs[rec.index] = wl.reference(inputs[rec.index])
            except InfoMenuError as exc:
                raise workloads.ReferenceUnavailable(f"{type(exc).__name__}: {exc}") from exc
        try:
            wl.check(inputs[rec.index], rec.out, refs[rec.index])
        except workloads.CheckFailure as exc:
            rec.error, rec.missed = f"check: {exc}", True
        rec.out = None


def failure_lines(records: list[Record]) -> list[str]:
    return [f"failed op {r.index}: {r.error}" for r in records if r.error is not None]


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile with
    at least TAIL_SAMPLES samples above its nearest-rank position."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - TAIL_SAMPLES) / n)
    rank = max(math.ceil(pct * n / 100), 1)
    return ordered[rank - 1], pct, n - rank


# ------------------------------------------------------------------ set-up

def probe_setup(name: str, seed: int) -> float:
    """Runs in a fresh process: import the library, build one cycle of inputs."""
    start = time.perf_counter()
    workloads = load_library()
    wl = workloads.WORKLOADS[name]
    for index in range(len(wl.strata)):
        wl.make_input(seed, index)
    return time.perf_counter() - start


def measure_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True, cwd=ROOT)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def warm_up(wl, seed: int, obs) -> None:
    """Run the first op of each op path once, untimed, so lazy imports and
    first-call costs stay out of the measurement."""
    for index in wl.warmup:
        timed_op(wl, wl.make_input(seed, index), index, obs)


# ------------------------------------------------------------------ runs

def run_plain(wl, workloads, seed: int, seconds: float) -> tuple[dict, list[Record], list[str]]:
    setup_s = measure_setup(wl.name, seed)
    obs = workloads.PlainObserver()
    warm_up(wl, seed, obs)
    inputs, records = {}, []
    start = time.perf_counter()
    while len(records) % len(wl.strata) or time.perf_counter() - start < seconds:
        index = len(records)
        inputs[index] = wl.make_input(seed, index)
        records.append(timed_op(wl, inputs[index], index, obs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify(wl, workloads, inputs, records)

    passed = [r.seconds for r in records if r.error is None]
    if not passed:
        raise SystemExit(f"no op of {wl.name} passed: {len(records)} of {len(records)} "
                         f"failed; first error: {records[0].error}")
    wall = sum(r.seconds for r in records)
    tail_s, pct, beyond = tail(passed)
    metrics = {
        "ops_per_s": len(passed) / wall,
        "op_s_p50": statistics.median(passed),
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    failed = len(records) - len(passed)
    lines = [
        f"workload {wl.name} seed {seed}: {len(records)} ops attempted, {failed} failed",
        *failure_lines(records),
        f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s  ({len(passed)} passing ops / {wall:.3f} s of op wall time)",
        f"op_s_p50     {metrics['op_s_p50']:.6f} s  (median of {len(passed)} passing ops)",
        f"op_s_tail    {tail_s:.6f} s  (p{pct}: {beyond} of {len(passed)} samples beyond)",
        f"fail_rate    {failed / len(records):.4f}  ({failed} of {len(records)} ops)",
        f"peak_rss_mb  {peak_rss_mb:.2f} MB",
        f"setup_s      {setup_s:.6f} s  (median of {SETUP_PROBES} fresh processes)",
    ]
    return metrics, records, lines


def traced_pass(wl, spans, inputs: dict) -> tuple[object, list[Record]]:
    """Run each input's op once under a fresh tracer; each op is a root span."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = []
        for index, inp in inputs.items():
            root = tracer.open("op", index=index)
            records.append(timed_op(wl, inp, index, tracer))
            tracer.close(root)
    finally:
        tracer.uninstall()
    return tracer, records


def run_traced(wl, workloads, seed: int, seconds: float) -> tuple[dict, list[Record], list[str]]:
    from perfbench import spans

    indices = range(len(wl.strata))
    inputs = {i: wl.make_input(seed, i) for i in indices}
    plain = workloads.PlainObserver()
    warm_up(wl, seed, plain)
    records, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # Alternate which pass of a pair runs first, so order effects cancel.
        if len(passes) % 2:
            tracer, traced = traced_pass(wl, spans, inputs)
        untraced = [timed_op(wl, inputs[i], i, plain) for i in indices]
        if not len(passes) % 2:
            tracer, traced = traced_pass(wl, spans, inputs)
        values, missing = spans.layer_metrics(tracer)
        plain_wall = sum(r.seconds for r in untraced)
        traced_wall = sum(r.seconds for r in traced)
        values.update({
            "trace.ops": len(traced),
            "trace.untraced_ops_per_s": len(untraced) / plain_wall,
            "trace.traced_ops_per_s": len(traced) / traced_wall,
            "trace.overhead": traced_wall / plain_wall,
        })
        passes.append(values)
        records += untraced + traced
    verify(wl, workloads, inputs, records)

    units = {m.name: m.unit for m in spans.METRICS} | TRACE_UNITS
    exact = {m.name for m in spans.METRICS if m.exact} | {"trace.ops"}
    metrics, lines = {}, []
    for name, value in passes[0].items():
        if name in exact:
            drift = {p[name] for p in passes}
            if len(drift) > 1:
                lines.append(f"WARNING {name} differs between passes: {sorted(drift)}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    failed = sum(r.error is not None for r in records)
    lines.insert(0, f"workload {wl.name} seed {seed} traced: {len(passes)} pass pairs of "
                    f"{len(indices)} ops, {len(records)} ops attempted, {failed} failed")
    lines += failure_lines(records)
    lines += [f"{name:32s} {metrics[name]:.6g} {units[name]}" for name in metrics]
    lines.append(f"tracing overhead: traced/untraced op wall time = {metrics['trace.overhead']:.4f}")
    if missing:
        lines.append("missing (hook target not found): " + ", ".join(missing))
    return {n: (v, units[n]) for n, v in metrics.items()}, records, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD_ENV)

    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
            return 0
        workloads = load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, records, lines = run_traced(wl, workloads, args.seed, args.seconds)
        else:
            values, records, lines = run_plain(wl, workloads, args.seed, args.seconds)
            metrics = {n: (v, END_TO_END_UNITS[n]) for n, v in values.items()}
    except workloads.ReferenceUnavailable as exc:
        print(f"perfbench: reference answer unavailable: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    result = {
        "correct": not any(r.missed for r in records),
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
