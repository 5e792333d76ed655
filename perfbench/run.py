"""Run one intmapf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-solve --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout: it imports the package from ``src/`` and
reads the metric list from ``BENCHMARK.json``.  Workloads are described in
``workloads.py``; ``conflict-dense`` runs only by hand (see README.md).  Each
run is one process on one thread, a closed loop: the next solve starts when
the previous one returns.

A run repeats whole passes over the workload's instance set for about
``--seconds``, always at least one, then checks every output outside the timed
region.  With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the last line holds the
per-layer metrics of the traced passes, and the spans are written to
``.bench_out/``.  The line before it says what else was measured.  A failed
check prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import os

# Before numpy loads: the GP's tiny Cholesky factorizations must not start a
# thread pool on a 2-core box.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# units of what a run prints beside its declared metrics
EXTRA_UNITS = {"fail_frac": "ratio", "tune_s": "s", "pass_s": "s", "solve_samples": "count", "passes": "count",
               "trace.targets": "count", "untraced_pass_s": "s", "traced_pass_s": "s", "traced_passes": "count"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_once(workload: str, seed: int) -> float:
    """Seconds to import intmapf and build the inputs, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def _measure(run, inputs, seconds: float, traced: bool, gate):
    """Passes until the next would end past ``seconds``; traced runs alternate plain and traced passes.

    The gate checks each pass as soon as it ends.  The objects alive before
    the first pass (imports, inputs, the gate's references) are frozen out of
    the garbage collector, and each pass starts from a full collection.  A
    full collection of that heap took 35-40 ms, as long as a quarter of a
    solve near the p90, and where it landed moved with the solve order; now
    collections scan only what the solves allocate, and land at the same
    points in every pass.
    """
    from spans import Tracer

    plain, traced_passes, tracers = [], [], []
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    rounds = 0
    while True:
        gc.collect()
        plain.append(gate.check(run(inputs, None)))
        if traced:
            tracer = Tracer()
            gc.collect()
            with tracer.patched():
                result = run(inputs, tracer)
            traced_passes.append(gate.check(result))
            tracers.append(tracer)
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            return plain, traced_passes, tracers


def _env() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _end_to_end(workload: str, passes, setup: list[float]) -> tuple[dict, dict]:
    from workloads import Failure

    records = _records(passes)
    samples = [r.seconds for r in records]
    deciles = statistics.quantiles(samples, n=10)
    metrics = {
        "setup_s": statistics.median(setup),
        "solves_per_s": statistics.median(len(p.solves) / p.wall for p in passes),
        "solve_p50_s": statistics.median(samples),
        "solve_p90_s": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pass_s = statistics.median(p.wall for p in passes)
    extra = {
        "fail_frac": sum(isinstance(r.outcome, Failure) for r in records) / len(records),
        "tune_s" if workload == "roadmap-tune" else "pass_s": pass_s,
        "solve_samples": len(samples),
        "passes": len(passes),
    }
    return metrics, extra


def _records(passes):
    return [r for p in passes for r in p.solves]


def _by_key(passes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in _records(passes):
        out.setdefault(r.key, []).append(r.seconds)
    return out


def _per_layer(plain, traced_passes, tracers) -> tuple[dict, dict]:
    from spans import TARGETS, layer_metrics

    per_pass = [layer_metrics(t.spans) for t in tracers]
    metrics = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]  # counters repeat exactly; times get their mean
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    untraced = statistics.median(p.wall for p in plain)
    traced = statistics.median(p.wall for p in traced_passes)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["trace.restored"] = min(t.restored for t in tracers)
    extra = {"trace.targets": len(TARGETS), "untraced_pass_s": untraced, "traced_pass_s": traced, "traced_passes": len(tracers)}
    return metrics, extra


def _breakdown(metrics: dict) -> list[str]:
    """Where the time went: children of cbs.solve, and the tuner's parts of tuning.tune."""
    lines = []
    solve_s = metrics["cbs.solve.s"]
    if solve_s > 0:
        parts = {k: metrics[k] for k in ("sipp.plan.s", "cbs.detect_conflicts.s", "graph.dijkstra.s", "cbs.solve.self_s")}
        lines.append("cbs.solve.s split: " + ", ".join(f"{k} {v / solve_s:.1%}" for k, v in sorted(parts.items(), key=lambda kv: -kv[1])))
    tune_s = metrics["tuning.tune.s"]
    if tune_s > 0:
        parts = {k: metrics[k] for k in ("nsga.sort.s", "tuning.fit_surrogate.s", "graph.discretization_error.s", "tuning.eval.s")}
        lines.append("tuning.tune.s split: " + ", ".join(f"{k} {v / tune_s:.1%}" for k, v in parts.items()))
    return lines


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "intmapf" / "__init__.py").is_file():
        print("perfbench: src/intmapf not found; run from the root of an intmapf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        t0 = time.perf_counter()
        import intmapf  # noqa: F401
        from workloads import WORKLOADS

        WORKLOADS[args.workload][0](args.seed)
        print(time.perf_counter() - t0)
        return 0

    from workloads import WORKLOADS, Failure, Gate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [_setup_once(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    build, run = WORKLOADS[args.workload]
    inputs = build(args.seed)
    gate = Gate(args.workload, inputs)
    plain, traced_passes, tracers = _measure(run, inputs, args.seconds, bool(args.trace), gate)
    errors = gate.errors

    if args.trace:
        metrics, extra = _per_layer(plain, traced_passes, tracers)
        if metrics["trace.restored"] != extra["trace.targets"]:
            errors.append("tracing left a module attribute swapped")
        declared = contract["per_layer"]
    else:
        metrics, extra = _end_to_end(args.workload, plain, setup)
        declared = contract["end_to_end"]
    every = _records(plain + traced_passes)
    result = {
        "correct": not errors,
        "attempted": len(every),
        "failed": sum(isinstance(r.outcome, Failure) for r in every),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": _env(),
              "errors": errors, "extra": extra, **result,
              "pass_walls": [p.wall for p in plain], "solve_seconds": _by_key(plain)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for k, t in enumerate(tracers):
        t.write(OUT / f"{stem}-spans{k}.tsv")

    for err in errors[:20]:
        print(f"CHECK FAILED {err}")
    for m in declared:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value!r} {EXTRA_UNITS[name]}")
    if args.trace:
        for line in _breakdown(metrics):
            print(line)
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
