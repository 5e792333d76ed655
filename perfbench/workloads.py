"""The benchmark's three workloads: their inputs, one pass over them, and the gate.

desk-solve
    The 96 desk solves: ``run_suite`` over the 4 desk cases (empty-16-16 and
    random-32-32, k in {3, 4}) x 4 scenarios x {8, 12, 16} agents x
    s in {0.5, 1}, ``SolveConfig`` defaults, 10 s timeout.  The draw is
    ``desk_suite(seed=0)``; the benchmark seed only permutes the order of
    cases, agent counts and modes.  Other draws are far apart in cost (8 to
    36 s per pass over seeds 0-5, with three timeouts at seed 4), which no
    bound on a pass-level metric could absorb.
conflict-dense
    The first 100 criterion-4-style draws from ``random.Random(404)`` whose
    root plans conflict and that the joint-state oracle solves within
    horizon 40, solved with ``disjoint=True``, the default horizon and a 10 s
    timeout.  The set is fixed for the same reason as desk-solve (a few
    instances take most of a pass) and the seed permutes the solve order.
    One draw times out at any speed this code reaches; it stays in.  This
    workload runs by hand only, not from BENCHMARK.json: its timeout fixes a
    third of each pass and the memory of the timed-out search, and its median
    solve sits where the times jump from about 5 to 8 ms, so wall-clock
    metrics spread by up to a third between runs.
roadmap-tune
    ``tune()`` on a 300-vertex, 5-nearest-neighbour Euclidean roadmap with 10
    agents, s in [0.1, 1.0] and ``TuneConfig`` defaults.  The roadmap, its
    agents and the tuner seed are fixed, so every run evaluates the same 25
    scales: roadmaps drawn from seeds 1-5 put the median solve anywhere from
    7 to 22 ms, and tuner seeds 101-109 moved solve_p90_s by 25%.  The
    benchmark seed is not used.  The objective is the solve's low-level call
    count, so the trajectory does not depend on machine load.

A pass returns one ``SolveRecord`` per ``solve`` call.  ``Gate`` is the
correctness gate; it runs after each pass, outside the timed region.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from intmapf import bench, cbs, graph, mapio, tuning
from intmapf.cbs import Failure, Solution, SolveConfig, detect_conflicts, validate_solution
from intmapf.graph import IntGraph, Vertex
from intmapf.mapio import Instance, ScenarioEntry
from intmapf.sipp import EMPTY_CONSTRAINTS, sipp_plan

DATA = Path(__file__).resolve().parent / "data"
ORACLES = Path("tests") / "oracles.py"  # the test suite's independent references, from the checkout root

DESK_REFERENCE = DATA / "desk_reference.json"
CD_ORACLE = DATA / "conflict_dense_oracle.json"
CD_RNG = 404
CD_COUNT = 100
CD_HORIZON = 40  # the oracle's horizon; the solver keeps its default
CD_TIMEOUT = 10.0
RM_SEED = 0  # seeds the roadmap, its agents and the tuner
RM_VERTICES = 300
RM_NEIGHBOURS = 5
RM_AGENTS = 10
RM_EVAL_TIMEOUT = 10.0


@dataclass(frozen=True)
class SolveRecord:
    key: str  # names the instance, the same in every pass
    seconds: float  # wall time of the solve call
    outcome: Solution | Failure
    instance: Instance | None  # as handed to solve; dropped once the pass is checked


@dataclass(frozen=True)
class PassResult:
    wall: float
    solves: tuple[SolveRecord, ...]
    observations: tuple | None = None  # the tuner's observation sequence, roadmap-tune only


# --- desk-solve ------------------------------------------------------------


def build_desk(seed: int) -> bench.ExperimentSpec:
    spec = replace(
        bench.desk_suite(agent_counts=(8, 12, 16), modes=("fixed", "baseline")), fixed_s=0.5
    )
    rng = random.Random(seed)
    cases, counts, modes = list(spec.cases), list(spec.agent_counts), list(spec.modes)
    for part in (cases, counts, modes):
        rng.shuffle(part)
    return replace(spec, cases=tuple(cases), agent_counts=tuple(counts), modes=tuple(modes))


@contextmanager
def _captured_solves():
    """Collect (instance, result) for every solve run_suite makes; run_suite keeps only rows.

    The 96 instances share 8 integer graphs; keeping one copy of each holds
    the benchmark's own memory to a few megabytes.
    """
    original = bench.solve
    calls = []
    graphs: dict[tuple, IntGraph] = {}

    def solve(instance, config=None):
        out = original(instance, config)
        g = graphs.setdefault(instance.graph.edges, instance.graph)
        calls.append((instance if g is instance.graph else replace(instance, graph=g), out))
        return out

    bench.solve = solve
    try:
        yield calls
    finally:
        bench.solve = original


def run_desk(spec: bench.ExperimentSpec, tracer=None) -> PassResult:
    with _captured_solves() as calls:
        t0 = time.perf_counter()
        result = bench.run_suite(spec)
        wall = time.perf_counter() - t0
    records = tuple(
        SolveRecord(f"{r.map}/k{r.k}/n{r.n_agents}/scen{r.scenario}/{r.mode}", r.runtime_s, out, inst)
        for r, (inst, out) in zip(result.rows, calls)
    )
    return PassResult(wall, records)


def desk_reference() -> dict[str, dict]:
    return json.loads(DESK_REFERENCE.read_text())["rows"]


# --- conflict-dense ----------------------------------------------------------


def _random_int_graph(rng: random.Random, n: int, max_w: int, p: float) -> IntGraph:
    """A random spanning tree plus each remaining pair with probability p (criterion 4's graphs)."""
    verts = [Vertex(i, (float(i), 0.0)) for i in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_w)))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < p:
                edges.append((u, v, rng.randint(1, max_w)))
    return IntGraph(verts, edges)


def instance_key(inst: Instance) -> str:
    return f"{list(inst.graph.edges)}|{list(inst.starts)}|{list(inst.goals)}"


def conflict_dense_draws(optimum) -> list[tuple[Instance, int]]:
    """The first CD_COUNT kept draws with their optimal makespans.

    optimum(instance) returns the joint-state optimum within CD_HORIZON, or
    None; draws without one, or whose root plans do not conflict, are skipped.
    The solver's outcome never filters a draw.
    """
    rng = random.Random(CD_RNG)
    kept = []
    while len(kept) < CD_COUNT:
        g = _random_int_graph(rng, rng.randint(5, 8), max_w=2, p=0.15)
        agents = rng.randint(3, min(4, g.n - 1))
        starts = rng.sample(range(g.n), agents)
        if rng.random() < 0.7:
            goals = starts[1:] + starts[:1]  # a rotation crosses every path
        else:
            goals = rng.sample(range(g.n), agents)
        inst = Instance(g, tuple(starts), tuple(goals))
        roots = [sipp_plan(g, s, t, EMPTY_CONSTRAINTS, a) for a, (s, t) in enumerate(zip(starts, goals))]
        if any(p is None for p in roots) or not detect_conflicts(roots):
            continue
        opt = optimum(inst)
        if opt is not None:
            kept.append((inst, opt))
    return kept


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def cached_optimum():
    """optimum() backed by the checked-in oracle results (make_data.py writes them)."""
    optima = json.loads(CD_ORACLE.read_text())["optima"]
    return lambda inst: optima[instance_key(inst)]


@dataclass(frozen=True)
class ConflictDense:
    order: tuple[int, ...]
    draws: tuple[tuple[Instance, int], ...]


def build_conflict_dense(seed: int) -> ConflictDense:
    draws = tuple(conflict_dense_draws(cached_optimum()))
    order = list(range(len(draws)))
    random.Random(seed).shuffle(order)
    return ConflictDense(tuple(order), draws)


def run_conflict_dense(inp: ConflictDense, tracer=None) -> PassResult:
    config = SolveConfig(disjoint=True, timeout=CD_TIMEOUT)
    records = []
    t0 = time.perf_counter()
    for i in inp.order:
        inst = inp.draws[i][0]
        a = time.perf_counter()
        out = cbs.solve(inst, config)
        records.append(SolveRecord(f"draw{i}", time.perf_counter() - a, out, inst))
    return PassResult(time.perf_counter() - t0, tuple(records))


# --- roadmap-tune ------------------------------------------------------------


@dataclass(frozen=True)
class RoadmapTune:
    instance: Instance  # on the real-weighted roadmap
    initial_paths: list[list[int]]


def _largest_component(g) -> list[int]:
    seen = [False] * g.n
    best: list[int] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp, queue = [root], deque([root])
        while queue:
            for v, _ in g.adjacency[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def build_roadmap_tune(seed: int) -> RoadmapTune:
    rng = np.random.default_rng(RM_SEED)
    n = RM_VERTICES
    pts = rng.uniform(0.0, math.sqrt(n), size=(n, 2))  # unit density: neighbours ~0.5-1.5 apart
    dist = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    np.fill_diagonal(dist, np.inf)
    near = np.argsort(dist, axis=1, kind="stable")[:, :RM_NEIGHBOURS]
    pairs = sorted({(min(u, v), max(u, v)) for u in range(n) for v in near[u].tolist()})
    text = [f"v {n}"] + [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(pts.tolist())]
    text += [f"e {len(pairs)}"] + [f"{u} {v} {float(dist[u, v])!r}" for u, v in pairs]
    g = mapio.parse_roadmap("\n".join(text) + "\n")
    comp = _largest_component(g)
    picks = rng.choice(len(comp), size=2 * RM_AGENTS, replace=False).tolist()
    entries = [
        ScenarioEntry(0, "roadmap", 0, 0, (comp[picks[a]], 0), (comp[picks[RM_AGENTS + a]], 0), 0.0)
        for a in range(RM_AGENTS)
    ]
    inst = mapio.make_instance(g, entries, RM_AGENTS)
    paths = [graph.shortest_path(g, s, t) for s, t in zip(inst.starts, inst.goals)]
    return RoadmapTune(inst, paths)


def run_roadmap_tune(inp: RoadmapTune, tracer=None) -> PassResult:
    g = inp.instance.graph
    config = SolveConfig(timeout=RM_EVAL_TIMEOUT)
    records = []

    def eval_fn(s: float):
        inst = replace(inp.instance, graph=graph.discretize(g, s))
        a = time.perf_counter()
        out = cbs.solve(inst, config)
        records.append(SolveRecord(f"eval{len(records)}", time.perf_counter() - a, out, inst))
        calls = out.stats.low_level_calls
        if isinstance(out, Solution):
            return calls, True, [p.vertices() for p in out.plans]
        return calls, False, None

    def error_fn(s: float, paths) -> float:
        return graph.discretization_error(g, s, paths)

    if tracer is not None:
        eval_fn = tracer.wrap(eval_fn, "tuning.eval")
    config_t = tuning.TuneConfig(s_min=0.1, s_max=1.0)
    t0 = time.perf_counter()
    result = tuning.tune(eval_fn, error_fn, config_t, seed=RM_SEED, initial_paths=inp.initial_paths)
    wall = time.perf_counter() - t0
    return PassResult(wall, tuple(records), result.observations)


# --- the gate ----------------------------------------------------------------


class Gate:
    """Correctness checks over the passes of one run, applied one pass at a time.

    Each plan set must pass validate_solution and agree with its makespan,
    and the first time an instance is solved, the oracles' own occupancy
    scan (which shares no code with the solver) must find no conflict.
    Where the optimum is known (the desk reference, the conflict-dense
    oracle), a solution must reach it and 'exhausted' is wrong.  An instance
    solved in several passes must give the same plans and search counters
    each time.  On roadmap-tune no evaluation may time out, and every tune
    must produce the first tune's observation sequence.
    """

    def __init__(self, workload: str, inputs) -> None:
        self.workload = workload
        if workload == "desk-solve":
            self.optimum = {k: v["makespan"] for k, v in desk_reference().items()}
        elif workload == "conflict-dense":
            self.optimum = {f"draw{i}": opt for i, (_, opt) in enumerate(inputs.draws)}
        else:
            self.optimum = {}
        self.errors: list[str] = []
        self._first_conflicts = load_oracles().first_conflicts
        self._seen: dict[str, tuple] = {}
        self._observations = None

    def check(self, result: PassResult) -> PassResult:
        """Check one pass; return it without its instances, which can hold large graphs."""
        err = self.errors
        for rec in result.solves:
            out = rec.outcome
            want = self.optimum.get(rec.key)
            if isinstance(out, Failure):
                if out.reason == "timeout" and self.workload == "roadmap-tune":
                    err.append(f"{rec.key}: timed out")
                elif out.reason != "timeout" and want is not None:
                    err.append(f"{rec.key}: '{out.reason}' but the optimum is {want}")
                continue
            bad = validate_solution(rec.instance, out.plans)
            if bad:
                err.append(f"{rec.key}: invalid plans: {bad[0].detail}")
            if out.makespan != max(pl.cost for pl in out.plans):
                err.append(f"{rec.key}: makespan {out.makespan} disagrees with its plans")
            if want is not None and out.makespan != want:
                err.append(f"{rec.key}: makespan {out.makespan}, optimum {want}")
            stats = out.stats
            fingerprint = (out.plans, stats.nodes_expanded, stats.nodes_generated, stats.low_level_calls)
            if rec.key not in self._seen:
                self._seen[rec.key] = fingerprint
                if self._first_conflicts(out.plans, out.makespan):
                    err.append(f"{rec.key}: the oracle finds a conflict in the plans")
            elif self._seen[rec.key] != fingerprint:
                err.append(f"{rec.key}: plans or counters differ between passes")
        if self.workload == "roadmap-tune":
            if self._observations is None:
                self._observations = result.observations
            elif result.observations != self._observations:
                err.append("tune observation sequence differs from the run's first tune")
        return replace(result, solves=tuple(replace(r, instance=None) for r in result.solves))


WORKLOADS = {
    "desk-solve": (build_desk, run_desk),
    "conflict-dense": (build_conflict_dense, run_conflict_dense),
    "roadmap-tune": (build_roadmap_tune, run_roadmap_tune),
}
