"""Batch experiment harness: run the solver across maps, agent counts, and modes.

A suite is the Cartesian product of map cases, agent counts, scenario files,
and solve modes.  Modes fix how the discretization scale is chosen: 'fixed'
uses the configured scale, 'baseline' uses s = 1, 'tuned' runs the tuner once
per map case (on its first scenario at the largest agent count) and reuses the
winner.  Each row times exactly one solve call; failures become rows with
success=false rather than aborting the suite.  Aggregation reports success
rate, mean runtime over successes, and makespan quartiles per configuration.
"""

from __future__ import annotations

import math
import time as _time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .cbs import Failure, Solution, SolveConfig, solve, validate_solution
from .graph import (
    GridSpec,
    RealGraph,
    build_grid_graph,
    cell_vertex_ids,
    discretization_error,
    discretize,
)
from .mapio import Instance, ScenarioEntry, _header, _to_csv, place_agents
from .tuning import TuneConfig, tune_graph

__all__ = [
    "MapCase",
    "ExperimentSpec",
    "ResultRow",
    "TuningRecord",
    "SuiteResult",
    "SummaryRow",
    "run_suite",
    "aggregate",
    "rows_to_csv",
    "summary_to_csv",
    "plot_data",
    "desk_suite",
]

MODES = ("fixed", "baseline", "tuned")
SUITE_TIMEOUT = 10.0  # seconds per solve unless the suite's solver config says otherwise


@dataclass(frozen=True)
class MapCase:
    """One map under one neighborhood: its graph plus scenario entry lists."""

    name: str
    graph: RealGraph
    scenarios: tuple[tuple[ScenarioEntry, ...], ...]
    grid: GridSpec | None = None  # set for grid maps, None for roadmaps
    k: int | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    cases: tuple[MapCase, ...]
    agent_counts: tuple[int, ...]
    modes: tuple[str, ...]
    fixed_s: float = 1.0
    solver: SolveConfig = field(default_factory=lambda: SolveConfig(timeout=SUITE_TIMEOUT))
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}; choose from {MODES}")
        if not self.cases or not self.agent_counts or not self.modes:
            raise ValueError("suite needs at least one case, agent count, and mode")
        for case in self.cases:
            if not case.scenarios:
                raise ValueError(f"case {case.name!r} needs at least one scenario")


@dataclass(frozen=True)
class ResultRow:
    map: str
    k: int | None
    n_agents: int
    scenario: int
    mode: str
    success: bool
    makespan: int | None
    runtime_s: float
    nodes_expanded: int
    ll_calls: int
    s_used: float
    error: float | None


@dataclass(frozen=True)
class TuningRecord:
    """Cost and outcome of the per-case tuning run, reported apart from the rows."""

    map: str
    k: int | None
    s: float
    wall_time: float
    evaluations: int
    fallback: bool  # True when tuning never succeeded and s fell back to 1


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple[ResultRow, ...]
    tuning: tuple[TuningRecord, ...]


_STATISTIC = {"missing": "--"}  # what the CSV shows for a statistic with no successful run


@dataclass(frozen=True)
class SummaryRow:
    map: str
    k: int | None
    mode: str
    n_agents: int
    success_rate: float  # percent
    mean_runtime_s: float | None = field(metadata=_STATISTIC)
    makespan_q1: float | None = field(metadata=_STATISTIC)
    makespan_median: float | None = field(metadata=_STATISTIC)
    makespan_q3: float | None = field(metadata=_STATISTIC)


ROW_HEADER = _header(ResultRow)
SUMMARY_HEADER = _header(SummaryRow)


def _cell_ids(case: MapCase) -> dict[tuple[int, int], int] | None:
    """Vertex id of each passable cell of a grid case; None for a roadmap case."""
    return None if case.grid is None else cell_vertex_ids(case.grid)


def _case_instance(case: MapCase, ids: dict[tuple[int, int], int] | None, scenario: int, n_agents: int) -> Instance:
    entries = case.scenarios[scenario][:n_agents]
    if len(entries) < n_agents:
        raise ValueError(
            f"{case.name} scenario {scenario} has {len(entries)} entries, needs {n_agents}"
        )
    return place_agents(case.graph, entries, ids)


def _run_row(case: MapCase, inst: Instance, scenario: int, n_agents: int, mode: str, s_used: float, solver: SolveConfig) -> ResultRow:
    t0 = _time.perf_counter()
    result = solve(inst, solver)
    rt = _time.perf_counter() - t0
    if isinstance(result, Solution):
        bad = validate_solution(inst, result.plans)
        if bad:
            raise RuntimeError(
                f"solver returned an invalid solution on {case.name} scenario {scenario}: {bad[0].detail}"
            )
        err = discretization_error(case.graph, s_used, [p.vertices() for p in result.plans])
        return ResultRow(
            case.name, case.k, n_agents, scenario, mode, True, result.makespan, rt,
            result.stats.nodes_expanded, result.stats.low_level_calls, s_used, err,
        )
    assert isinstance(result, Failure)
    return ResultRow(
        case.name, case.k, n_agents, scenario, mode, False, None, rt,
        result.stats.nodes_expanded, result.stats.low_level_calls, s_used, None,
    )


def _worker(payload) -> ResultRow:
    return _run_row(*payload)


def _tuned_scale(case: MapCase, spec: ExperimentSpec) -> TuningRecord:
    cfg = TuneConfig(
        s_min=0.5,
        s_max=max(2.5, case.graph.max_weight),
        budget=6,
        population=12,
        generations=10,
        eval_timeout=3.0 if spec.solver.timeout is None else min(3.0, spec.solver.timeout),
        restarts=4,
    )
    n = min(max(spec.agent_counts), len(case.scenarios[0]))
    inst = _case_instance(case, _cell_ids(case), 0, n)
    t0 = _time.perf_counter()
    result = tune_graph(inst, cfg, solve_config=spec.solver, seed=spec.seed)
    wall = _time.perf_counter() - t0
    fallback = result.best_s is None
    s = 1.0 if fallback else result.best_s
    return TuningRecord(case.name, case.k, s, wall, len(result.observations), fallback)


def _case_tasks(case: MapCase, spec: ExperimentSpec, tuned_s: float | None):
    """Row payloads of one case: one integer graph per scale, one real instance per (scenario, agent count)."""
    scales = {"fixed": spec.fixed_s, "baseline": 1.0, "tuned": tuned_s}
    graphs = {s: discretize(case.graph, s) for s in {scales[m] for m in spec.modes}}
    ids = _cell_ids(case)
    for n_agents in spec.agent_counts:
        for scenario in range(len(case.scenarios)):
            real = _case_instance(case, ids, scenario, n_agents)
            for mode in spec.modes:
                s = scales[mode]
                yield case, replace(real, graph=graphs[s]), scenario, n_agents, mode, s, spec.solver


def run_suite(spec: ExperimentSpec) -> SuiteResult:
    """Run every (case, agent count, scenario, mode) cell and collect rows in order."""
    tuning: list[TuningRecord] = []
    tuned_s: dict[tuple[str, int | None], float] = {}
    if "tuned" in spec.modes:
        for case in spec.cases:
            rec = _tuned_scale(case, spec)
            tuning.append(rec)
            tuned_s[(case.name, case.k)] = rec.s
    rows: list[ResultRow] = []
    with ProcessPoolExecutor(max_workers=spec.workers) if spec.workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for case in spec.cases:
            rows.extend(run(_worker, _case_tasks(case, spec, tuned_s.get((case.name, case.k)))))
    return SuiteResult(tuple(rows), tuple(tuning))


def aggregate(rows: Sequence[ResultRow]) -> list[SummaryRow]:
    """Success rate, mean runtime over successes, makespan quartiles per config."""
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.map, r.k, r.mode, r.n_agents), []).append(r)
    out = []
    for (name, k, mode, n_agents), members in groups.items():
        wins = [r for r in members if r.success]
        rate = 100.0 * len(wins) / len(members)
        if wins:
            mean_rt = float(np.mean([r.runtime_s for r in wins]))
            q1, q2, q3 = (
                float(q) for q in np.percentile([r.makespan for r in wins], [25, 50, 75])
            )
        else:
            mean_rt = q1 = q2 = q3 = None
        out.append(SummaryRow(name, k, mode, n_agents, rate, mean_rt, q1, q2, q3))
    return out


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return _to_csv(ResultRow, rows)


def summary_to_csv(summaries: Sequence[SummaryRow]) -> str:
    return _to_csv(SummaryRow, summaries)


def plot_data(summaries: Sequence[SummaryRow], metric: str = "success_rate") -> str:
    """Plot-tool-agnostic 'x y series' lines: x = agent count, y = the metric."""
    if metric not in ("success_rate", "mean_runtime_s"):
        raise ValueError(f"unknown metric {metric!r}")
    lines = []
    for s in summaries:
        y = getattr(s, metric)
        if y is None:
            continue
        tag = s.map if s.k is None else f"{s.map}-k{s.k}"
        lines.append(f"{s.n_agents} {y} {tag}-{s.mode}")
    return "\n".join(lines) + ("\n" if lines else "")


def _octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dx, dy) + (math.sqrt(2.0) - 1.0) * min(dx, dy)


def _largest_component(graph: RealGraph) -> list[tuple[int, int]]:
    """Cells of a grid graph's largest connected component; the lowest vertex id breaks ties.

    Every 2^k neighborhood holds the four cardinal moves, and the cells a
    longer move crosses form a 4-connected chain, so these are the components
    of a 4-connected flood fill.
    """
    _, labels = connected_components(graph.csr, directed=False)
    best = np.argmax(np.bincount(labels, minlength=1))
    return [tuple(int(c) for c in graph.vertices[v].pos) for v in np.flatnonzero(labels == best)]


def _grid_scenarios(
    grid: GridSpec,
    graph: RealGraph,
    name: str,
    rng: np.random.Generator,
    count: int,
    entries_each: int,
) -> tuple[tuple[ScenarioEntry, ...], ...]:
    cells = sorted(_largest_component(graph))
    if len(cells) < 2 * entries_each:
        raise ValueError(f"{name}: component of {len(cells)} cells cannot seat {entries_each} agents")
    scenarios = []
    for _ in range(count):
        perm = rng.permutation(len(cells))
        starts = [cells[i] for i in perm[:entries_each]]
        goals = [cells[i] for i in perm[entries_each : 2 * entries_each]]
        entries = tuple(
            ScenarioEntry(0, name, grid.width, grid.height, s, g, _octile(s, g))
            for s, g in zip(starts, goals)
        )
        scenarios.append(entries)
    return tuple(scenarios)


def desk_suite(
    *,
    seed: int = 0,
    timeout: float = SUITE_TIMEOUT,
    modes: tuple[str, ...] = ("baseline", "tuned"),
    agent_counts: tuple[int, ...] = (2, 4, 8, 12, 16),
    ks: tuple[int, ...] = (3, 4),
    scenarios_per_case: int = 4,
    workers: int = 1,
) -> ExperimentSpec:
    """Small deterministic suite: an empty 16x16 map and a ~10% random 32x32 map.

    Scenario starts and goals are drawn from the largest connected region with
    disjoint start and goal cell sets, so every single-agent subproblem is
    solvable.  Entry counts match the largest agent count requested.
    """
    rng = np.random.default_rng(seed)
    empty = GridSpec(16, 16, tuple([True] * 256))
    blocked = rng.random(32 * 32) < 0.10
    random32 = GridSpec(32, 32, tuple(bool(not b) for b in blocked))
    entries_each = max(agent_counts)
    cases = []
    for grid, name in ((empty, "empty-16-16"), (random32, "random-32-32")):
        for k in ks:
            case_rng = np.random.default_rng(seed * 7919 + k * 101 + grid.width)
            graph = build_grid_graph(grid, k)
            scenarios = _grid_scenarios(grid, graph, name, case_rng, scenarios_per_case, entries_each)
            cases.append(MapCase(name=name, graph=graph, scenarios=scenarios, grid=grid, k=k))
    return ExperimentSpec(
        cases=tuple(cases),
        agent_counts=tuple(agent_counts),
        modes=tuple(modes),
        solver=SolveConfig(timeout=timeout),
        seed=seed,
        workers=workers,
    )
