"""Tests for the experiment harness: row layout, aggregation, and the desk suite.

The mini suite here is small enough to run in-process; rerunning it checks
that everything except measured wall time is reproducible.  Aggregation math
is pinned against numpy's percentile on hand-built row sets.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from intmapf import (
    ExperimentSpec,
    MapCase,
    ResultRow,
    SolveConfig,
    aggregate,
    desk_suite,
    run_suite,
)
from intmapf.bench import (
    ROW_HEADER,
    SUMMARY_HEADER,
    SuiteResult,
    _largest_component,
    plot_data,
    rows_to_csv,
    summary_to_csv,
)
from intmapf.graph import GridSpec, RealGraph, Vertex, build_grid_graph
from intmapf.mapio import ScenarioEntry

from oracles import largest_component_flood


def _octile(a, b):
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dx, dy) + (math.sqrt(2.0) - 1.0) * min(dx, dy)


def _entry(name, wh, s, g):
    return ScenarioEntry(0, name, wh[0], wh[1], s, g, _octile(s, g))


def _mini_case():
    grid = GridSpec(4, 4, (True,) * 16)
    name = "empty-4-4"
    scen0 = tuple(_entry(name, (4, 4), s, g) for s, g in [((0, 0), (3, 3)), ((3, 0), (0, 3)), ((0, 3), (2, 0))])
    scen1 = tuple(_entry(name, (4, 4), s, g) for s, g in [((1, 1), (3, 2)), ((2, 2), (0, 0)), ((3, 3), (1, 0))])
    return MapCase(name=name, graph=build_grid_graph(grid, 3), scenarios=(scen0, scen1), grid=grid, k=3)


def _swap_roadmap_case(weights=(1.0, 1.0)):
    verts = [Vertex(i, (float(i), 0.0)) for i in range(3)]
    g = RealGraph(verts, [(0, 1, weights[0]), (1, 2, weights[1])])
    name = "line-3"
    entries = tuple(
        ScenarioEntry(0, name, 3, 1, (s, 0), (t, 0), abs(s - t)) for s, t in [(0, 2), (2, 0)]
    )
    return MapCase(name=name, graph=g, scenarios=(entries,), grid=None, k=None)


# ---------------------------------------------------------------- run_suite


def test_mini_suite_rows_and_order():
    spec = ExperimentSpec(
        cases=(_mini_case(),),
        agent_counts=(1, 2),
        modes=("fixed", "baseline"),
        fixed_s=0.5,
        solver=SolveConfig(timeout=10.0),
    )
    out = run_suite(spec)
    assert isinstance(out, SuiteResult)
    assert out.tuning == ()
    rows = out.rows
    assert len(rows) == 1 * 2 * 2 * 2
    want_order = [
        (n, sc, m) for n in (1, 2) for sc in (0, 1) for m in ("fixed", "baseline")
    ]
    assert [(r.n_agents, r.scenario, r.mode) for r in rows] == want_order
    for r in rows:
        assert r.map == "empty-4-4" and r.k == 3
        assert r.success
        assert isinstance(r.makespan, int) and r.makespan >= 1
        assert r.s_used == (0.5 if r.mode == "fixed" else 1.0)
        assert r.nodes_expanded >= 1 and r.ll_calls >= r.n_agents
        assert r.error is not None and r.error >= 0.0


def test_mini_suite_repeats_identically_except_runtime():
    spec = ExperimentSpec(
        cases=(_mini_case(),), agent_counts=(2,), modes=("fixed", "baseline"), fixed_s=0.5
    )
    a = run_suite(spec).rows
    b = run_suite(spec).rows
    strip = lambda r: (
        r.map, r.k, r.n_agents, r.scenario, r.mode, r.success,
        r.makespan, r.nodes_expanded, r.ll_calls, r.s_used, r.error,
    )
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_worker_pool_gives_the_serial_rows_in_order():
    cases = (_mini_case(), replace(_mini_case(), name="empty-4-4-copy"))
    spec = ExperimentSpec(cases=cases, agent_counts=(1, 2), modes=("fixed", "baseline"), fixed_s=0.5)
    strip = lambda r: (
        r.map, r.k, r.n_agents, r.scenario, r.mode, r.success,
        r.makespan, r.nodes_expanded, r.ll_calls, r.s_used, r.error,
    )
    serial = [strip(r) for r in run_suite(spec).rows]
    assert [strip(r) for r in run_suite(replace(spec, workers=2)).rows] == serial
    assert len(serial) == 2 * 2 * 2 * 2


def test_unsolvable_case_times_out_near_budget():
    # swapping two agents on a path has no solution; the solver must be cut
    # off close to the configured budget instead of crawling to exhaustion
    spec = ExperimentSpec(
        cases=(_swap_roadmap_case(),),
        agent_counts=(2,),
        modes=("baseline",),
        solver=SolveConfig(horizon=16, timeout=1.0),
    )
    rows = run_suite(spec).rows
    assert len(rows) == 1
    r = rows[0]
    assert not r.success
    assert r.makespan is None and r.error is None
    assert abs(r.runtime_s - 1.0) <= 0.5


def test_fast_exhaustion_is_a_failure_row_not_an_abort():
    spec = ExperimentSpec(
        cases=(_swap_roadmap_case(),),
        agent_counts=(2,),
        modes=("baseline",),
        solver=SolveConfig(horizon=6, timeout=10.0),
    )
    rows = run_suite(spec).rows
    assert [r.success for r in rows] == [False]
    assert rows[0].runtime_s < 5.0


def test_the_solver_timeout_is_the_suite_budget():
    spec = ExperimentSpec(
        cases=(_mini_case(),), agent_counts=(2,), modes=("fixed", "baseline"), solver=SolveConfig(timeout=1e-9)
    )
    rows = run_suite(spec).rows
    assert len(rows) == 4 and not any(r.success for r in rows)
    assert ExperimentSpec(cases=(_mini_case(),), agent_counts=(2,), modes=("baseline",)).solver.timeout == 10.0
    assert desk_suite(timeout=2.5).solver == SolveConfig(timeout=2.5)


def test_tuned_mode_reuses_one_tuning_run():
    spec = ExperimentSpec(
        cases=(_mini_case(),),
        agent_counts=(2,),
        modes=("tuned",),
        solver=SolveConfig(timeout=5.0),
    )
    out = run_suite(spec)
    assert len(out.tuning) == 1
    rec = out.tuning[0]
    assert rec.map == "empty-4-4" and rec.k == 3
    assert rec.evaluations == 6  # the suite's tuning budget
    assert not rec.fallback
    assert all(r.s_used == rec.s for r in out.rows)
    assert all(r.success for r in out.rows)


def test_requesting_more_agents_than_entries_raises():
    spec = ExperimentSpec(cases=(_mini_case(),), agent_counts=(5,), modes=("baseline",))
    with pytest.raises(ValueError, match="needs 5"):
        run_suite(spec)


def test_suite_rejects_a_blocked_start_cell():
    grid = GridSpec(3, 2, (True, False, True, True, True, True))
    name = "wall-3-2"
    scen = (_entry(name, (3, 2), (1, 0), (2, 1)), _entry(name, (3, 2), (0, 1), (2, 0)))
    case = MapCase(name=name, graph=build_grid_graph(grid, 3), scenarios=(scen,), grid=grid, k=3)
    spec = ExperimentSpec(cases=(case,), agent_counts=(1,), modes=("baseline",))
    with pytest.raises(ValueError, match=r"agent 0 start cell \(1, 0\) is blocked"):
        run_suite(spec)


def test_suite_rejects_a_roadmap_entry_off_the_x_column():
    case = _swap_roadmap_case()
    bad = (replace(case.scenarios[0][0], goal=(2, 1)),) + case.scenarios[0][1:]
    spec = ExperimentSpec(cases=(replace(case, scenarios=(bad,)),), agent_counts=(2,), modes=("baseline",))
    with pytest.raises(ValueError, match="0 in the y column"):
        run_suite(spec)


def test_spec_validation():
    case = _mini_case()
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentSpec(cases=(case,), agent_counts=(1,), modes=("adaptive",))
    with pytest.raises(ValueError, match="at least one"):
        ExperimentSpec(cases=(), agent_counts=(1,), modes=("baseline",))
    with pytest.raises(ValueError, match="at least one scenario"):
        ExperimentSpec(cases=(replace(case, scenarios=()),), agent_counts=(1,), modes=("baseline",))


# ---------------------------------------------------------------- aggregate


def _row(mode="baseline", n=4, success=True, makespan=10, rt=0.5, scen=0):
    return ResultRow("m", 3, n, scen, mode, success, makespan if success else None, rt, 5, 9, 1.0, 0.0 if success else None)


def test_aggregate_success_rate_and_quartiles():
    rows = [_row(success=i < 18, makespan=10 + i, rt=0.25, scen=i) for i in range(25)]
    (s,) = aggregate(rows)
    assert s.success_rate == pytest.approx(72.0)
    assert s.mean_runtime_s == pytest.approx(0.25)
    spans = [10 + i for i in range(18)]
    want = np.percentile(spans, [25, 50, 75])
    assert (s.makespan_q1, s.makespan_median, s.makespan_q3) == pytest.approx(tuple(want))


def test_aggregate_groups_by_configuration():
    rows = [_row(mode="baseline"), _row(mode="tuned"), _row(mode="baseline", n=8)]
    out = aggregate(rows)
    assert len(out) == 3
    keys = {(s.mode, s.n_agents) for s in out}
    assert keys == {("baseline", 4), ("tuned", 4), ("baseline", 8)}


def test_aggregate_all_failures_yields_missing_stats():
    rows = [_row(success=False, scen=i) for i in range(3)]
    (s,) = aggregate(rows)
    assert s.success_rate == 0.0
    assert s.mean_runtime_s is None and s.makespan_median is None
    line = summary_to_csv([s]).splitlines()[1]
    assert line == "m,3,baseline,4,0.0,--,--,--,--"


# ---------------------------------------------------------------- csv/plots


def test_rows_csv_layout():
    rows = [_row(), _row(success=False, scen=1)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ROW_HEADER
    assert lines[1] == "m,3,4,0,baseline,true,10,0.5,5,9,1.0,0.0"
    assert lines[2] == "m,3,4,1,baseline,false,,0.5,5,9,1.0,"
    assert text.endswith("\n")


def test_summary_csv_header():
    assert summary_to_csv([]).splitlines()[0] == SUMMARY_HEADER


def test_plot_data_lines():
    s = aggregate([_row(), _row(n=8, scen=1)])
    text = plot_data(s, "success_rate")
    assert sorted(text.splitlines()) == ["4 100.0 m-k3-baseline", "8 100.0 m-k3-baseline"]
    with pytest.raises(ValueError, match="unknown metric"):
        plot_data(s, "ct_nodes")


def test_plot_data_skips_missing_metric():
    s = aggregate([_row(success=False)])
    assert plot_data(s, "mean_runtime_s") == ""


# ---------------------------------------------------------------- desk suite


def test_desk_suite_structure():
    spec = desk_suite(seed=0, scenarios_per_case=4)
    assert len(spec.cases) == 4
    assert spec.agent_counts == (2, 4, 8, 12, 16)
    assert spec.modes == ("baseline", "tuned")
    names = {(c.name, c.k) for c in spec.cases}
    assert names == {("empty-16-16", 3), ("empty-16-16", 4), ("random-32-32", 3), ("random-32-32", 4)}
    for case in spec.cases:
        assert len(case.scenarios) == 4
        for entries in case.scenarios:
            assert len(entries) == 16
            starts = [e.start for e in entries]
            goals = [e.goal for e in entries]
            assert len(set(starts)) == 16 and len(set(goals)) == 16
            assert not (set(starts) & set(goals))
            for e in entries:
                assert case.grid.is_passable(*e.start) and case.grid.is_passable(*e.goal)


def test_desk_suite_is_seed_stable():
    a = desk_suite(seed=5)
    b = desk_suite(seed=5)
    for ca, cb in zip(a.cases, b.cases):
        assert ca.scenarios == cb.scenarios
        assert ca.grid == cb.grid
    c = desk_suite(seed=6)
    assert any(ca.scenarios != cc.scenarios for ca, cc in zip(a.cases, c.cases))


def test_largest_component_matches_the_flood_fill():
    # the graph's components are the 4-connected regions, and on a tie both
    # pick the region holding the first passable cell in row-major order
    rng = np.random.default_rng(13)
    split = GridSpec(5, 3, tuple(x != 2 for _ in range(3) for x in range(5)))
    grids = [split, GridSpec(3, 2, (False,) * 6)]
    for _ in range(150):
        w, h = (int(v) for v in rng.integers(1, 9, size=2))
        grids.append(GridSpec(w, h, tuple(bool(b) for b in rng.random(w * h) >= rng.uniform(0.2, 0.6))))
    ties = 0
    for grid in grids:
        want = largest_component_flood(grid)
        for k in (3, 4, 5):
            assert sorted(_largest_component(build_grid_graph(grid, k))) == sorted(want), (grid, k)
        taken = set(want)
        rest = GridSpec(grid.width, grid.height, tuple(
            p and (i % grid.width, i // grid.width) not in taken for i, p in enumerate(grid.passable)
        ))
        ties += bool(want) and len(largest_component_flood(rest)) == len(want)
    assert ties >= 10
    assert _largest_component(build_grid_graph(split, 3)) == [(x, y) for y in range(3) for x in range(2)]
