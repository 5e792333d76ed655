"""Tests for conflict detection, constraint branching, and the full solver.

Hand-built plan pairs pin the occupancy model's boundary behaviour (arrival
exactly when an opposite traversal ends, simultaneous opposite departures,
parked agents).  Random sweeps check detect_conflicts against a per-timestep
occupancy oracle and the solver's makespan against a joint product-state BFS.
"""

import json
import math
import random
from pathlib import Path

import pytest

from intmapf import (
    Conflict,
    ConstraintSet,
    Failure,
    Instance,
    IntGraph,
    SolveConfig,
    Solution,
    TimedPlan,
    Vertex,
    detect_conflicts,
    serialize_solution,
    sipp_plan,
    solve,
    validate_solution,
)
from intmapf import cbs
from intmapf.cbs import SearchStats, classify_conflict, make_branch_constraints
from intmapf.graph import RealGraph

from oracles import binding, first_conflicts, joint_optimal_makespan

FIXTURES = Path(__file__).parent / "fixtures"


def _graph(n, edges):
    verts = [Vertex(i, (float(i), 0.0)) for i in range(n)]
    return IntGraph(verts, edges)


def _line_graph(weights):
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    return _graph(len(weights) + 1, edges)


def _grid2x2():
    # 0-1 top row, 2-3 bottom row, unit weights
    return _graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def _plan(*steps):
    return TimedPlan(tuple(steps))


def _random_int_graph(rng, n, max_w=3, p=0.5):
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


def _random_plan(rng, g, slow=False):
    """Up to five random moves; slow plans wait several steps at once and cross edges up to two steps late."""
    v = rng.randrange(g.n)
    t = 0
    steps = [(v, t)]
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.3 or not g.adjacency[v]:
            t += rng.randint(1, 3) if slow else 1
            steps.append((v, t))
        else:
            u, w = rng.choice(g.adjacency[v])
            t += int(w) + (rng.randint(0, 2) if slow else 0)
            steps.append((u, t))
            v = u
    return TimedPlan(tuple(steps))


def _as_tuple(c: Conflict):
    if c.kind == "vertex":
        return ("vertex", c.agents, c.time, c.vertex)
    return ("edge", c.agents, c.time, c.trav_i, c.trav_j)


# ---------------------------------------------------------------- detection


def test_vertex_conflict_on_shared_arrival():
    a = _plan((0, 0), (1, 1), (2, 2), (4, 3))
    b = _plan((3, 0), (4, 1), (4, 2), (4, 3))
    out = detect_conflicts([a, b])
    assert out == [Conflict("vertex", (0, 1), 3, vertex=4)]


def test_edge_conflict_on_simultaneous_swap():
    # both depart at 0 over the same weight-2 edge, opposite directions
    a = _plan((0, 0), (1, 2))
    b = _plan((1, 0), (0, 2))
    out = detect_conflicts([a, b])
    assert len(out) == 1
    c = out[0]
    assert (c.kind, c.agents, c.time) == ("edge", (0, 1), 0)
    assert c.trav_i == (0, 1, 0, 2)
    assert c.trav_j == (1, 0, 0, 2)


def test_departure_at_opposite_arrival_is_vertex_not_edge():
    # agent 1 leaves vertex 1 exactly when agent 0 arrives there: the
    # traversal windows only touch, so the collision is the shared vertex
    a = _plan((0, 0), (1, 2))
    b = _plan((1, 0), (1, 1), (1, 2), (0, 4))
    out = detect_conflicts([a, b])
    assert out == [Conflict("vertex", (0, 1), 2, vertex=1)]


def test_simultaneous_opposite_departures_conflict_at_zero():
    a = _plan((0, 0), (1, 2))
    b = _plan((1, 0), (0, 2))
    assert detect_conflicts([a, b])[0].time == 0


def test_parked_agent_blocks_late_arrival():
    a = _plan((0, 0), (1, 1))  # parks on 1 from t=1 on
    b = _plan((2, 0), (2, 5), (1, 7))
    out = detect_conflicts([a, b])
    assert out == [Conflict("vertex", (0, 1), 7, vertex=1)]


def test_same_direction_overlap_is_not_a_conflict():
    # both cross (0, 1) the same way with overlapping spans; nobody collides
    a = _plan((0, 0), (1, 2), (3, 4))
    b = _plan((2, 0), (0, 1), (1, 3))
    assert detect_conflicts([a, b]) == []


def test_detection_needs_a_plan():
    with pytest.raises(ValueError, match="at least one plan"):
        detect_conflicts([])


def test_detection_matches_occupancy_oracle():
    rng = random.Random(23)
    checked = conflicted = 0
    for _ in range(160):
        g = _random_int_graph(rng, rng.randint(3, 7), max_w=3, p=0.6)
        plans = [_random_plan(rng, g) for _ in range(rng.randint(2, 4))]
        got = [_as_tuple(c) for c in detect_conflicts(plans)]
        want = first_conflicts(plans, max(p.cost for p in plans))
        assert got == want
        checked += 1
        conflicted += bool(want)
    assert checked == 160 and conflicted >= 40
    # plans that wait several steps at once and cross edges up to two steps
    # slower than the weight: validate_solution accepts them, the solver
    # never makes them
    rng = random.Random(24)
    conflicted = 0
    for _ in range(300):
        g = _random_int_graph(rng, rng.randint(3, 7), max_w=3, p=0.6)
        plans = [_random_plan(rng, g, slow=True) for _ in range(rng.randint(2, 5))]
        got = [_as_tuple(c) for c in detect_conflicts(plans)]
        want = first_conflicts(plans, max(p.cost for p in plans))
        assert got == want
        conflicted += bool(want)
    assert conflicted >= 200


def test_shared_memo_matches_fresh_detection_and_oracle():
    # As in a solve, each index draws from a few fixed plan objects, and many
    # lists share one occupancy cache; canonical and slow plans both occur.  A
    # call restricted to some agents finds exactly the full detection's
    # conflicts that hold one of them.
    rng = random.Random(25)
    narrowed = 0
    for trial in range(80):
        g = _random_int_graph(rng, rng.randint(3, 7), max_w=3, p=0.6)
        pools = [[_random_plan(rng, g, slow=trial % 2 == 1) for _ in range(3)] for _ in range(rng.randint(2, 5))]
        cache = {}  # the pools hold every plan, so ids stay unique
        for _ in range(30):
            plans = [rng.choice(pool) for pool in pools]
            full = detect_conflicts(plans)
            assert [_as_tuple(c) for c in full] == first_conflicts(plans, max(p.cost for p in plans))
            assert detect_conflicts(plans, cache=cache) == full
            agents = rng.sample(range(len(plans)), rng.randint(1, len(plans)))
            got = detect_conflicts(plans, agents, cache)
            assert got == [c for c in full if c.agents[0] in agents or c.agents[1] in agents]
            narrowed += 0 < len(got) < len(full)
            with pytest.raises(ValueError, match="agents must index"):
                detect_conflicts(plans, [len(plans)] if trial % 2 else [-1], cache)
        pooled = [p for pool in pools for p in pool]
        assert len(cache) <= len(pooled) and all(cache[id(p)].plan is p for p in pooled if id(p) in cache)
    assert narrowed >= 200


def test_memo_keeps_one_plan_object_at_several_indices_apart():
    # A result names its agents, so the same two plan objects at other
    # indices, read through one occupancy cache, must not be answered with
    # the first pair's conflict.
    p = _plan((0, 0), (1, 1))
    q = _plan((2, 0), (1, 1))
    cache = {}
    for plans in ([p, q], [p, q, p, q], [q, p, q]):
        want = first_conflicts(plans, 1)
        assert [_as_tuple(c) for c in detect_conflicts(plans, cache=cache)] == want
        assert [_as_tuple(c) for c in detect_conflicts(plans)] == want
        for a in range(len(plans)):
            assert [_as_tuple(c) for c in detect_conflicts(plans, (a,), cache)] == [c for c in want if a in c[1]]
    assert len(cache) == 2


# ---------------------------------------------------------------- branching


def test_vertex_branch_constraints_disjoint():
    c = Conflict("vertex", (1, 2), 3, vertex=5)
    pos, neg = make_branch_constraints(c, disjoint=True)
    assert pos == ConstraintSet(pos_vertex=frozenset({(1, 5, 3)}))
    assert neg == ConstraintSet(neg_vertex=frozenset({(1, 5, 3)}))


def test_vertex_branch_constraints_nondisjoint():
    c = Conflict("vertex", (1, 2), 3, vertex=5)
    b1, b2 = make_branch_constraints(c, disjoint=False)
    assert b1 == ConstraintSet(neg_vertex=frozenset({(1, 5, 3)}))
    assert b2 == ConstraintSet(neg_vertex=frozenset({(2, 5, 3)}))


def test_edge_branch_constraints_swap_windows():
    c = Conflict("edge", (0, 1), 2, trav_i=(0, 1, 2, 4), trav_j=(1, 0, 3, 5))
    b1, b2 = make_branch_constraints(c, disjoint=True)
    # each agent is banned from its own directed edge for the other's window
    assert b1 == ConstraintSet(neg_edge=frozenset({(0, (0, 1), (3, 5))}))
    assert b2 == ConstraintSet(neg_edge=frozenset({(1, (1, 0), (2, 4))}))
    assert make_branch_constraints(c, disjoint=False) == (b1, b2)


def test_classify_conflict_table():
    assert classify_conflict(5, [6, 6]) == "cardinal"
    assert classify_conflict(5, [6, 5]) == "semi"
    assert classify_conflict(5, [5, 6]) == "semi"
    assert classify_conflict(5, [5, 5]) == "non"
    assert classify_conflict(5, [math.inf, 6]) == "cardinal"
    assert classify_conflict(5, [math.inf, 5]) == "semi"


# ---------------------------------------------------------------- solve


def test_single_agent_equals_low_level():
    g = _line_graph([2, 3])
    inst = Instance(g, (0,), (2,))
    out = solve(inst)
    assert isinstance(out, Solution)
    direct = sipp_plan(g, 0, 2, ConstraintSet(), 0)
    assert out.makespan == direct.cost == 5
    assert out.plans == (direct,)
    assert out.stats.nodes_expanded == 1
    assert out.stats.low_level_calls == 1


def test_adjacent_swap_resolves_around_the_square():
    inst = Instance(_grid2x2(), (0, 1), (1, 0))
    out = solve(inst)
    assert isinstance(out, Solution)
    assert out.makespan == 3
    assert validate_solution(inst, out.plans) == []


def test_swap_on_a_path_is_exhausted():
    g = _line_graph([1, 1])
    inst = Instance(g, (0, 2), (2, 0))
    out = solve(inst, SolveConfig(horizon=8))
    assert isinstance(out, Failure)
    assert out.reason == "exhausted"


def test_tree_run_out_under_automatic_horizon_is_horizon():
    # the automatic horizon here is 4 and the optimum is 5
    g = _graph(6, [(0, 1, 1), (0, 2, 1), (0, 4, 1), (2, 3, 1), (3, 5, 1)])
    inst = Instance(g, (2, 3), (3, 2))
    out = solve(inst)
    assert isinstance(out, Failure)
    assert out.reason == "horizon"
    out = solve(inst, SolveConfig(horizon=5))
    assert isinstance(out, Solution) and out.makespan == 5
    assert validate_solution(inst, out.plans) == []


def test_unreachable_goal_is_exhausted_under_automatic_horizon():
    g = _graph(3, [(0, 1, 1)])
    out = solve(Instance(g, (0,), (2,)))
    assert isinstance(out, Failure)
    assert out.reason == "exhausted"


def test_zero_timeout_reports_timeout():
    inst = Instance(_grid2x2(), (0, 1), (1, 0))
    out = solve(inst, SolveConfig(timeout=0.0))
    assert isinstance(out, Failure)
    assert out.reason == "timeout"


def test_horizon_too_small_is_exhausted():
    inst = Instance(_grid2x2(), (0, 1), (1, 0))
    assert isinstance(solve(inst, SolveConfig(horizon=1)), Failure)
    out = solve(inst, SolveConfig(horizon=3))
    assert isinstance(out, Solution) and out.makespan == 3


def test_solve_rejects_real_graphs_and_bad_lazy_pc():
    verts = [Vertex(i, (float(i), 0.0)) for i in range(3)]
    rg = RealGraph(verts, [(0, 1, 1.5), (1, 2, 1.0)])
    with pytest.raises(TypeError, match="discretize"):
        solve(Instance(rg, (0,), (2,)))
    with pytest.raises(ValueError, match="lazy_pc"):
        solve(Instance(_grid2x2(), (0,), (3,)), SolveConfig(lazy_pc=0))


def test_solve_config_rejects_negative_and_nan_budgets():
    # a negative budget is a usage error, caught when the config is built,
    # not a 'timeout' or 'exhausted' failure reported by a solve
    for name, bad in (("timeout", -1.0), ("timeout", math.nan), ("horizon", -1), ("horizon", math.nan)):
        with pytest.raises(ValueError, match=name):
            SolveConfig(**{name: bad})
    with pytest.raises(ValueError, match="lazy_pc"):
        SolveConfig(lazy_pc=0)
    assert SolveConfig(timeout=0.0, horizon=0).timeout == 0.0


def test_config_variants_agree_on_makespan():
    # only solvable draws are kept: on an unsolvable one every config would
    # crawl through a full-tree exhaustion proof instead of testing anything
    rng = random.Random(61)
    configs = [
        SolveConfig(horizon=40, timeout=10.0),
        SolveConfig(horizon=40, timeout=10.0, disjoint=True),
        SolveConfig(horizon=40, timeout=10.0, lazy_pc=1),
        SolveConfig(horizon=40, timeout=10.0, disjoint=True, lazy_pc=1),
        SolveConfig(horizon=40, timeout=10.0, lazy_pc=None),
    ]
    solved = 0
    for _ in range(40):
        if solved >= 18:
            break
        g = _random_int_graph(rng, rng.randint(4, 7), max_w=2, p=0.45)
        agents = rng.randint(2, 3)
        starts = tuple(rng.sample(range(g.n), agents))
        goals = tuple(rng.sample(range(g.n), agents))
        want = joint_optimal_makespan(g, starts, goals, 40)
        if want is None:
            continue
        inst = Instance(g, starts, goals)
        for cfg in configs:
            out = solve(inst, cfg)
            assert isinstance(out, Solution), (starts, goals, cfg)
            assert out.makespan == want, (starts, goals, cfg, out.makespan, want)
            assert validate_solution(inst, out.plans) == []
        solved += 1
    assert solved >= 18


# the configs tests/fixtures/cbs_pins.json records, by its key; the timeout
# only turns a search gone wrong into a failure instead of a hang
_PINNED_CONFIGS = {
    "default": SolveConfig(timeout=30.0),
    "disjoint": SolveConfig(disjoint=True, timeout=30.0),
    "lazy_pc=1": SolveConfig(lazy_pc=1, timeout=30.0),
    "lazy_pc=1+disjoint": SolveConfig(lazy_pc=1, disjoint=True, timeout=30.0),
    "lazy_pc=None": SolveConfig(lazy_pc=None, timeout=30.0),
}


def _pinned_cases():
    """(case, instance) for each instance tests/fixtures/cbs_pins.json records."""
    cases = json.loads((FIXTURES / "cbs_pins.json").read_text())
    assert len(cases) == 15
    for case in cases:
        g = _graph(case["n"], [tuple(e) for e in case["edges"]])
        yield case, Instance(g, tuple(case["starts"]), tuple(case["goals"]))


def test_search_matches_pinned_plans_and_counters():
    # Small conflict-heavy instances with the plans and search counters the
    # solver gave when they were recorded.  A change that means to keep the
    # search as it is must reproduce them exactly; each run gives
    # (nodes_expanded, nodes_generated, low_level_calls, index into plans).
    # Every expanded node but the solution splits one conflict of one class.
    for case, inst in _pinned_cases():
        plan_sets = [tuple(_plan(*map(tuple, steps)) for steps in ps) for ps in case["plans"]]
        for name, cfg in _PINNED_CONFIGS.items():
            expanded, generated, calls, which = case["runs"][name]
            out = solve(inst, cfg)
            where = (case["starts"], case["goals"], name)
            assert isinstance(out, Solution), where
            assert out.plans == plan_sets[which], where
            assert out.makespan == max(p.cost for p in out.plans), where
            st = out.stats
            assert (st.nodes_expanded, st.nodes_generated, st.low_level_calls) == (expanded, generated, calls), where
            assert st.picked_cardinal + st.picked_semi + st.picked_non == expanded - 1, where


def test_only_expanded_nodes_are_classified(monkeypatch):
    # Every expanded node but the solution splits one conflict and classifies
    # at most lazy_pc of them; nodes left on the open list classify none.
    calls = 0
    original = cbs.classify_conflict

    def counted(parent_cost, branch_costs):
        nonlocal calls
        calls += 1
        return original(parent_cost, branch_costs)

    monkeypatch.setattr(cbs, "classify_conflict", counted)
    for case, inst in _pinned_cases():
        for name in ("lazy_pc=1", "default"):
            calls = 0
            out = solve(inst, _PINNED_CONFIGS[name])
            assert isinstance(out, Solution)
            splits = out.stats.nodes_expanded - 1
            if name == "lazy_pc=1":
                assert calls == splits, (case["starts"], name)
            else:
                assert calls <= 8 * splits, (case["starts"], name)


def test_only_expanded_nodes_are_checked_for_conflicts(monkeypatch):
    # A node's conflicts are detected when it is popped, so a solve runs
    # detection once per expanded node and never for nodes left open.
    calls = 0
    original = cbs.detect_conflicts

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cbs, "detect_conflicts", counted)
    left_open = False
    for case, inst in _pinned_cases():
        for name, cfg in _PINNED_CONFIGS.items():
            calls = 0
            out = solve(inst, cfg)
            assert isinstance(out, Solution)
            assert calls == out.stats.nodes_expanded, (case["starts"], name)
            left_open |= out.stats.nodes_generated > out.stats.nodes_expanded
    assert left_open


def test_each_binding_constraint_set_is_planned_once(monkeypatch):
    # A plan depends on the constraint set only through what binds its agent,
    # so within one solve SIPP runs once per (agent, binding); every other
    # request is answered from the memo and counted as reused.
    recorded = []
    original = cbs.sipp_plan

    def recorder(graph, start, goal, constraints, agent, **kw):
        recorded.append((agent, binding(constraints, agent)))
        return original(graph, start, goal, constraints, agent, **kw)

    monkeypatch.setattr(cbs, "sipp_plan", recorder)
    reused_somewhere = False
    for case, inst in _pinned_cases():
        for name, cfg in _PINNED_CONFIGS.items():
            recorded.clear()
            out = solve(inst, cfg)
            assert isinstance(out, Solution)
            st, where = out.stats, (case["starts"], name)
            assert len(set(recorded)) == len(recorded), where
            assert len(recorded) == st.low_level_calls - st.plans_reused, where
            reused_somewhere |= st.plans_reused > 0
    assert reused_somewhere


def test_each_node_keeps_one_constraint_set_per_agent(monkeypatch):
    # Entry a of a node's constraints holds agent a's own negatives and every
    # positive, so all entries share one positive set.
    nodes = []
    original = cbs._node

    def recorder(constraints, *rest):
        nodes.append(constraints)
        return original(constraints, *rest)

    monkeypatch.setattr(cbs, "_node", recorder)
    positives_seen = False
    for case, inst in _pinned_cases():
        for name, cfg in _PINNED_CONFIGS.items():
            nodes.clear()
            assert isinstance(solve(inst, cfg), Solution)
            assert nodes, (case["starts"], name)
            for constraints in nodes:
                where = (case["starts"], name, constraints)
                assert len(constraints) == inst.n_agents, where
                for a, cs in enumerate(constraints):
                    assert {c[0] for c in cs.neg_vertex} <= {a}, where
                    assert {c[0] for c in cs.neg_edge} <= {a}, where
                assert len({cs.pos_vertex for cs in constraints}) == 1, where
                positives_seen |= bool(constraints[0].pos_vertex)
    assert positives_seen


def test_solve_is_deterministic():
    rng = random.Random(7)
    g = _random_int_graph(rng, 6, max_w=2, p=0.5)
    inst = Instance(g, (0, 1, 2), (3, 4, 5))
    cfg = SolveConfig(horizon=40, disjoint=True, timeout=10.0)
    a, b = solve(inst, cfg), solve(inst, cfg)
    assert type(a) is type(b)
    if isinstance(a, Solution):
        assert a.plans == b.plans
        assert a.stats.nodes_expanded == b.stats.nodes_expanded
        assert a.stats.low_level_calls == b.stats.low_level_calls


def test_makespan_matches_joint_state_oracle():
    # solvable instances must solve optimally; unsolvable ones only need to
    # not produce a solution (exhaustion is capped, it can crawl for hours)
    rng = random.Random(97)
    horizon = 40
    solved = failed = 0
    for trial in range(60):
        g = _random_int_graph(rng, rng.randint(3, 8), max_w=2, p=0.5)
        agents = rng.randint(1, min(3, g.n - 1))
        starts = tuple(rng.sample(range(g.n), agents))
        goals = tuple(rng.sample(range(g.n), agents))
        inst = Instance(g, starts, goals)
        want = joint_optimal_makespan(g, starts, goals, horizon)
        budget = 30.0 if want is not None else 0.5
        got = solve(inst, SolveConfig(horizon=horizon, timeout=budget))
        if want is None:
            assert not isinstance(got, Solution), (trial, got)
            failed += 1
        else:
            assert isinstance(got, Solution), (trial, want)
            assert got.makespan == want, (trial, got.makespan, want)
            assert validate_solution(inst, got.plans) == []
            solved += 1
    assert solved >= 40


def test_disjoint_solutions_stay_optimal_and_valid():
    rng = random.Random(131)
    for _ in range(20):
        g = _random_int_graph(rng, rng.randint(4, 7), max_w=2, p=0.55)
        agents = rng.randint(2, 3)
        starts = tuple(rng.sample(range(g.n), agents))
        goals = tuple(rng.sample(range(g.n), agents))
        inst = Instance(g, starts, goals)
        want = joint_optimal_makespan(g, starts, goals, 40)
        budget = 30.0 if want is not None else 0.5
        got = solve(inst, SolveConfig(horizon=40, disjoint=True, timeout=budget))
        if want is None:
            assert not isinstance(got, Solution)
        else:
            assert isinstance(got, Solution)
            assert got.makespan == want
            assert validate_solution(inst, got.plans) == []


# ---------------------------------------------------------------- validation


def test_validate_accepts_solver_output():
    inst = Instance(_grid2x2(), (0, 1), (1, 0))
    out = solve(inst)
    assert validate_solution(inst, out.plans) == []


def test_validate_reports_head_on_swap():
    g = _line_graph([1, 1])
    inst = Instance(g, (0, 1), (1, 0))
    plans = [_plan((0, 0), (1, 1)), _plan((1, 0), (0, 1))]
    out = validate_solution(inst, plans)
    assert [v.kind for v in out] == ["edge-conflict"]
    assert out[0].agents == (0, 1)


def test_validate_reports_early_crossing():
    g = _line_graph([3])
    inst = Instance(g, (0,), (1,))
    out = validate_solution(inst, [_plan((0, 0), (1, 2))])
    assert [v.kind for v in out] == ["timing"]
    assert "2 < weight 3" in out[0].detail


def test_validate_accepts_slow_crossing():
    g = _line_graph([3])
    inst = Instance(g, (0,), (1,))
    assert validate_solution(inst, [_plan((0, 0), (1, 5))]) == []


def test_validate_reports_bad_endpoints_and_missing_edges():
    g = _line_graph([1, 1])
    inst = Instance(g, (0,), (2,))
    out = validate_solution(inst, [_plan((1, 0), (2, 1))])
    assert [v.kind for v in out] == ["start"]
    out = validate_solution(inst, [_plan((0, 0), (1, 1))])
    assert [v.kind for v in out] == ["goal"]
    out = validate_solution(inst, [_plan((0, 0), (2, 1))])
    assert "edge" in {v.kind for v in out}
    with pytest.raises(ValueError, match="plans for"):
        validate_solution(inst, [])


def test_serialize_solution_format():
    plans = (_plan((0, 0), (1, 1), (1, 2)), _plan((2, 0), (3, 2)))
    sol = Solution(plans, 2, SearchStats())
    assert serialize_solution(sol) == "agent 0: (0,0) (1,1) (1,2)\nagent 1: (2,0) (3,2)\n"
