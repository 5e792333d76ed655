"""Single-agent planner tests: intervals, constraint semantics, optimality, exact plans pinned by digest."""

import hashlib
import math

import numpy as np
import pytest

from intmapf import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    IntGraph,
    SafeInterval,
    TimedPlan,
    Vertex,
    build_safe_intervals,
    sipp_plan,
)
from intmapf.sipp import edge_block_end

import oracles


def _line_graph(weights):
    n = len(weights) + 1
    vertices = [Vertex(i, (float(i), 0.0)) for i in range(n)]
    return IntGraph(vertices, [(i, i + 1, w) for i, w in enumerate(weights)])


def _neg_v(*triples):
    return ConstraintSet(neg_vertex=frozenset(triples))


# ---------------------------------------------------------------------------
# constraint containers

def test_constraint_set_validation():
    with pytest.raises(ValueError, match="contradicts"):
        ConstraintSet(
            neg_vertex=frozenset({(0, 1, 2)}),
            pos_vertex=frozenset({(0, 1, 2)}),
        )
    with pytest.raises(ValueError, match="negative time"):
        _neg_v((0, 1, -1))
    with pytest.raises(ValueError, match="t1 < t2"):
        ConstraintSet(neg_edge=frozenset({(0, (0, 1), (3, 3))}))
    cs = _neg_v((0, 1, 2)).union(ConstraintSet(neg_edge=frozenset({(0, (0, 1), (0, 2))})))
    assert cs == ConstraintSet(frozenset({(0, 1, 2)}), frozenset({(0, (0, 1), (0, 2))}))


def test_timed_plan_validation():
    with pytest.raises(ValueError):
        TimedPlan(())
    with pytest.raises(ValueError, match="strictly increasing"):
        TimedPlan(((0, 0), (1, 0)))
    plan = TimedPlan(((0, 0), (0, 1), (1, 3)))
    assert plan.cost == 3
    assert plan.vertices() == [0, 0, 1]
    assert len(plan.steps) == 3


# ---------------------------------------------------------------------------
# safe intervals

def test_safe_intervals_free_vertex():
    table = build_safe_intervals(EMPTY_CONSTRAINTS, 0)
    assert 7 not in table.vertex
    assert table == ({}, {}, ())


def test_safe_intervals_single_ban_splits():
    table = build_safe_intervals(_neg_v((0, 5, 3)), 0)
    assert table.vertex[5] == (SafeInterval(0, 3), SafeInterval(4, math.inf))


def test_safe_intervals_adjacent_bans_merge():
    table = build_safe_intervals(_neg_v((0, 5, 2), (0, 5, 3)), 0)
    assert table.vertex[5] == (SafeInterval(0, 2), SafeInterval(4, math.inf))
    table = build_safe_intervals(_neg_v((0, 5, 0)), 0)
    assert table.vertex[5] == (SafeInterval(1, math.inf),)


def test_safe_intervals_ignore_other_agents_negatives():
    table = build_safe_intervals(_neg_v((1, 5, 3)), 0)
    assert 5 not in table.vertex


def test_other_agents_positive_becomes_my_ban():
    cs = ConstraintSet(pos_vertex=frozenset({(1, 5, 3)}))
    table = build_safe_intervals(cs, 0)
    assert table.vertex[5] == (SafeInterval(0, 3), SafeInterval(4, math.inf))
    assert table.waypoints == ()
    mine = build_safe_intervals(cs, 1)
    assert mine.waypoints == ((3, 5),)
    assert 5 not in mine.vertex


def test_edge_block_enumeration():
    # forbidden span (2,5) on a weight-2 edge: departures 1..4 blocked
    cs = ConstraintSet(neg_edge=frozenset({(0, (0, 1), (2, 5))}))
    table = build_safe_intervals(cs, 0)
    blocked = [d for d in range(11) if edge_block_end(table.edge[(0, 1)], 2, d) is not None]
    assert blocked == [1, 2, 3, 4]
    assert edge_block_end(table.edge[(0, 1)], 2, 1) == 5  # retry after the span
    assert (1, 0) not in table.edge  # other direction free


def test_edge_block_retry_is_max_over_violated_spans():
    cs = ConstraintSet(neg_edge=frozenset({(0, (0, 1), (0, 3)), (0, (0, 1), (2, 7))}))
    table = build_safe_intervals(cs, 0)
    assert table.edge[(0, 1)] == ((0, 3), (2, 7))
    assert edge_block_end(table.edge[(0, 1)], 2, 1) == 7


# ---------------------------------------------------------------------------
# planning: pinned examples

def test_unconstrained_line_costs_sum_of_weights():
    g = _line_graph([2, 3])
    plan = sipp_plan(g, 0, 2, EMPTY_CONSTRAINTS, 0)
    assert plan is not None
    assert plan.steps == ((0, 0), (1, 2), (2, 5))


def test_vertex_ban_forces_one_wait():
    g = _line_graph([2, 3])
    plan = sipp_plan(g, 0, 2, _neg_v((0, 1, 2)), 0)
    assert plan is not None
    assert plan.steps == ((0, 0), (0, 1), (1, 3), (2, 6))


def test_goal_ban_at_unconstrained_arrival_costs_one_more():
    g = _line_graph([1])
    plan = sipp_plan(g, 0, 1, _neg_v((0, 1, 1)), 0)
    assert plan is not None
    assert plan.cost == 2


def test_goal_ban_far_in_the_future_still_delays():
    # the agent parks on its goal forever, so a later ban forbids early arrival
    g = _line_graph([1])
    plan = sipp_plan(g, 0, 1, _neg_v((0, 1, 5)), 0)
    assert plan is not None
    assert plan.cost == 6


def test_edge_constraint_blocks_first_departure_window():
    g = _line_graph([2])
    cs = ConstraintSet(neg_edge=frozenset({(0, (0, 1), (1, 3))}))
    plan = sipp_plan(g, 0, 1, cs, 0)
    assert plan is not None
    # departures 0..2 all overlap (1,3); d=3 arrives at 5
    assert plan.steps == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 5))


def test_arrival_exactly_at_span_start_is_legal():
    g = _line_graph([1])
    cs = ConstraintSet(neg_edge=frozenset({(0, (0, 1), (2, 4))}))
    plan = sipp_plan(g, 0, 1, cs, 0)
    assert plan is not None
    assert plan.cost == 1  # (1,2) does not meet the open span (2,4)


def test_edge_bans_bind_only_their_agent_and_direction():
    g = _line_graph([2, 1])
    free = sipp_plan(g, 0, 2, EMPTY_CONSTRAINTS, 0)
    assert free is not None and free.steps == ((0, 0), (1, 2), (2, 3))
    others = ConstraintSet(neg_edge=frozenset({(1, (0, 1), (0, 3)), (2, (1, 2), (1, 4))}))
    assert not build_safe_intervals(others, 0).edge
    assert sipp_plan(g, 0, 2, others, 0) == free
    # the agent's own ban on 0 -> 1 over (0,3) covers the departure at 0
    own = ConstraintSet(neg_edge=frozenset({(0, (0, 1), (0, 3))}))
    plan = sipp_plan(g, 0, 2, own, 0)
    assert plan is not None
    assert plan.steps == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 5), (2, 6))
    reverse = ConstraintSet(neg_edge=frozenset({(0, (1, 0), (0, 3))}))
    assert build_safe_intervals(reverse, 0).edge
    assert sipp_plan(g, 0, 2, reverse, 0) == free


def test_waypoint_forces_wait_at_midpoint():
    g = _line_graph([1, 1, 1])
    cs = ConstraintSet(pos_vertex=frozenset({(0, 2, 4)}))
    plan = sipp_plan(g, 0, 3, cs, 0)
    assert plan is not None
    assert plan.cost == 5
    assert oracles.vertex_of(plan, 4) == 2


def test_waypoint_satisfied_en_route_costs_nothing():
    g = _line_graph([1, 1, 1])
    cs = ConstraintSet(pos_vertex=frozenset({(0, 1, 1)}))
    plan = sipp_plan(g, 0, 3, cs, 0)
    assert plan is not None
    assert plan.cost == 3


def test_waypoint_elsewhere_at_start_time_is_infeasible():
    g = _line_graph([1])
    cs = ConstraintSet(pos_vertex=frozenset({(0, 1, 0)}))
    assert sipp_plan(g, 0, 1, cs, 0) is None


def test_start_banned_at_time_zero_is_infeasible():
    g = _line_graph([1])
    assert sipp_plan(g, 0, 1, _neg_v((0, 0, 0)), 0) is None


def test_unreachable_goal():
    g = IntGraph([Vertex(0, (0.0, 0.0)), Vertex(1, (1.0, 0.0)), Vertex(2, (2.0, 0.0))], [(0, 1, 1)])
    assert sipp_plan(g, 0, 2, EMPTY_CONSTRAINTS, 0) is None


def test_horizon_cuts_off_expensive_plans():
    g = _line_graph([2, 3])
    assert sipp_plan(g, 0, 2, EMPTY_CONSTRAINTS, 0, horizon=4) is None
    plan = sipp_plan(g, 0, 2, EMPTY_CONSTRAINTS, 0, horizon=5)
    assert plan is not None and plan.cost == 5


def test_waypoint_after_goal_arrival_must_sit_on_goal():
    g = _line_graph([1, 1])
    ok = ConstraintSet(pos_vertex=frozenset({(0, 2, 7)}))
    plan = sipp_plan(g, 0, 2, ok, 0)
    assert plan is not None and plan.cost == 2  # parked at the goal at t=7 anyway
    bad = ConstraintSet(pos_vertex=frozenset({(0, 1, 7)}))
    plan = sipp_plan(g, 0, 2, bad, 0)
    # must revisit vertex 1 at t=7, then return to the goal
    assert plan is not None
    assert oracles.vertex_of(plan, 7) == 1
    assert plan.cost == 8


# ---------------------------------------------------------------------------
# randomized sweep against the time-expanded oracle

def _random_int_graph(rng, n, max_w=3, p=0.5):
    vertices = [Vertex(i, (float(i), 0.0)) for i in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, int(rng.integers(1, max_w + 1))))
    return IntGraph(vertices, edges)


def _random_constraints(rng, g, agent):
    neg_v = set()
    for _ in range(int(rng.integers(0, 7))):
        neg_v.add((agent, int(rng.integers(0, g.n)), int(rng.integers(0, 13))))
    neg_e = set()
    directed = [(u, v) for u, v, _ in g.edges] + [(v, u) for u, v, _ in g.edges]
    for _ in range(int(rng.integers(0, 4))):
        if not directed:
            break
        u, v = directed[int(rng.integers(0, len(directed)))]
        t1 = int(rng.integers(0, 10))
        t2 = t1 + int(rng.integers(1, 5))
        neg_e.add((agent, (u, v), (t1, t2)))
    pos_v = set()
    used_times = set()
    for _ in range(int(rng.integers(0, 3))):
        t = int(rng.integers(1, 11))
        if t in used_times:
            continue
        used_times.add(t)
        pos_v.add((agent, int(rng.integers(0, g.n)), t))
    for _ in range(int(rng.integers(0, 3))):
        other = agent + 1
        pos_v.add((other, int(rng.integers(0, g.n)), int(rng.integers(0, 9))))
    clash = {(a, v, t) for (a, v, t) in pos_v if (a, v, t) in neg_v}
    return ConstraintSet(frozenset(neg_v - clash), frozenset(neg_e), frozenset(pos_v))


def test_sipp_matches_time_expanded_oracle():
    rng = np.random.default_rng(40)
    horizon = 25
    checked_found = checked_none = 0
    for trial in range(150):
        g = _random_int_graph(rng, int(rng.integers(4, 10)))
        start, goal = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        cs = _random_constraints(rng, g, agent=0)
        want = oracles.time_expanded_optimum(g, start, goal, cs, 0, horizon)
        plan = sipp_plan(g, start, goal, cs, 0, horizon=horizon)
        if want is None:
            assert plan is None, (trial, plan)
            checked_none += 1
            continue
        assert plan is not None, (trial, want)
        assert plan.cost == want, (trial, plan.cost, want)
        assert plan.steps[0] == (start, 0)
        assert plan.steps[-1][0] == goal
        assert oracles.replay_violations(g, plan, cs, 0) == []
        for (u, ta), (v, tb) in zip(plan.steps, plan.steps[1:]):
            if u == v:
                assert tb == ta + 1  # waits are spelled out step by step
            else:
                assert tb - ta == g.weight(u, v)
        checked_found += 1
    assert checked_found >= 40 and checked_none >= 10


def test_sipp_unconstrained_equals_shortest_distance():
    rng = np.random.default_rng(41)
    for _ in range(60):
        g = _random_int_graph(rng, int(rng.integers(3, 11)), max_w=4)
        start, goal = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        dist = oracles.bellman_ford(g.n, g.edges, start)
        plan = sipp_plan(g, start, goal, EMPTY_CONSTRAINTS, 0)
        if math.isinf(dist[goal]):
            assert plan is None
        else:
            assert plan is not None and plan.cost == int(dist[goal])


# ---------------------------------------------------------------------------
# exact plans

# SHA-256 of the plans test_plans_do_not_drift draws, as recorded
_PINNED_PLANS_SHA256 = "1ccb17eb7e02953768845022786e161392fe34b47252b749ef0683d33bddd7d6"


def test_plans_do_not_drift():
    # the oracle tests check costs, not which of several optimal plans comes
    # out; this pins the exact steps over seeded cases with every constraint
    # kind, with and without a horizon, so a change that means to keep the
    # search's tie order must reproduce them to the step
    rng = np.random.default_rng(42)
    results = []
    found = 0
    for trial in range(300):
        g = _random_int_graph(rng, int(rng.integers(5, 10)), max_w=3, p=float(rng.choice([0.3, 0.5])))
        start, goal = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        cs = _random_constraints(rng, g, agent=0)
        plan = sipp_plan(g, start, goal, cs, 0, horizon=None if trial % 2 else 20)
        results.append(None if plan is None else plan.steps)
        found += plan is not None
    assert found >= 150
    assert hashlib.sha256(repr(results).encode()).hexdigest() == _PINNED_PLANS_SHA256
