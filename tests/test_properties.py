"""Property tests against the brute-force oracles: SIPP under every constraint kind, CBS optimality.

Examples are derived deterministically (derandomize=True), so a run is
reproducible; graphs stay small enough for the oracles' exhaustive searches.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intmapf import (
    ConstraintSet,
    IntGraph,
    Instance,
    Solution,
    SolveConfig,
    Vertex,
    build_safe_intervals,
    sipp_plan,
    solve,
)
from intmapf import cbs
from intmapf.cbs import validate_solution

import oracles

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)
CBS_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
# CBS cannot prove some small instances infeasible quickly; such a solve times
# out, which is an honest Failure and checks nothing else
TIMEOUT = 5.0


@st.composite
def int_graphs(draw, min_n=2, max_n=6, max_w=3, max_extra=4):
    """A random spanning tree plus a few more edges: sparse, so paths share corridors."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_extra)))
    weighted = [(u, v, draw(st.integers(1, max_w))) for u, v in sorted(edges)]
    return IntGraph([Vertex(i, (float(i), 0.0)) for i in range(n)], weighted)


def _edge_bans(draw, g, agents, max_size):
    """Negative edge constraints for the drawn agents on g's directed edges (g has at least one)."""
    directed = [(u, v) for u, v, _ in g.edges] + [(v, u) for u, v, _ in g.edges]
    spans = st.tuples(st.integers(0, 9), st.integers(1, 4)).map(lambda p: (p[0], p[0] + p[1]))
    return draw(st.lists(st.tuples(agents, st.sampled_from(directed), spans), max_size=max_size))


@st.composite
def sipp_cases(draw):
    """A graph, start and goal, and constraints on agent 0 of all four kinds."""
    g = draw(int_graphs())
    start, goal = draw(st.permutations(range(g.n)))[:2]
    vertex = st.integers(0, g.n - 1)
    time = st.integers(0, 10)
    own_wps = draw(st.lists(st.tuples(st.just(0), vertex, time), max_size=3))
    others = draw(st.lists(st.tuples(st.integers(1, 2), vertex, time), max_size=3))
    bans = draw(st.lists(st.tuples(st.just(0), vertex, time), max_size=6))
    edge_bans = _edge_bans(draw, g, st.just(0), max_size=3)
    pos = frozenset(own_wps) | frozenset(others)
    cs = ConstraintSet(frozenset(bans) - pos, frozenset(edge_bans), pos)
    return g, start, goal, cs


@PROPERTY
@given(sipp_cases())
def test_sipp_matches_time_expanded_optimum(case):
    g, start, goal, cs = case
    horizon = 20
    want = oracles.time_expanded_optimum(g, start, goal, cs, 0, horizon)
    plan = sipp_plan(g, start, goal, cs, 0, horizon=horizon)
    if want is None:
        assert plan is None
        return
    assert plan is not None and plan.cost == want
    assert plan.steps[0] == (start, 0) and plan.steps[-1][0] == goal
    assert oracles.replay_violations(g, plan, cs, 0) == []


@PROPERTY
@given(sipp_cases(), st.data())
def test_other_agents_negatives_never_change_a_plan(case, data):
    # the premise of CBS's per-agent constraint sets and its low-level memo:
    # a plan depends on a constraint set only through what binds the agent,
    # so other agents' negatives never change it
    g, start, goal, cs = case
    vertex = st.integers(0, g.n - 1)
    time = st.integers(0, 10)
    bans = data.draw(st.lists(st.tuples(st.integers(1, 2), vertex, time), max_size=6))
    edge_bans = _edge_bans(data.draw, g, st.integers(1, 2), max_size=4)
    more = ConstraintSet(cs.neg_vertex | (frozenset(bans) - cs.pos_vertex), cs.neg_edge | frozenset(edge_bans), cs.pos_vertex)
    assert oracles.binding(more, 0) == oracles.binding(cs, 0)
    for horizon in (None, 20):
        assert sipp_plan(g, start, goal, more, 0, horizon=horizon) == sipp_plan(g, start, goal, cs, 0, horizon=horizon)


def test_other_agents_positive_on_the_only_path_changes_the_plan():
    # another agent's positive constraint bans the vertex for this one, so
    # each agent's constraint set, the memo's key, has to keep every positive
    g = IntGraph([Vertex(i, (float(i), 0.0)) for i in range(3)], [(0, 1, 1), (1, 2, 1)])
    free = sipp_plan(g, 0, 2, ConstraintSet(), 0)
    assert free is not None and free.steps == ((0, 0), (1, 1), (2, 2))
    cs = ConstraintSet(pos_vertex=frozenset({(1, 1, 1)}))
    assert oracles.binding(cs, 0) != oracles.binding(ConstraintSet(), 0)
    plan = sipp_plan(g, 0, 2, cs, 0)
    assert plan is not None and plan.steps == ((0, 0), (0, 1), (1, 2), (2, 3))


@st.composite
def constraint_sets(draw):
    """Constraints of all three kinds for agents 0-2 on one graph."""
    g = draw(int_graphs())
    agent = st.integers(0, 2)
    vertex = st.integers(0, g.n - 1)
    time = st.integers(0, 10)
    pos = frozenset(draw(st.lists(st.tuples(agent, vertex, time), max_size=5)))
    neg = frozenset(draw(st.lists(st.tuples(agent, vertex, time), max_size=10))) - pos
    return ConstraintSet(neg, frozenset(_edge_bans(draw, g, agent, max_size=6)), pos)


@PROPERTY
@given(constraint_sets())
def test_safe_table_holds_exactly_what_binds_the_agent(cs):
    for agent in range(3):
        vertex, edge, waypoints = build_safe_intervals(cs, agent)
        bans: dict[int, set[int]] = {}
        for a, v, t in cs.neg_vertex:
            if a == agent:
                bans.setdefault(v, set()).add(t)
        for a, v, t in cs.pos_vertex:
            if a != agent:
                bans.setdefault(v, set()).add(t)
        assert vertex.keys() == bans.keys()
        for v, spans in vertex.items():
            # sorted, disjoint and non-empty, with only the last unbounded
            assert all(lo < hi for lo, hi in spans)
            assert all(hi < nxt.lo for (_, hi), nxt in zip(spans, spans[1:]))
            assert spans[-1].hi == math.inf and all(hi < math.inf for _, hi in spans[:-1])
            # the times the spans leave out are exactly the bans
            free = {t for lo, hi in spans for t in range(lo, min(hi, 12))}
            assert set(range(12)) - free == bans[v]
        own_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, e, span in cs.neg_edge:
            if a == agent:
                own_edges.setdefault(e, []).append(span)
        assert edge == {e: tuple(sorted(spans)) for e, spans in own_edges.items()}
        assert waypoints == tuple(sorted((t, v) for a, v, t in cs.pos_vertex if a == agent))


@st.composite
def cbs_instances(draw, max_n=6, max_w=2):
    """Two or three agents on a sparse graph; rotated goals make every pair of paths cross."""
    g = draw(int_graphs(min_n=3, max_n=max_n, max_w=max_w, max_extra=2))
    agents = draw(st.integers(2, min(3, g.n - 1)))
    starts = tuple(draw(st.permutations(range(g.n)))[:agents])
    if draw(st.booleans()):
        goals = starts[1:] + starts[:1]
    else:
        goals = tuple(draw(st.permutations(range(g.n)))[:agents])
    return Instance(g, starts, goals)


@CBS_PROPERTY
@given(cbs_instances(), st.booleans())
def test_cbs_with_explicit_horizon_matches_joint_optimum(inst, disjoint):
    horizon = 6
    want = oracles.joint_optimal_makespan(inst.graph, inst.starts, inst.goals, horizon)
    out = solve(inst, SolveConfig(disjoint=disjoint, horizon=horizon, timeout=TIMEOUT))
    if isinstance(out, Solution):
        assert out.makespan == want
        assert validate_solution(inst, out.plans) == []
    elif out.reason != "timeout":  # a timeout says only that the budget ran out
        assert out.reason == "exhausted" and want is None


@CBS_PROPERTY
@given(cbs_instances(max_n=5, max_w=1), st.booleans())
def test_cbs_with_automatic_horizon_is_optimal_or_says_horizon(inst, disjoint):
    out = solve(inst, SolveConfig(disjoint=disjoint, timeout=TIMEOUT))
    if isinstance(out, Solution):
        # nothing shorter exists, and the makespan is reachable
        assert oracles.joint_optimal_makespan(inst.graph, inst.starts, inst.goals, out.makespan) == out.makespan
        assert validate_solution(inst, out.plans) == []
    elif out.reason != "timeout":
        assert out.reason in ("exhausted", "horizon")
        if oracles.joint_optimal_makespan(inst.graph, inst.starts, inst.goals, 16) is not None:
            assert out.reason == "horizon"


@CBS_PROPERTY
@given(cbs_instances(), st.booleans())
def test_every_expanded_node_has_the_conflicts_of_a_full_detection(inst, disjoint):
    # Every expanded node's conflicts, the ones it kept from its parent merged
    # with a detection restricted to the agents it replanned, equal a full
    # detection on its plans; pairs_reused counts the C(n - k, 2) pairs each
    # expanded node with k replanned agents kept, and the replanning test for
    # a positive constraint agrees with the oracle's occupancy.
    detect, split, replan = cbs.detect_conflicts, cbs._split, cbs._replan_agents
    detected = splits = kept = 0

    def counted_detect(plans, agents, cache):
        nonlocal detected, kept
        detected += 1
        left = len(plans) - len(set(agents))
        kept += left * (left - 1) // 2
        return detect(plans, agents, cache)

    def checked_split(ctx, node, conflicts):
        nonlocal splits
        splits += 1
        assert conflicts == detect(node.plans)
        return split(ctx, node, conflicts)

    def checked_replan(bundle, plans, cache):
        got = replan(bundle, plans, cache)
        want = {a for a, _, _ in bundle.neg_vertex} | {a for a, _, _ in bundle.neg_edge}
        for i, v, t in bundle.pos_vertex:
            want |= {i} | {j for j, plan in enumerate(plans) if oracles.vertex_of(plan, t) == v}
        assert got == sorted(want)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbs, "detect_conflicts", counted_detect)
        mp.setattr(cbs, "_split", checked_split)
        mp.setattr(cbs, "_replan_agents", checked_replan)
        out = solve(inst, SolveConfig(disjoint=disjoint, horizon=6, timeout=TIMEOUT))
    assert out.stats.nodes_expanded == detected
    if isinstance(out, Solution):
        assert detect(out.plans) == []
    assert splits == detected - isinstance(out, Solution)
    assert out.stats.pairs_reused == kept
