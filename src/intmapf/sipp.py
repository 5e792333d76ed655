"""Safe-interval path planning over integer time with three constraint kinds.

The planner finds an earliest-arrival timed path for one agent on an
integer-weighted graph.  Time is discrete; a move across an edge of weight w
departs at integer d, occupies the edge for the open interval (d, d+w), and
arrives at d+w; waiting costs one step at a time and occupies the vertex.

Constraints restrict a single agent:
  - negative vertex (agent, v, t): the agent may not occupy v at time t;
  - negative edge (agent, (u, v), (t1, t2)): a traversal of the directed edge
    u -> v departing at d is forbidden whenever (d, d+w) intersects the open
    interval (t1, t2);
  - positive vertex (agent, v, t): the agent must occupy v at time t.  For
    every other agent this acts as a negative vertex constraint, which is how
    disjoint splitting shares one constraint between both branch children.
So one agent is bound by its own negatives and every positive.  The planner
reads nothing else of a set, so a set holding just that part, as CBS keeps
one per agent, plans the same as any larger set.

build_safe_intervals compiles that part into a SafeTable, plain data that
the planner reads directly: each banned vertex's safe intervals, each
directed edge's forbidden spans, and the agent's own positives as waypoints.

Search states are (vertex, safe-interval index, waypoint index).  The
waypoint index is the number of the agent's own positive constraints due by
the state's arrival time; every move that reaches a state has already been
checked against them, so the index is a count, not a second check.  Within
one safe interval and waypoint index an earlier arrival dominates, which
keeps the state space finite even with no horizon.

Most moves need none of that machinery.  A neighbour with no ban, reached
over an edge with no ban while no waypoint is pending, has one candidate:
departure at the arrival time, into its one interval, with the waypoint
index unchanged.  The scan for a clear departure runs only where a ban or
a pending waypoint can delay a move, and the waypoint work (the leave-by
cut, the wait-to-waypoint transition, the traversal check and the new
waypoint index) only while a waypoint is pending.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import IntGraph, dijkstra

__all__ = [
    "SafeInterval",
    "ConstraintSet",
    "TimedPlan",
    "SafeTable",
    "build_safe_intervals",
    "sipp_plan",
]


class SafeInterval(NamedTuple):
    """Half-open span [lo, hi) of times a vertex is free; hi may be math.inf."""

    lo: int
    hi: float


VertexConstraint = tuple[int, int, int]  # (agent, vertex, t)
EdgeConstraint = tuple[int, tuple[int, int], tuple[int, int]]  # (agent, (u, v), (t1, t2))


@dataclass(frozen=True)
class ConstraintSet:
    """Immutable bundle of negative vertex, negative edge, and positive vertex constraints."""

    neg_vertex: frozenset[VertexConstraint] = frozenset()
    neg_edge: frozenset[EdgeConstraint] = frozenset()
    pos_vertex: frozenset[VertexConstraint] = frozenset()

    def __post_init__(self) -> None:
        clash = self.pos_vertex & self.neg_vertex
        if clash:
            raise ValueError(f"positive constraint contradicts a negative one: {sorted(clash)[0]}")
        for a, v, t in self.neg_vertex | self.pos_vertex:
            if t < 0:
                raise ValueError(f"vertex constraint ({a},{v},{t}) has a negative time")
        for a, e, (t1, t2) in self.neg_edge:
            if not (0 <= t1 < t2):
                raise ValueError(f"edge constraint ({a},{e},({t1},{t2})) needs 0 <= t1 < t2")

    def union(self, other: "ConstraintSet") -> "ConstraintSet":
        return ConstraintSet(
            self.neg_vertex | other.neg_vertex,
            self.neg_edge | other.neg_edge,
            self.pos_vertex | other.pos_vertex,
        )


EMPTY_CONSTRAINTS = ConstraintSet()


@dataclass(frozen=True)
class TimedPlan:
    """Timed path as (vertex, arrival time) steps, strictly increasing in time.

    Canonical plans start at time 0, spell out each wait step explicitly
    (+1 per step) and cross an edge in exactly its weight.
    """

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a plan needs at least one step")
        times = [t for _, t in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("plan times must be strictly increasing")

    @property
    def cost(self) -> int:
        return self.steps[-1][1]

    def vertices(self) -> list[int]:
        return [v for v, _ in self.steps]


class SafeTable(NamedTuple):
    """One agent's constraints, compiled for the planner.

    vertex maps each vertex with a ban to its safe intervals, sorted by start
    and ending in an unbounded one; a vertex it does not list is free.  edge
    maps a directed edge (u, v) to its forbidden open spans (t1, t2), sorted.
    waypoints holds the agent's own positives as (t, v), sorted.
    """

    vertex: dict[int, tuple[SafeInterval, ...]]
    edge: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    waypoints: tuple[tuple[int, int], ...]


_FREE = (SafeInterval(0, math.inf),)  # the safe intervals of a vertex with no ban


def edge_block_end(spans: Sequence[tuple[int, int]], w: int, d: int) -> int | None:
    """None if a weight-w traversal departing at d clears spans, else the earliest retry time.

    A forbidden interval (t1, t2) blocks d when (d, d+w) and (t1, t2)
    intersect; the retry time is the largest t2 over the violated
    intervals, the first candidate that clears all of them.
    """
    worst = None
    for t1, t2 in spans:
        if d < t2 and t1 < d + w:
            worst = t2 if worst is None else max(worst, t2)
    return worst


def build_safe_intervals(constraints: ConstraintSet, agent: int) -> SafeTable:
    """Compile the constraints that bind one agent into a SafeTable, plain data.

    Other agents' negatives are skipped.  Banned (v, t) pairs are the agent's
    negative vertex constraints plus every other agent's positive ones.  Bans
    split a vertex's timeline into maximal safe intervals sorted by start;
    the final interval is always unbounded.  The vertex map lists only the
    vertices with a ban, the edge map only the agent's own edge bans, and the
    waypoints are the agent's own positives.
    """
    banned: dict[int, set[int]] = {}
    for a, v, t in constraints.neg_vertex:
        if a == agent:
            banned.setdefault(v, set()).add(t)
    waypoints: list[tuple[int, int]] = []
    for a, v, t in constraints.pos_vertex:
        if a == agent:
            waypoints.append((t, v))
        else:
            banned.setdefault(v, set()).add(t)
    vertex_intervals: dict[int, tuple[SafeInterval, ...]] = {}
    for v, times in banned.items():
        spans: list[SafeInterval] = []
        cur = 0
        for t in sorted(times):
            if t > cur:
                spans.append(SafeInterval(cur, t))
            cur = max(cur, t + 1)
        spans.append(SafeInterval(cur, math.inf))
        vertex_intervals[v] = tuple(spans)
    edge_forbidden: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, e, span in constraints.neg_edge:
        if a == agent:
            edge_forbidden.setdefault(e, []).append(span)
    return SafeTable(
        vertex_intervals,
        {e: tuple(sorted(spans)) for e, spans in edge_forbidden.items()},
        tuple(sorted(waypoints)),
    )


def sipp_plan(
    graph: IntGraph,
    start: int,
    goal: int,
    constraints: ConstraintSet,
    agent: int,
    *,
    horizon: int | None = None,
    dist_to_goal: Sequence[float] | None = None,
) -> TimedPlan | None:
    """Earliest-arrival plan from start to goal under the agent's constraints.

    A* over (vertex, safe-interval, waypoint-index) states with an exact
    unconstrained distance-to-goal heuristic.  Ties pop by smaller f, then
    larger g, then smaller vertex id, then insertion order.  The plan may end
    only in an unbounded safe interval of the goal with every waypoint not
    yet due sitting at the goal, because the agent stays there forever.
    Returns None when no plan exists (within the horizon, if one is given).
    """
    vertex, edge, wps = build_safe_intervals(constraints, agent)
    due = [wt for wt, _ in wps]
    limit = math.inf if horizon is None else horizon
    dist = dist_to_goal if dist_to_goal is not None else dijkstra(graph, goal)
    if dist[start] == math.inf:
        return None
    if vertex.get(start, _FREE)[0].lo > 0:  # the start is banned at time 0
        return None
    wp0 = bisect_right(due, 0)
    for _, wv in wps[:wp0]:
        if wv != start:
            return None

    State = tuple[int, int, int]  # (vertex, interval index, waypoints due by arrival)
    start_key: State = (start, 0, wp0)
    best: dict[State, int] = {start_key: 0}
    parent: dict[State, tuple[State, int, int]] = {}  # child -> (parent, depart, arrive)
    # entries are (f, -g, vertex, counter, state); the unique counter settles
    # every tie, so states themselves are never compared.  A push happens only
    # when it improves the state's best arrival, and only a push counts.
    counter = 0
    heap: list[tuple[float, int, int, int, State]] = [(dist[start], 0, start, counter, start_key)]
    heappush, heappop = heapq.heappush, heapq.heappop
    best_get, vertex_get, edge_get = best.get, vertex.get, edge.get
    adjacency = graph.adjacency
    n_wps = len(wps)
    inf = math.inf

    while heap:
        _, neg_g, _, _, key = heappop(heap)
        a = -neg_g
        if a > best[key]:
            continue
        v, ivl, wp = key
        # the agent must leave v before its interval ends and before the
        # first waypoint due elsewhere
        intervals = vertex_get(v)
        leave_by = inf if intervals is None else intervals[ivl].hi
        pending = wp < n_wps
        if pending:
            for wt, wv in wps[wp:]:
                if wv != v:
                    if wt < leave_by:
                        leave_by = wt
                    break
        if v == goal and leave_by == inf:
            return _reconstruct(parent, key, start_key)
        if pending:
            # waiting in place to meet the next waypoint is its own transition;
            # the departure scan below only ever takes the earliest departure
            wt = wps[wp][0]
            if wt < leave_by and wt + dist[v] <= limit:
                nkey = (v, ivl, bisect_right(due, wt))
                if wt < best_get(nkey, inf):
                    best[nkey] = wt
                    parent[nkey] = (key, wt, wt)
                    counter += 1
                    heappush(heap, (wt + dist[v], -wt, v, counter, nkey))
        # dist is exact on an undirected graph and finite at the start, so
        # it is finite at every neighbour reached
        for u, w in adjacency[v]:
            du = dist[u]
            targets = vertex_get(u)
            spans = edge_get((v, u)) if edge else None
            if targets is None and spans is None and not pending:
                # a free target: the earliest departure lands in its one interval
                t = a + w
                if a < leave_by and t + du <= limit:
                    nkey = (u, 0, wp)
                    if t < best_get(nkey, inf):
                        best[nkey] = t
                        parent[nkey] = (key, a, t)
                        counter += 1
                        heappush(heap, (t + du, -t, u, counter, nkey))
                continue
            for jdx, (jlo, jhi) in enumerate(targets or _FREE):
                d = jlo - w
                if d < a:
                    d = a
                while d < leave_by:
                    t = d + w
                    if t >= jhi or t + du > limit:
                        break
                    if spans is not None:
                        retry = edge_block_end(spans, w, d)
                        if retry is not None:
                            d = retry if retry > d else d + 1
                            continue
                    nwp = wp
                    if pending:
                        # no waypoint may fall inside the traversal, and one
                        # due on arrival must sit at u
                        viol = None
                        for wt, wv in wps[wp:]:
                            if wt > t:
                                break
                            if d < wt < t or (wt == t and wv != u):
                                viol = wt
                                break
                        if viol is not None:
                            d = viol if d < viol < t else d + 1
                            continue
                        nwp = bisect_right(due, t)
                    nkey = (u, jdx, nwp)
                    if t < best_get(nkey, inf):
                        best[nkey] = t
                        parent[nkey] = (key, d, t)
                        counter += 1
                        heappush(heap, (t + du, -t, u, counter, nkey))
                    break  # earliest departure into this interval found
    return None


def _reconstruct(
    parent: dict[tuple[int, int, int], tuple[tuple[int, int, int], int, int]],
    key: tuple[int, int, int],
    start_key: tuple[int, int, int],
) -> TimedPlan:
    hops: list[tuple[int, int, int]] = []  # (vertex arrived at, depart_prev, arrive)
    while key != start_key:
        prev, d, t = parent[key]
        hops.append((key[0], d, t))
        key = prev
    hops.reverse()
    steps: list[tuple[int, int]] = [(start_key[0], 0)]
    for v, d, t in hops:
        at, arrived = steps[-1]
        for wait_t in range(arrived + 1, d + 1):
            steps.append((at, wait_t))
        if steps[-1] != (v, t):  # wait-to-waypoint hops end on the wait itself
            steps.append((v, t))
    return TimedPlan(tuple(steps))
