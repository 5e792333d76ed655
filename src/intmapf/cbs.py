"""Conflict-based search over integer-weighted graphs with timed traversals.

The high level runs best-first search on a binary constraint tree.  Each node
holds constraints and one optimal plan per agent under them; expanding a
node splits on one conflict between two plans.  A vertex conflict
splits into two negative vertex constraints, or, with disjoint splitting
enabled, into a positive constraint for one agent (every other agent then
inherits it as a negative) and the matching negative.  An edge conflict always
splits into two negative edge-interval constraints, each handing one agent the
other's traversal window.

A node detects its conflicts and picks one when it is expanded, so nodes
that never leave the open list cost only their plans.  The first lazy_pc of
its conflicts are classified by how the two candidate children's costs move
(both strictly above the node's cost is cardinal, one is semi-cardinal, none
is non-cardinal), and the highest class wins, the earliest conflict on ties.
With lazy_pc=1 the earliest conflict is the only candidate, so nothing is
prioritized.  Classifying builds both children, so the picked conflict's
children go onto the open list as they are.

A node keeps one constraint set per agent, holding the agent's own negatives
and every positive, which is all that binds its plan; a child shares every
set its new constraint does not bind.  A child re-classifies conflicts
between agents its split did not touch, so the same request recurs; within
one solve each distinct (agent, set) pair is planned once and repeats are
answered from a memo, which SearchStats.plans_reused counts.
low_level_calls counts every request.
SIPP is guided by each agent's exact distance to its goal, computed once per
solve by graph.dijkstra, one scipy.sparse.csgraph run for all the goals.

Occupancy follows the plan steps: a step pair (u, t_a) -> (v, t_b) occupies u
at t_a, the edge during the open span (t_a, t_b), and v at t_b; after its last
step an agent sits on its goal forever.  Two opposite traversals of one edge
conflict exactly when their [t_a, t_b) spans overlap, so a swap over a unit
edge conflicts at its departure.

Detection works pair by pair: a pair's earliest conflict depends only on its
two plans, checked until the longer one ends.  A child replans one or two
agents and shares every other plan object with its parent, so within one
solve a PairMemo keeps each plan's occupancy and each pair's result, keyed by
the agents and the plans' ids, and an expanded node computes only the pairs
that hold a new plan; SearchStats.pairs_reused counts the rest.  The memo
holds every plan it keys, so no id is reused while it lives, and it is
dropped with the solve.  The replanning test for a positive constraint reads
the same occupancy.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence

from .graph import IntGraph, dijkstra
from .mapio import Instance
from .sipp import EMPTY_CONSTRAINTS, ConstraintSet, TimedPlan, sipp_plan

__all__ = [
    "Conflict",
    "CTNode",
    "SearchStats",
    "Solution",
    "Failure",
    "SolveConfig",
    "Violation",
    "PairMemo",
    "detect_conflicts",
    "make_branch_constraints",
    "classify_conflict",
    "solve",
    "validate_solution",
    "serialize_solution",
]

Traversal = tuple[int, int, int, int]  # (from, to, depart, arrive)
_MISSING = object()


@dataclass(frozen=True)
class Conflict:
    """First collision between two agents: at a vertex, or on one edge head-on."""

    kind: str  # 'vertex' | 'edge'
    agents: tuple[int, int]
    time: int  # earliest step at which the collision is visible
    vertex: int | None = None
    trav_i: Traversal | None = None
    trav_j: Traversal | None = None


@dataclass(frozen=True)
class CTNode:
    constraints: tuple[ConstraintSet, ...]  # entry a: agent a's negatives and every positive
    plans: tuple[TimedPlan, ...]
    cost: int  # makespan of the plans
    soc: int  # sum of their costs


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_expanded: int = 0
    low_level_calls: int = 0  # plans the high level asked for
    # conflicts split by expanded nodes, by the class that picked them
    picked_cardinal: int = 0
    picked_semi: int = 0
    picked_non: int = 0
    plans_reused: int = 0  # of low_level_calls, answered from the solve's memo
    pairs_reused: int = 0  # plan pairs whose conflict check the solve's pair memo answered
    wall_time: float = 0.0


@dataclass(frozen=True)
class Solution:
    plans: tuple[TimedPlan, ...]
    makespan: int
    stats: SearchStats


@dataclass(frozen=True)
class Failure:
    # 'timeout': the time budget ran out.  'exhausted': some goal is
    # unreachable, or no solution exists within the horizon the caller set.
    # 'horizon': none within the automatic horizon, which proves nothing
    # about longer makespans.
    reason: str
    stats: SearchStats


@dataclass(frozen=True)
class SolveConfig:
    disjoint: bool = False
    # an expanded node classifies at most this many of its conflicts (None:
    # all); 1 splits the earliest conflict, which turns prioritization off
    lazy_pc: int | None = 8
    timeout: float | None = None  # seconds
    horizon: int | None = None

    def __post_init__(self) -> None:
        if self.lazy_pc is not None and self.lazy_pc < 1:
            raise ValueError(f"lazy_pc must be None or >= 1, got {self.lazy_pc}")
        if self.timeout is not None and not self.timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0, got {self.timeout}")
        if self.horizon is not None and not self.horizon >= 0:
            raise ValueError(f"horizon must be None or >= 0, got {self.horizon}")


@dataclass(frozen=True)
class Violation:
    kind: str  # 'start' | 'goal' | 'edge' | 'timing' | 'vertex-conflict' | 'edge-conflict'
    agents: tuple[int, ...]
    time: int | None
    detail: str


class Occupancy(NamedTuple):
    """One plan as detect_conflicts reads it."""

    occupied: set[tuple[int, int]]  # (v, t) at each step and through each wait, up to the cost
    vertices: set[int]  # every vertex the plan visits
    crossings: dict[tuple[int, int], tuple[Traversal, ...]]  # traversals by undirected edge (min, max)
    cost: int
    last: int  # the vertex the agent parks on from its cost on
    plan: TimedPlan  # held, so that no other object takes over the plan's id


class PairMemo:
    """What detect_conflicts learned about plans, for later calls to reuse.

    occupancy(plan) is computed once per plan object.  pairs maps
    (i, j, id(plan_i), id(plan_j)) to that pair's earliest conflict, or None;
    every plan a key names is held by its Occupancy, so the id stays its own
    while the memo lives.  reused counts the pair checks answered from pairs.
    """

    __slots__ = ("_occupancy", "pairs", "reused")

    def __init__(self) -> None:
        self._occupancy: dict[int, Occupancy] = {}
        self.pairs: dict[tuple[int, int, int, int], Conflict | None] = {}
        self.reused = 0

    def occupancy(self, plan: TimedPlan) -> Occupancy:
        entry = self._occupancy.get(id(plan))
        if entry is None:
            steps = plan.steps
            occupied = set(steps)
            crossings: dict[tuple[int, int], tuple[Traversal, ...]] = {}
            for (u, ta), (v, tb) in zip(steps, steps[1:]):
                if u != v:
                    e = (u, v) if u < v else (v, u)
                    crossings[e] = crossings.get(e, ()) + ((u, v, ta, tb),)
                elif tb - ta > 1:
                    occupied.update((u, t) for t in range(ta + 1, tb))
            last, cost = steps[-1]
            vertices = {v for v, _ in steps}
            entry = self._occupancy[id(plan)] = Occupancy(occupied, vertices, crossings, cost, last, plan)
        return entry


def _pair_conflict(i: int, occ_i: Occupancy, j: int, occ_j: Occupancy) -> Conflict | None:
    """Earliest conflict between agents i < j, the shorter plan parked until the longer one ends."""
    set_i, verts_i, cross_i, cost_i, last_i, _ = occ_i
    set_j, verts_j, cross_j, cost_j, last_j, _ = occ_j
    vertex, t_v = None, math.inf
    if not set_i.isdisjoint(set_j):
        vertex, t_v = min(set_i & set_j, key=itemgetter(1))
    # the shorter plan's agent stays on its last vertex until the longer plan ends
    v, parked, until, occupied, visited = (
        (last_i, cost_i, cost_j, set_j, verts_j) if cost_i < cost_j else (last_j, cost_j, cost_i, set_i, verts_i)
    )
    if v in visited:
        for t in range(parked + 1, min(until, t_v - 1) + 1):
            if (v, t) in occupied:
                vertex, t_v = v, t
                break
    edge, t_e = None, math.inf
    if not cross_i.keys().isdisjoint(cross_j.keys()):
        for e in cross_i.keys() & cross_j.keys():
            for ti in cross_i[e]:
                for tj in cross_j[e]:
                    t = max(ti[2], tj[2])
                    if ti[0] == tj[1] and t < min(ti[3], tj[3]) and t < t_e:
                        edge, t_e = (ti, tj), t
    if vertex is not None and t_v <= t_e:
        return Conflict("vertex", (i, j), t_v, vertex=vertex)
    if edge is not None:
        return Conflict("edge", (i, j), t_e, trav_i=edge[0], trav_j=edge[1])
    return None


def detect_conflicts(plans: Sequence[TimedPlan], memo: PairMemo | None = None) -> list[Conflict]:
    """Earliest conflict for every agent pair, sorted by (time, agents).

    An agent occupies (v, t) at each plan step, through each wait, and on its
    last vertex from its cost on.  A pair is checked until the longer of its
    two plans ends: past that both agents are parked, so if they share a
    vertex they already share it then.  Two opposite traversals of one edge
    conflict at the later departure when their [depart, arrive) spans
    overlap.  A pair has one earliest conflict: an agent is on one vertex or
    inside one traversal at a time, and two agents crossing an edge head-on
    are at its two ends or inside it, never on one vertex.

    A memo carries each plan's occupancy and each pair's result from one call
    to the next, so two plan objects already compared at the same two indices
    cost one lookup.  Plans are immutable and the memo holds every plan it has
    seen, so an id in a key always names the same plan.  The key also holds
    both indices, because a result names its agents: a plan object may appear
    at any index, in any call.  Without a memo the call uses a fresh one.
    """
    if not plans:
        raise ValueError("detect_conflicts needs at least one plan")
    if memo is None:
        memo = PairMemo()
    pairs = memo.pairs
    before = len(pairs)
    ids = [id(p) for p in plans]
    occ = None  # read on the first miss
    found = []
    for j in range(1, len(plans)):
        id_j = ids[j]
        for i in range(j):
            key = (i, j, ids[i], id_j)
            c = pairs.get(key, _MISSING)
            if c is _MISSING:
                if occ is None:
                    occ = [memo.occupancy(p) for p in plans]
                c = pairs[key] = _pair_conflict(i, occ[i], j, occ[j])
            if c is not None:
                found.append(c)
    n = len(plans)
    memo.reused += n * (n - 1) // 2 - (len(pairs) - before)
    found.sort(key=lambda c: (c.time, c.agents))
    return found


def make_branch_constraints(conflict: Conflict, disjoint: bool) -> tuple[ConstraintSet, ConstraintSet]:
    """The two constraint bundles a conflict splits into.

    Vertex conflicts: disjoint yields (positive for agent i, negative for i);
    otherwise one negative per agent.  Edge conflicts always yield two
    negative interval constraints, each blocking one agent's directed edge
    for the other agent's traversal window.
    """
    i, j = conflict.agents
    if conflict.kind == "vertex":
        assert conflict.vertex is not None
        v, t = conflict.vertex, conflict.time
        if disjoint:
            return (
                ConstraintSet(pos_vertex=frozenset({(i, v, t)})),
                ConstraintSet(neg_vertex=frozenset({(i, v, t)})),
            )
        return (
            ConstraintSet(neg_vertex=frozenset({(i, v, t)})),
            ConstraintSet(neg_vertex=frozenset({(j, v, t)})),
        )
    assert conflict.trav_i is not None and conflict.trav_j is not None
    ui, vi, di, ai = conflict.trav_i
    uj, vj, dj, aj = conflict.trav_j
    return (
        ConstraintSet(neg_edge=frozenset({(i, (ui, vi), (dj, aj))})),
        ConstraintSet(neg_edge=frozenset({(j, (uj, vj), (di, ai))})),
    )


def classify_conflict(parent_cost: float, branch_costs: Sequence[float]) -> str:
    """'cardinal' if every branch raises the cost, 'semi' if exactly one does, else 'non'."""
    raised = sum(1 for c in branch_costs if c > parent_cost)
    if raised >= len(branch_costs):
        return "cardinal"
    return "semi" if raised > 0 else "non"


class _Timeout(Exception):
    pass


class _Ctx:
    def __init__(self, graph: IntGraph, starts, goals, config: SolveConfig, deadline: float | None):
        self.graph = graph
        self.starts = starts
        self.goals = goals
        self.config = config
        self.deadline = deadline
        self.stats = SearchStats()
        self.memo: dict[tuple[int, ConstraintSet], TimedPlan | None] = {}
        self.pairs = PairMemo()
        self.dist = dijkstra(graph, goals)
        if config.horizon is not None:
            self.horizon = config.horizon
        else:
            lb = max(self.dist[a][starts[a]] for a in range(len(starts)))
            if math.isinf(lb):
                lb = 0  # some agent is cut off; the root plan fails anyway
            max_deg = graph.max_degree
            kexp = max(2, math.ceil(math.log2(max_deg)) if max_deg > 1 else 2)
            self.horizon = int(2 * lb + kexp * graph.max_weight)

    def check_deadline(self) -> None:
        if self.deadline is not None and _time.perf_counter() > self.deadline:
            raise _Timeout

    def plan(self, agent: int, constraints: ConstraintSet) -> TimedPlan | None:
        self.stats.low_level_calls += 1
        key = (agent, constraints)
        if key in self.memo:
            self.stats.plans_reused += 1
            return self.memo[key]
        plan = self.memo[key] = sipp_plan(
            self.graph,
            self.starts[agent],
            self.goals[agent],
            constraints,
            agent,
            horizon=self.horizon,
            dist_to_goal=self.dist[agent],
        )
        return plan


def _replan_agents(conflict_bundle: ConstraintSet, plans: Sequence[TimedPlan], pairs: PairMemo) -> list[int]:
    """Agents whose current plan may violate the freshly added constraints.

    An agent is at v at time t exactly when its plan's occupancy holds (v, t),
    or t is past its cost and v is its last vertex.
    """
    agents: set[int] = set()
    for a, _, _ in conflict_bundle.neg_vertex:
        agents.add(a)
    for a, _, _ in conflict_bundle.neg_edge:
        agents.add(a)
    for i, v, t in conflict_bundle.pos_vertex:
        agents.add(i)
        for j, plan in enumerate(plans):
            occ = pairs.occupancy(plan)
            if j != i and ((v, t) in occ.occupied or (t > occ.cost and occ.last == v)):
                agents.add(j)
    return sorted(agents)


def _node(constraints: tuple[ConstraintSet, ...], plans: tuple[TimedPlan, ...]) -> CTNode:
    return CTNode(constraints, plans, max(p.cost for p in plans), sum(p.cost for p in plans))


def _children(ctx: _Ctx, node: CTNode, conflict: Conflict) -> tuple[CTNode | None, ...]:
    """The two children a conflict splits node into; None where a replanned agent has no plan."""
    children: list[CTNode | None] = []
    for delta in make_branch_constraints(conflict, ctx.config.disjoint):
        ctx.check_deadline()
        replan = _replan_agents(delta, node.plans, ctx.pairs)
        constraints = list(node.constraints)
        # a delta is one constraint: a negative binds only its agent (the one replanned), a positive all
        for a in range(len(constraints)) if delta.pos_vertex else replan:
            constraints[a] = constraints[a].union(delta)
        plans = list(node.plans)
        for a in replan:
            p = ctx.plan(a, constraints[a])
            if p is None:
                children.append(None)
                break
            plans[a] = p
        else:
            children.append(_node(tuple(constraints), tuple(plans)))
    return tuple(children)


_PC_RANK = {"cardinal": 2, "semi": 1, "non": 0}


def _split(ctx: _Ctx, node: CTNode, conflicts: list[Conflict]) -> tuple[CTNode | None, ...]:
    """Children of the conflict an expanded node splits.

    The node's first lazy_pc conflicts are classified; the highest class wins
    and the earliest conflict wins ties.
    """
    picked_class, picked = "", ()
    for conflict in conflicts[: ctx.config.lazy_pc]:
        children = _children(ctx, node, conflict)
        cls = classify_conflict(node.cost, [math.inf if c is None else c.cost for c in children])
        if not picked or _PC_RANK[cls] > _PC_RANK[picked_class]:
            picked_class, picked = cls, children
    stats = ctx.stats
    if picked_class == "cardinal":
        stats.picked_cardinal += 1
    elif picked_class == "semi":
        stats.picked_semi += 1
    else:
        stats.picked_non += 1
    return picked


def solve(instance: Instance, config: SolveConfig | None = None):
    """Find a minimum-makespan conflict-free solution, or report failure.

    Returns a Solution on success, else a Failure: 'timeout' when the budget
    runs out; 'exhausted' when some goal is unreachable, or when the tree
    bounded by config.horizon holds no solution; 'horizon' when config.horizon
    is None and the tree bounded by the automatic horizon holds none, which
    does not prove that no solution exists.  Best-first order: makespan, then
    sum of costs, then insertion order.
    """
    if config is None:
        config = SolveConfig()
    if not isinstance(instance.graph, IntGraph):
        raise TypeError("solve needs an IntGraph instance; discretize the graph first")
    t0 = _time.perf_counter()
    deadline = t0 + config.timeout if config.timeout is not None else None
    ctx = _Ctx(instance.graph, instance.starts, instance.goals, config, deadline)

    def finish(result):
        ctx.stats.wall_time = _time.perf_counter() - t0
        ctx.stats.pairs_reused = ctx.pairs.reused
        return result

    try:
        root_plans = []
        for a in range(instance.n_agents):
            ctx.check_deadline()
            p = ctx.plan(a, EMPTY_CONSTRAINTS)
            if p is None:
                return finish(Failure("exhausted", ctx.stats))
            root_plans.append(p)
        root = _node((EMPTY_CONSTRAINTS,) * instance.n_agents, tuple(root_plans))
        ctx.stats.nodes_generated += 1
        # the unique tick settles every tie, so nodes themselves are never compared
        tick = 0
        open_heap: list[tuple[int, int, int, CTNode]] = [(root.cost, root.soc, tick, root)]
        while open_heap:
            ctx.check_deadline()
            node = heapq.heappop(open_heap)[3]
            ctx.stats.nodes_expanded += 1
            conflicts = detect_conflicts(node.plans, ctx.pairs)
            if not conflicts:
                return finish(Solution(node.plans, node.cost, ctx.stats))
            for child in _split(ctx, node, conflicts):
                if child is None:
                    continue
                assert child.cost >= node.cost, "constraint tree cost must not decrease"
                ctx.stats.nodes_generated += 1
                tick += 1
                heapq.heappush(open_heap, (child.cost, child.soc, tick, child))
        return finish(Failure("exhausted" if config.horizon is not None else "horizon", ctx.stats))
    except _Timeout:
        return finish(Failure("timeout", ctx.stats))


def validate_solution(instance: Instance, plans: Sequence[TimedPlan]) -> list[Violation]:
    """Check plans against the instance: endpoints, edge timing, and conflicts.

    Returns every violation found (empty list means valid).  Traversals slower
    than the edge weight are legal; arriving early is not.  Agents whose own
    plan is malformed are left out of the pairwise replay, since their
    occupancy is not well defined.
    """
    out: list[Violation] = []
    if len(plans) != instance.n_agents:
        raise ValueError(f"{len(plans)} plans for {instance.n_agents} agents")
    clean: list[int] = []
    for a, plan in enumerate(plans):
        ok = True
        if plan.steps[0] != (instance.starts[a], 0):
            out.append(Violation("start", (a,), 0, f"agent {a} must start at vertex {instance.starts[a]} at time 0"))
            ok = False
        if plan.steps[-1][0] != instance.goals[a]:
            out.append(Violation("goal", (a,), plan.cost, f"agent {a} must end at vertex {instance.goals[a]}"))
            ok = False
        for (u, ta), (v, tb) in zip(plan.steps, plan.steps[1:]):
            if u == v:
                continue
            if not instance.graph.has_edge(u, v):
                out.append(Violation("edge", (a,), ta, f"agent {a} uses missing edge ({u},{v})"))
                ok = False
                continue
            w = instance.graph.weight(u, v)
            if tb - ta < w:
                out.append(
                    Violation("timing", (a,), ta, f"agent {a} crosses ({u},{v}) in {tb - ta} < weight {w}")
                )
                ok = False
        if ok:
            clean.append(a)
    if len(clean) >= 2:
        subset = [plans[a] for a in clean]
        for c in detect_conflicts(subset):
            i, j = (clean[c.agents[0]], clean[c.agents[1]])
            if c.kind == "vertex":
                out.append(
                    Violation("vertex-conflict", (i, j), c.time, f"agents {i} and {j} share vertex {c.vertex} at {c.time}")
                )
            else:
                assert c.trav_i is not None
                u, v = c.trav_i[0], c.trav_i[1]
                out.append(
                    Violation("edge-conflict", (i, j), c.time, f"agents {i} and {j} cross edge ({u},{v}) head-on near {c.time}")
                )
    return out


def serialize_solution(solution: Solution) -> str:
    """One line per agent: 'agent <id>: (v0,t0) (v1,t1) ...'."""
    lines = []
    for a, plan in enumerate(solution.plans):
        body = " ".join(f"({v},{t})" for v, t in plan.steps)
        lines.append(f"agent {a}: {body}")
    return "\n".join(lines) + "\n"
