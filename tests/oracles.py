"""Independent reference implementations backing the test suite.

Everything here favors obviousness over speed: exact rational arithmetic for
grid geometry, brute-force searches over small state spaces, and direct
evaluation of closed-form expressions.  The package must agree with these on
randomized sweeps; none of this code shares logic with the package beyond the
data containers it reads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from intmapf import ConstraintSet, IntGraph, TimedPlan

# ---------------------------------------------------------------------------
# frozen move sets: the 8/16/32 neighborhoods written out by hand

OFFSETS_8 = {
    (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (-1, 1), (-1, -1), (1, -1),
}

OFFSETS_16 = OFFSETS_8 | {
    (2, 1), (1, 2), (-1, 2), (-2, 1),
    (-2, -1), (-1, -2), (1, -2), (2, -1),
}

OFFSETS_32 = OFFSETS_16 | {
    (3, 1), (3, 2), (2, 3), (1, 3),
    (-1, 3), (-2, 3), (-3, 2), (-3, 1),
    (-3, -1), (-3, -2), (-2, -3), (-1, -3),
    (1, -3), (2, -3), (3, -2), (3, -1),
}


def segment_cells_exact(a: tuple[int, int], b: tuple[int, int]) -> set[tuple[int, int]]:
    """Cells whose closed unit square meets the closed segment a-b, exactly.

    Clips the segment against each candidate square with Fraction arithmetic
    (Liang-Barsky), so corner grazing is decided without rounding.
    """
    (x1, y1), (x2, y2) = a, b
    lo_x, hi_x = min(x1, x2), max(x1, x2)
    lo_y, hi_y = min(y1, y2), max(y1, y2)
    dx, dy = x2 - x1, y2 - y1
    half = Fraction(1, 2)
    hit: set[tuple[int, int]] = set()
    for cx in range(lo_x - 1, hi_x + 2):
        for cy in range(lo_y - 1, hi_y + 2):
            t_lo, t_hi = Fraction(0), Fraction(1)
            ok = True
            for delta, start, low, high in (
                (dx, x1, cx - half, cx + half),
                (dy, y1, cy - half, cy + half),
            ):
                if delta == 0:
                    if not (low <= start <= high):
                        ok = False
                        break
                    continue
                ta = Fraction(low - start, delta)
                tb = Fraction(high - start, delta)
                if ta > tb:
                    ta, tb = tb, ta
                t_lo = max(t_lo, ta)
                t_hi = min(t_hi, tb)
            if ok and t_lo <= t_hi:
                hit.add((cx, cy))
    return hit


def admissible_grid_edges(passable: dict[tuple[int, int], bool], offsets) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered admissible moves on a grid, by exhaustive supercover checks."""
    edges = set()
    for cell, open_ in passable.items():
        if not open_:
            continue
        for off in offsets:
            tgt = (cell[0] + off[0], cell[1] + off[1])
            if not passable.get(tgt, False):
                continue
            if all(passable.get(c, False) for c in segment_cells_exact(cell, tgt)):
                edges.add((min(cell, tgt), max(cell, tgt)))
    return edges


def largest_component_flood(grid) -> list[tuple[int, int]]:
    """Cells of the largest 4-connected region; on a tie the first one a row-major scan meets."""
    seen: set[tuple[int, int]] = set()
    best: list[tuple[int, int]] = []
    for y in range(grid.height):
        for x in range(grid.width):
            if not grid.is_passable(x, y) or (x, y) in seen:
                continue
            comp = [(x, y)]
            seen.add((x, y))
            queue = [(x, y)]
            while queue:
                cx, cy = queue.pop()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if grid.is_passable(nx, ny) and (nx, ny) not in seen:
                        seen.add((nx, ny))
                        comp.append((nx, ny))
                        queue.append((nx, ny))
            if len(comp) > len(best):
                best = comp
    return best


# ---------------------------------------------------------------------------
# textbook shortest paths, independent of the package's dijkstra

def bellman_ford(n: int, edges, source: int) -> list[float]:
    """Distances from source over undirected weighted edges; O(V E) relaxation."""
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def discretization_error_loop(g, s: float, paths) -> float:
    """C(s) one traversal at a time: |w - round_half_away(w / s) * s| added in path order."""
    total = 0.0
    for path in paths:
        for u, v in zip(path, path[1:]):
            if u != v:
                w = g.weight(u, v)
                total += abs(w - math.floor(w / s + 0.5) * s)
    return total


# ---------------------------------------------------------------------------
# constraint semantics, re-derived: replay and time-expanded optimum

def binding(constraints: ConstraintSet, agent: int):
    """What of a constraint set binds one agent: own vertex bans as (v, t), own edge bans, every positive."""
    return (
        frozenset((v, t) for a, v, t in constraints.neg_vertex if a == agent),
        frozenset((e, span) for a, e, span in constraints.neg_edge if a == agent),
        constraints.pos_vertex,
    )


def _agent_tables(constraints: ConstraintSet, agent: int):
    banned: set[tuple[int, int]] = set()
    for a, v, t in constraints.neg_vertex:
        if a == agent:
            banned.add((v, t))
    pins: set[tuple[int, int]] = set()
    for a, v, t in constraints.pos_vertex:
        if a == agent:
            pins.add((t, v))
        else:
            banned.add((v, t))
    waypoints = dict(sorted(pins))
    contradictory = len(waypoints) != len(pins)  # one time, two different vertices
    spans: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, e, span in constraints.neg_edge:
        if a == agent:
            spans.setdefault(e, []).append(span)
    return banned, waypoints, spans, contradictory


def _edge_blocked(spans, u: int, v: int, d: int, w: int) -> bool:
    # open intervals (d, d+w) and (t1, t2) intersect iff max of lows < min of highs
    return any(max(d, t1) < min(d + w, t2) for t1, t2 in spans.get((u, v), ()))


def time_expanded_optimum(
    graph: IntGraph,
    start: int,
    goal: int,
    constraints: ConstraintSet,
    agent: int,
    horizon: int,
) -> int | None:
    """Earliest feasible arrival at goal, by brute force over (vertex, time).

    Explores every wait/move transition layer by layer up to the horizon,
    applying the constraint semantics directly: a vertex ban hits any step the
    agent sits there, an edge ban hits any departure whose open traversal span
    intersects the banned span, and a waypoint pins the agent's position at
    one time (mid-edge never satisfies it).  Completion additionally needs the
    goal free of bans forever after and every later waypoint at the goal.
    """
    banned, waypoints, spans, contradictory = _agent_tables(constraints, agent)
    if contradictory:
        return None
    if (start, 0) in banned or waypoints.get(0, start) != start:
        return None
    layers: list[set[int]] = [set() for _ in range(horizon + 1)]
    layers[0].add(start)
    max_ban = max((t for _, t in banned), default=-1)
    for t in range(horizon + 1):
        for v in layers[t]:
            if v == goal:
                later_bans = any(bv == goal and bt > t for bv, bt in banned)
                later_wps = all(wv == goal for wt, wv in waypoints.items() if wt > t)
                if not later_bans and later_wps:
                    return t
            if t == horizon:
                continue
            if (v, t + 1) not in banned and waypoints.get(t + 1, v) == v:
                layers[t + 1].add(v)
            for u, w in graph.adjacency[v]:
                ta = t + w
                if ta > horizon or (u, ta) in banned:
                    continue
                if _edge_blocked(spans, v, u, t, w):
                    continue
                if any(t < wt < ta for wt in waypoints):
                    continue
                if waypoints.get(ta, u) != u:
                    continue
                layers[ta].add(u)
    return None


def replay_violations(
    graph: IntGraph,
    plan: TimedPlan,
    constraints: ConstraintSet,
    agent: int,
) -> list[str]:
    """Every constraint the plan breaks, by literal replay of its occupancy."""
    banned, waypoints, spans, contradictory = _agent_tables(constraints, agent)
    assert not contradictory, "replay expects satisfiable waypoint times"
    out: list[str] = []
    occupied: dict[int, int] = {}
    steps = plan.steps
    for (u, ta), (v, tb) in zip(steps, steps[1:]):
        if u == v:
            for t in range(ta, tb + 1):
                occupied[t] = u
        else:
            occupied[ta] = u
            occupied[tb] = v
            if _edge_blocked(spans, u, v, ta, graph.weight(u, v)):
                out.append(f"edge ({u},{v}) departing {ta}")
    end_v, end_t = steps[-1]
    occupied[steps[0][1]] = steps[0][0]
    horizon = max([end_t] + [t for _, t in banned] + list(waypoints))
    for t in range(end_t, horizon + 1):
        occupied[t] = end_v
    for v, t in sorted(banned):
        if occupied.get(t) == v:
            out.append(f"vertex {v} at {t}")
    for t, v in sorted(waypoints.items()):
        if occupied.get(t) != v:
            out.append(f"waypoint {v} at {t} missed")
    return out


# ---------------------------------------------------------------------------
# conflict detection over literal plan occupancy

def vertex_of(plan: TimedPlan, t: int) -> int | None:
    """Vertex occupied at t under the shared occupancy model, None mid-edge."""
    steps = plan.steps
    if t >= steps[-1][1]:
        return steps[-1][0]
    for (u, ta), (v, tb) in zip(steps, steps[1:]):
        if t == ta:
            return u
        if ta < t < tb:
            return u if u == v else None
        if t == tb:
            return v
    return None


def traversal_at(plan: TimedPlan, t: int):
    """The traversal active at step t (departure step included), or None."""
    for (u, ta), (v, tb) in zip(plan.steps, plan.steps[1:]):
        if u != v and ta <= t < tb:
            return (u, v, ta, tb)
    return None


def _overlap_def2(ti: int, tie: int, tj: int, tje: int) -> bool:
    # the ordered overlap predicate, plus its mirror so nesting either way counts
    forward = (ti < tje <= tie) or (ti <= tj < tie)
    backward = (tj < tie <= tje) or (tj <= ti < tje)
    return forward or backward


def first_conflicts(plans, t_max: int) -> list[tuple]:
    """Earliest conflict per pair via per-timestep occupancy scanning.

    Returns tuples ('vertex', (i, j), t, v) and ('edge', (i, j), t, trav_i,
    trav_j), sorted by (time, agents).  Vertex conflicts win at equal steps.
    """
    found = []
    n = len(plans)
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(t_max + 1):
                vi, vj = vertex_of(plans[i], t), vertex_of(plans[j], t)
                if vi is not None and vi == vj:
                    found.append(("vertex", (i, j), t, vi))
                    break
                a, b = traversal_at(plans[i], t), traversal_at(plans[j], t)
                if a is not None and b is not None and a[0] == b[1] and a[1] == b[0]:
                    assert _overlap_def2(a[2], a[3], b[2], b[3])
                    found.append(("edge", (i, j), t, a, b))
                    break
    found.sort(key=lambda c: (c[2], c[1]))
    return found


# ---------------------------------------------------------------------------
# joint-state brute force: optimal makespan for tiny instances

def joint_optimal_makespan(graph: IntGraph, starts, goals, horizon: int) -> int | None:
    """Minimum makespan by BFS over the product of per-agent states.

    A per-agent state is either ('v', pos) or ('e', orig, dest, remaining);
    transition conflicts are filtered exactly as the occupancy model demands:
    no two agents on one vertex at the new step, and no two traversals of one
    edge in opposite directions active at the same step (a traversal is active
    from its departure step until the step before arrival).  Transitions do
    not depend on absolute time, so plain BFS reaches every joint state at its
    earliest layer.
    """
    n = len(starts)
    init = tuple(("v", s) for s in starts)
    target = tuple(("v", g) for g in goals)
    if init == target:
        return 0
    seen = {init}
    frontier = [init]
    for t in range(1, horizon + 1):
        nxt: list[tuple] = []
        for state in frontier:
            per_agent = []
            for st in state:
                moves = []
                if st[0] == "v":
                    pos = st[1]
                    moves.append((("v", pos), pos, None))  # wait
                    for u, w in graph.adjacency[pos]:
                        if w == 1:
                            moves.append((("v", u), u, (pos, u)))
                        else:
                            moves.append((("e", pos, u, w - 1), None, (pos, u)))
                else:
                    _, orig, dest, rem = st
                    if rem == 1:
                        moves.append((("v", dest), dest, (orig, dest)))
                    else:
                        moves.append((("e", orig, dest, rem - 1), None, (orig, dest)))
                per_agent.append(moves)
            for combo in itertools.product(*per_agent):
                occ = [v for _, v, _ in combo if v is not None]
                if len(set(occ)) != len(occ):
                    continue
                active = [e for _, _, e in combo if e is not None]
                if any(
                    (b, a) in active[i + 1 :]
                    for i, (a, b) in enumerate(active)
                ):
                    continue
                child = tuple(s for s, _, _ in combo)
                if child in seen:
                    continue
                if child == target:
                    return t
                seen.add(child)
                nxt.append(child)
        frontier = nxt
        if not frontier:
            return None
    return None


# ---------------------------------------------------------------------------
# multi-objective helpers

def pareto_fronts_peel(objs: np.ndarray) -> list[list[int]]:
    """Non-dominated fronts by repeated O(n^2) peeling of the minima."""
    objs = np.asarray(objs, dtype=float)
    remaining = list(range(len(objs)))
    fronts: list[list[int]] = []
    while remaining:
        front = []
        for p in remaining:
            dominated = any(
                q != p
                and bool(np.all(objs[q] <= objs[p]))
                and bool(np.any(objs[q] < objs[p]))
                for q in remaining
            )
            if not dominated:
                front.append(p)
        fronts.append(sorted(front))
        remaining = [p for p in remaining if p not in front]
    return fronts


def grid_front_gap(objective, lo: float, hi: float, rows, m: int = 10001) -> float:
    """Additive epsilon-indicator of rows against the objective sampled on a grid.

    objective maps an (m,) array of decision values to an (m, 2) array to
    minimize, as nsga2_evolve's objective does; it is evaluated at m evenly
    spaced points of [lo, hi].  A grid point g still dominates row r moved by
    eps in both objectives while eps <= min(r - g), so the gap is the largest
    min(r - g) over grid points and rows, and 0 when no grid point dominates
    any row.  Finite values only.
    """
    grid = np.asarray(objective(np.linspace(lo, hi, m)), dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    shift = np.minimum(rows[:, None, 0] - grid[None, :, 0], rows[:, None, 1] - grid[None, :, 1])
    return max(0.0, float(shift.max()))


# ---------------------------------------------------------------------------
# Gaussian process posterior from first principles

def gp_direct(xs, ys, query, ell: float, sf2: float, sn2: float, bounds):
    """Posterior mean and latent std at query points, by plain linear algebra.

    Normalizes inputs to the given bounds and standardizes the log-shifted
    targets exactly like the fitted surrogate, then evaluates the textbook
    expressions with a dense solve (no Cholesky reuse).
    """
    lo, hi = bounds
    span = (hi - lo) if hi > lo else 1.0
    x = (np.asarray(xs, dtype=float) - lo) / span
    y_raw = np.log(np.asarray(ys, dtype=float) + 1e-3)
    mu, sd = y_raw.mean(), y_raw.std()
    if sd == 0.0:
        sd = 1.0
    y = (y_raw - mu) / sd
    q = (np.atleast_1d(np.asarray(query, dtype=float)) - lo) / span
    K = sf2 * np.exp(-0.5 * ((x[:, None] - x[None, :]) / ell) ** 2)
    K += max(sn2, 1e-8) * np.eye(len(x))
    kq = sf2 * np.exp(-0.5 * ((q[:, None] - x[None, :]) / ell) ** 2)
    mean = kq @ np.linalg.solve(K, y)
    var = sf2 - np.sum(kq * np.linalg.solve(K, kq.T).T, axis=1)
    return mean, np.sqrt(np.maximum(var, 0.0))
