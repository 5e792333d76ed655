"""Weighted graphs for multi-agent pathfinding on grids and roadmaps.

A grid map becomes an undirected graph whose vertices are the passable cells
and whose edges come from a 2^k neighborhood (8, 16, or 32 moves for k in
{3, 4, 5}).  A move is admissible when every cell overlapped by the straight
segment between the two cell centers is passable; its weight is the Euclidean
length of the offset.  Real-weighted graphs are discretized to integer weights
by a scale factor s, and the rounding error accumulated along a set of paths
measures how much a discretization distorts those paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

__all__ = [
    "Vertex",
    "RealGraph",
    "IntGraph",
    "GridSpec",
    "neighborhood_moves",
    "segment_cells",
    "cell_vertex_ids",
    "build_grid_graph",
    "discretize",
    "discretization_error",
    "round_half_away",
    "dijkstra",
    "shortest_path",
]


@dataclass(frozen=True)
class Vertex:
    """Graph vertex with an integer id and a 2-D position."""

    id: int
    pos: tuple[float, float]


class _BaseGraph:
    """Shared storage and validation for real- and integer-weighted graphs.

    Vertices must have ids 0..n-1 in order.  Edges are undirected, stored once
    with u < v, and exposed through a per-vertex adjacency list sorted by
    neighbor id.  Instances are treated as immutable after construction, so
    what is derived from the edges is computed once, on first use.
    """

    def __init__(self, vertices: Sequence[Vertex], edges: Iterable[tuple[int, int, float]]):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        for idx, v in enumerate(self.vertices):
            if v.id != idx:
                raise ValueError(f"vertex ids must be 0..n-1 in order, found id {v.id} at index {idx}")
        n = len(self.vertices)
        canon: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            self._check_weight(u, v, w)
            key = (u, v) if u < v else (v, u)
            if key in canon and canon[key] != w:
                raise ValueError(f"edge {key} listed twice with different weights")
            canon[key] = w
        self._weight = canon
        self.edges: tuple[tuple[int, int, float], ...] = tuple((u, v, canon[(u, v)]) for u, v in sorted(canon))
        # edges run in (u, v) order with u < v, so each vertex x first gets its
        # neighbors below x, then those above it, each run ascending
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adjacency: tuple[tuple[tuple[int, float], ...], ...] = tuple(map(tuple, adj))

    def _check_weight(self, u: int, v: int, w: float) -> None:
        raise NotImplementedError

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def max_weight(self) -> float:
        """Largest edge weight (1 for a graph without edges)."""
        return max((w for _, _, w in self.edges), default=1)

    @cached_property
    def max_degree(self) -> int:
        """Largest number of neighbors of any vertex (1 for a graph without edges)."""
        return max((len(nbrs) for nbrs in self.adjacency), default=1)

    @cached_property
    def csr(self) -> csr_matrix:
        """The adjacency as an n x n sparse matrix: both directions, float64 weights."""
        u = np.array([e[0] for e in self.edges], dtype=np.int64)
        v = np.array([e[1] for e in self.edges], dtype=np.int64)
        w = np.array([e[2] for e in self.edges], dtype=np.float64)
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(self.n, self.n))

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._weight

    def weight(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self._weight[key]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.n}, m={len(self.edges)})"


class RealGraph(_BaseGraph):
    """Undirected graph with strictly positive, finite real edge weights."""

    def _check_weight(self, u: int, v: int, w: float) -> None:
        if not (w > 0 and math.isfinite(w)):
            raise ValueError(f"edge ({u},{v}) weight {w!r} is not a positive finite real")


class IntGraph(_BaseGraph):
    """Undirected graph whose edge weights are integers >= 1."""

    def _check_weight(self, u: int, v: int, w: float) -> None:
        if not (isinstance(w, int) and w >= 1):
            raise ValueError(f"edge ({u},{v}) weight {w!r} is not an integer >= 1")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid map: passability per cell, row-major (y * width + x)."""

    width: int
    height: int
    passable: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"grid dimensions {self.width}x{self.height} must be positive")
        if len(self.passable) != self.width * self.height:
            raise ValueError(
                f"passable has {len(self.passable)} entries, expected {self.width * self.height}"
            )

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_passable(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and self.passable[y * self.width + x]


def neighborhood_moves(k: int) -> list[tuple[int, int]]:
    """Return the 2^k move offsets for k in {3, 4, 5}, in circular order.

    The 2^(k+1) set is built from the 2^k set by inserting the vector sum of
    every pair of circularly adjacent moves, starting from the four cardinal
    moves.  All offsets are primitive (coprime components), so each move
    crosses a fresh set of cells.
    """
    if k not in (3, 4, 5):
        raise ValueError(f"neighborhood exponent k must be 3, 4, or 5, got {k}")
    moves = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(k - 2):
        grown: list[tuple[int, int]] = []
        for a, b in zip(moves, moves[1:] + moves[:1]):
            grown.append(a)
            grown.append((a[0] + b[0], a[1] + b[1]))
        moves = grown
    return moves


def segment_cells(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    """All cells overlapped by the closed segment between the centers of a and b.

    Cells are closed unit squares, so a segment through a cell corner counts
    all four incident cells.  The test is the separating-axis theorem, exact
    in integers.  On the x and y axes the projections overlap exactly for the
    cells of the segment's bounding box (centers and endpoints are integers).
    On the segment's normal (dy, -dx) they overlap exactly when
    2 * |dx * (y - y1) - dy * (x - x1)| <= |dx| + |dy|.  The result lists the
    box's overlapped cells in (x, y) order.  The cost is the box's area: at
    most 12 cells for the moves build_grid_graph passes.
    """
    (x1, y1), (x2, y2) = a, b
    dx, dy = x2 - x1, y2 - y1
    reach = abs(dx) + abs(dy)
    return [
        (x, y)
        for x in range(min(x1, x2), max(x1, x2) + 1)
        for y in range(min(y1, y2), max(y1, y2) + 1)
        if 2 * abs(dx * (y - y1) - dy * (x - x1)) <= reach
    ]


def cell_vertex_ids(grid: GridSpec) -> dict[tuple[int, int], int]:
    """Map each passable (x, y) cell to its vertex id (row-major rank)."""
    ids: dict[tuple[int, int], int] = {}
    for y in range(grid.height):
        for x in range(grid.width):
            if grid.passable[y * grid.width + x]:
                ids[(x, y)] = len(ids)
    return ids


def build_grid_graph(grid: GridSpec, k: int) -> RealGraph:
    """Build the 2^k-neighborhood graph over the passable cells of a grid.

    Vertex ids follow row-major order of the passable cells, and each vertex
    position is its (x, y) cell coordinate.  An edge exists when the target
    cell is passable and every cell crossed by the move segment is passable;
    the weight is the Euclidean offset length.  The move set is closed under
    negation, so the result is symmetric without further checks.
    """
    moves = neighborhood_moves(k)
    crossed = {m: tuple(segment_cells((0, 0), m)) for m in moves}
    cell_id = cell_vertex_ids(grid)
    vertices = [Vertex(i, (float(x), float(y))) for (x, y), i in cell_id.items()]
    edges: list[tuple[int, int, float]] = []
    for (x, y), u in cell_id.items():
        for mx, my in moves:
            tx, ty = x + mx, y + my
            v = cell_id.get((tx, ty))
            if v is None or v <= u:
                continue
            if all(grid.is_passable(x + cx, y + cy) for cx, cy in crossed[(mx, my)]):
                edges.append((u, v, math.hypot(mx, my)))
    return RealGraph(vertices, edges)


def round_half_away(x: float) -> int:
    """Round a non-negative value to the nearest integer, halves away from zero."""
    if x < 0:
        raise ValueError(f"expected a non-negative value, got {x}")
    return int(math.floor(x + 0.5))


def _checked_scales(g: RealGraph, s) -> np.ndarray:
    """s as a float array; ValueError unless every scale and every w / s is positive and finite."""
    scales = np.asarray(s, dtype=float)
    if not np.all((scales > 0) & np.isfinite(scales)):
        raise ValueError(f"scale s must be a positive finite real, got {s!r}")
    with np.errstate(over="ignore"):
        # w / s grows with w, so the largest weight overflows first
        if g.edges and not np.all(np.isfinite(g.max_weight / scales)):
            raise ValueError(f"scale s={s!r} overflows w / s for the weight {g.max_weight!r}")
    return scales


def discretize(g: RealGraph, s: float) -> IntGraph:
    """Map real weights to integers: w -> max(1, round(w / s)), halves away from zero.

    Vertices, positions, and the edge set are preserved, so connectivity never
    changes; only weights do.  s must be positive and finite, and w / s
    finite for every weight w (ValueError otherwise).
    """
    _checked_scales(g, s)
    edges = [(u, v, max(1, round_half_away(w / s))) for u, v, w in g.edges]
    return IntGraph(g.vertices, edges)


def discretization_error(g: RealGraph, s, paths: Iterable[Sequence[int]]):
    """Total rounding distortion of a discretization over a set of paths.

    For every consecutive traversal (u, v) in every path, accumulates
    |w - round(w / s) * s| with the unclamped round, where w is the real
    weight.  Repeated traversals of an edge count once per traversal.  Raises
    if a path uses a pair with no edge.

    s is one scale (the result is a float) or an array of scales (the result
    is an array of the same shape, one total per scale).  Each total is summed
    over the traversals in path order, starting from 0.0, so it is bit for bit
    the total of a scalar loop over the traversals at that scale.  Scales are
    checked as discretize checks them.
    """
    scales = _checked_scales(g, s)
    weight = g._weight
    ws = []
    for path in paths:
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            try:
                ws.append(weight[(u, v) if u < v else (v, u)])
            except KeyError:
                raise ValueError(f"no edge between {u} and {v}") from None
    if not ws:
        return 0.0 if scales.ndim == 0 else np.zeros(scales.shape)
    S = scales.reshape(1, -1)
    W = np.array(ws, dtype=float).reshape(-1, 1)
    # floor(W / S + 0.5) is round_half_away for W / S > 0.  accumulate adds the
    # rows strictly in path order, as the scalar loop does; np.sum promises no
    # order (along a contiguous axis it sums pairwise, which moves the last bits).
    totals = np.add.accumulate(np.abs(W - np.floor(W / S + 0.5) * S), axis=0)[-1]
    return float(totals[0]) if scales.ndim == 0 else totals.reshape(scales.shape)


def dijkstra(graph: _BaseGraph, source: int | Sequence[int]) -> list[float] | list[list[float]]:
    """Shortest-path distances from source to every vertex (math.inf if unreachable).

    source is one vertex (the result is one list of distances) or a sequence
    of vertices (the result is a list of such lists, one per source, in order;
    an empty sequence gives []).  Either way it is one
    scipy.sparse.csgraph.dijkstra run over graph.csr, and each source's list
    is the one a single-source call returns.  Each distance is the minimum
    over the same dist[u] + w sums a textbook Dijkstra forms, so a RealGraph
    gets those floats exactly.  An IntGraph gets Python ints, exact while
    every distance stays below 2**53 (ValueError past that).  A source out of
    range raises ValueError.
    """
    single = np.ndim(source) == 0
    sources = [source] if single else list(source)
    for src in sources:
        if not (0 <= src < graph.n):
            raise ValueError(f"source {src} out of range for {graph.n} vertices")
    if not sources:
        return []
    dist = _csgraph_dijkstra(graph.csr, indices=sources)
    if not isinstance(graph, IntGraph):
        out = dist.tolist()
    else:
        reachable = np.isfinite(dist)
        finite = np.where(reachable, dist, 0.0)
        past = np.flatnonzero(finite.max(axis=1) >= 2.0**53)
        if len(past):
            raise ValueError(f"distances from {sources[past[0]]} reach 2**53, past exact float64 integers")
        out = finite.astype(np.int64).tolist()
        for row, v in np.argwhere(~reachable).tolist():
            out[row][v] = math.inf
    return out[0] if single else out


def shortest_path(graph: _BaseGraph, source: int, target: int) -> list[int] | None:
    """One shortest path as a vertex sequence, or None if target is unreachable.

    Ties break toward smaller predecessor ids, so the result is deterministic.
    """
    if not (0 <= target < graph.n):
        raise ValueError(f"target {target} out of range for {graph.n} vertices")
    dist = dijkstra(graph, source)
    if dist[target] == math.inf:
        return None
    path = [target]
    while path[-1] != source:
        v = path[-1]
        # the adjacency is sorted by id, so this is the smallest predecessor
        path.append(next(u for u, w in graph.adjacency[v] if dist[u] + w == dist[v]))
    path.reverse()
    return path
