"""Weighted graphs for multi-agent pathfinding on grids and roadmaps.

A grid map becomes an undirected graph whose vertices are the passable cells
and whose edges come from a 2^k neighborhood (8, 16, or 32 moves for k in
{3, 4, 5}).  A move is admissible when every cell overlapped by the straight
segment between the two cell centers is passable; its weight is the Euclidean
length of the offset.  Real-weighted graphs are discretized to integer weights
by a scale factor s, and the rounding error accumulated along a set of paths
measures how much a discretization distorts those paths.

A graph is a layout plus a weight list.  The layout is everything the edge
set fixes (sorted edge keys, adjacency slots, CSR index arrays, largest
degree); a RealGraph builds it once, and every discretize(g, s) shares it,
so trying many scales re-validates, sorts and indexes nothing: only the
weights are rounded, in one array operation per scale.
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


class _Layout:
    """Everything an edge set fixes, whatever its weights.

    keys lists the edges as (u, v) with u < v, sorted (us and vs are its two
    columns).  Slots are the adjacency in order: vertex x owns the slots
    spans[x], its neighbors below x, then those above it, each run ascending
    (so sorted by id); slot i reaches slot_nbr[i] over edge keys[slot_edge[i]].
    indptr and indices are the per-vertex slot offsets and slot_nbr as arrays,
    the index arrays of the graph's CSR.  Built once per edge set and never
    written to afterwards.
    """

    def __init__(self, n: int, keys: list[tuple[int, int]]):
        m = len(keys)
        self.keys = keys
        self.us, self.vs = (list(col) for col in zip(*keys)) if keys else ([], [])
        index = np.int32 if max(n, 2 * m) < 2**31 else np.int64
        # one slot per edge end: slot k < m is edge k seen from u, slot m + k from v
        ends = np.array(self.us + self.vs, dtype=index)
        far = np.array(self.vs + self.us, dtype=index)
        order = np.lexsort((far, ends))  # by vertex, then by neighbor
        self.indices = far[order]
        self.slot_edge_array = order % max(m, 1)
        degree = np.bincount(ends, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(degree)]).astype(index)
        self.slot_nbr = self.indices.tolist()
        self.slot_edge = self.slot_edge_array.tolist()
        offsets = self.indptr.tolist()
        self.spans = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
        self.max_degree = int(degree.max()) if n else 1
        for arr in (self.indptr, self.indices, self.slot_edge_array):
            arr.flags.writeable = False


class _BaseGraph:
    """Shared storage and validation for real- and integer-weighted graphs.

    Vertices must have ids 0..n-1 in order.  Edges are undirected, stored once
    with u < v, and exposed through a per-vertex adjacency list sorted by
    neighbor id.  A graph is one _Layout (what its edge set fixes: the sorted
    keys, the adjacency slots, the CSR index arrays, max_degree) plus one
    weight per key.  The constructor validates the edges and builds the
    layout; discretize builds its IntGraph on the real graph's layout, so
    every discretization of a graph shares it.  adjacency is assembled from
    the two at once.  Instances are treated as immutable after construction,
    so the rest (edges, the weight lookup, csr) is assembled once, on first
    use; a solve reads only adjacency, max_degree, max_weight and csr.
    """

    def __init__(self, vertices: Sequence[Vertex], edges: Iterable[tuple[int, int, float]]):
        vertices = tuple(vertices)
        for idx, v in enumerate(vertices):
            if v.id != idx:
                raise ValueError(f"vertex ids must be 0..n-1 in order, found id {v.id} at index {idx}")
        n = len(vertices)
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
        keys = sorted(canon)
        self._assemble(vertices, _Layout(n, keys), [canon[k] for k in keys])

    @classmethod
    def _on_layout(cls, vertices: tuple[Vertex, ...], layout: _Layout, weights: list, weight_array: np.ndarray):
        """A graph on an already validated layout: weights[i] (== weight_array[i]) on edge layout.keys[i]."""
        graph = cls.__new__(cls)
        graph._assemble(vertices, layout, weights)
        graph._weight_array = weight_array
        return graph

    def _assemble(self, vertices: tuple[Vertex, ...], layout: _Layout, weights: list) -> None:
        self.vertices: tuple[Vertex, ...] = vertices
        self._layout = layout
        self._weights = weights
        slots = list(zip(layout.slot_nbr, map(weights.__getitem__, layout.slot_edge)))
        self.adjacency: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            map(tuple, map(slots.__getitem__, layout.spans))
        )

    def _check_weight(self, u: int, v: int, w: float) -> None:
        raise NotImplementedError

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge once as (u, v, w) with u < v, sorted by (u, v)."""
        layout = self._layout
        return tuple(zip(layout.us, layout.vs, self._weights))

    @cached_property
    def _weight(self) -> dict[tuple[int, int], float]:
        """Weight by (u, v) key, u < v."""
        return dict(zip(self._layout.keys, self._weights))

    @cached_property
    def max_weight(self) -> float:
        """Largest edge weight (1 for a graph without edges)."""
        return max(self._weights, default=1)

    @property
    def max_degree(self) -> int:
        """Largest number of neighbors of any vertex (0 without edges, 1 without vertices)."""
        return self._layout.max_degree

    @cached_property
    def _weight_array(self) -> np.ndarray:
        """The weights as float64, one per layout key (read-only)."""
        arr = np.array(self._weights, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def csr(self) -> csr_matrix:
        """The adjacency as an n x n sparse matrix: both directions, float64 weights.

        Its rows follow the adjacency (column indices sorted), so it is the
        layout's indptr and indices with each slot's weight; the two index
        arrays are copied, so no two graphs' matrices share writable memory.
        """
        layout = self._layout
        data = self._weight_array[layout.slot_edge_array]
        return csr_matrix((data, layout.indices.copy(), layout.indptr.copy()), shape=(self.n, self.n))

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
    if scales.size:
        lo, hi = float(scales.min()), float(scales.max())
        # min and max carry a NaN through, and a NaN fails both comparisons
        if not (lo > 0 and hi < math.inf):
            raise ValueError(f"scale s must be a positive finite real, got {s!r}")
        # w / s grows with w and falls with s: the largest weight at the smallest scale overflows first
        if g.edges and not math.isfinite(float(g.max_weight) / lo):
            raise ValueError(f"scale s={s!r} overflows w / s for the weight {g.max_weight!r}")
    return scales


def discretize(g: RealGraph, s: float) -> IntGraph:
    """Map real weights to integers: w -> max(1, round(w / s)), halves away from zero.

    Vertices, positions, and the edge set are preserved, so connectivity never
    changes; only weights do.  The result is built on g's layout (nothing
    about the edge set is checked or sorted again), so every discretization
    of g shares it.  s is one scale, a value of ndim 0 (ValueError for an
    array of any other shape).  s must be positive and finite, and w / s
    finite for every weight w (ValueError otherwise).
    """
    if np.ndim(s) != 0:
        raise ValueError(f"discretize takes one scale, got an array of shape {np.shape(s)}")
    scale = _checked_scales(g, s)
    # the IEEE divide, add and floor of round_half_away, over all weights at once;
    # int() keeps weights past 2**63 exact
    ticks = np.maximum(np.floor(g._weight_array / scale + 0.5), 1.0)
    ticks.flags.writeable = False
    return IntGraph._on_layout(g.vertices, g._layout, list(map(int, ticks.tolist())), ticks)


def discretization_error(g: RealGraph, s, paths: Iterable[Sequence[int]]):
    """Total rounding distortion of a discretization over a set of paths.

    For every consecutive traversal (u, v) in every path, accumulates
    |w - round(w / s) * s| with the unclamped round, where w is the real
    weight.  Repeated traversals of an edge count once per traversal.  Raises
    if a path uses a pair with no edge, naming the first such hop as it was
    traversed.

    s is one scale (the result is a float) or an array of scales (the result
    is an array of the same shape, one total per scale).  Each total is summed
    over the traversals in path order, starting from 0.0, so it is bit for bit
    the total of a scalar loop over the traversals at that scale.  Scales are
    checked as discretize checks them.
    """
    scales = _checked_scales(g, s)
    paths = list(paths)
    hops = [(u, v) if u < v else (v, u) for path in paths for u, v in zip(path, path[1:]) if u != v]
    try:
        ws = list(map(g._weight.__getitem__, hops))
    except KeyError:
        u, v = next((u, v) for path in paths for u, v in zip(path, path[1:]) if u != v and not g.has_edge(u, v))
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
