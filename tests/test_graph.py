"""Grid geometry, discretization, and shortest-path tests."""

import math
import warnings

import numpy as np
import pytest

from intmapf import (
    GridSpec,
    IntGraph,
    RealGraph,
    Vertex,
    build_grid_graph,
    cell_vertex_ids,
    dijkstra,
    discretization_error,
    discretize,
    neighborhood_moves,
    round_half_away,
    segment_cells,
    shortest_path,
)

import oracles


# ---------------------------------------------------------------------------
# neighborhoods

def test_move_sets_match_hand_listed_offsets():
    assert set(neighborhood_moves(3)) == oracles.OFFSETS_8
    assert set(neighborhood_moves(4)) == oracles.OFFSETS_16
    assert set(neighborhood_moves(5)) == oracles.OFFSETS_32


def test_move_sets_sizes_and_primitivity():
    for k in (3, 4, 5):
        moves = neighborhood_moves(k)
        assert len(moves) == 2**k
        assert len(set(moves)) == 2**k
        for mx, my in moves:
            assert math.gcd(abs(mx), abs(my)) == 1
        # closed under negation, so grid graphs come out symmetric for free
        assert {(-mx, -my) for mx, my in moves} == set(moves)


def test_move_set_is_circularly_ordered():
    for k in (3, 4, 5):
        moves = neighborhood_moves(k)
        angles = [math.atan2(my, mx) % (2 * math.pi) for mx, my in moves]
        start = angles.index(min(angles))
        rotated = angles[start:] + angles[:start]
        assert rotated == sorted(rotated)


def test_neighborhood_moves_rejects_bad_exponent():
    for k in (2, 6, 0):
        with pytest.raises(ValueError):
            neighborhood_moves(k)


# ---------------------------------------------------------------------------
# segment-cell overlap

def test_segment_cells_axis_and_diagonal():
    assert segment_cells((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    # exact corner crossing picks up both side cells
    assert set(segment_cells((0, 0), (1, 1))) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_segment_cells_matches_exact_geometry_small_offsets():
    # every move of a 2^k neighborhood for k <= 5, and the random test's range
    for dx in range(-8, 9):
        for dy in range(-8, 9):
            a, b = (5, 5), (5 + dx, 5 + dy)
            assert set(segment_cells(a, b)) == oracles.segment_cells_exact(a, b), (dx, dy)


def test_segment_cells_matches_exact_geometry_random_segments():
    rng = np.random.default_rng(20)
    for _ in range(80):
        a = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        b = (a[0] + int(rng.integers(-8, 9)), a[1] + int(rng.integers(-8, 9)))
        assert set(segment_cells(a, b)) == oracles.segment_cells_exact(a, b), (a, b)


def test_segment_cells_symmetric_in_endpoints():
    rng = np.random.default_rng(21)
    for _ in range(40):
        a = (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        b = (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        assert set(segment_cells(a, b)) == set(segment_cells(b, a))


# ---------------------------------------------------------------------------
# grid graphs

def _full_grid(w, h):
    return GridSpec(w, h, tuple([True] * (w * h)))


def test_two_cell_grid():
    g = build_grid_graph(_full_grid(2, 1), 3)
    assert g.n == 2
    assert g.edges == ((0, 1, 1.0),)


def test_square_grid_edge_weights():
    g = build_grid_graph(_full_grid(2, 2), 3)
    assert g.n == 4
    weights = sorted(w for _, _, w in g.edges)
    assert weights[:4] == [1.0, 1.0, 1.0, 1.0]
    assert weights[4] == weights[5] == pytest.approx(math.sqrt(2.0))


def test_center_blocked_grid_matches_enumeration_oracle():
    passable = {(x, y): (x, y) != (1, 1) for x in range(3) for y in range(3)}
    grid = GridSpec(3, 3, tuple(passable[(x, y)] for y in range(3) for x in range(3)))
    g = build_grid_graph(grid, 4)
    ids = cell_vertex_ids(grid)
    by_cell = {(min(a, b), max(a, b)) for a, b in (
        ((ids[u_cell]), (ids[v_cell]))
        for u_cell, v_cell in oracles.admissible_grid_edges(passable, oracles.OFFSETS_16)
    )}
    assert {(u, v) for u, v, _ in g.edges} == by_cell


def test_long_knight_move_blocked_by_either_crossed_cell():
    # the (2,1) move from (0,0) crosses (1,0) and (1,1)
    for blocked in ((1, 0), (1, 1)):
        passable = [(x, y) != blocked for y in range(2) for x in range(3)]
        grid = GridSpec(3, 2, tuple(passable))
        g = build_grid_graph(grid, 4)
        ids = cell_vertex_ids(grid)
        assert not g.has_edge(ids[(0, 0)], ids[(2, 1)])
    grid = GridSpec(3, 2, tuple([True] * 6))
    g = build_grid_graph(grid, 4)
    ids = cell_vertex_ids(grid)
    assert g.weight(ids[(0, 0)], ids[(2, 1)]) == pytest.approx(math.sqrt(5.0))


def test_random_grids_match_enumeration_oracle():
    rng = np.random.default_rng(22)
    for trial in range(12):
        k = int(rng.choice([3, 4, 5]))
        w, h = 6, 6
        open_cells = rng.random(w * h) > 0.25
        grid = GridSpec(w, h, tuple(bool(c) for c in open_cells))
        g = build_grid_graph(grid, k)
        passable = {(x, y): grid.is_passable(x, y) for x in range(w) for y in range(h)}
        ids = cell_vertex_ids(grid)
        offsets = {3: oracles.OFFSETS_8, 4: oracles.OFFSETS_16, 5: oracles.OFFSETS_32}[k]
        want = set()
        for a, b in oracles.admissible_grid_edges(passable, offsets):
            u, v = ids[a], ids[b]
            want.add((min(u, v), max(u, v)))
        assert {(u, v) for u, v, _ in g.edges} == want, (trial, k)
        for u, v, wgt in g.edges:
            (ux, uy), (vx, vy) = g.vertices[u].pos, g.vertices[v].pos
            assert wgt == pytest.approx(math.hypot(ux - vx, uy - vy))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 3, ())
    with pytest.raises(ValueError):
        GridSpec(2, 2, (True, True, True))


# ---------------------------------------------------------------------------
# graph containers

def _line_vertices(n):
    return [Vertex(i, (float(i), 0.0)) for i in range(n)]


def test_graph_rejects_bad_structure():
    with pytest.raises(ValueError):
        RealGraph([Vertex(1, (0.0, 0.0))], [])
    with pytest.raises(ValueError):
        RealGraph(_line_vertices(2), [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        RealGraph(_line_vertices(2), [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        RealGraph(_line_vertices(2), [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        RealGraph(_line_vertices(2), [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        IntGraph(_line_vertices(2), [(0, 1, 1.5)])
    with pytest.raises(ValueError):
        IntGraph(_line_vertices(2), [(0, 1, 0)])


def test_graph_edge_queries():
    g = RealGraph(_line_vertices(3), [(1, 0, 2.0), (1, 2, 3.0)])
    assert g.edges == ((0, 1, 2.0), (1, 2, 3.0))  # canonical u < v, sorted
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert g.weight(2, 1) == 3.0
    with pytest.raises(ValueError):
        g.weight(0, 2)
    assert g.adjacency[1] == ((0, 2.0), (2, 3.0))


def test_adjacency_sorted_by_neighbor_for_shuffled_flipped_edges():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        edges = [(v, u, 1.0 + u + v) if rng.random() < 0.5 else (u, v, 1.0 + u + v) for u, v in pairs]
        rng.shuffle(edges)
        g = RealGraph(_line_vertices(n), edges)
        for x, nbrs in enumerate(g.adjacency):
            assert [u for u, _ in nbrs] == sorted(v if u == x else u for u, v in pairs if x in (u, v)), x
            assert all(w == g.weight(x, u) for u, w in nbrs)


# ---------------------------------------------------------------------------
# discretization

def test_round_half_away_from_zero():
    assert [round_half_away(x) for x in (0.0, 0.4, 0.5, 1.5, 2.5, 2.49)] == [0, 0, 1, 2, 3, 2]
    with pytest.raises(ValueError):
        round_half_away(-0.5)


def test_discretize_identity_on_integer_weights():
    g = RealGraph(_line_vertices(4), [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    gi = discretize(g, 1.0)
    assert isinstance(gi, IntGraph)
    assert [w for _, _, w in gi.edges] == [1, 2, 3]
    assert gi.vertices == g.vertices


def test_discretize_rounds_and_clamps():
    g = RealGraph(_line_vertices(3), [(0, 1, 1.41421), (1, 2, 0.2)])
    assert [w for _, _, w in discretize(g, 0.5).edges] == [3, 1]  # round(2.82842) = 3
    assert [w for _, _, w in discretize(g, 1.0).edges] == [1, 1]  # 0.2 clamps to 1
    with pytest.raises(ValueError):
        discretize(g, 0.0)


def test_discretization_error_zero_for_exact_representation():
    g = RealGraph(_line_vertices(3), [(0, 1, 1.0), (1, 2, 2.0)])
    assert discretization_error(g, 1.0, [[0, 1, 2], [2, 1]]) == 0.0
    assert discretization_error(g, 1.0, []) == 0.0


def test_discretization_error_hand_value():
    g = RealGraph(_line_vertices(3), [(0, 1, 1.0), (1, 2, 1.41421)])
    got = discretization_error(g, 0.5, [[0, 1, 2]])
    assert got == pytest.approx(abs(1.0 - 1.0) + abs(1.41421 - 1.5), abs=1e-9)


def test_discretization_error_is_unclamped_and_per_traversal():
    g = RealGraph(_line_vertices(2), [(0, 1, 0.2)])
    # round(0.2) = 0 in the error term even though discretize clamps to 1
    assert discretization_error(g, 1.0, [[0, 1]]) == pytest.approx(0.2)
    assert discretization_error(g, 1.0, [[0, 1, 0]]) == pytest.approx(0.4)
    # wait steps (repeated vertex) contribute nothing
    assert discretization_error(g, 1.0, [[0, 0, 1, 1]]) == pytest.approx(0.2)


def _random_walks(rng, g, count, steps):
    """Walks that wait in place (u == v) about one step in five."""
    walks = []
    for _ in range(count):
        walk = [int(rng.integers(g.n))]
        for _ in range(steps):
            nbrs = g.adjacency[walk[-1]]
            stay = not nbrs or rng.random() < 0.2
            walk.append(walk[-1] if stay else nbrs[int(rng.integers(len(nbrs)))][0])
        walks.append(walk)
    return walks


def test_discretization_error_matches_reference_loop():
    reference = oracles.discretization_error_loop
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = 9
        quarters = trial % 2 == 0  # weights and scales that put w / s exactly on k + 0.5
        edges = [
            (u, v, float(rng.integers(1, 13)) * 0.25 if quarters else float(rng.uniform(0.2, 3.0)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = RealGraph(_line_vertices(n), edges)
        paths = _random_walks(rng, g, 4, 12)
        scales = (0.5, 1.0, 0.25, 2.0) if quarters else (float(rng.uniform(0.05, 2.0)),)
        for s in scales:
            assert discretization_error(g, s, paths) == reference(g, s, paths)
    g = RealGraph(_line_vertices(3), [(0, 1, 1.5), (1, 2, 2.5)])
    assert discretization_error(g, 1.0, [[0, 1, 2, 1]]) == reference(g, 1.0, [[0, 1, 2, 1]]) == 1.5


def test_discretization_error_rejects_unknown_edge():
    g = RealGraph(_line_vertices(3), [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        discretization_error(g, 1.0, [[0, 2]])


def test_discretization_error_batch_equals_scalar_loop():
    # one call over an array of scales gives, element by element, the very
    # float the traversal-by-traversal loop adds up at that scale
    rng = np.random.default_rng(47)
    for trial in range(40):
        n = int(rng.integers(6, 14))
        pts = rng.uniform(0.0, 5.0, size=(n, 2))
        quarters = trial % 4 == 0  # weights and scales that put w / s exactly on k + 0.5
        edges = [
            (u, v, float(rng.integers(1, 13)) * 0.25 if quarters else math.dist(pts[u], pts[v]))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = RealGraph([Vertex(i, (float(x), float(y))) for i, (x, y) in enumerate(pts.tolist())], edges)
        paths = _random_walks(rng, g, int(rng.integers(1, 8)), int(rng.integers(1, 30)))
        paths += [paths[0], paths[-1][::-1]]  # a repeated path and a reversed one
        scales = [0.1, 1.0] + rng.uniform(0.05, 2.0, size=int(rng.integers(0, 30))).tolist()
        if quarters:
            scales += [0.25, 0.5, 2.0]
        scales = rng.permutation(scales)

        got = discretization_error(g, scales, paths)
        assert isinstance(got, np.ndarray) and got.shape == scales.shape
        want = [oracles.discretization_error_loop(g, float(s), paths) for s in scales]
        assert got.tolist() == want
        assert [discretization_error(g, float(s), paths) for s in scales] == want
        assert np.array_equal(discretization_error(g, scales.reshape(1, -1), paths), got.reshape(1, -1))


def test_discretization_error_scalar_empty_and_invalid_scales():
    g = RealGraph(_line_vertices(3), [(0, 1, 1.5), (1, 2, 2.5)])
    for s in (1.0, 1, np.float64(1.0), np.array(1.0)):
        out = discretization_error(g, s, [[0, 1, 2, 1]])
        assert type(out) is float and out == 1.5
    one = discretization_error(g, np.array([1.0]), [[0, 1, 2, 1]])
    assert isinstance(one, np.ndarray) and one.tolist() == [1.5]
    scales = np.array([0.1, 1.0, 0.3])
    for paths in ([], [[1]], [[2, 2, 2]]):
        out = discretization_error(g, scales, paths)
        assert isinstance(out, np.ndarray) and out.shape == (3,) and out.tolist() == [0.0, 0.0, 0.0]
        out = discretization_error(g, 0.5, paths)
        assert type(out) is float and out == 0.0
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive finite"):
            discretization_error(g, np.array([0.5, bad, 1.0]), [[0, 1]])
        with pytest.raises(ValueError, match="positive finite"):
            discretization_error(g, bad, [[0, 1]])
    with pytest.raises(ValueError, match="no edge between 0 and 2"):
        discretization_error(g, scales, [[0, 1], [0, 2]])


def test_overflowing_scale_raises_the_same_value_error():
    # 2.0 / 1e-310 overflows to inf: both functions refuse it the same way,
    # with no numpy warning, for one scale and for an array holding it
    g = RealGraph(_line_vertices(3), [(0, 1, 0.5), (1, 2, 2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        messages = set()
        for call in (
            lambda: discretize(g, 1e-310),
            lambda: discretization_error(g, 1e-310, [[0, 1, 2]]),
            lambda: discretization_error(g, 1e-310, []),
            lambda: discretization_error(g, np.array([0.5, 1e-310]), [[0, 1]]),
        ):
            with pytest.raises(ValueError, match="overflows w / s") as info:
                call()
            messages.add(str(info.value).split(" overflows")[1])
        assert messages == {" w / s for the weight 2.0"}
        # a scale at which 2.0 / s stays finite still works
        assert [w for _, _, w in discretize(g, 1e-300).edges][1] == round(2.0 / 1e-300)
        assert discretization_error(g, np.array([1e-300, 0.5]), [[0, 1]]).shape == (2,)


def test_discretized_costs_scale_back_to_real_costs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = 8
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.append((u, v, float(rng.uniform(0.3, 3.0))))
        if not edges:
            continue
        g = RealGraph(_line_vertices(n), edges)
        s = float(rng.uniform(0.05, 0.5))
        gi = discretize(g, s)
        for (u, v, w), (_, _, wi) in zip(g.edges, gi.edges):
            assert abs(w - wi * s) <= 0.5 * s + 1e-12  # each weight lands within half a tick


# ---------------------------------------------------------------------------
# shortest paths

def _random_graph(rng, n, p=0.45, max_w=4.0):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.5, max_w))))
    return RealGraph(_line_vertices(n), edges)


def test_dijkstra_matches_bellman_ford():
    # each distance is the least dist[u] + w sum, as in the textbook relaxation,
    # so even real weights agree exactly; an IntGraph gets ints, and math.inf
    # for vertices outside the source's component
    rng = np.random.default_rng(24)
    int_infs = 0
    for trial in range(60):
        g = _random_graph(rng, int(rng.integers(1, 9)), p=float(rng.choice([0.0, 0.2, 0.45])))
        if trial % 2:
            g = IntGraph(g.vertices, [(u, v, int(rng.integers(1, 10))) for u, v, _ in g.edges])
        src = int(rng.integers(0, g.n))
        got = dijkstra(g, src)
        assert got == oracles.bellman_ford(g.n, g.edges, src)
        if isinstance(g, IntGraph):
            assert all(type(d) is int or d == math.inf for d in got)
            int_infs += got.count(math.inf)
        # a sequence of sources is one run giving each source's list; repr
        # tells 2 from 2.0 and keeps every bit of a float
        sources = rng.integers(0, g.n, size=int(rng.integers(1, 5))).tolist()
        assert repr(dijkstra(g, sources)) == repr([dijkstra(g, s) for s in sources])
        assert repr(dijkstra(g, tuple(sources))) == repr([dijkstra(g, s) for s in sources])
    assert int_infs > 0


def test_shortest_path_is_a_valid_optimal_path():
    rng = np.random.default_rng(25)
    for _ in range(30):
        g = _random_graph(rng, int(rng.integers(2, 9)))
        src, tgt = (int(x) for x in rng.integers(0, g.n, size=2))
        dist = oracles.bellman_ford(g.n, g.edges, src)
        path = shortest_path(g, src, tgt)
        if math.isinf(dist[tgt]):
            assert path is None
            continue
        assert path is not None and path[0] == src and path[-1] == tgt
        total = sum(g.weight(u, v) for u, v in zip(path, path[1:]))
        assert total == pytest.approx(dist[tgt])


def test_shortest_path_ties_break_toward_smaller_predecessor():
    # both ways round the unit 4-cycle cost 2; 1 < 2, so the path runs through 1
    g = IntGraph([Vertex(i, (float(i), 0.0)) for i in range(4)], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]
    assert shortest_path(g, 3, 0) == [3, 1, 0]


def test_dijkstra_refuses_int_distances_past_float64():
    g = IntGraph(_line_vertices(3), [(0, 1, 2**52), (1, 2, 2**52)])
    assert dijkstra(g, 1) == [2**52, 0, 2**52]
    with pytest.raises(ValueError):  # 0 to 2 is 2**53
        dijkstra(g, 0)
    assert dijkstra(g, [1]) == [[2**52, 0, 2**52]]
    with pytest.raises(ValueError, match="from 2 reach"):
        dijkstra(g, [1, 2])


def test_dijkstra_of_no_sources_is_empty():
    g = _random_graph(np.random.default_rng(0), 4)
    assert dijkstra(g, []) == []
    assert dijkstra(g, ()) == []


def test_dijkstra_source_out_of_range():
    g = _random_graph(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        dijkstra(g, 9)
    with pytest.raises(ValueError):
        dijkstra(g, [0, 9, 1])
    with pytest.raises(ValueError):
        shortest_path(g, -1, 0)
