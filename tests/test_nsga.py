"""Tests for the multi-objective GA kernel.

The sorting routine is checked against an O(n^2) peeling oracle on random
objective sets, including heavy ties, exact duplicates and infinities, and
must reject NaN.  The one-pass rank and crowding must give per-front
crowding_distance bit for bit on such sets, and the whole-generation
variation must pick tournament winners by the scalar rule and keep its
children in bounds.  The evolve loop gets two analytic problems: a straight
trade-off front it must spread along, and a collapsed problem whose front is
a single point it must converge to.
It must also return exactly what a loop that sorts every population afresh
returns, on objectives with trade-offs, ties and duplicates.
"""

import random

import numpy as np
import pytest

from intmapf import nsga2_evolve
from intmapf.nsga import (
    ETA_C,
    ETA_M,
    P_CROSSOVER,
    _eval_objs,
    _rank_and_crowd,
    _variation,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
)

from oracles import grid_front_gap, pareto_fronts_peel


def test_dominates_basics():
    assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert not dominates(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    assert not dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_sort_puts_duplicates_in_one_front():
    objs = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    fronts = fast_nondominated_sort(objs)
    assert [sorted(f) for f in fronts] == [[0, 1], [2]]


def test_sort_matches_peeling_oracle():
    # fronts come back in ascending index order, so no sorting before ==
    assert fast_nondominated_sort(np.empty((0, 2))) == [[]]
    cases = [
        np.array([[0.5, 0.5]]),
        np.array([[1.0, 1.0]] * 5),
        np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, 3.0]]),
    ]
    rng = np.random.default_rng(12)
    pr = random.Random(12)
    for _ in range(200):
        n = pr.randint(1, 64)
        if pr.random() < 0.5:
            cases.append(rng.random((n, 2)))
        else:
            cases.append(rng.integers(0, 5, size=(n, 2)).astype(float))  # lots of ties
    # infinities are ordinary values: they tie with each other and dominate or lose like any other
    cases += [
        np.array([[np.inf, 0.0], [0.0, np.inf], [np.inf, np.inf], [-np.inf, 1.0], [1.0, -np.inf], [np.inf, np.inf]]),
        np.array([[-np.inf, -np.inf], [-np.inf, 0.0], [0.0, -np.inf], [-np.inf, -np.inf], [np.inf, -np.inf]]),
    ]
    for _ in range(100):
        objs = rng.integers(-2, 3, size=(pr.randint(1, 64), 2)).astype(float)
        u = rng.random(objs.shape)
        objs[u < 0.15] = np.inf
        objs[u > 0.85] = -np.inf
        cases.append(objs)
    for objs in cases:
        got = fast_nondominated_sort(objs)
        assert got == pareto_fronts_peel(objs)
        assert sorted(i for f in got for i in f) == list(range(len(objs)))


def test_sort_rejects_nan_and_other_widths():
    # a NaN is neither better nor worse than anything, so no front is right for it
    with pytest.raises(ValueError, match="NaN"):
        fast_nondominated_sort(np.array([[0.0, 1.0], [np.nan, 0.5], [1.0, 0.0]]))
    for objs in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match="shape"):
            fast_nondominated_sort(objs)


def test_crowding_hand_case():
    objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    dist = crowding_distance(objs, [0, 1, 2])
    assert dist[0] == np.inf and dist[2] == np.inf
    assert dist[1] == pytest.approx(2.0)


def test_crowding_small_fronts_are_infinite():
    objs = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.all(np.isinf(crowding_distance(objs, [0, 1])))
    assert np.all(np.isinf(crowding_distance(objs, [0])))


def test_crowding_flat_objective_adds_nothing():
    objs = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    dist = crowding_distance(objs, [0, 1, 2, 3])
    assert dist[0] == np.inf and dist[3] == np.inf
    # second objective is constant, so middles only collect the first's gaps
    assert dist[1] == pytest.approx(2.0 / 3.0)
    assert dist[2] == pytest.approx(2.0 / 3.0)


def test_crowding_infinite_extreme_adds_nothing():
    # the first objective's span is inf, so only the second one's gaps count
    objs = np.array([[0.0, 0.0], [1.0, -1.0], [np.inf, -2.0]])
    dist = crowding_distance(objs, [0, 1, 2])
    assert dist.tolist() == [np.inf, 1.0, np.inf]
    objs = np.array([[-np.inf, 0.0], [1.0, 1.0], [np.inf, 3.0], [2.0, 2.0]])
    assert crowding_distance(objs, [0, 1, 2, 3]).tolist() == [np.inf, 2.0 / 3.0, np.inf, 2.0 / 3.0]
    rank, crowd = _rank_and_crowd(objs, [[0, 1, 2, 3]])
    assert rank == [0, 0, 0, 0] and crowd == [np.inf, 2.0 / 3.0, np.inf, 2.0 / 3.0]


def _random_objective_sets(seed, count):
    """Point sets of 1-44 rows: uniform reals, integer ties with duplicate rows, integers with ±inf."""
    rng = np.random.default_rng(seed)
    pr = random.Random(seed)
    for t in range(count):
        n = pr.randint(1, 44)
        kind = t % 3
        if kind == 0:
            objs = rng.random((n, 2))
        elif kind == 1:
            objs = rng.integers(0, 5, size=(n, 2)).astype(float)
            if pr.random() < 0.5:
                objs[n // 2 :] = objs[: n - n // 2]  # exact duplicate rows
        else:
            objs = rng.integers(-2, 3, size=(n, 2)).astype(float)
            u = rng.random(objs.shape)
            objs[u < 0.15] = np.inf
            objs[u > 0.85] = -np.inf
        yield objs


def test_rank_and_crowd_equals_per_front_crowding():
    for objs in _random_objective_sets(22, 20_000):
        fronts = fast_nondominated_sort(objs)
        rank, crowd = _rank_and_crowd(objs, fronts)
        want_rank = [0] * len(objs)
        want_crowd = [0.0] * len(objs)
        for r, front in enumerate(fronts):
            for i, d in zip(front, crowding_distance(objs, front).tolist()):
                want_rank[i] = r
                want_crowd[i] = d
        assert rank == want_rank
        assert [d.hex() for d in crowd] == [d.hex() for d in want_crowd]


class _HalfRandom:
    """A generator whose uniforms are all 0.5: SBX then copies its parents and mutation moves nothing."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.pairs = []

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size=size)
        self.pairs.extend(out.tolist())
        return out

    def random(self, size):
        return np.full(size, 0.5)


def _scalar_tournament(rank, crowd, a, b):
    if rank[a] != rank[b]:
        return a if rank[a] < rank[b] else b
    if crowd[a] != crowd[b]:
        return a if crowd[a] > crowd[b] else b
    return a


def test_variation_picks_winners_by_rank_then_crowding_then_first():
    pr = random.Random(23)
    for seed in range(300):
        n = pr.randint(2, 30)
        fronts = pr.randint(1, 4)
        rank = [pr.randrange(fronts) for _ in range(n)]
        crowd = [pr.choice([0.25, 0.5, 1.0, np.inf]) for _ in range(n)]  # ties are common
        x = np.arange(n, dtype=float)  # a child's value names its parent
        rng = _HalfRandom(seed)
        kids = _variation(x, rank, crowd, 0.0, float(n), rng)
        assert len(rng.pairs) == 2 * ((n + 1) // 2)
        want = [_scalar_tournament(rank, crowd, a, b) for a, b in rng.pairs][:n]
        assert kids.tolist() == [float(w) for w in want]


def _scalar_variation(x, rank, crowd, lo, hi, rng):
    """The same draws in the same order, child by child."""
    n = len(x)
    m = (n + 1) // 2
    pairs = rng.integers(0, n, size=(2 * m, 2)).tolist()
    coins = rng.random(m).tolist()
    us = rng.random(m).tolist()
    mut = rng.random(n).tolist()
    kids = []
    for j in range(m):
        p1 = float(x[_scalar_tournament(rank, crowd, *pairs[2 * j])])
        p2 = float(x[_scalar_tournament(rank, crowd, *pairs[2 * j + 1])])
        if coins[j] <= P_CROSSOVER:
            u = us[j]
            if u <= 0.5:
                beta = (2.0 * u) ** (1.0 / (ETA_C + 1.0))
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (ETA_C + 1.0))
            kids += [0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2), 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)]
        else:
            kids += [p1, p2]
    out = []
    for c, u in zip(kids[:n], mut):
        if u < 0.5:
            delta = (2.0 * u) ** (1.0 / (ETA_M + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (ETA_M + 1.0))
        out.append(min(max(c + delta * (hi - lo), lo), hi))
    return out


@pytest.mark.parametrize("n", [2, 3, 19, 20])
def test_variation_makes_n_children_in_bounds(n):
    pr = random.Random(n)
    for seed in range(100):
        lo, hi = sorted(pr.uniform(-3.0, 3.0) for _ in range(2))
        x = np.random.default_rng(seed).uniform(lo, hi, size=n)
        rank = [pr.randrange(3) for _ in range(n)]
        crowd = [pr.random() for _ in range(n)]
        got = _variation(x, rank, crowd, lo, hi, np.random.default_rng(seed))
        assert got.shape == (n,)
        assert np.all((lo <= got) & (got <= hi))
        want = _scalar_variation(x, rank, crowd, lo, hi, np.random.default_rng(seed))
        # numpy's power may round differently from Python's in the last bit
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def _tradeoff(x):
    return np.stack([x, 1.0 - x], axis=1)


def _collapsed(x):
    f = (x - 0.5) ** 2
    return np.stack([f, f], axis=1)


def test_evolve_spreads_along_a_tradeoff_front():
    rng = np.random.default_rng(5)
    init = rng.random(24)
    xs, fs = nsga2_evolve(init, _tradeoff, (0.0, 1.0), 30, rng)
    assert len(xs) >= 2
    assert np.all((0.0 <= xs) & (xs <= 1.0))
    assert np.all(np.diff(xs) >= 0)  # sorted by decision value
    assert np.allclose(fs, _tradeoff(xs))
    assert xs.max() - xs.min() >= 0.8
    # every member is nondominated by every other
    assert all(
        not dominates(fs[j], fs[i]) for i in range(len(xs)) for j in range(len(xs)) if i != j
    )


def test_evolve_converges_when_objectives_collapse():
    rng = np.random.default_rng(9)
    init = rng.random(24)
    xs, _ = nsga2_evolve(init, _collapsed, (0.0, 1.0), 30, rng)
    assert np.all(np.abs(xs - 0.5) <= 0.05)


def test_evolve_is_deterministic_per_seed():
    init = np.linspace(0.1, 0.9, 16)
    a = nsga2_evolve(init, _tradeoff, (0.0, 1.0), 12, np.random.default_rng(33))
    b = nsga2_evolve(init, _tradeoff, (0.0, 1.0), 12, np.random.default_rng(33))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = nsga2_evolve(init, _tradeoff, (0.0, 1.0), 12, np.random.default_rng(34))
    assert not np.array_equal(a[0], c[0])


def test_evolve_respects_bounds_under_wide_mutation():
    # every point of the trade-off is on the front, so a child mutated past
    # the bound the population starts on would be returned if not clipped
    rng = np.random.default_rng(41)
    init = np.full(12, 3.0)
    xs, _ = nsga2_evolve(init, _tradeoff, (2.0, 3.0), 20, rng)
    assert np.all((2.0 <= xs) & (xs <= 3.0))


def test_evolve_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="lo < hi"):
        nsga2_evolve(np.array([0.1, 0.2]), _tradeoff, (1.0, 1.0), 5, rng)
    with pytest.raises(ValueError, match="at least 2"):
        nsga2_evolve(np.array([0.1]), _tradeoff, (0.0, 1.0), 5, rng)
    with pytest.raises(ValueError, match="shape"):
        nsga2_evolve(np.array([0.1, 0.2]), lambda x: x, (0.0, 1.0), 5, rng)


def _evolve_resorting(initial, objective, bounds, generations, rng):
    """nsga2_evolve with a fresh non-dominated sort of each new population and of the final one."""
    lo, hi = bounds
    x = np.clip(np.asarray(initial, dtype=float), lo, hi)
    n = len(x)
    f = _eval_objs(objective, x)
    for _ in range(generations):
        rank = np.empty(n, dtype=int)
        crowd = np.empty(n)
        for r, front in enumerate(fast_nondominated_sort(f)):
            rank[front] = r
            crowd[front] = crowding_distance(f, front)
        cx = _variation(x, rank, crowd, lo, hi, rng)
        pool_x = np.concatenate([x, cx])
        pool_f = np.concatenate([f, _eval_objs(objective, cx)])
        chosen = []
        for front in fast_nondominated_sort(pool_f):
            if len(chosen) + len(front) <= n:
                chosen.extend(front)
            else:
                order = np.argsort(-crowding_distance(pool_f, front), kind="stable")
                chosen.extend(front[i] for i in order[: n - len(chosen)])
                break
        x = pool_x[chosen]
        f = pool_f[chosen]
    first = fast_nondominated_sort(f)[0]
    idx = [first[i] for i in np.argsort(x[first], kind="stable")]
    return x[idx], f[idx]


def test_grid_front_gap_hand_case():
    grid = np.linspace(0.0, 1.0, 11)
    # every grid point of the trade-off is on its front, so none has to move
    assert grid_front_gap(_tradeoff, 0.0, 1.0, _tradeoff(grid), m=11) == 0.0
    assert grid_front_gap(_tradeoff, 0.0, 1.0, [[0.0, 0.5]], m=11) == 0.0  # beats the front
    # (0.4, 1.0) is dominated by (0.2, 0.8) with 0.2 to spare in both objectives
    assert grid_front_gap(_tradeoff, 0.0, 1.0, [[0.4, 1.0]], m=11) == pytest.approx(0.2)
    assert grid_front_gap(_tradeoff, 0.0, 1.0, [[0.5, 0.6], [0.4, 1.0]], m=11) == pytest.approx(0.2)
    assert grid_front_gap(_tradeoff, 0.0, 1.0, [[0.4, 1.0]]) == pytest.approx(0.2)


def _constant(x):
    return np.zeros((len(x), 2))


def _step(x):
    return np.stack([np.floor(4.0 * x), np.floor(3.0 * (1.0 - x))], axis=1)


def _rounded_tradeoff(x):
    # many decision values share an objective row, and a rounded optimum
    r = np.round(x, 1)
    return np.stack([r**2, (1.0 - r) ** 2], axis=1)


@pytest.mark.parametrize("objective", [_tradeoff, _constant, _step, _rounded_tradeoff])
def test_evolve_equals_the_resorting_loop(objective):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        init = rng.random(n)
        if objective is _rounded_tradeoff or seed % 4 == 0:
            init[: n // 2] = init[0]  # duplicate decision values
        generations = int(rng.integers(1, 16))
        state = rng.bit_generator.state
        got = nsga2_evolve(init, objective, (0.0, 1.0), generations, rng)
        rng.bit_generator.state = state
        want = _evolve_resorting(init, objective, (0.0, 1.0), generations, rng)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), seed
