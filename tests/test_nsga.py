"""Tests for the multi-objective GA kernel.

The sorting routine is checked against an O(n^2) peeling oracle on random
objective sets, including heavy ties, exact duplicates and infinities, and
must reject NaN.  The evolve loop gets two analytic problems: a straight
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
    P_MUTATION,
    _eval_objs,
    _poly_mutate,
    _sbx,
    _tournament,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
)

from oracles import pareto_fronts_peel


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
        kids = []
        while len(kids) < n:
            p1 = x[_tournament(rank, crowd, rng)]
            p2 = x[_tournament(rank, crowd, rng)]
            if rng.random() <= P_CROSSOVER:
                c1, c2 = _sbx(p1, p2, ETA_C, rng)
            else:
                c1, c2 = p1, p2
            if rng.random() <= P_MUTATION:
                c1 = _poly_mutate(c1, lo, hi, ETA_M, rng)
            if rng.random() <= P_MUTATION:
                c2 = _poly_mutate(c2, lo, hi, ETA_M, rng)
            kids.extend((c1, c2))
        cx = np.clip(np.array(kids[:n]), lo, hi)
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
