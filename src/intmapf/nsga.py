"""NSGA-II for a scalar decision variable under two minimization objectives.

Plain-function kernel: non-dominated sorting of the two objectives by one
sweep in O(N log N) (Jensen 2003), crowding distance, binary tournament
selection, simulated binary crossover (Deb and Agrawal 1995), and polynomial
mutation, with (mu + lambda) truncation each generation (Deb et al. 2002).
Each generation sorts its parents-plus-children pool once: the survivors keep
the pool's fronts, cut at the population size, and crowding is measured
within the survivors' fronts, so the cut front's counts its kept members
only.  One pass over those fronts gives every survivor's rank and crowding
distance, and the whole generation's children come from array operations
with one draw per operator: tournaments, crossover coins, crossover and
mutation.  The evolve loop returns the final population's first front, whose
rows the tuner scores for its next sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

import numpy as np

__all__ = [
    "dominates",
    "fast_nondominated_sort",
    "crowding_distance",
    "nsga2_evolve",
]

ETA_C = 15.0  # simulated binary crossover distribution index
ETA_M = 20.0  # polynomial mutation distribution index
P_CROSSOVER = 0.9


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance for minimization: no worse everywhere, better somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))


def fast_nondominated_sort(objs: np.ndarray) -> list[list[int]]:
    """Non-dominated fronts of an (n, 2) objective array, best front first.

    A sweep (Jensen 2003): visit the points in (f1, f2) order; each joins the
    first front whose last member does not dominate it, found by binary
    search.  Each front lists its members in ascending index order, and an
    empty input gives one empty front, [[]].  ±inf are ordinary values; a
    NaN, which is neither better nor worse than anything, raises ValueError,
    as does any width but two.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2 or objs.shape[1] != 2:
        raise ValueError(f"objs must have shape (n, 2), got {objs.shape}")
    if np.isnan(objs).any():
        raise ValueError("objs must not contain NaN")
    if len(objs) == 0:
        return [[]]
    f1, f2 = objs[:, 0].tolist(), objs[:, 1].tolist()
    fronts: list[list[int]] = []
    # Each front's last member as (f2, f1).  A later point p is dominated by
    # that member exactly when its key sorts below (p.f2, p.f1), and the keys
    # ascend from front to front, so bisect finds p's front.
    lasts: list[tuple[float, float]] = []
    for i in np.lexsort((objs[:, 1], objs[:, 0])).tolist():
        key = (f2[i], f1[i])
        k = bisect_left(lasts, key)
        if k == len(fronts):
            fronts.append([i])
            lasts.append(key)
        else:
            fronts[k].append(i)
            lasts[k] = key
    for front in fronts:
        front.sort()
    return fronts


def crowding_distance(objs: np.ndarray, front: list[int]) -> np.ndarray:
    """Crowding distance of each front member, in front order; extremes get inf.

    An objective whose span over the front is zero or not finite (an infinite
    extreme) adds nothing to the inner members.
    """
    objs = np.asarray(objs, dtype=float)
    m = len(front)
    dist = np.zeros(m)
    if m <= 2:
        dist[:] = np.inf
        return dist
    sub = objs[front]
    for k in range(sub.shape[1]):
        order = np.argsort(sub[:, k], kind="stable")
        lo, hi = sub[order[0], k], sub[order[-1], k]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi > lo and hi - lo < np.inf:
            gaps = (sub[order[2:], k] - sub[order[:-2], k]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist


def _rank_and_crowd(objs: np.ndarray, fronts: list[list[int]]) -> tuple[list[int], list[float]]:
    """Each member's front index and crowding distance, in one pass over all fronts.

    The same float operations in the same order as crowding_distance on each
    front, on plain floats, so the distances are bit for bit the same.
    """
    rank = [0] * len(objs)
    crowd = [0.0] * len(objs)
    cols = objs.T.tolist()
    for r, front in enumerate(fronts):
        for i in front:
            rank[i] = r
        if len(front) <= 2:
            for i in front:
                crowd[i] = math.inf
            continue
        for col in cols:
            order = sorted(front, key=col.__getitem__)
            lo, hi = col[order[0]], col[order[-1]]
            crowd[order[0]] = crowd[order[-1]] = math.inf
            if hi > lo and hi - lo < math.inf:
                span = hi - lo
                for prev, i, nxt in zip(order, order[1:-1], order[2:]):
                    crowd[i] += (col[nxt] - col[prev]) / span
    return rank, crowd


def _variation(
    x: np.ndarray, rank: list[int], crowd: list[float], lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """A generation's n children from x, with one draw per operator.

    Binary tournaments pick 2m parents, m = ceil(n / 2): the lower rank wins,
    then the larger crowding distance, then the first of the pair.  Parents
    2j and 2j + 1 cross by simulated binary crossover with probability
    P_CROSSOVER, giving children 2j and 2j + 1; the last child of an odd n is
    dropped.  Every child then takes a polynomial mutation: its probability is
    1 for a one-dimensional decision variable, so no per-child coin is drawn.
    Children are clipped to [lo, hi].  Draws, in order: the tournament pairs,
    the crossover coins, SBX's u, mutation's u.
    """
    n = len(x)
    m = (n + 1) // 2
    rank = np.asarray(rank)
    crowd = np.asarray(crowd, dtype=float)
    a, b = rng.integers(0, n, size=(2 * m, 2)).T
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowd[b] > crowd[a]))
    parents = x[np.where(b_wins, b, a)]
    p1, p2 = parents[0::2], parents[1::2]
    cross = rng.random(m) <= P_CROSSOVER
    u = rng.random(m)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** (1.0 / (ETA_C + 1.0))
    kids = np.empty(2 * m)
    kids[0::2] = np.where(cross, 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2), p1)
    kids[1::2] = np.where(cross, 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2), p2)
    u = rng.random(n)
    e = 1.0 / (ETA_M + 1.0)
    delta = np.where(u < 0.5, (2.0 * u) ** e - 1.0, 1.0 - (2.0 * (1.0 - u)) ** e)
    return np.clip(kids[:n] + delta * (hi - lo), lo, hi)


def nsga2_evolve(
    initial: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[float, float],
    generations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a scalar population and return (first-front values, their objectives).

    objective maps an (n,) array of decision values to an (n, 2) array to
    minimize.  The returned front is sorted by decision value.
    """
    lo, hi = bounds
    if not hi > lo:
        raise ValueError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    x = np.clip(np.asarray(initial, dtype=float), lo, hi)
    n = len(x)
    if n < 2:
        raise ValueError(f"population needs at least 2 members, got {n}")
    f = _eval_objs(objective, x)
    fronts = fast_nondominated_sort(f)
    for _ in range(generations):
        rank, crowd = _rank_and_crowd(f, fronts)
        cx = _variation(x, rank, crowd, lo, hi, rng)
        cf = _eval_objs(objective, cx)
        pool_x = np.concatenate([x, cx])
        pool_f = np.concatenate([f, cf])
        chosen: list[int] = []
        fronts = []
        for front in fast_nondominated_sort(pool_f):
            room = n - len(chosen)
            if len(front) > room:
                order = np.argsort(-crowding_distance(pool_f, front), kind="stable")
                front = [front[i] for i in order[:room]]
            # Every dominator of a survivor sits in a fully kept front above
            # it, so its rank among the survivors is its rank in the pool.
            fronts.append(list(range(len(chosen), len(chosen) + len(front))))
            chosen.extend(front)
            if len(chosen) == n:
                break
        x = pool_x[chosen]
        f = pool_f[chosen]
    first = fronts[0]
    order = np.argsort(x[first], kind="stable")
    idx = [first[i] for i in order]
    return x[idx], f[idx]


def _eval_objs(objective: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    f = np.asarray(objective(x), dtype=float)
    if f.shape != (len(x), 2):
        raise ValueError(f"objective must return shape ({len(x)}, 2), got {f.shape}")
    return f
