"""Tuning the discretization scale with a surrogate-guided search loop.

The loop treats the solver as a black box T(s): discretize the real graph at
scale s, solve, measure wall time.  A Gaussian-process surrogate is fit to
log(runtime + 1e-3) with inputs normalized to [0, 1] and targets standardized,
its length scale, signal variance and noise variance set by L-BFGS-B on the
marginal likelihood with the analytic gradient (Rasmussen & Williams 2006,
eq. 5.9).  A lower confidence bound built from the surrogate's mean and
standard deviation (one kernel vector per query) trades off against the
discretization error C(s) of the incumbent plans in a small NSGA-II run.  The
front's own (lcb, C) rows are scored, each column min-max normalized, and the
member with the least sum becomes the next true evaluation.
Timed-out evaluations are charged the full timeout as their runtime, so the
surrogate learns to avoid them.  Each true evaluation is recorded once, as an
Observation that also carries the pick behind it (its lcb, score and the
surrogate's fitted hyperparameters); format_tune_report writes those fields
as CSV columns.

The loop itself is solver-agnostic: it takes an eval function mapping s to
(runtime, success, paths) and an error function mapping (scales, paths) to
C at each scale, which keeps it testable against synthetic objectives.  The
error function gets a whole NSGA-II population in one call, and each true
evaluation as a 1-element array; graph.discretization_error fits as it is.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize

from .cbs import Solution, SolveConfig, solve
from .graph import RealGraph, discretization_error, discretize, shortest_path
from .mapio import Instance, _to_csv
from .nsga import fast_nondominated_sort, nsga2_evolve

__all__ = [
    "Observation",
    "SurrogatePosterior",
    "TuneConfig",
    "TuneResult",
    "fit_surrogate",
    "lcb",
    "score_candidates",
    "tune",
    "tune_graph",
    "format_tune_report",
]

_LOG_SHIFT = 1e-3  # keeps log(runtime + shift) finite for instant solves
_MIN_JITTER = 1e-8


@dataclass(frozen=True)
class Observation:
    """One true evaluation of the solver at scale s, and the pick that chose it.

    lcb and score are the picked front row's; ell, sf2 and sn2 are the fitted
    hyperparameters of the surrogate behind the pick.  All five are None for
    bootstrap evaluations.
    """

    s: float
    runtime: float
    success: bool
    error: float
    lcb: float | None = None
    score: float | None = None
    ell: float | None = None
    sf2: float | None = None
    sn2: float | None = None


@dataclass(frozen=True, eq=False)
class SurrogatePosterior:
    """GP posterior over standardized log runtime as a function of s.

    Squared-exponential kernel on s normalized to [0, 1].  predict accepts a
    scalar or an array and returns (mean, std), each of the input's shape;
    std is the posterior standard deviation of the latent function
    (observation noise excluded), clamped at zero.  Each scale's mean depends
    on that scale alone, not on the others queried with it.
    """

    x_norm: np.ndarray
    alpha: np.ndarray
    chol_lower: np.ndarray
    ell: float
    sf2: float
    sn2: float
    x_lo: float
    x_span: float

    def predict(self, s):
        q = (np.atleast_1d(np.asarray(s, dtype=float)) - self.x_lo) / self.x_span
        diff = q[:, None] - self.x_norm[None, :]
        k = self.sf2 * np.exp(-0.5 * (diff / self.ell) ** 2)
        # an in-order sum per row: BLAS's k @ alpha can round a row differently with the matrix's row count
        mu = np.add.accumulate(k * self.alpha, axis=1)[:, -1]
        v = solve_triangular(self.chol_lower, k.T, lower=True)
        sd = np.sqrt(np.maximum(self.sf2 - np.sum(v * v, axis=0), 0.0))
        if np.ndim(s) == 0:
            return float(mu[0]), float(sd[0])
        return mu, sd


def _gram(d2: np.ndarray, ell: float, sf2: float, sn2: float) -> np.ndarray:
    """Kernel matrix plus the (jitter-floored) noise variance on its diagonal."""
    K = sf2 * np.exp(-0.5 * d2 / (ell * ell))
    K.flat[:: len(K) + 1] += max(sn2, _MIN_JITTER)
    return K


def _nll(log_params: np.ndarray, d2: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient in (log ell, log sf2, log sn2).

    The gradient is 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta) (Rasmussen &
    Williams 2006, eq. 5.9).  A kernel matrix that is not positive definite
    gives (1e25, zeros).
    """
    # dpotrf/dpotrs are the LAPACK calls behind cho_factor/cho_solve, minus
    # their per-call input checks; L-BFGS calls this thousands of times per tune.
    ell, sf2, sn2 = math.exp(log_params[0]), math.exp(log_params[1]), math.exp(log_params[2])
    n = len(y)
    K = _gram(d2, ell, sf2, sn2)
    c, info = dpotrf(K, lower=1, clean=0)
    if info != 0:
        return 1e25, np.zeros(3)
    alpha, _ = dpotrs(c, y, lower=1)
    value = float(0.5 * y @ alpha + np.sum(np.log(np.diag(c))) + 0.5 * n * math.log(2 * math.pi))
    K_inv, _ = dpotrs(c, np.eye(n), lower=1)
    W = K_inv - np.outer(alpha, alpha)
    WK = W * K  # K off the diagonal is the noise-free kernel Kf, and d2's diagonal is zero
    tr_W = float(np.trace(W))
    grad = [
        0.5 * float(np.sum(WK * d2)) / (ell * ell),  # dK/dlog ell = Kf * d2 / ell^2
        0.5 * (float(np.sum(WK)) - max(sn2, _MIN_JITTER) * tr_W),  # dK/dlog sf2 = Kf
        0.5 * sn2 * tr_W,  # dK/dlog sn2 = sn2 I
    ]
    return value, np.array(grad)


def fit_surrogate(
    observations: Sequence[Observation],
    bounds: tuple[float, float] | None = None,
    *,
    restarts: int = 8,
    seed: int = 0,
) -> SurrogatePosterior:
    """Fit the GP to the observations by marginal-likelihood maximization.

    Needs at least 2 observations and restarts >= 1.  Hyperparameters (length
    scale, signal variance and noise variance) are optimized in log space by
    multi-start L-BFGS-B on the analytic likelihood gradient (see _nll), with
    seeded restart draws, so a fixed seed yields a fixed posterior.  Failed
    evaluations participate with their penalty runtime.
    """
    if len(observations) < 2:
        raise ValueError(f"surrogate needs >= 2 observations, got {len(observations)}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    xs = np.array([o.s for o in observations], dtype=float)
    y_raw = np.log(np.array([o.runtime for o in observations], dtype=float) + _LOG_SHIFT)
    x_lo, x_hi = bounds if bounds is not None else (float(xs.min()), float(xs.max()))
    x_span = x_hi - x_lo
    if x_span <= 0:
        x_span = 1.0
    x_norm = (xs - x_lo) / x_span
    y = (y_raw - y_raw.mean()) / (y_raw.std() or 1.0)
    diff = x_norm[:, None] - x_norm[None, :]
    d2 = diff * diff

    # log ell, log sf2, log sn2
    log_bounds = [
        (math.log(1e-2), math.log(10.0)),
        (math.log(1e-4), math.log(1e2)),
        (math.log(1e-8), math.log(10.0)),
    ]
    start0 = [math.log(0.3), math.log(1.0), math.log(1e-2)]
    rng = np.random.default_rng(seed)
    best_params: np.ndarray | None = None
    best_val = math.inf
    for r in range(restarts):
        if r == 0:
            p0 = np.array(start0)
        else:
            p0 = np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        res = minimize(
            _nll,
            p0,
            args=(d2, y),
            jac=True,
            method="L-BFGS-B",
            bounds=log_bounds,
        )
        val = float(res.fun)
        if val < best_val:
            best_val = val
            best_params = np.asarray(res.x)
    assert best_params is not None
    ell, sf2, sn2 = (math.exp(p) for p in best_params)
    L, info = dpotrf(_gram(d2, ell, sf2, sn2), lower=1, clean=1)  # clean=1 zeros the upper triangle
    if info != 0:
        raise np.linalg.LinAlgError(f"kernel matrix is not positive definite (dpotrf info {info})")
    alpha, _ = dpotrs(L, y, lower=1)
    return SurrogatePosterior(x_norm, alpha, L, ell, sf2, sn2, x_lo, x_span)


def lcb(post: SurrogatePosterior, s, t: int, delta: float):
    """Lower confidence bound mu(s) - sqrt(beta_t) sigma(s).

    beta_t = 2 log(t^2.5 pi^2 / (3 delta)) for a scalar decision variable,
    clamped at zero so early iterations cannot flip the bound's sign.
    """
    if t < 1:
        raise ValueError(f"iteration index t must be >= 1, got {t}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    beta = 2.0 * math.log(t**2.5 * math.pi**2 / (3.0 * delta))
    mu, sd = post.predict(s)
    return mu - math.sqrt(max(beta, 0.0)) * sd


def score_candidates(objs) -> np.ndarray:
    """Combined pick score of each (lcb, error) row: the two columns min-max normalized, summed.

    Lower is better.  A column without spread (one row, or equal values)
    contributes zero.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2 or objs.shape[1] != 2 or len(objs) == 0:
        raise ValueError(f"objs must have shape (n, 2) with n >= 1, got {objs.shape}")

    def norm(v: np.ndarray) -> np.ndarray:
        span = v.max() - v.min()
        return (v - v.min()) / span if span > 0 else np.zeros_like(v)

    return norm(objs[:, 0]) + norm(objs[:, 1])


@dataclass(frozen=True)
class TuneConfig:
    s_min: float
    s_max: float
    budget: int = 25
    population: int = 20
    generations: int = 30
    delta: float = 0.1
    eval_timeout: float | None = None
    restarts: int = 8

    def __post_init__(self) -> None:
        if not (0 < self.s_min <= self.s_max and math.isfinite(self.s_max)):
            raise ValueError(f"need 0 < s_min <= s_max, got ({self.s_min}, {self.s_max})")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.eval_timeout is not None and not self.eval_timeout > 0:
            raise ValueError(f"eval_timeout must be None or > 0, got {self.eval_timeout}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class TuneResult:
    best_s: float | None  # None when every evaluation failed
    observations: tuple[Observation, ...]
    pareto: tuple[Observation, ...]  # the non-dominated (runtime, error) observations, in observation order
    regret_trace: tuple[tuple[float, float], ...]  # cumulative (runtime, error) regret


EvalFn = Callable[[float], tuple[float, bool, list[list[int]] | None]]
# (1-D array of scales, incumbent paths) -> C at each scale; a scalar is broadcast
ErrorFn = Callable[[np.ndarray, list[list[int]]], np.ndarray | float]


def tune(
    eval_fn: EvalFn,
    error_fn: ErrorFn,
    config: TuneConfig,
    *,
    seed: int = 0,
    initial_paths: list[list[int]] | None = None,
) -> TuneResult:
    """Run the surrogate-guided loop for config.budget true evaluations.

    eval_fn(s) returns (runtime, success, paths or None); successful paths
    become the incumbent used by error_fn(scales, paths) for the error
    objective.  error_fn maps a 1-D array of scales to an array of errors of
    the same shape: it is called once per NSGA-II objective batch with the
    whole population, and once per true evaluation with a 1-element array.  A
    scalar return counts for every scale.  Before any incumbent exists the
    error is 0.  Bootstrap evaluations cover s_min, s_max, and their geometric
    mean; after that every pick comes from an NSGA-II front over (lcb, error)
    scored by score_candidates.  Identical seeds and a deterministic eval_fn
    give an identical observation sequence.
    """
    rng = np.random.default_rng(seed)
    incumbent = initial_paths
    obs: list[Observation] = []

    def c_of(scales: np.ndarray) -> np.ndarray:
        if incumbent is None:
            return np.zeros(scales.shape)
        return np.broadcast_to(np.asarray(error_fn(scales, incumbent), dtype=float), scales.shape)

    def observe(s: float, *pick: float) -> None:
        """Evaluate s; pick is (lcb, score, ell, sf2, sn2) of the surrogate pick, empty for bootstrap."""
        nonlocal incumbent
        runtime, success, paths = eval_fn(float(s))
        if success and paths is not None:
            incumbent = paths
        err = c_of(np.array([float(s)]))[0]
        obs.append(Observation(float(s), float(runtime), bool(success), float(err), *pick))

    lo, hi = config.s_min, config.s_max
    if lo == hi:
        observe(lo)
        return _wrap_up(obs)
    bootstrap = [lo, hi, math.sqrt(lo * hi)][: config.budget]
    for s0 in bootstrap:
        observe(s0)
    while len(obs) < config.budget:
        t_next = len(obs) + 1
        post = fit_surrogate(obs, bounds=(lo, hi), restarts=config.restarts, seed=seed * 100003 + t_next)
        pop0 = _biased_population(rng, obs, config)

        def objective(xs: np.ndarray) -> np.ndarray:
            return np.column_stack([lcb(post, xs, t_next, config.delta), c_of(xs)])

        front_x, front_f = nsga2_evolve(pop0, objective, (lo, hi), config.generations, rng)
        scores = score_candidates(front_f)
        pick = int(np.argmin(scores))
        observe(front_x[pick], float(front_f[pick, 0]), float(scores[pick]), post.ell, post.sf2, post.sn2)
    return _wrap_up(obs)


def _biased_population(rng: np.random.Generator, obs: list[Observation], config: TuneConfig) -> np.ndarray:
    """Half log-uniform over [s_min, s_max], half Gaussian jitter around elites."""
    n = config.population
    n_uniform = n // 2
    n_elite = n - n_uniform
    lo, hi = config.s_min, config.s_max
    uniform = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_uniform))
    ranked = sorted(obs, key=lambda o: (not o.success, o.runtime, o.error, o.s))
    centres = np.array([ranked[i % len(ranked)].s for i in range(n_elite)])
    elites = centres + rng.normal(0.0, 0.1 * (hi - lo), size=n_elite)
    return np.clip(np.concatenate([uniform, elites]), lo, hi)


def _wrap_up(obs: list[Observation]) -> TuneResult:
    successes = [o for o in obs if o.success]
    best_s = min(successes, key=lambda o: (o.runtime, o.error, o.s)).s if successes else None
    runtimes = np.array([o.runtime for o in obs])
    errors = np.array([o.error for o in obs])
    front = fast_nondominated_sort(np.column_stack([runtimes, errors]))[0]
    pareto = tuple(obs[i] for i in front)
    r_best = runtimes.min()
    e_best = errors.min()
    trace = tuple(
        (float(c1), float(c2))
        for c1, c2 in zip(np.cumsum(runtimes - r_best), np.cumsum(errors - e_best))
    )
    return TuneResult(best_s, tuple(obs), pareto, trace)


def tune_graph(
    instance: Instance,
    config: TuneConfig,
    *,
    solve_config: SolveConfig | None = None,
    seed: int = 0,
) -> TuneResult:
    """Tune the discretization scale for one instance on a real-weighted graph.

    Each evaluation discretizes at s, solves the integer instance with the
    per-evaluation timeout, and reports measured wall time (the timeout value
    itself when the solver times out).  The incumbent starts as the
    unconstrained single-agent shortest paths so the error objective is
    defined before the first success.
    """
    g = instance.graph
    if not isinstance(g, RealGraph):
        raise TypeError("tune_graph expects the instance on a real-weighted graph")
    base = solve_config if solve_config is not None else SolveConfig()
    if config.eval_timeout is not None:
        base = replace(base, timeout=config.eval_timeout)

    def eval_fn(s: float) -> tuple[float, bool, list[list[int]] | None]:
        g_int = discretize(g, s)
        inst = replace(instance, graph=g_int)
        t0 = _time.perf_counter()
        result = solve(inst, base)
        rt = _time.perf_counter() - t0
        if isinstance(result, Solution):
            return rt, True, [p.vertices() for p in result.plans]
        if result.reason == "timeout" and config.eval_timeout is not None:
            rt = config.eval_timeout
        return rt, False, None

    def error_fn(scales: np.ndarray, paths: list[list[int]]) -> np.ndarray:
        return discretization_error(g, scales, paths)

    initial = []
    for a in range(instance.n_agents):
        p = shortest_path(g, instance.starts[a], instance.goals[a])
        if p is not None:
            initial.append(p)
    return tune(eval_fn, error_fn, config, seed=seed, initial_paths=initial or None)


def format_tune_report(result: TuneResult) -> str:
    """CSV report, one row per true evaluation, one column per field of Observation."""
    return _to_csv(Observation, result.observations)
