"""Tests for the GP surrogate, the confidence bound, and the tuning loop.

The posterior is checked against a direct linear-algebra computation at the
fitted hyperparameters, plus analytic facts that need no reference: a
two-point fit is antisymmetric about the midpoint, near-noiseless fits
interpolate, and uncertainty grows away from the data.  The likelihood's
analytic gradient is checked against central differences, and the fit's
optimum against a finite-difference L-BFGS-B run from the same starts; a fit
started at another fit's optimum must not end worse.  The loop runs on
synthetic objectives with a known optimum, and on a small roadmap, where
scoring a population's error in one call must keep every pick; one seeded
tune's picks are pinned to the last bit.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from intmapf import Observation, TuneConfig, TuneResult, nsga2_evolve, tune, tune_graph, tuning
from intmapf.graph import RealGraph, Vertex, discretization_error
from intmapf.mapio import Instance
from intmapf.tuning import (
    _nll,
    fit_surrogate,
    format_tune_report,
    lcb,
    score_candidates,
)

import oracles
from oracles import gp_direct, pareto_fronts_peel

# frozen by hand: 2 log(2^2.5 pi^2 / 0.3) and the bound mu=1, sigma=0.5 gives
_BETA_T2_D01 = 10.452601054849199
_LCB_EXAMPLE = -0.6165241302598299


def _obs(pairs):
    return [Observation(s, r, True, 0.0) for s, r in pairs]


# ---------------------------------------------------------------- surrogate


def test_two_point_fit_is_antisymmetric_about_midpoint():
    # any two distinct targets standardize to +-1, so the posterior mean at
    # the midpoint cancels exactly
    post = fit_surrogate(_obs([(0.0, 1.0), (1.0, 5.0)]), seed=3)
    assert abs(post.predict(0.5)[0]) < 1e-8
    assert post.predict(0.0)[0] * post.predict(1.0)[0] < 0  # opposite signs at the ends


def test_near_noiseless_fit_interpolates():
    # a smooth sample drives the fitted noise down to its 1e-8 floor
    obs = _obs([(s, math.exp(math.sin(3.0 * s))) for s in np.linspace(0.1, 0.9, 6)])
    post = fit_surrogate(obs, seed=0)
    assert post.sn2 <= 1e-7
    y_raw = np.log(np.array([o.runtime for o in obs]) + 1e-3)
    y_std = (y_raw - y_raw.mean()) / y_raw.std()
    for o, want in zip(obs, y_std):
        assert abs(post.predict(o.s)[0] - want) < 1e-6


def test_uncertainty_grows_away_from_data():
    post = fit_surrogate(_obs([(0.2, 1.0), (0.8, 3.0)]), seed=1)
    sd = {s: post.predict(s)[1] for s in (0.2, 0.5, 0.8)}
    assert sd[0.2] <= sd[0.5]
    assert sd[0.8] <= sd[0.5]
    assert sd[0.5] >= 0.0


def test_posterior_matches_direct_computation():
    rng = random.Random(17)
    pairs = [(rng.uniform(0.1, 2.0), rng.uniform(0.01, 4.0)) for _ in range(6)]
    obs = _obs(pairs)
    bounds = (0.1, 2.0)
    post = fit_surrogate(obs, bounds=bounds, seed=2)
    xs = np.array([o.s for o in obs])
    ys = np.array([o.runtime for o in obs])
    q = np.linspace(0.1, 2.0, 9)
    mu_d, sd_d = gp_direct(xs, ys, q, post.ell, post.sf2, post.sn2, bounds)
    mu, sd = post.predict(q)
    assert np.allclose(mu, mu_d, atol=1e-8)
    assert np.allclose(sd, sd_d, atol=1e-8)


def test_scalar_and_array_queries_agree():
    post = fit_surrogate(_obs([(0.0, 1.0), (0.5, 2.0), (1.0, 0.3)]), seed=0)
    mu, sd = post.predict(np.array([0.25, 0.75]))
    assert mu.shape == sd.shape == (2,)
    for s, m, d in ((0.25, mu[0], sd[0]), (0.75, mu[1], sd[1])):
        for query in (s, np.float64(s), np.array(s)):
            got = post.predict(query)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == (pytest.approx(m), pytest.approx(d))
    one = post.predict(np.array([0.75]))
    assert one[0].shape == one[1].shape == (1,)
    assert (one[0][0], one[1][0]) == (pytest.approx(mu[1]), pytest.approx(sd[1]))


def test_each_scale_predicts_the_same_bits_in_any_query():
    # a scale's mean and std are functions of that scale alone: a subset query
    # and a scalar query give exactly the full query's values, so NSGA-II's
    # bound does not depend on the rest of its population.
    rng = np.random.default_rng(55)
    for _ in range(12):
        n = int(rng.integers(3, 26))
        xs = rng.uniform(0.1, 1.0, size=n)
        obs = _obs(zip(xs.tolist(), np.exp(rng.normal(size=n)).tolist()))
        post = fit_surrogate(obs, bounds=(0.1, 1.0), restarts=2, seed=int(rng.integers(1000)))
        q = rng.uniform(0.1, 1.0, size=40)
        mu, sd = post.predict(q)
        for size in (2, 3, 5, 8, 13, 20, 39):
            idx = rng.choice(len(q), size=size, replace=False)
            sub_mu, sub_sd = post.predict(q[idx])
            assert sub_mu.tolist() == mu[idx].tolist()
            assert sub_sd.tolist() == sd[idx].tolist()
        for i, s in enumerate(q.tolist()):
            for query in (s, np.array([s])):
                one_mu, one_sd = post.predict(query)
                assert np.ravel(one_mu).tolist() == [mu[i]]
                assert np.ravel(one_sd).tolist() == [sd[i]]


def test_duplicate_scales_fit_without_blowup():
    post = fit_surrogate(_obs([(0.5, 1.0), (0.5, 4.0), (1.0, 2.0)]), seed=4)
    mu, sd = post.predict(0.7)
    assert math.isfinite(mu)
    assert math.isfinite(sd)


def _nll_reference(log_params, d2, y):
    ell, sf2, sn2 = (math.exp(p) for p in log_params)
    n = len(y)
    K = sf2 * np.exp(-0.5 * d2 / (ell * ell)) + max(sn2, 1e-8) * np.eye(n)
    try:
        c, low = cho_factor(K, lower=True)
    except np.linalg.LinAlgError:
        return 1e25
    alpha = cho_solve((c, low), y)
    return float(0.5 * y @ alpha + np.sum(np.log(np.diag(c))) + 0.5 * n * math.log(2 * math.pi))


def test_nll_equals_cho_factor_reference():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(2, 26))
        x = rng.random(n)
        x[-1] = x[0]  # a repeated scale, as the tuner produces
        d2 = (x[:, None] - x[None, :]) ** 2
        y = rng.normal(size=n)
        log_params = np.array([rng.uniform(-4.6, 2.3), rng.uniform(-9.2, 4.6), rng.uniform(-20.0, 2.3)])
        assert _nll(log_params, d2, y)[0] == _nll_reference(log_params, d2, y)
    # off-diagonal weights above the diagonal's make K indefinite
    d2 = np.array([[0.0, -10.0], [-10.0, 0.0]])
    y = np.array([0.5, -0.5])
    for log_params in (np.zeros(3), np.array([0.0, 0.0, math.log(0.01)])):
        assert _nll_reference(log_params, d2, y) == 1e25
        assert _nll(log_params, d2, y)[0] == 1e25


def test_nll_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for trial in range(300):
        n = int(rng.integers(2, 26))
        x = rng.random(n)
        x[-1] = x[0]
        d2 = (x[:, None] - x[None, :]) ** 2
        y = rng.normal(size=n)
        # noise of at least 1e-2 keeps K well conditioned; closer to singular,
        # the differences lose more digits than the closed form does
        log_params = np.array([rng.uniform(-4.6, 2.3), rng.uniform(-9.2, 4.6), rng.uniform(-4.6, 2.3)])
        grad = _nll(log_params, d2, y)[1]
        assert grad.shape == (3,)
        fd = np.array(
            [
                (_nll(log_params + h * e, d2, y)[0] - _nll(log_params - h * e, d2, y)[0]) / (2 * h)
                for e in np.eye(3)
            ]
        )
        assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(grad).max()), (trial, grad, fd)
    d2 = np.array([[0.0, -10.0], [-10.0, 0.0]])  # K indefinite, as above
    y = np.array([0.5, -0.5])
    for log_params in (np.zeros(3), np.array([0.0, 0.0, math.log(0.01)])):
        value, grad = _nll(log_params, d2, y)
        assert value == 1e25
        assert grad.tolist() == [0.0, 0.0, 0.0]


def _fd_fit_nll(obs, bounds, restarts, seed):
    """Best NLL of a finite-difference L-BFGS-B fit with fit_surrogate's inputs, starts and bounds."""
    xs = np.array([o.s for o in obs])
    y_raw = np.log(np.array([o.runtime for o in obs]) + 1e-3)
    x_norm = (xs - bounds[0]) / (bounds[1] - bounds[0])
    y = (y_raw - y_raw.mean()) / (y_raw.std() or 1.0)
    d2 = (x_norm[:, None] - x_norm[None, :]) ** 2
    log_bounds = [
        (math.log(1e-2), math.log(10.0)),
        (math.log(1e-4), math.log(1e2)),
        (math.log(1e-8), math.log(10.0)),
    ]
    start0 = [math.log(0.3), math.log(1.0), math.log(1e-2)]
    rng = np.random.default_rng(seed)
    best = math.inf
    for r in range(restarts):
        p0 = np.array(start0) if r == 0 else np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        res = minimize(lambda p: _nll(p, d2, y)[0], p0, method="L-BFGS-B", bounds=log_bounds)
        best = min(best, float(res.fun))
    return best, d2, y


def test_fit_reaches_the_finite_difference_optimum():
    rng = np.random.default_rng(11)
    bounds = (0.1, 1.0)
    for trial in range(60):
        n = int(rng.integers(3, 26))
        s = rng.uniform(*bounds, size=n)
        s[rng.random(n) < 0.3] = s[0]  # repeated scales, as the tuner produces
        if trial % 3 == 0:
            runtimes = rng.integers(5, 40, size=n).astype(float)  # counts, like low_level_calls
        else:
            runtimes = rng.lognormal(-3.0, 1.0, size=n)
        obs = [Observation(float(a), float(b), True, 0.0) for a, b in zip(s, runtimes)]
        post = fit_surrogate(obs, bounds=bounds, restarts=8, seed=trial)
        ref, d2, y = _fd_fit_nll(obs, bounds, 8, trial)
        got = _nll(np.log([post.ell, post.sf2, post.sn2]), d2, y)[0]
        # L-BFGS-B stops once a step gains less than 2.2e-9 of the value, so
        # where the NLL runs large (small noise under repeated scales) either
        # fit may stop a few 1e-6 short of the other
        assert got <= ref + 1e-6 + 1e-8 * abs(ref), (trial, got, ref)


def test_surrogate_needs_two_observations():
    with pytest.raises(ValueError, match=">= 2 observations"):
        fit_surrogate(_obs([(0.5, 1.0)]))


def test_identical_runtimes_standardize_safely():
    post = fit_surrogate(_obs([(0.2, 1.0), (0.8, 1.0)]), seed=0)
    assert abs(post.predict(0.5)[0]) < 1e-6  # flat data, flat posterior


# ---------------------------------------------------------------- lcb/score


class _StubPost:
    def __init__(self, mu, sd):
        self._mu, self._sd = mu, sd

    def predict(self, s):
        if np.ndim(s) == 0:
            return self._mu, self._sd
        return np.full(np.shape(s), self._mu), np.full(np.shape(s), self._sd)


def test_lcb_worked_example():
    post = _StubPost(1.0, 0.5)
    assert lcb(post, 0.4, 2, 0.1) == pytest.approx(_LCB_EXAMPLE, abs=1e-12)
    # identity against the explicit formula on a fitted posterior
    real = fit_surrogate(_obs([(0.1, 1.0), (0.9, 3.0)]), seed=0)
    for t in (1, 2, 7):
        mu, sd = real.predict(0.3)
        want = mu - math.sqrt(max(2 * math.log(t**2.5 * math.pi**2 / 0.3), 0.0)) * sd
        assert lcb(real, 0.3, t, 0.1) == pytest.approx(want, abs=1e-12)
    # an array of scales gives the bound of each, as the NSGA-II objective uses it
    q = np.array([0.1, 0.3, 0.6])
    mu, sd = real.predict(q)
    root = math.sqrt(2 * math.log(3**2.5 * math.pi**2 / 0.3))
    assert np.allclose(lcb(real, q, 3, 0.1), mu - root * sd, rtol=0, atol=1e-12)


def test_lcb_validation():
    post = _StubPost(0.0, 1.0)
    with pytest.raises(ValueError, match="t must be >= 1"):
        lcb(post, 0.5, 0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        lcb(post, 0.5, 1, 0.0)
    with pytest.raises(ValueError, match="delta"):
        lcb(post, 0.5, 1, 1.0)


def test_score_single_candidate_is_zero():
    assert score_candidates(np.array([[-1.0, 7.0]])).tolist() == [0.0]


def test_score_ranks_hand_candidates():
    # lcb spread [0, 1, 2] against errors [2, 0, 1]: normalized sums are
    # [1.0, 0.5, 1.5], so the middle candidate wins
    scores = score_candidates(np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0]]))
    assert scores.tolist() == [1.0, 0.5, 1.5]
    assert int(np.argmin(scores)) == 1
    # min-max normalization ignores each column's offset and scale
    assert score_candidates(np.array([[-5.0, 40.0], [-3.0, 20.0], [-1.0, 30.0]])).tolist() == [1.0, 0.5, 1.5]


def test_score_constant_error_falls_back_to_lcb_order():
    scores = score_candidates([[3.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    assert np.argmin(scores) == 1
    assert scores.tolist() == [1.0, 0.0, 0.5]


def test_score_shape_mismatch_raises():
    for bad in (np.ones((2, 3)), np.ones(2), np.empty((0, 2))):
        with pytest.raises(ValueError, match="shape"):
            score_candidates(bad)


def test_pick_scores_the_fronts_own_rows(monkeypatch):
    # the pick is the front row with the least score_candidates score, and
    # its observation holds that row's lcb and score, with nothing recomputed
    fronts = []

    def evolve(*args):
        out = nsga2_evolve(*args)
        fronts.append(out)
        return out

    monkeypatch.setattr(tuning, "nsga2_evolve", evolve)
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=8, population=8, generations=4)
    out = tune(_parabola_eval, lambda s, p: np.abs(np.sin(9.0 * s)), cfg, seed=6, initial_paths=[[0]])
    assert len(fronts) == 5
    for r, (front_x, front_f) in zip(out.observations[3:], fronts):
        scores = score_candidates(front_f)
        pick = int(np.argmin(scores))
        assert (r.s, r.lcb, r.score) == (front_x[pick], front_f[pick, 0], scores[pick])


# ---------------------------------------------------------------- pareto front


def _scripted_pareto(script):
    """Run ``tune`` whose i-th evaluation scores ``script[i]`` as (runtime, error).

    The error function reads the evaluation index back from the incumbent
    paths.  Returns the result and the first front of ``script`` by peeling.
    """
    calls = []

    def eval_fn(s):
        calls.append(s)
        return script[len(calls) - 1][0], True, [[len(calls) - 1]]

    def error_fn(_s, paths):
        return script[paths[0][0]][1]

    cfg = TuneConfig(s_min=0.1, s_max=1.0, budget=len(script), population=4, generations=2)
    res = tune(eval_fn, error_fn, cfg, seed=3)
    assert [(o.runtime, o.error) for o in res.observations] == script
    return res, pareto_fronts_peel(np.array(script))[0]


def _front_obs(res, front):
    return tuple(res.observations[i] for i in front)


def test_archive_keeps_only_nondominated():
    # the tuner's Pareto archive is the first front, in observation order
    script = [
        (5.0, 5.0),
        (3.0, 7.0),  # trade-off with the first: both stay
        (6.0, 6.0),  # dominated by the first
        (4.0, 8.0),  # dominated later, by the last
        (2.0, 8.0),  # the later dominator
    ]
    res, front = _scripted_pareto(script)
    assert front == [0, 1, 4]
    assert res.pareto == _front_obs(res, front)


def test_archive_keeps_duplicates_of_equal_points():
    script = [
        (2.0, 2.0),
        (2.0, 2.0),  # exact duplicate: equal points do not dominate
        (3.0, 3.0),  # dominated by both
    ]
    res, front = _scripted_pareto(script)
    assert front == [0, 1]
    assert res.pareto == _front_obs(res, front)


# ---------------------------------------------------------------- tune loop


def _parabola_eval(s):
    return (s - 0.3) ** 2 + 0.01, True, None


def _zero_error(_s, _paths):
    return 0.0


def test_tune_converges_on_noiseless_parabola():
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=15, population=12, generations=10)
    out = tune(_parabola_eval, _zero_error, cfg, seed=11)
    assert out.best_s is not None
    assert abs(out.best_s - 0.3) <= 0.05
    assert len(out.observations) == 15
    assert all(cfg.s_min <= o.s <= cfg.s_max for o in out.observations)


def test_tune_regret_growth_slows():
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=20, population=12, generations=10)
    out = tune(_parabola_eval, _zero_error, cfg, seed=2)
    r = [p[0] for p in out.regret_trace]
    n = len(r)
    assert n == 20
    first = (r[n // 2 - 1] - r[0]) / (n // 2 - 1)
    second = (r[-1] - r[n // 2 - 1]) / (n - n // 2)
    assert second < first


def test_tune_records_and_bootstrap_shape():
    cfg = TuneConfig(s_min=0.1, s_max=0.9, budget=6, population=8, generations=4)
    out = tune(_parabola_eval, _zero_error, cfg, seed=0)
    assert len(out.observations) == 6
    boot = [r for r in out.observations if r.lcb is None]
    assert len(boot) == 3
    assert {r.s for r in boot[:2]} == {0.1, 0.9}
    assert boot[2].s == pytest.approx(math.sqrt(0.1 * 0.9))
    assert all(r.score is not None for r in out.observations[3:])


def test_records_carry_the_fitted_hyperparameters():
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=7, population=8, generations=4, restarts=3)
    seed = 4
    out = tune(_parabola_eval, _zero_error, cfg, seed=seed)
    for r in out.observations[:3]:
        assert (r.ell, r.sf2, r.sn2, r.nll, r.nfev) == (None, None, None, None, None)
    for i, r in enumerate(out.observations[3:], start=3):  # evaluation t = i + 1
        prev = out.observations[i - 1]
        warm = None if i == 3 else (prev.ell, prev.sf2, prev.sn2)  # the first pick's fit is cold
        post = fit_surrogate(
            out.observations[:i],
            bounds=(cfg.s_min, cfg.s_max),
            restarts=cfg.restarts,
            seed=seed * 100003 + i + 1,
            start=warm,
        )
        assert (r.ell, r.sf2, r.sn2, r.nll, r.nfev) == (post.ell, post.sf2, post.sn2, post.nll, post.nfev)


def test_later_fits_run_two_starts_each(monkeypatch):
    runs = []
    real = tuning.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        runs.append(int(res.nfev))
        return res

    monkeypatch.setattr(tuning, "minimize", counting)
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=8, population=8, generations=3, restarts=5)
    out = tune(_parabola_eval, _zero_error, cfg, seed=1)
    picks = out.observations[3:]
    assert len(picks) == 5
    assert len(runs) == cfg.restarts + 2 * (len(picks) - 1)
    assert sum(r.nfev for r in picks) == sum(runs)


def test_warm_start_at_the_cold_optimum_loses_nothing():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(3, 20))
        s = rng.uniform(0.1, 1.0, size=n)
        runtimes = rng.lognormal(-3.0, 1.0, size=n)
        obs = [Observation(float(a), float(b), True, 0.0) for a, b in zip(s, runtimes)]
        cold = fit_surrogate(obs, bounds=(0.1, 1.0), restarts=8, seed=trial)
        warm = fit_surrogate(obs, bounds=(0.1, 1.0), start=(cold.ell, cold.sf2, cold.sn2))
        assert warm.nll <= cold.nll, (trial, warm.nll, cold.nll)
        d2 = (cold.x_norm[:, None] - cold.x_norm[None, :]) ** 2
        y_raw = np.log(runtimes + 1e-3)
        y = (y_raw - y_raw.mean()) / y_raw.std()
        # nll is the likelihood at the recorded hyperparameters, up to their exp/log round trip
        assert cold.nll == pytest.approx(_nll(np.log([cold.ell, cold.sf2, cold.sn2]), d2, y)[0], rel=1e-12)


def test_tune_is_deterministic_per_seed():
    cfg = TuneConfig(s_min=0.05, s_max=1.0, budget=8, population=8, generations=5)
    a = tune(_parabola_eval, _zero_error, cfg, seed=9)
    b = tune(_parabola_eval, _zero_error, cfg, seed=9)
    assert a.observations == b.observations
    c = tune(_parabola_eval, _zero_error, cfg, seed=10)
    assert a.observations != c.observations


# float.hex of each observation's s, recorded when NSGA-II's variation became
# one draw per operator per generation (the RNG stream moved, so the picks did)
_PINNED_PICKS = [
    "0x1.999999999999ap-4", "0x1.3333333333333p-1", "0x1.f5a7cecdb684ap-3", "0x1.025badf956846p-2",
    "0x1.cfa7c498f814ap-3", "0x1.a4ead68536234p-2", "0x1.ebc7336020cbdp-2", "0x1.7a4a0ceb37753p-2",
    "0x1.6cab981e22f19p-2", "0x1.739abe7f91810p-2", "0x1.70dd76e3aea7cp-2", "0x1.6ddf499888636p-2",
]


def test_picks_do_not_drift():
    # per-seed determinism cannot see a sort, crowding or tournament change
    # that moves a pick; this pins one seeded tune's picks to the last bit,
    # on criterion 6's noisy objective with an error that trades off against it
    noise = np.random.default_rng(9010)

    def eval_fn(s):
        return max((s - 0.3) ** 2 + 0.01 + noise.normal(0.0, 0.005), 0.0), True, None

    cfg = TuneConfig(s_min=0.1, s_max=0.6, budget=12)
    out = tune(eval_fn, lambda s, _p: np.abs(s - 0.45), cfg, seed=10, initial_paths=[[0]])
    assert [o.s.hex() for o in out.observations] == _PINNED_PICKS


def test_tune_degenerate_range_is_one_evaluation():
    cfg = TuneConfig(s_min=0.7, s_max=0.7, budget=10, population=8, generations=4)
    out = tune(_parabola_eval, _zero_error, cfg, seed=1)
    assert len(out.observations) == 1
    assert out.observations[0].s == 0.7
    assert out.best_s == 0.7
    assert out.observations[0].lcb is None


def test_tune_total_failure_uses_incumbent_error():
    calls = []

    def always_fail(s):
        return 10.0, False, None

    def err(s, paths):
        calls.append((s, tuple(map(tuple, paths))))
        return abs(s - 0.5)

    cfg = TuneConfig(s_min=0.1, s_max=0.9, budget=4, population=8, generations=3)
    out = tune(always_fail, err, cfg, seed=3, initial_paths=[[0, 1, 2]])
    assert out.best_s is None
    assert len(out.observations) == 4
    for o in out.observations:
        assert not o.success and o.runtime == 10.0
        assert o.error == pytest.approx(abs(o.s - 0.5))
    assert all(p == ((0, 1, 2),) for _, p in calls)
    assert len(out.regret_trace) == 4


def test_tune_without_paths_scores_zero_error():
    cfg = TuneConfig(s_min=0.1, s_max=0.9, budget=4, population=8, generations=3)
    out = tune(_parabola_eval, _zero_error, cfg, seed=0)
    assert all(o.error == 0.0 for o in out.observations)


def test_tune_config_validation():
    with pytest.raises(ValueError, match="s_min"):
        TuneConfig(s_min=0.0, s_max=1.0)
    with pytest.raises(ValueError, match="s_min"):
        TuneConfig(s_min=2.0, s_max=1.0)
    with pytest.raises(ValueError, match="budget"):
        TuneConfig(s_min=0.1, s_max=1.0, budget=0)
    with pytest.raises(ValueError, match="population"):
        TuneConfig(s_min=0.1, s_max=1.0, population=3)
    with pytest.raises(ValueError, match="generations"):
        TuneConfig(s_min=0.1, s_max=1.0, generations=0)
    with pytest.raises(ValueError, match="delta"):
        TuneConfig(s_min=0.1, s_max=1.0, delta=1.5)
    with pytest.raises(ValueError, match="eval_timeout"):
        TuneConfig(s_min=0.1, s_max=1.0, eval_timeout=-1.0)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            TuneConfig(s_min=0.1, s_max=1.0, restarts=restarts)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            fit_surrogate(_obs([(0.2, 1.0), (0.8, 3.0)]), restarts=restarts)


# ---------------------------------------------------------------- on a graph


def _real_line():
    verts = [Vertex(i, (float(i), 0.0)) for i in range(3)]
    return RealGraph(verts, [(0, 1, 1.0), (1, 2, 1.41421)])


def test_tune_graph_on_a_tiny_instance():
    g = _real_line()
    inst = Instance(g, (0,), (2,))
    cfg = TuneConfig(s_min=0.25, s_max=1.5, budget=5, population=8, generations=4, eval_timeout=5.0)
    out = tune_graph(inst, cfg, seed=1)
    assert out.best_s is not None
    assert len(out.observations) == 5
    assert all(o.success for o in out.observations)
    # the incumbent is the agent's real shortest path 0-1-2 from the start
    first = out.observations[0]
    assert first.error == pytest.approx(discretization_error(g, first.s, [[0, 1, 2]]))


def _small_roadmap(seed, n=16, k=2):
    """Random points in a 10 x 10 square, joined in a chain and to their k nearest neighbours."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 10.0, size=(n, 2)).tolist()
    pairs = {(min(u, v), max(u, v)) for u, v in zip(range(n), range(1, n))}
    for u in range(n):
        near = sorted(range(n), key=lambda v: math.dist(pts[u], pts[v]))[1 : k + 1]
        pairs |= {(min(u, v), max(u, v)) for v in near}
    verts = [Vertex(i, (x, y)) for i, (x, y) in enumerate(pts)]
    return RealGraph(verts, [(u, v, math.dist(pts[u], pts[v])) for u, v in sorted(pairs)])


def test_batched_error_keeps_every_pick():
    # tune scores a whole population per error_fn call; feeding it the same
    # errors one scale at a time must give the same observations, picks included
    from intmapf import Solution, SolveConfig, discretize, shortest_path, solve

    g = _small_roadmap(0)
    agents = [(2, 7), (11, 5), (3, 14), (10, 12), (0, 6), (4, 9)]
    inst = Instance(g, tuple(a for a, _ in agents), tuple(b for _, b in agents))
    initial = [shortest_path(g, a, b) for a, b in agents]

    def eval_fn(s):  # the solve's low-level calls: the same on every run
        out = solve(replace(inst, graph=discretize(g, s)), SolveConfig())
        assert isinstance(out, Solution)
        return out.stats.low_level_calls, True, [p.vertices() for p in out.plans]

    batched_calls = []

    def batched(scales, paths):
        batched_calls.append(len(scales))
        return discretization_error(g, scales, paths)

    def one_at_a_time(scales, paths):
        return np.array([oracles.discretization_error_loop(g, float(s), paths) for s in scales])

    cfg = TuneConfig(s_min=0.1, s_max=1.0, budget=8, population=8, generations=4)
    a = tune(eval_fn, batched, cfg, seed=4, initial_paths=initial)
    b = tune(eval_fn, one_at_a_time, cfg, seed=4, initial_paths=initial)
    assert a.observations == b.observations
    # neither objective is flat, so both steer the picks
    assert len({o.runtime for o in a.observations}) > 2 and len({o.error for o in a.observations}) > 2
    assert len(batched_calls) <= cfg.budget + (cfg.budget - 3) * (cfg.generations + 1)
    assert set(batched_calls) == {1, cfg.population}


def test_tune_graph_rejects_integer_graphs():
    from intmapf import IntGraph

    g = IntGraph([Vertex(i, (float(i), 0.0)) for i in range(3)], [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(TypeError, match="real-weighted"):
        tune_graph(Instance(g, (0,), (2,)), TuneConfig(s_min=0.5, s_max=1.0))


# ---------------------------------------------------------------- report


def test_format_tune_report_layout():
    cfg = TuneConfig(s_min=0.1, s_max=0.9, budget=4, population=8, generations=3)
    out = tune(_parabola_eval, _zero_error, cfg, seed=0)
    text = format_tune_report(out)
    lines = text.splitlines()
    assert lines[0] == "s,runtime,success,error,lcb,score,ell,sf2,sn2,nll,nfev"
    assert len(lines) == 5
    assert text.endswith("\n")
    row1 = lines[1].split(",")
    assert float(row1[0]) == out.observations[0].s and row1[2] == "true"
    assert row1[4:] == [""] * 7  # bootstrap rows have no pick and no surrogate
    row4 = lines[4].split(",")
    r4 = out.observations[3]
    assert float(row4[0]) == r4.s
    assert float(row4[5]) == r4.score
    assert [float(v) for v in row4[6:10]] == [r4.ell, r4.sf2, r4.sn2, r4.nll]
    assert int(row4[10]) == r4.nfev
