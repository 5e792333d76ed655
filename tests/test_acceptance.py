"""Acceptance sweep for the whole package, one test per criterion.

Each test prints exactly one `criterion N (<name>): PASS/FAIL` line with the
evidence behind the verdict, then asserts it.  The reference implementations
all live in oracles.py and share nothing with the package code paths they
judge.
"""

import math
import random
import time

import numpy as np

from intmapf import (
    ConstraintSet,
    Instance,
    IntGraph,
    SolveConfig,
    Solution,
    TimedPlan,
    TuneConfig,
    Vertex,
    aggregate,
    desk_suite,
    detect_conflicts,
    run_suite,
    sipp_plan,
    solve,
    tune,
    validate_solution,
)
from intmapf.graph import RealGraph, discretization_error
from intmapf.mapio import ParseError, parse_map, parse_roadmap, parse_scen, serialize_map, serialize_roadmap, serialize_scen
from intmapf.nsga import fast_nondominated_sort

from oracles import (
    bellman_ford,
    first_conflicts,
    joint_optimal_makespan,
    pareto_fronts_peel,
    replay_violations,
    time_expanded_optimum,
)
from test_mapio import MALFORMED_MAPS, MALFORMED_ROADMAPS, MALFORMED_SCENS

FIXDIR = __file__.rsplit("/", 1)[0] + "/fixtures"


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_int_graph(rng, n, max_w=3, p=0.5):
    verts = [Vertex(i, (float(i), 0.0)) for i in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_w)))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < p:
                edges.append((u, v, rng.randint(1, max_w)))
    return IntGraph(verts, edges)


def _random_walk_plan(rng, g, start=None, length=(0, 5)):
    v = rng.randrange(g.n) if start is None else start
    t = 0
    steps = [(v, t)]
    for _ in range(rng.randint(*length)):
        if rng.random() < 0.3 or not g.adjacency[v]:
            t += 1
            steps.append((v, t))
        else:
            u, w = rng.choice(g.adjacency[v])
            t += int(w)
            steps.append((u, t))
            v = u
    return TimedPlan(tuple(steps))


def test_criterion_1_optimality_oracle():
    rng = random.Random(1201)
    horizon = 40
    t0 = time.perf_counter()
    optimal = unsolvable = 0
    bad = []
    for trial in range(200):
        g = _random_int_graph(rng, rng.randint(4, 9), max_w=2, p=0.5)
        agents = rng.randint(1, min(3, g.n - 1))
        starts = tuple(rng.sample(range(g.n), agents))
        goals = tuple(rng.sample(range(g.n), agents))
        inst = Instance(g, starts, goals)
        want = joint_optimal_makespan(g, starts, goals, horizon)
        if want is None:
            # the solver shares the horizon, so a solution here would
            # contradict the oracle; exhaustion itself is not awaited
            got = solve(inst, SolveConfig(horizon=horizon, timeout=0.3))
            if isinstance(got, Solution):
                bad.append((trial, "solution on oracle-unsolvable instance"))
            else:
                unsolvable += 1
            continue
        got = solve(inst, SolveConfig(horizon=horizon, timeout=30.0))
        if not isinstance(got, Solution):
            bad.append((trial, f"no solution, oracle found {want}"))
        elif got.makespan != want:
            bad.append((trial, f"makespan {got.makespan} != optimum {want}"))
        elif validate_solution(inst, got.plans):
            bad.append((trial, "invalid solution"))
        else:
            optimal += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and optimal + unsolvable == 200 and elapsed < 60.0
    _verdict(
        1,
        "optimality oracle",
        ok,
        f"{optimal} optimal + {unsolvable} unsolvable of 200 in {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def _random_constraints(rng, g, agent):
    neg_v = set()
    for _ in range(rng.randint(0, 6)):
        neg_v.add((agent, rng.randrange(g.n), rng.randint(1, 12)))
    neg_e = set()
    for _ in range(rng.randint(0, 3)):
        if not g.edges:
            break
        u, v, _ = g.edges[rng.randrange(len(g.edges))]
        if rng.random() < 0.5:
            u, v = v, u
        t1 = rng.randint(0, 10)
        t2 = t1 + rng.randint(1, 4)
        neg_e.add((agent, (u, v), (t1, t2)))
    pos_v = set()
    used_times = set()
    for _ in range(rng.randint(0, 2)):
        t = rng.randint(1, 10)
        if t in used_times:
            continue
        used_times.add(t)
        pos_v.add((agent, rng.randrange(g.n), t))
    for _ in range(rng.randint(0, 2)):
        other = agent + 1 + rng.randrange(3)
        pos_v.add((other, rng.randrange(g.n), rng.randint(1, 10)))
    clash = {c for c in pos_v if c in neg_v}
    return ConstraintSet(frozenset(neg_v - clash), frozenset(neg_e), frozenset(pos_v))


def test_criterion_2_sipp_correctness():
    rng = random.Random(77)
    t0 = time.perf_counter()
    bad = []
    # free-flight costs against a textbook shortest-path pass
    for trial in range(60):
        g = _random_int_graph(rng, rng.randint(2, 12), max_w=3, p=0.4)
        src, dst = rng.randrange(g.n), rng.randrange(g.n)
        dist = bellman_ford(g.n, g.edges, src)[dst]
        plan = sipp_plan(g, src, dst, ConstraintSet(), 0)
        if dist == math.inf:
            if plan is not None:
                bad.append((trial, "plan on unreachable pair"))
        elif plan is None or plan.cost != dist:
            bad.append((trial, f"cost {None if plan is None else plan.cost} != {dist}"))
    free_trials = 60
    # constrained planning against a time-expanded brute force
    horizon = 25
    matched = none_agreed = 0
    for trial in range(160):
        g = _random_int_graph(rng, rng.randint(3, 12), max_w=3, p=0.5)
        src, dst = rng.randrange(g.n), rng.randrange(g.n)
        cons = _random_constraints(rng, g, agent=0)
        want = time_expanded_optimum(g, src, dst, cons, 0, horizon)
        plan = sipp_plan(g, src, dst, cons, 0, horizon=horizon)
        if want is None:
            if plan is not None:
                bad.append((trial, "plan where oracle finds none"))
            else:
                none_agreed += 1
        elif plan is None:
            bad.append((trial, f"no plan, oracle cost {want}"))
        elif plan.cost != want:
            bad.append((trial, f"cost {plan.cost} != optimum {want}"))
        elif replay_violations(g, plan, cons, 0):
            bad.append((trial, "plan violates its constraints"))
        else:
            matched += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and matched >= 60 and elapsed < 30.0
    _verdict(
        2,
        "constrained single-agent planning",
        ok,
        f"{free_trials} free + {matched} constrained + {none_agreed} infeasible agreed in {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_3_conflict_detection():
    rng = random.Random(3001)
    pairs = 0
    bad = []

    def check(pa, pb):
        nonlocal pairs
        pairs += 1
        got = []
        for c in detect_conflicts([pa, pb]):
            if c.kind == "vertex":
                got.append(("vertex", c.agents, c.time, c.vertex))
            else:
                got.append(("edge", c.agents, c.time, c.trav_i, c.trav_j))
        want = first_conflicts([pa, pb], max(pa.cost, pb.cost))
        if got != want:
            bad.append((pairs, got, want))

    # boundary: one agent departs an edge exactly when the other arrives
    check(TimedPlan(((0, 0), (1, 2))), TimedPlan(((1, 0), (1, 1), (1, 2), (0, 4))))
    # boundary: simultaneous opposite departures over one edge
    check(TimedPlan(((0, 0), (1, 2))), TimedPlan(((1, 0), (0, 2))))
    while pairs < 520:
        g = _random_int_graph(rng, rng.randint(2, 6), max_w=3, p=0.7)
        start = rng.randrange(g.n)
        pa = _random_walk_plan(rng, g, start=start if rng.random() < 0.4 else None)
        pb = _random_walk_plan(rng, g, start=start if rng.random() < 0.4 else None)
        check(pa, pb)
    ok = not bad
    _verdict(
        3,
        "conflict detection vs occupancy oracle",
        ok,
        f"{pairs} plan pairs, boundary cases included"
        + (f"; first mismatch {bad[0]}" if bad else ""),
    )


def test_criterion_4_splitting_and_prioritization():
    rng = random.Random(404)
    configs = {
        "ds_pc": SolveConfig(horizon=40, timeout=15.0, disjoint=True),
        "nd_pc": SolveConfig(horizon=40, timeout=15.0, disjoint=False),
        # one classified conflict per node: the earliest is expanded, unprioritized
        "nd_np": SolveConfig(horizon=40, timeout=15.0, disjoint=False, lazy_pc=1),
    }
    nodes = {k: [] for k in configs}
    kept = attempts = 0
    while kept < 100 and attempts < 1000:
        attempts += 1
        # sparse graphs force shared corridors; rotations cross every path
        g = _random_int_graph(rng, rng.randint(5, 8), max_w=2, p=0.15)
        agents = rng.randint(3, min(4, g.n - 1))
        starts = rng.sample(range(g.n), agents)
        if rng.random() < 0.7:
            goals = starts[1:] + starts[:1]
        else:
            goals = rng.sample(range(g.n), agents)
        inst = Instance(g, tuple(starts), tuple(goals))
        roots = [sipp_plan(g, s, t, ConstraintSet(), a) for a, (s, t) in enumerate(zip(starts, goals))]
        if any(p is None for p in roots) or not detect_conflicts(roots):
            continue  # not conflict-heavy, next draw
        if joint_optimal_makespan(g, inst.starts, inst.goals, 40) is None:
            continue
        outs = {k: solve(inst, c) for k, c in configs.items()}
        if not all(isinstance(o, Solution) for o in outs.values()):
            continue
        for k, o in outs.items():
            nodes[k].append(o.stats.nodes_expanded)
        kept += 1
    med = {k: float(np.median(v)) for k, v in nodes.items()}
    mean = {k: float(np.mean(v)) for k, v in nodes.items()}
    ok = kept >= 100 and med["ds_pc"] <= med["nd_pc"] and med["nd_pc"] <= med["nd_np"]
    _verdict(
        4,
        "disjoint splitting and conflict prioritization",
        ok,
        f"{kept} conflict-heavy instances; median nodes disjoint {med['ds_pc']} <= "
        f"nondisjoint {med['nd_pc']} <= unprioritized {med['nd_np']} "
        f"(means {mean['ds_pc']:.1f} / {mean['nd_pc']:.1f} / {mean['nd_np']:.1f})",
    )


def test_criterion_5_discretization_error_formula():
    rng = random.Random(55)
    trials = 0
    worst = 0.0
    bad = []
    while trials < 1000:
        n = rng.randint(2, 8)
        verts = [Vertex(i, (float(i), float(i % 3))) for i in range(n)]
        edges = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v, rng.uniform(0.05, 4.0)))
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and all({u, v} != {a, b} for a, b, _ in edges):
                edges.append((u, v, rng.uniform(0.05, 4.0)))
        g = RealGraph(verts, edges)
        paths = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            path = [v]
            for _ in range(rng.randint(0, 6)):
                nbrs = g.adjacency[path[-1]]
                if not nbrs and rng.random() < 0.5:
                    path.append(path[-1])
                    continue
                if not nbrs:
                    break
                if rng.random() < 0.2:
                    path.append(path[-1])  # waits contribute nothing
                else:
                    path.append(rng.choice(nbrs)[0])
            paths.append(path)
        s = rng.uniform(0.05, 3.0)
        got = discretization_error(g, s, paths)
        want = 0.0
        for path in paths:
            for u, v in zip(path, path[1:]):
                if u == v:
                    continue
                w = g.weight(u, v)
                want += abs(w - s * math.floor(w / s + 0.5))
        trials += 1
        diff = abs(got - want)
        worst = max(worst, diff)
        if diff > 1e-9:
            bad.append((trials, got, want))
    ok = not bad
    _verdict(
        5,
        "discretization error formula",
        ok,
        f"{trials} trials, worst deviation {worst:.2e}"
        + (f"; first mismatch {bad[0]}" if bad else ""),
    )


def test_criterion_6_tuner_on_synthetic_objective():
    hits = sublinear = 0
    details = []
    for seed in range(10, 20):
        noise = np.random.default_rng(9000 + seed)

        def eval_fn(s):
            rt = (s - 0.3) ** 2 + 0.01 + noise.normal(0.0, 0.005)
            return max(rt, 0.0), True, None

        cfg = TuneConfig(s_min=0.1, s_max=0.6, budget=25, population=20)
        out = tune(eval_fn, lambda s, p: 0.0, cfg, seed=seed)
        gap = abs(out.best_s - 0.3)
        hits += gap <= 0.05
        r = [p[0] for p in out.regret_trace]
        n = len(r)
        first = (r[n // 2 - 1] - r[0]) / (n // 2 - 1)
        second = (r[-1] - r[n // 2 - 1]) / (n - n // 2)
        sublinear += second < first
        details.append(round(gap, 3))
    ok = hits >= 9 and sublinear >= 9
    _verdict(
        6,
        "surrogate-guided tuning on a synthetic objective",
        ok,
        f"{hits}/10 seeds within 0.05 of the optimum, {sublinear}/10 sub-linear regret; gaps {details}",
    )


def test_criterion_7_nondominated_sorting():
    rng = np.random.default_rng(70)
    pr = random.Random(70)
    bad = []
    for trial in range(1000):
        n = pr.randint(1, 64)
        if pr.random() < 0.5:
            objs = rng.random((n, 2))
        else:
            objs = rng.integers(0, 6, size=(n, 2)).astype(float)
        got = [sorted(f) for f in fast_nondominated_sort(objs)]
        want = pareto_fronts_peel(objs)
        if got != want:
            bad.append((trial, got, want))
    ok = not bad
    _verdict(
        7,
        "non-dominated sorting vs brute force",
        ok,
        "1000 point sets of size <= 64" + (f"; first mismatch {bad[0]}" if bad else ""),
    )


def test_criterion_8_desk_scale_trend():
    spec = desk_suite(seed=0, timeout=10.0)
    result = run_suite(spec)
    summaries = aggregate(result.rows)
    by_combo = {}
    for s in summaries:
        by_combo.setdefault((s.map, s.k), {})[(s.mode, s.n_agents)] = s
    wins = []
    spans = []
    for combo, cells in sorted(by_combo.items()):
        top = None
        for n in sorted(spec.agent_counts, reverse=True):
            base = cells.get(("baseline", n))
            tuned = cells.get(("tuned", n))
            br = base.success_rate if base else 0.0
            tr = tuned.success_rate if tuned else 0.0
            if br > 0 or tr > 0:
                top = (n, br, tr)
                break
        if top is None:
            wins.append((combo, None, False))
            continue
        n, br, tr = top
        wins.append((combo, top, tr >= br))
        b_med = cells[("baseline", n)].makespan_median if ("baseline", n) in cells else None
        t_med = cells[("tuned", n)].makespan_median if ("tuned", n) in cells else None
        spans.append((combo, n, b_med, t_med))
    won = sum(1 for _, _, w in wins if w)
    ok = won >= math.ceil(0.7 * len(wins))
    # makespan shift is reported, not gated
    span_note = "; makespan medians (baseline vs tuned) " + ", ".join(
        f"{m}-k{k}@{n}: {b} vs {t}" for (m, k), n, b, t in spans
    )
    _verdict(
        8,
        "desk-scale success trend",
        ok,
        f"tuned >= baseline at the frontier in {won}/{len(wins)} map/k combos "
        + str([(c, t) for c, t, _ in wins])
        + span_note,
    )


def test_criterion_9_parser_goldens():
    map_text = open(f"{FIXDIR}/tiny.map").read()
    scen_text = open(f"{FIXDIR}/tiny.scen").read()
    road_text = open(f"{FIXDIR}/tiny.roadmap").read()
    round_trips = (
        serialize_map(parse_map(map_text)) == map_text,
        serialize_scen(parse_scen(scen_text)) == scen_text,
        serialize_roadmap(parse_roadmap(road_text)) == road_text,
    )
    rejected = 0
    bad = []
    cases = (
        [(parse_map, t, d) for t, d in MALFORMED_MAPS]
        + [(parse_scen, t, d) for t, d in MALFORMED_SCENS]
        + [(parse_roadmap, t, d) for t, d in MALFORMED_ROADMAPS]
    )
    for parser, text, needle in cases:
        try:
            parser(text)
            bad.append((needle, "accepted"))
        except ParseError as exc:
            if needle in str(exc):
                rejected += 1
            else:
                bad.append((needle, str(exc)))
    ok = all(round_trips) and rejected == len(cases) and len(cases) >= 10 and not bad
    _verdict(
        9,
        "parser golden files",
        ok,
        f"3/3 byte-identical round trips, {rejected}/{len(cases)} malformed variants rejected"
        + (f"; first failure {bad[0]}" if bad else ""),
    )
