"""Tests of the benchmark itself: repeatable counters, a gate that catches bad output.

    python3 -m pytest -q perfbench

They use slices of the workloads so they finish in well under a minute.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)  # the workloads read tests/oracles.py relative to the checkout root

import workloads  # noqa: E402
from intmapf.cbs import Failure, Solution  # noqa: E402
from spans import TARGETS, Tracer, layer_metrics  # noqa: E402

CHEAP_DRAWS = tuple(range(1, 13))  # draw 0 alone takes seconds


def _small_desk():
    spec = workloads.build_desk(0)
    return replace(spec, cases=spec.cases[:1], agent_counts=(8,))


def _small_conflict_dense():
    inp = workloads.build_conflict_dense(0)
    return replace(inp, order=CHEAP_DRAWS)


def _gate_errors(workload: str, inputs, *passes) -> list[str]:
    gate = workloads.Gate(workload, inputs)
    for p in passes:
        gate.check(p)
    return gate.errors


def _traced_counters(workload: str, inputs) -> dict:
    tracer = Tracer()
    with tracer.patched():
        result = workloads.WORKLOADS[workload][1](inputs, tracer)
    assert tracer.restored == len(TARGETS)
    assert _gate_errors(workload, inputs, result) == []
    return {k: v for k, v in layer_metrics(tracer.spans).items() if not k.endswith((".s", "_s"))}


def test_two_short_runs_give_equal_counters():
    for workload, inputs in (("desk-solve", _small_desk()), ("conflict-dense", _small_conflict_dense())):
        first = _traced_counters(workload, inputs)
        second = _traced_counters(workload, inputs)
        assert first == second
        assert first["sipp.plan.calls"] > 0 and first["cbs.ct.expanded"] > 0


def test_tracing_restores_every_attribute():
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS]
    tracer = Tracer()
    try:
        with tracer.patched():
            assert all(getattr(importlib.import_module(m), a) is not o for (m, a, _, _), o in zip(TARGETS, originals))
            raise RuntimeError("leave the block early")
    except RuntimeError:
        pass
    assert [getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS] == originals
    assert tracer.restored == len(TARGETS)


def test_desk_slice_matches_the_reference():
    ref = workloads.desk_reference()
    result = workloads.run_desk(_small_desk())
    assert _gate_errors("desk-solve", None, result) == []
    for rec in result.solves:
        assert rec.outcome.stats.low_level_calls == ref[rec.key]["low_level_calls"]
        assert rec.outcome.stats.nodes_expanded == ref[rec.key]["nodes_expanded"]


def test_gate_rejects_a_corrupted_makespan():
    inp = _small_conflict_dense()
    result = workloads.run_conflict_dense(inp)
    assert _gate_errors("conflict-dense", inp, result) == []
    rec = result.solves[0]
    assert isinstance(rec.outcome, Solution)
    bad = replace(rec, outcome=replace(rec.outcome, makespan=rec.outcome.makespan + 1))
    errors = _gate_errors("conflict-dense", inp, replace(result, solves=(bad,) + result.solves[1:]))
    assert any(rec.key in e and "makespan" in e for e in errors)


def test_gate_rejects_a_false_exhaustion_and_a_changed_rerun():
    inp = _small_conflict_dense()
    result = workloads.run_conflict_dense(inp)
    rec = result.solves[0]
    exhausted = replace(rec, outcome=Failure("exhausted", rec.outcome.stats))
    errors = _gate_errors("conflict-dense", inp, replace(result, solves=(exhausted,)))
    assert any("exhausted" in e for e in errors)
    stats = replace(rec.outcome.stats, low_level_calls=rec.outcome.stats.low_level_calls + 1)
    moved = replace(rec, outcome=replace(rec.outcome, stats=stats))
    errors = _gate_errors("conflict-dense", inp, result, replace(result, solves=(moved,)))
    assert errors == [f"{rec.key}: plans or counters differ between passes"]


def test_oracle_cache_agrees_with_the_oracle():
    oracles = workloads.load_oracles()
    cached = workloads.cached_optimum()
    checked = []

    def optimum(inst):
        want = cached(inst)
        if len(checked) < 20:
            checked.append(inst)
            got = oracles.joint_optimal_makespan(inst.graph, inst.starts, inst.goals, workloads.CD_HORIZON)
            assert got == want, workloads.instance_key(inst)
        return want

    assert len(workloads.conflict_dense_draws(optimum)) == workloads.CD_COUNT
    assert len(checked) == 20


def test_gate_finds_conflicts_the_solvers_detector_misses(monkeypatch):
    from intmapf import cbs
    from intmapf.sipp import EMPTY_CONSTRAINTS, sipp_plan

    inp = _small_conflict_dense()
    result = workloads.run_conflict_dense(inp)
    rec = result.solves[0]
    inst = rec.instance
    roots = tuple(
        sipp_plan(inst.graph, s, g, EMPTY_CONSTRAINTS, a) for a, (s, g) in enumerate(zip(inst.starts, inst.goals))
    )  # conflict by construction: the draws are filtered on it
    bad = replace(rec, outcome=replace(rec.outcome, plans=roots, makespan=max(p.cost for p in roots)))
    monkeypatch.setattr(cbs, "detect_conflicts", lambda plans, t_max=None: [])
    errors = _gate_errors("conflict-dense", inp, replace(result, solves=(bad,)))
    assert any("the oracle finds a conflict" in e for e in errors)
