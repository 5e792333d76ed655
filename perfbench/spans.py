"""Spans around the calls into intmapf's modules, recorded from outside the package.

intmapf's modules import their collaborators by name (``from .sipp import
sipp_plan``) and look those names up in their own module globals at call
time.  A Tracer swaps each such attribute for a wrapper that records one span
per call, and puts every original back when its ``patched`` block exits, so no
file of the package changes and an untraced run executes the plain code.

A span is ``(name, start, end, parent, instance, extra)``: ``parent`` is the
index of the span open when the call began (-1 for none), ``instance`` is the
number of the root span the call belongs to, and ``extra`` is a small value
read from the call's arguments or result (a plan's absence, a conflict class,
an optimizer's evaluation count).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path


def _is_none(out, args):
    return out is None


def _conflict_class(out, args):
    return out


def _solve_outcome(out, args):
    stats = out.stats
    reason = getattr(out, "reason", None)
    return (reason, stats.nodes_expanded, stats.nodes_generated, args[0].n_agents)


def _nfev(out, args):
    return int(out.nfev)


def _n_points(out, args):
    return len(args[0])


def _weights_key(out, args):
    return hash(tuple(w for _, _, w in out.edges))


# (module, attribute, span name, extra): every attribute intmapf or the
# benchmark looks up at call time on the measured paths.
TARGETS = (
    ("intmapf.cbs", "solve", "cbs.solve", _solve_outcome),
    ("intmapf.bench", "solve", "cbs.solve", _solve_outcome),
    ("intmapf.cbs", "dijkstra", "graph.dijkstra", None),
    ("intmapf.cbs", "sipp_plan", "sipp.plan", _is_none),
    ("intmapf.cbs", "detect_conflicts", "cbs.detect_conflicts", None),
    ("intmapf.cbs", "classify_conflict", "cbs.classify", _conflict_class),
    ("intmapf.graph", "discretize", "graph.discretize", _weights_key),
    ("intmapf.bench", "discretize", "graph.discretize", _weights_key),
    ("intmapf.graph", "discretization_error", "graph.discretization_error", None),
    ("intmapf.bench", "discretization_error", "graph.discretization_error", None),
    ("intmapf.tuning", "tune", "tuning.tune", None),
    ("intmapf.tuning", "fit_surrogate", "tuning.fit_surrogate", None),
    ("intmapf.tuning", "minimize", "tuning.lbfgs", _nfev),
    ("intmapf.tuning", "nsga2_evolve", "nsga.evolve", None),
    ("intmapf.nsga", "fast_nondominated_sort", "nsga.sort", _n_points),
)


class Tracer:
    """Span recorder; ``patched()`` installs the wrappers for one block."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._instance = -1
        self._roots = 0
        self.restored = 0  # attributes found back on their originals after the last block

    def wrap(self, fn, name: str, extra=None):
        """fn with a span recorded around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._instance = self._roots
                self._roots += 1
            instance = self._instance
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), parent, instance, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, instance, None if extra is None else extra(out, args))
            return out

        return traced

    @contextmanager
    def patched(self):
        """Swap every TARGETS attribute for its traced wrapper; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name, extra in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, extra))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self.restored = sum(getattr(mod, attr) is original for mod, attr, original in saved)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, instance, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tinstance\textra\n")
            for i, sp in enumerate(self.spans):
                name, t0, t1, parent, inst, info = sp
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{inst}\t{'' if info is None else info}\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and seconds over the spans of one pass.

    A solve that ended in a timeout did as much work as the clock allowed, so
    it and the spans under it are left out; ``cbs.solve.timeouts`` counts them.
    Self time of a solve is its duration minus its direct children's, which run
    one after another.
    """
    timed_out = {
        i for i, sp in enumerate(spans) if sp[0] == "cbs.solve" and sp[5] is not None and sp[5][0] == "timeout"
    }
    solve_idx = {i for i, sp in enumerate(spans) if sp[0] == "cbs.solve"}
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    child_s: dict[int, float] = {}
    plan_calls: dict[int, int] = {}
    null_plans = 0
    classes = {"cardinal": 0, "semi": 0, "non": 0}
    nfev = points = expanded = generated = 0
    solve_agents: dict[int, int] = {}
    weight_keys: set[int] = set()
    search_detect = 0
    search_detect_s = 0.0
    for i, (name, t0, t1, parent, inst, info) in enumerate(spans):
        if i in timed_out or parent in timed_out:
            continue
        dt = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dt
        if parent in solve_idx:
            child_s[parent] = child_s.get(parent, 0.0) + dt
        if name == "cbs.solve":
            _, exp, gen, n_agents = info
            expanded += exp
            generated += gen
            solve_agents[i] = n_agents
        elif name == "sipp.plan":
            null_plans += bool(info)
            plan_calls[parent] = plan_calls.get(parent, 0) + 1
        elif name == "cbs.detect_conflicts" and parent in solve_idx:
            search_detect += 1
            search_detect_s += dt
        elif name == "cbs.classify":
            classes[info] += 1
        elif name == "tuning.lbfgs":
            nfev += info
        elif name == "nsga.sort":
            points += info
        elif name == "graph.discretize":
            weight_keys.add(info)
    solve_s = secs.get("cbs.solve", 0.0)
    n_plan = calls.get("sipp.plan", 0)
    n_classify = calls.get("cbs.classify", 0)
    return {
        "graph.dijkstra.calls": calls.get("graph.dijkstra", 0),
        "graph.dijkstra.s": secs.get("graph.dijkstra", 0.0),
        "graph.discretization_error.calls": calls.get("graph.discretization_error", 0),
        "graph.discretization_error.s": secs.get("graph.discretization_error", 0.0),
        "graph.discretize.calls": calls.get("graph.discretize", 0),
        "graph.distinct_int_graphs": len(weight_keys),
        "sipp.plan.calls": n_plan,
        "sipp.plan.s": secs.get("sipp.plan", 0.0),
        "sipp.plan.null_frac": null_plans / n_plan if n_plan else 0.0,
        "sipp.plan.classify_calls": sum(
            max(0, plan_calls.get(i, 0) - n) for i, n in solve_agents.items()
        ),
        "cbs.detect_conflicts.calls": search_detect,
        "cbs.detect_conflicts.s": search_detect_s,
        "cbs.solve.calls": calls.get("cbs.solve", 0),
        "cbs.solve.s": solve_s,
        "cbs.solve.self_s": solve_s - sum(child_s.get(i, 0.0) for i in solve_agents),
        "cbs.solve.timeouts": len(timed_out),
        "cbs.ct.expanded": expanded,
        "cbs.ct.generated": generated,
        "cbs.classify.calls": n_classify,
        "cbs.classify.cardinal": classes["cardinal"],
        "cbs.classify.semi": classes["semi"],
        "cbs.classify.non": classes["non"],
        "cbs.classify.per_expanded": n_classify / expanded if expanded else 0.0,
        "tuning.tune.s": secs.get("tuning.tune", 0.0),
        "tuning.fit_surrogate.calls": calls.get("tuning.fit_surrogate", 0),
        "tuning.fit_surrogate.s": secs.get("tuning.fit_surrogate", 0.0),
        "tuning.lbfgs.calls": calls.get("tuning.lbfgs", 0),
        "tuning.lbfgs.nfev": nfev,
        "tuning.eval.calls": calls.get("tuning.eval", 0),
        "tuning.eval.s": secs.get("tuning.eval", 0.0),
        "nsga.evolve.s": secs.get("nsga.evolve", 0.0),
        "nsga.sort.calls": calls.get("nsga.sort", 0),
        "nsga.sort.points": points,
        "nsga.sort.s": secs.get("nsga.sort", 0.0),
    }
