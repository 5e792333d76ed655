"""Regenerate the benchmark's reference data under perfbench/data.

    python3 perfbench/make_data.py

Run from the root of a checkout.  It writes two files:

- ``desk_reference.json``: makespan and search counters of each of the 96
  desk solves, taken at the commit that defined the benchmark.  The run
  compares makespans with it and reports how far the counters moved.
- ``conflict_dense_oracle.json``: the joint-state oracle's optimum (or null)
  for every conflict-dense draw whose root plans conflict, from
  ``tests/oracles.py``.  The oracle needs about half a minute for the set, so
  the runs read these values instead of recomputing them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def oracle_optimum(oracles, record: dict):
    def optimum(inst):
        opt = oracles.joint_optimal_makespan(inst.graph, inst.starts, inst.goals, workloads.CD_HORIZON)
        record[workloads.instance_key(inst)] = opt
        return opt

    return optimum


def main() -> None:
    optima: dict[str, int | None] = {}
    workloads.conflict_dense_draws(oracle_optimum(workloads.load_oracles(), optima))
    workloads.CD_ORACLE.parent.mkdir(exist_ok=True)
    workloads.CD_ORACLE.write_text(
        json.dumps({"rng": workloads.CD_RNG, "horizon": workloads.CD_HORIZON, "optima": optima}, indent=0) + "\n"
    )
    rows = {}
    for rec in workloads.run_desk(workloads.build_desk(0)).solves:
        out = rec.outcome
        rows[rec.key] = {
            "makespan": getattr(out, "makespan", None),
            "nodes_expanded": out.stats.nodes_expanded,
            "low_level_calls": out.stats.low_level_calls,
        }
    workloads.DESK_REFERENCE.write_text(json.dumps({"rows": dict(sorted(rows.items()))}, indent=1) + "\n")
    print(f"{len(optima)} oracle values, {len(rows)} desk rows")


if __name__ == "__main__":
    main()
