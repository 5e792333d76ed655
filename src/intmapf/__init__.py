"""Multi-agent pathfinding on integer-weighted graphs, with a tuned discretization."""

from .graph import (
    GridSpec,
    IntGraph,
    RealGraph,
    Vertex,
    build_grid_graph,
    cell_vertex_ids,
    discretization_error,
    discretize,
    dijkstra,
    neighborhood_moves,
    round_half_away,
    segment_cells,
    shortest_path,
)
from .mapio import (
    Instance,
    ParseError,
    ScenarioEntry,
    make_instance,
    place_agents,
    parse_map,
    parse_roadmap,
    parse_scen,
    serialize_map,
    serialize_roadmap,
    serialize_scen,
)
from .sipp import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    SafeInterval,
    TimedPlan,
    build_safe_intervals,
    sipp_plan,
)
from .cbs import (
    Conflict,
    Failure,
    SearchStats,
    Solution,
    SolveConfig,
    detect_conflicts,
    serialize_solution,
    solve,
    validate_solution,
)
from .nsga import nsga2_evolve
from .tuning import (
    Observation,
    TuneConfig,
    TuneResult,
    fit_surrogate,
    lcb,
    score_candidates,
    tune,
    tune_graph,
)
from .bench import ExperimentSpec, MapCase, ResultRow, aggregate, desk_suite, run_suite

__version__ = "0.1.0"
