"""Design-space exploration and SLO-driven capacity planning.

The layer that turns the simulator from a point-evaluator into an
optimizer: :mod:`repro.search.space` defines seeded knob grids over
:class:`~repro.accel.config.AcceleratorConfig` and the FPGA parts;
:mod:`repro.search.explorer` prices every candidate through the analytic
stack (memoized) and reduces the feasible set to a deterministic Pareto
front; :mod:`repro.search.planner` searches fleet compositions and
autoscaler policies with the analytic fleet simulator as its inner loop,
returning the cheapest plan that meets p99/shed SLO targets.

``repro.cli search`` fronts both halves; ``repro.cli bench`` holds memoized
pricing to ≥1k candidate evaluations per second, and the tier-1 tests keep
the paper's Table III design points on the front.
"""

from .explorer import (
    DEFAULT_OBJECTIVES,
    ExplorationResult,
    OBJECTIVES,
    clear_evaluation_cache,
    dominates,
    evaluate_candidate,
    evaluation_cache_size,
    explore,
    objective_vector,
    pareto_front,
)
from .planner import (
    PLAN_OBJECTIVES,
    PlanOutcome,
    PlanSpec,
    PlanningResult,
    SloTarget,
    plan_capacity,
)
from .space import Candidate, DesignSpace, SPACE_NAMES, builtin_spaces

__all__ = [
    "Candidate",
    "DEFAULT_OBJECTIVES",
    "DesignSpace",
    "ExplorationResult",
    "OBJECTIVES",
    "PLAN_OBJECTIVES",
    "PlanOutcome",
    "PlanSpec",
    "PlanningResult",
    "SPACE_NAMES",
    "SloTarget",
    "builtin_spaces",
    "clear_evaluation_cache",
    "dominates",
    "evaluate_candidate",
    "evaluation_cache_size",
    "explore",
    "objective_vector",
    "pareto_front",
    "plan_capacity",
]
