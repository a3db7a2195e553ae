"""Cluster-scale serving simulation over the single-node serving engine.

The top layer of the stack: where :mod:`repro.serve` answers "what does
one node do with this trace", ``repro.fleet`` answers the scale-out
questions — how a *cluster* of heterogeneous accelerator replicas behaves
under realistic traffic shapes, what gets shed under overload, how fast an
autoscaler recovers the tail, and what a replica failure costs.

- :mod:`scenarios` — seeded workload generator (Poisson steady state,
  diurnal, flash-crowd, ramp, multi-tenant) with per-tenant SLOs and
  length distributions
- :mod:`fleet` — N replicas over heterogeneous design points with
  SLO-aware routing, admission control / load shedding, and failure
  injection + drain/recovery
- :mod:`autoscale` — utilization + p99 driven replica scaling with
  simulator-priced cold starts
- :mod:`chaos` — seeded chaos plans (fail-stop, gray/straggler windows,
  correlated zone outages) and the resilience policy that answers them:
  retries with exponential backoff + a retry budget, request hedging,
  per-replica circuit breakers, and brownout degradation
- :mod:`metrics` — empty-safe per-tenant / per-replica aggregation,
  goodput, shed rates
- :mod:`runner` — the deterministic event loop behind
  ``repro.cli loadtest``
- :mod:`columnar` — the columnar analytic engine: the same simulation
  re-expressed over numpy columns and memoized price tables, byte-exact
  against the event loop and two orders of magnitude faster, with
  deterministic time-window sharding

Everything runs on the simulated clock: same seed, byte-identical report.
"""

from .autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from .chaos import (
    BrownoutLadder,
    ChaosPlan,
    ChaosStats,
    CircuitBreaker,
    GrayWindow,
    ResiliencePolicy,
    RetryBudget,
    SHED_BREAKER,
    SHED_NO_CAPACITY,
    SHED_OVERLOAD,
    SHED_TIMEOUT,
    ZoneOutage,
    backoff_delay_ms,
    chaos_plan_from_dict,
    load_chaos_plan,
)
from .columnar import (
    ColumnarFleetState,
    ShardPartial,
    merge_shard_partials,
    native_available,
    run_scenario_columnar,
    shard_windows,
)
from .fleet import (
    Fleet,
    FleetConfig,
    Replica,
    ReplicaSpec,
    RequestRecord,
)
from .metrics import (
    FleetStats,
    ReplicaStats,
    TenantStats,
    build_fleet_stats_columns,
)
from .runner import FailureEvent, FleetReport, run_scenario
from .scenarios import (
    SCENARIO_NAMES,
    ColumnarTrace,
    FleetRequest,
    Scenario,
    TenantSpec,
    builtin_scenarios,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleEvent",
    "BrownoutLadder",
    "ChaosPlan",
    "ChaosStats",
    "CircuitBreaker",
    "GrayWindow",
    "ResiliencePolicy",
    "RetryBudget",
    "SHED_BREAKER",
    "SHED_NO_CAPACITY",
    "SHED_OVERLOAD",
    "SHED_TIMEOUT",
    "ZoneOutage",
    "backoff_delay_ms",
    "chaos_plan_from_dict",
    "load_chaos_plan",
    "ColumnarFleetState",
    "ColumnarTrace",
    "ShardPartial",
    "merge_shard_partials",
    "native_available",
    "run_scenario_columnar",
    "shard_windows",
    "Fleet",
    "FleetConfig",
    "Replica",
    "ReplicaSpec",
    "RequestRecord",
    "FleetStats",
    "ReplicaStats",
    "TenantStats",
    "build_fleet_stats_columns",
    "FailureEvent",
    "FleetReport",
    "run_scenario",
    "SCENARIO_NAMES",
    "FleetRequest",
    "Scenario",
    "TenantSpec",
    "builtin_scenarios",
]
