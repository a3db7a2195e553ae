"""SLO-driven capacity planner over the analytic fleet simulator.

Given a traffic scenario, a ladder of candidate design points, and SLO
targets, ``plan_capacity`` searches fleet *plans* — heterogeneous replica
compositions plus optional autoscaler policies — and returns the cheapest
plan that meets the targets.  The inner loop is one analytic
(:mod:`repro.fleet` latency-only) scenario run per plan: timing is exactly
the executed-mode timing, so a plan's verdict is the verdict the full
simulation would give, at a tiny fraction of the cost — that fast path is
what makes exhaustive composition search affordable.

Cost is measured two ways, selectable as the planning objective:

- ``replica-seconds`` — provisioned capacity time: the sum over replicas
  of their live lifetime.  The "how many boards do I rent for how long"
  number.
- ``energy`` — joules: each replica's board power (from the calibrated
  device model, at its design point's DSP usage) times its live lifetime.
  A weak part is cheap per second; a strong part finishes sooner — the
  planner prices that trade.

Feasibility requires the fleet-wide p99 under the target, the shed rate
under the target, and (by default) every tenant's p99 within its own SLO.
With a chaos plan attached the planner turns *redundancy-aware*: each
candidate is additionally replayed under the plan (plus any resilience
policy), and only plans whose targets hold both clean and under chaos are
feasible — "cheapest fleet that survives the named outage", N+1 sizing by
simulation rather than by rule of thumb.
Everything is deterministic: equal arguments give byte-identical plans.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..fleet.autoscale import AutoscalePolicy
from ..fleet.chaos import ChaosPlan, ResiliencePolicy
from ..fleet.columnar import run_scenario_columnar
from ..fleet.fleet import FleetConfig, ReplicaSpec
from ..fleet.runner import FleetReport, run_scenario
from ..fleet.scenarios import Scenario, builtin_scenarios
from ..accel.resources import estimate_dsp

PLAN_OBJECTIVES = ("replica-seconds", "energy")
PLAN_ENGINES = ("analytic", "columnar")


@dataclass(frozen=True)
class SloTarget:
    """What the plan must deliver."""

    p99_ms: float                     # fleet-wide tail target
    max_shed_rate: float = 0.0        # tolerated shed fraction of submitted
    enforce_tenant_slos: bool = True  # each tenant's p99 <= its own slo_ms

    def __post_init__(self):
        if self.p99_ms <= 0:
            raise ValueError(f"p99_ms must be > 0, got {self.p99_ms}")
        if not 0.0 <= self.max_shed_rate <= 1.0:
            raise ValueError(
                f"max_shed_rate must be in [0, 1], got {self.max_shed_rate}"
            )


@dataclass(frozen=True)
class PlanSpec:
    """One candidate plan: a replica composition plus an optional policy."""

    replicas: Tuple[ReplicaSpec, ...]
    autoscale: Optional[AutoscalePolicy] = None

    @property
    def label(self) -> str:
        counts: Dict[str, int] = {}
        for spec in self.replicas:
            counts[spec.label] = counts.get(spec.label, 0) + 1
        parts = [f"{count}x {label}" for label, count in sorted(counts.items())]
        suffix = ""
        if self.autoscale is not None:
            suffix = f" + autoscale(max {self.autoscale.max_replicas})"
        return " + ".join(parts) + suffix


@dataclass
class PlanOutcome:
    """One evaluated plan: its verdict and both cost readings."""

    plan: PlanSpec
    feasible: bool
    p99_ms: float
    shed_rate: float
    goodput_rps: float
    slo_attainment: float
    replica_seconds: float
    energy_j: float
    report: FleetReport
    # chaos replay verdict — None when no chaos plan was supplied.  The
    # headline ``feasible`` already folds this in (clean AND chaos); the
    # split fields say *which* leg a rejected plan failed.
    chaos_feasible: Optional[bool] = None
    chaos_p99_ms: float = 0.0
    chaos_shed_rate: float = 0.0
    chaos_goodput_rps: float = 0.0

    def to_dict(self) -> Dict:
        doc = {
            "plan": self.plan.label,
            "replicas": [spec.label for spec in self.plan.replicas],
            "autoscaled": self.plan.autoscale is not None,
            "feasible": self.feasible,
            "p99_ms": self.p99_ms,
            "shed_rate": self.shed_rate,
            "goodput_rps": self.goodput_rps,
            "slo_attainment": self.slo_attainment,
            "replica_seconds": self.replica_seconds,
            "energy_j": self.energy_j,
        }
        if self.chaos_feasible is not None:
            doc["chaos"] = {
                "feasible": self.chaos_feasible,
                "p99_ms": self.chaos_p99_ms,
                "shed_rate": self.chaos_shed_rate,
                "goodput_rps": self.chaos_goodput_rps,
            }
        return doc


@dataclass
class PlanningResult:
    """The planner's full answer: every evaluated plan plus the winner."""

    scenario: str
    target: SloTarget
    objective: str
    max_replicas: int
    budget: Optional[int]
    seed: int
    outcomes: List[PlanOutcome]
    best: Optional[PlanOutcome]
    truncated: bool  # the budget cut the candidate list short
    chaos_plan: Optional[str] = None  # chaos plan name when redundancy-aware

    def render(self) -> str:
        """Deterministic human-readable planning report."""
        lines = [
            f"scenario: {self.scenario}  (objective {self.objective}, "
            f"p99 <= {self.target.p99_ms:.0f} ms, "
            f"shed <= {self.target.max_shed_rate * 100:.1f}%, seed {self.seed})",
            f"plans evaluated: {len(self.outcomes)}"
            + (" (budget-truncated)" if self.truncated else "")
            + (
                f"  [each replayed under chaos plan {self.chaos_plan!r}]"
                if self.chaos_plan is not None
                else ""
            ),
        ]
        for outcome in self.outcomes:
            verdict = "ok " if outcome.feasible else "MISS"
            chaos_part = ""
            if outcome.chaos_feasible is not None:
                chaos_verdict = "ok" if outcome.chaos_feasible else "MISS"
                chaos_part = (
                    f"  chaos[{chaos_verdict} p99 {outcome.chaos_p99_ms:.2f} ms "
                    f"shed {outcome.chaos_shed_rate * 100:.1f}%]"
                )
            lines.append(
                f"  [{verdict}] {outcome.plan.label:<40} "
                f"p99 {outcome.p99_ms:8.2f} ms  shed {outcome.shed_rate * 100:5.1f}%  "
                f"{outcome.replica_seconds:7.3f} replica-s  {outcome.energy_j:8.3f} J"
                + chaos_part
            )
        if self.best is None:
            lines.append("no feasible plan within the search space")
        else:
            lines.append(
                f"cheapest feasible plan: {self.best.plan.label} "
                f"({self.best.replica_seconds:.3f} replica-s, "
                f"{self.best.energy_j:.3f} J)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-ready stable document (``repro-search/1``, plan mode)."""
        return {
            "schema": "repro-search/1",
            "mode": "plan",
            "scenario": self.scenario,
            "objective": self.objective,
            "target": {
                "p99_ms": self.target.p99_ms,
                "max_shed_rate": self.target.max_shed_rate,
                "enforce_tenant_slos": self.target.enforce_tenant_slos,
            },
            "max_replicas": self.max_replicas,
            "budget": self.budget,
            "seed": self.seed,
            "chaos_plan": self.chaos_plan,
            "truncated": self.truncated,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "best": self.best.to_dict() if self.best is not None else None,
        }

    def to_json(self) -> str:
        """Stable JSON (sorted keys) for files and byte-compare tests."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _plan_candidates(
    designs: Sequence[ReplicaSpec],
    max_replicas: int,
    include_autoscale: bool,
) -> List[PlanSpec]:
    """Every candidate plan, in deterministic cheapest-first order.

    Fixed compositions enumerate by size (all 1-replica plans, then all
    2-replica multisets, ...), so under the replica-seconds objective the
    cheapest candidates are tried first and a budget cut still leaves the
    interesting ones evaluated.  Autoscaled variants (one per design,
    starting from a single replica) follow their base size.
    """
    plans: List[PlanSpec] = []
    for size in range(1, max_replicas + 1):
        for combo in itertools.combinations_with_replacement(designs, size):
            plans.append(PlanSpec(replicas=tuple(combo)))
        if size == 1 and include_autoscale and max_replicas > 1:
            for design in designs:
                plans.append(
                    PlanSpec(
                        replicas=(design,),
                        autoscale=AutoscalePolicy(
                            min_replicas=1, max_replicas=max_replicas
                        ),
                    )
                )
    return plans


def _replica_power_watts(spec: ReplicaSpec) -> float:
    """Board power of one replica at its design point's DSP usage."""
    return spec.device.power(estimate_dsp(spec.accel_config))


def _score_outcome(
    report: FleetReport,
    plan: PlanSpec,
    labels: Dict[str, ReplicaSpec],
    target: SloTarget,
    tenant_slos: Dict[str, float],
) -> PlanOutcome:
    """Fold one fleet report into costs and a feasibility verdict."""
    stats = report.stats
    duration_ms = stats.duration_ms
    replica_seconds = 0.0
    energy_j = 0.0
    for replica in stats.replicas:
        end_ms = duration_ms if replica.retired_ms < 0 else replica.retired_ms
        lifetime_s = max(0.0, end_ms - replica.added_ms) / 1000.0
        replica_seconds += lifetime_s
        spec = labels.get(replica.spec_label)
        if spec is not None:
            energy_j += _replica_power_watts(spec) * lifetime_s
    feasible = (
        stats.submitted > 0
        and stats.completed > 0
        and stats.p99_latency_ms <= target.p99_ms
        and stats.shed_rate <= target.max_shed_rate
    )
    if feasible and target.enforce_tenant_slos:
        for tenant in stats.tenants.values():
            slo_ms = tenant_slos.get(tenant.tenant, float("inf"))
            if tenant.completed and tenant.p99_latency_ms > slo_ms:
                feasible = False
                break
    return PlanOutcome(
        plan=plan,
        feasible=feasible,
        p99_ms=stats.p99_latency_ms,
        shed_rate=stats.shed_rate,
        goodput_rps=stats.goodput_rps,
        slo_attainment=stats.slo_attainment,
        replica_seconds=replica_seconds,
        energy_j=energy_j,
        report=report,
    )


def plan_capacity(
    scenario: Union[str, Scenario],
    designs: Sequence[ReplicaSpec],
    target: SloTarget,
    model,
    tokenizer,
    fleet_config: Optional[FleetConfig] = None,
    max_replicas: int = 3,
    objective: str = "replica-seconds",
    include_autoscale: bool = True,
    budget: Optional[int] = None,
    seed: int = 0,
    rate_scale: float = 1.0,
    duration_scale: float = 1.0,
    engine: str = "columnar",
    chaos: Optional[ChaosPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> PlanningResult:
    """Search fleet plans and return the cheapest one meeting the SLOs.

    Args:
        scenario: A built-in scenario name or a :class:`Scenario`.
        designs: The candidate design-point ladder (e.g. a Pareto front's
            members as :class:`ReplicaSpec`; labels must be unique).
        target: The SLO targets a feasible plan must meet.
        model: Frozen integer model every replica serves.
        tokenizer: Tokenizer shared by every replica.
        fleet_config: Cluster policy (default: the fleet default).
        max_replicas: Largest composition size (and autoscale ceiling).
        objective: ``"replica-seconds"`` or ``"energy"`` — which cost the
            winner minimizes (the other breaks ties).
        include_autoscale: Also evaluate one autoscaled single-replica
            variant per design.
        budget: Maximum plan evaluations (``None`` = all candidates).
        seed: Scenario seed, passed to every fleet run.
        rate_scale: Rate multiplier for scenario generation.
        duration_scale: Duration multiplier for scenario generation.
        engine: ``"columnar"`` (default) prices every plan through the
            columnar analytic engine, generating the trace columns *and
            bucket indices* once and reusing them across all candidate
            evaluations;
            ``"analytic"`` walks the analytic event-loop runner per plan
            (the names are ``repro.cli loadtest --engine``'s).  The two
            engines emit byte-identical reports, so the planning result
            is the same either way — columnar is simply much faster.
        chaos: Replay every candidate under this chaos plan as well; a
            plan is feasible only if the targets hold *both* clean and
            under chaos.  This is N+1 sizing by simulation: the cheapest
            feasible plan is the cheapest fleet that survives the named
            outage, not just the cheapest that serves the happy path.
        resilience: Resilience policy (retries/hedging/breaker/brownout)
            active during the chaos replay.  Ignored unless ``chaos`` is
            given — the clean leg always runs bare so its costs stay
            comparable across planner invocations.

    Returns:
        The :class:`PlanningResult`; ``best`` is ``None`` when nothing
        within the search space meets the targets.

    Raises:
        ValueError: On an unknown objective or engine, an empty/duplicate
            design ladder, or a non-positive ``max_replicas`` or
            ``budget``.
    """
    if objective not in PLAN_OBJECTIVES:
        raise ValueError(
            f"unknown plan objective {objective!r}; choose from {PLAN_OBJECTIVES}"
        )
    if engine not in PLAN_ENGINES:
        raise ValueError(
            f"unknown plan engine {engine!r}; choose from {PLAN_ENGINES}"
        )
    if not designs:
        raise ValueError("the design ladder must name at least one design point")
    if max_replicas < 1:
        raise ValueError(f"max_replicas must be >= 1, got {max_replicas}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    labels = {spec.label: spec for spec in designs}
    if len(labels) != len(designs):
        raise ValueError(
            "design ladder labels must be unique (the default label omits "
            "BIM type and frequency — give colliding ReplicaSpecs explicit "
            "name= values)"
        )
    fleet_config = fleet_config or FleetConfig()

    candidates = _plan_candidates(list(designs), max_replicas, include_autoscale)
    truncated = budget is not None and len(candidates) > budget
    if truncated:
        candidates = candidates[:budget]

    scenario_name = scenario if isinstance(scenario, str) else scenario.name
    tenant_slos = _scenario_tenant_slos(scenario)
    if engine == "columnar":
        # Generate the trace columns once and share them across every
        # candidate evaluation — the trace depends only on (scenario,
        # seed, scales), never on the plan, and a prebuilt ColumnarTrace
        # carries its own generation seed so the report echoes it.  The
        # engine memoizes the trace's bucket column on it, so the pool
        # texts are tokenized once too.
        resolved = scenario
        if isinstance(resolved, str):
            catalog = builtin_scenarios()
            if resolved not in catalog:
                raise ValueError(
                    f"unknown scenario {resolved!r}; choose from {sorted(catalog)}"
                )
            resolved = catalog[resolved]
        runs = resolved.generate_columns(
            seed=seed, rate_scale=rate_scale, duration_scale=duration_scale
        )
    def _evaluate(plan: PlanSpec, with_chaos: bool) -> FleetReport:
        if engine == "columnar":
            return run_scenario_columnar(
                runs,
                model,
                tokenizer,
                list(plan.replicas),
                fleet_config,
                autoscale=plan.autoscale,
                scale_spec=plan.replicas[0],
                seed=seed,
                chaos=chaos if with_chaos else None,
                resilience=resilience if with_chaos else None,
            )
        return run_scenario(
            scenario,
            model,
            tokenizer,
            list(plan.replicas),
            fleet_config,
            autoscale=plan.autoscale,
            scale_spec=plan.replicas[0],
            seed=seed,
            rate_scale=rate_scale,
            duration_scale=duration_scale,
            analytic=True,
            chaos=chaos if with_chaos else None,
            resilience=resilience if with_chaos else None,
        )

    outcomes: List[PlanOutcome] = []
    for plan in candidates:
        outcome = _score_outcome(
            _evaluate(plan, False), plan, labels, target, tenant_slos
        )
        if chaos is not None:
            degraded = _score_outcome(
                _evaluate(plan, True), plan, labels, target, tenant_slos
            )
            outcome.chaos_feasible = degraded.feasible
            outcome.chaos_p99_ms = degraded.p99_ms
            outcome.chaos_shed_rate = degraded.shed_rate
            outcome.chaos_goodput_rps = degraded.goodput_rps
            outcome.feasible = outcome.feasible and degraded.feasible
        outcomes.append(outcome)

    feasible = [outcome for outcome in outcomes if outcome.feasible]
    best: Optional[PlanOutcome] = None
    if feasible:
        if objective == "replica-seconds":
            key = lambda o: (o.replica_seconds, o.energy_j, len(o.plan.replicas), o.plan.label)
        else:
            key = lambda o: (o.energy_j, o.replica_seconds, len(o.plan.replicas), o.plan.label)
        best = min(feasible, key=key)
    return PlanningResult(
        scenario=scenario_name,
        target=target,
        objective=objective,
        max_replicas=max_replicas,
        budget=budget,
        seed=seed,
        outcomes=outcomes,
        best=best,
        truncated=truncated,
        chaos_plan=chaos.name if chaos is not None else None,
    )


def _scenario_tenant_slos(scenario: Union[str, Scenario]) -> Dict[str, float]:
    """The per-tenant SLOs of a scenario (for the tenant feasibility check)."""
    from ..fleet.scenarios import builtin_scenarios

    if isinstance(scenario, str):
        catalog = builtin_scenarios()
        if scenario not in catalog:
            return {}
        scenario = catalog[scenario]
    return {tenant.name: tenant.slo_ms for tenant in scenario.tenants}
