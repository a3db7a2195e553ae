"""Chaos plans and resilience policies for fleet simulation.

Two halves, deliberately separate:

- **Chaos** = what breaks.  A :class:`ChaosPlan` is a seeded,
  deterministic description of injected trouble: fail-stop failures
  (optionally correlated across a named *zone* of replicas), and
  *gray* windows — intervals where a replica stays live but serves
  every batch ``slowdown`` x slower, the straggler mode that fail-stop
  detection cannot see.  Plans load from JSON (``loadtest
  --chaos-plan``) via :func:`load_chaos_plan`.

- **Resilience** = how the fleet answers.  A :class:`ResiliencePolicy`
  enables per-request timeout/retry with seeded exponential backoff +
  jitter under a retry *budget*, request hedging against the
  second-best replica with cancel-on-first-win, a per-replica
  :class:`CircuitBreaker` (closed/open/half-open over a window of
  straggle observations), and a :class:`BrownoutLadder` that loosens
  the admission bound stepwise before shedding.

Everything here is engine-neutral: the event-loop fleet
(:mod:`repro.fleet.fleet`) and the columnar engine
(:mod:`repro.fleet.columnar`) share these exact objects and the pure
:func:`backoff_delay_ms` so every chaos primitive replays
byte-identically in both.  The determinism contract: equal
``(policy, seed, request index, attempt)`` always yields the same
delay; breaker and brownout transitions depend only on the simulated
event order, which the engines already share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BrownoutLadder",
    "ChaosPlan",
    "ChaosStats",
    "CircuitBreaker",
    "GrayWindow",
    "ResiliencePolicy",
    "RetryBudget",
    "ZoneOutage",
    "backoff_delay_ms",
    "chaos_plan_from_dict",
    "load_chaos_plan",
]

SHED_BREAKER = "breaker-open"   # every live replica's breaker is open
SHED_TIMEOUT = "timeout"        # projected latency beyond the request timeout


def _require_finite(name: str, value: float, minimum: Optional[float] = None) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


# ----------------------------------------------------------------------
# chaos: what breaks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GrayWindow:
    """One replica's straggler interval: live, but ``slowdown`` x slower.

    Gray failure is the mode fail-stop detection cannot see — the
    replica keeps accepting and completing batches, each one stretched
    by ``slowdown``.  Admission projections deliberately stay *nominal*
    (a router cannot know a node went gray); only the circuit breaker,
    watching realized service times, reacts.
    """

    replica_id: int
    start_ms: float
    end_ms: float
    slowdown: float

    def __post_init__(self):
        if self.replica_id < 0:
            raise ValueError(f"replica_id must be >= 0, got {self.replica_id}")
        _require_finite("start_ms", self.start_ms, 0.0)
        _require_finite("end_ms", self.end_ms)
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"end_ms must come after start_ms, got [{self.start_ms}, {self.end_ms}]"
            )
        _require_finite("slowdown", self.slowdown)
        if self.slowdown <= 0.0:
            raise ValueError(f"slowdown must be > 0, got {self.slowdown}")


@dataclass(frozen=True)
class ZoneOutage:
    """A correlated fail-stop of every replica in a named zone."""

    zone: str
    at_ms: float
    recover_ms: Optional[float] = None

    def __post_init__(self):
        if not self.zone:
            raise ValueError("zone name must be non-empty")
        _require_finite("at_ms", self.at_ms, 0.0)
        if self.recover_ms is not None:
            _require_finite("recover_ms", self.recover_ms)
            if self.recover_ms <= self.at_ms:
                raise ValueError("recover_ms must come after at_ms")


@dataclass(frozen=True)
class ChaosPlan:
    """A named, deterministic bundle of injected failures.

    ``zones`` maps zone names to replica-id groups; a :class:`ZoneOutage`
    expands to one fail-stop per member, in replica-id order, so the
    correlated failure replays identically in both engines.
    """

    name: str = "chaos"
    zones: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    failures: Tuple[object, ...] = ()        # FailureEvent (runner-owned type)
    grays: Tuple[GrayWindow, ...] = ()
    outages: Tuple[ZoneOutage, ...] = ()

    def __post_init__(self):
        zone_map = dict(self.zones)
        for outage in self.outages:
            if outage.zone not in zone_map:
                raise ValueError(
                    f"zone outage names unknown zone {outage.zone!r}; "
                    f"plan zones: {sorted(zone_map)}"
                )
        for zone, members in self.zones:
            if not members:
                raise ValueError(f"zone {zone!r} has no members")
            for rid in members:
                if rid < 0:
                    raise ValueError(f"zone {zone!r} member {rid} must be >= 0")

    def zone_map(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self.zones)

    def failure_events(self) -> Tuple[object, ...]:
        """Explicit failures plus zone outages expanded member-by-member.

        Expansion order is deterministic: explicit failures first (plan
        order), then each outage's members in ascending replica id — the
        exact order both engines inject them.
        """
        from .runner import FailureEvent  # lazy: avoids an import cycle

        events = list(self.failures)
        zone_map = self.zone_map()
        for outage in self.outages:
            for rid in sorted(zone_map[outage.zone]):
                events.append(
                    FailureEvent(
                        replica_id=rid,
                        fail_ms=outage.at_ms,
                        recover_ms=outage.recover_ms,
                    )
                )
        return tuple(events)


def chaos_plan_from_dict(doc: dict) -> ChaosPlan:
    """Build a :class:`ChaosPlan` from its JSON document shape.

    The shape (see ``docs/robustness.md``)::

        {"name": "rack-trouble",
         "zones": {"rack0": [0, 1]},
         "events": [
           {"kind": "fail", "replica": 0, "at_ms": 100.0, "recover_ms": 300.0},
           {"kind": "gray", "replica": 1, "start_ms": 50.0, "end_ms": 150.0,
            "slowdown": 3.0},
           {"kind": "zone", "zone": "rack0", "at_ms": 200.0, "recover_ms": 400.0}]}

    Raises:
        ValueError: On unknown event kinds, missing fields, or any
            value the chaos dataclasses reject (negative, NaN, or
            infinite times; recover before fail; non-positive slowdown).
    """
    from .runner import FailureEvent  # lazy: avoids an import cycle

    if not isinstance(doc, dict):
        raise ValueError(f"chaos plan must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"name", "zones", "events"}
    if unknown:
        raise ValueError(f"unknown chaos plan keys: {sorted(unknown)}")
    zones = tuple(
        (str(zone), tuple(int(rid) for rid in members))
        for zone, members in sorted(dict(doc.get("zones", {})).items())
    )
    failures: List[object] = []
    grays: List[GrayWindow] = []
    outages: List[ZoneOutage] = []
    for i, event in enumerate(doc.get("events", [])):
        if not isinstance(event, dict) or "kind" not in event:
            raise ValueError(f"chaos event #{i} must be an object with a 'kind'")
        kind = event["kind"]
        try:
            if kind == "fail":
                recover = event.get("recover_ms")
                failures.append(
                    FailureEvent(
                        replica_id=int(event["replica"]),
                        fail_ms=_require_finite("at_ms", event["at_ms"], 0.0),
                        recover_ms=None if recover is None
                        else _require_finite("recover_ms", recover),
                    )
                )
            elif kind == "gray":
                grays.append(
                    GrayWindow(
                        replica_id=int(event["replica"]),
                        start_ms=event["start_ms"],
                        end_ms=event["end_ms"],
                        slowdown=event["slowdown"],
                    )
                )
            elif kind == "zone":
                outages.append(
                    ZoneOutage(
                        zone=str(event["zone"]),
                        at_ms=event["at_ms"],
                        recover_ms=event.get("recover_ms"),
                    )
                )
            else:
                raise ValueError(
                    f"unknown chaos event kind {kind!r} (expected fail/gray/zone)"
                )
        except KeyError as exc:
            raise ValueError(f"chaos event #{i} ({kind}) missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"chaos event #{i} ({kind}): {exc}") from None
    return ChaosPlan(
        name=str(doc.get("name", "chaos")),
        zones=zones,
        failures=tuple(failures),
        grays=tuple(grays),
        outages=tuple(outages),
    )


def load_chaos_plan(path: str) -> ChaosPlan:
    """Load and validate a chaos plan from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"chaos plan {path}: invalid JSON ({exc})") from None
    try:
        return chaos_plan_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"chaos plan {path}: {exc}") from None


# ----------------------------------------------------------------------
# resilience: how the fleet answers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the fleet's answer to chaos.  Everything defaults off.

    Both engines run every admission through one rule that reads this
    policy; a run without one uses ``ResiliencePolicy()``.  With every
    knob at its default, :attr:`enabled` is False and the rule does
    exactly the plain admit-or-shed — so the columnar engine hands the
    run to its C kernel, the zero-cost-when-disabled contract the fleet
    bench gates.
    """

    # retry: re-attempt shed admissions after seeded backoff
    max_retries: int = 0
    backoff_base_ms: float = 5.0       # first retry delay (doubles per attempt)
    backoff_jitter: float = 0.5        # delay *= 1 + jitter * uniform[0, 1)
    retry_budget_ratio: float = 0.0    # tokens accrued per admitted original
    retry_budget_burst: float = 10.0   # token cap (and initial balance)
    # hedge: duplicate risky admissions onto the second-best replica
    hedge: bool = False
    hedge_factor: float = 0.75         # hedge when projected > factor * SLO
    # timeout: fail fast (into the retry path) instead of queueing long
    timeout_ms: Optional[float] = None
    # circuit breaker: per-replica straggle detector
    breaker: bool = False
    breaker_straggle_factor: float = 3.0   # straggle iff service > factor * nominal
    breaker_window: int = 8                # recent batches scored
    breaker_threshold: float = 0.5         # open at this straggle fraction
    breaker_min_samples: int = 4           # observations before opening
    breaker_open_ms: float = 100.0         # open hold before half-open
    breaker_probes: int = 2                # clean half-open batches to close
    # brownout: loosen the admission bound stepwise before shedding
    brownout: bool = False
    brownout_levels: Tuple[float, ...] = (1.0, 1.5, 2.0)
    brownout_dwell_ms: float = 50.0        # hysteresis before de-escalating

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        _require_finite("backoff_base_ms", self.backoff_base_ms, 0.0)
        _require_finite("backoff_jitter", self.backoff_jitter, 0.0)
        _require_finite("retry_budget_ratio", self.retry_budget_ratio, 0.0)
        _require_finite("retry_budget_burst", self.retry_budget_burst, 0.0)
        _require_finite("hedge_factor", self.hedge_factor, 0.0)
        if self.timeout_ms is not None:
            timeout = _require_finite("timeout_ms", self.timeout_ms)
            if timeout <= 0.0:
                raise ValueError(f"timeout_ms must be > 0, got {timeout}")
        _require_finite("breaker_straggle_factor", self.breaker_straggle_factor)
        if self.breaker_straggle_factor <= 1.0:
            raise ValueError(
                f"breaker_straggle_factor must be > 1, got {self.breaker_straggle_factor}"
            )
        if self.breaker_window < 1:
            raise ValueError(f"breaker_window must be >= 1, got {self.breaker_window}")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                f"breaker_threshold must be in (0, 1], got {self.breaker_threshold}"
            )
        if self.breaker_min_samples < 1:
            raise ValueError(
                f"breaker_min_samples must be >= 1, got {self.breaker_min_samples}"
            )
        _require_finite("breaker_open_ms", self.breaker_open_ms, 0.0)
        if self.breaker_probes < 1:
            raise ValueError(f"breaker_probes must be >= 1, got {self.breaker_probes}")
        if not self.brownout_levels:
            raise ValueError("brownout_levels must be non-empty")
        if self.brownout_levels[0] != 1.0:
            raise ValueError(
                f"brownout_levels[0] must be 1.0 (the undegraded bound), "
                f"got {self.brownout_levels[0]}"
            )
        for level in self.brownout_levels:
            _require_finite("brownout level", level)
            if level <= 0.0:
                raise ValueError(f"brownout levels must be > 0, got {level}")
        if tuple(sorted(self.brownout_levels)) != self.brownout_levels:
            raise ValueError(
                f"brownout_levels must be non-decreasing, got {self.brownout_levels}"
            )
        _require_finite("brownout_dwell_ms", self.brownout_dwell_ms, 0.0)

    @property
    def enabled(self) -> bool:
        """True iff any mechanism is active (columnar runs leave the
        C kernel for the per-arrival path)."""
        return bool(
            self.max_retries > 0
            or self.hedge
            or self.timeout_ms is not None
            or self.breaker
            or self.brownout
        )


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def backoff_delay_ms(
    policy: ResiliencePolicy, seed: int, index: int, attempt: int
) -> float:
    """The deterministic retry delay for one request's ``attempt``-th retry.

    Exponential base (doubling per attempt) with multiplicative jitter
    from a splitmix64 hash of ``(seed, index, attempt)`` — a pure
    function of its arguments, independent of any engine's RNG state,
    so the event-loop and columnar engines compute the identical float
    from identical inputs.

    Args:
        policy: The resilience policy (base delay + jitter fraction).
        seed: The run seed.
        index: The request's fleet record index.
        attempt: Retry number, 1-based.

    Returns:
        Delay in simulated milliseconds (>= 0).
    """
    base = policy.backoff_base_ms * float(2 ** (attempt - 1))
    if policy.backoff_jitter == 0.0:
        return base
    mixed = _splitmix64(_splitmix64(_splitmix64(seed & _MASK64) ^ index) ^ attempt)
    uniform = mixed / 18446744073709551616.0  # 2**64 -> [0, 1)
    return base * (1.0 + policy.backoff_jitter * uniform)


@dataclass
class RetryBudget:
    """A token bucket bounding retry amplification.

    One token buys one retry; ``ratio`` tokens accrue per admitted
    *original* request (capped at ``burst``).  ``ratio == 0`` means
    unlimited — the budget never blocks.  Both engines call
    :meth:`accrue`/:meth:`spend` at the same points in the same order,
    so the (float) balance stays byte-identical.
    """

    ratio: float = 0.0
    burst: float = 10.0
    tokens: float = 10.0

    @classmethod
    def from_policy(cls, policy: ResiliencePolicy) -> "RetryBudget":
        return cls(
            ratio=policy.retry_budget_ratio,
            burst=policy.retry_budget_burst,
            tokens=policy.retry_budget_burst,
        )

    def accrue(self) -> None:
        if self.ratio > 0.0:
            tokens = self.tokens + self.ratio
            self.tokens = self.burst if tokens > self.burst else tokens

    def spend(self) -> bool:
        """Take one token; False iff the budget is exhausted."""
        if self.ratio <= 0.0:
            return True
        if self.tokens < 1.0:
            return False
        self.tokens = self.tokens - 1.0
        return True


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Per-replica straggle detector: closed -> open -> half-open -> closed.

    Observes every dispatched batch (realized service vs the nominal
    simulator price).  When the straggle fraction over the last
    ``window`` batches reaches ``threshold`` (with at least
    ``min_samples`` seen), the breaker *opens*: admission skips the
    replica for ``open_ms``, after which the first admission check
    moves it to *half-open* and the next ``probes`` batches decide —
    any straggle reopens, all clean closes.

    Plain picklable state shared verbatim by both engines (it rides the
    columnar engine's shard-state pickle), so breaker behavior cannot
    drift between them.  All comparisons are on floats both engines
    already share byte-identically.
    """

    straggle_factor: float = 3.0
    window: int = 8
    threshold: float = 0.5
    min_samples: int = 4
    open_ms: float = 100.0
    probes: int = 2
    state: str = BREAKER_CLOSED
    open_until_ms: float = 0.0
    recent: List[bool] = field(default_factory=list)
    probes_left: int = 0
    opens: int = 0
    closes: int = 0

    @classmethod
    def from_policy(cls, policy: ResiliencePolicy) -> "CircuitBreaker":
        return cls(
            straggle_factor=policy.breaker_straggle_factor,
            window=policy.breaker_window,
            threshold=policy.breaker_threshold,
            min_samples=policy.breaker_min_samples,
            open_ms=policy.breaker_open_ms,
            probes=policy.breaker_probes,
        )

    def allows(self, now_ms: float) -> bool:
        """Admission check; lazily moves open -> half-open past the hold."""
        if self.state == BREAKER_OPEN:
            if now_ms < self.open_until_ms:
                return False
            self.state = BREAKER_HALF_OPEN
            self.probes_left = self.probes
            self.recent = []
        return True

    def observe(self, finish_ms: float, straggled: bool) -> Optional[str]:
        """Score one dispatched batch; returns a new state on transition.

        Args:
            finish_ms: The batch's finish time (anchors the open hold).
            straggled: True iff realized service exceeded
                ``straggle_factor`` x the nominal price.

        Returns:
            ``"open"`` / ``"closed"`` on a transition, else ``None``.
        """
        if self.state == BREAKER_HALF_OPEN:
            if straggled:
                self.state = BREAKER_OPEN
                self.open_until_ms = finish_ms + self.open_ms
                self.opens += 1
                return BREAKER_OPEN
            self.probes_left -= 1
            if self.probes_left <= 0:
                self.state = BREAKER_CLOSED
                self.recent = []
                self.closes += 1
                return BREAKER_CLOSED
            return None
        if self.state == BREAKER_OPEN:
            # In-flight batches may still land while open; they carry no
            # new information (the hold timer owns the transition).
            return None
        self.recent.append(straggled)
        if len(self.recent) > self.window:
            del self.recent[0]
        if len(self.recent) >= self.min_samples:
            straggles = sum(self.recent)
            if straggles >= self.threshold * len(self.recent):
                self.state = BREAKER_OPEN
                self.open_until_ms = finish_ms + self.open_ms
                self.opens += 1
                return BREAKER_OPEN
        return None


@dataclass
class BrownoutLadder:
    """Stepwise admission degradation: loosen the bound before shedding.

    ``levels`` multiply the admission bound (``admit_slo_factor x SLO``);
    level 0 is 1.0 — byte-identical to no brownout, because multiplying
    by 1.0 is exact in IEEE-754.  Escalation is immediate (an admission
    that would shed at the current level climbs until it fits or tops
    out); de-escalation waits out ``dwell_ms`` of hysteresis and only
    steps down when the current projection fits the lower bound.  Shed
    happens only at the top level.
    """

    levels: Tuple[float, ...] = (1.0, 1.5, 2.0)
    dwell_ms: float = 50.0
    level: int = 0
    last_change_ms: float = 0.0
    escalations: int = 0
    deescalations: int = 0

    @classmethod
    def from_policy(cls, policy: ResiliencePolicy) -> "BrownoutLadder":
        return cls(levels=policy.brownout_levels, dwell_ms=policy.brownout_dwell_ms)


@dataclass
class ChaosStats:
    """Resilience-mechanism counters for one run (all integers).

    Only attached to :class:`~repro.fleet.metrics.FleetStats` when a
    :class:`ResiliencePolicy` or :class:`ChaosPlan` was active — reports
    of plain runs keep their exact pre-chaos bytes.  Both engines count
    the same deterministic events in the same order, so these integers
    are identical across them by construction (the differential suite
    pins it).
    """

    retries: int = 0                 # retry attempts scheduled
    retry_budget_exhausted: int = 0  # retries denied by the token budget
    timeouts: int = 0                # fail-fast rejections (incl. retried ones)
    hedges: int = 0                  # admissions duplicated onto a second replica
    hedge_wins: int = 0              # hedged requests won by the secondary
    breaker_opens: int = 0           # circuit-breaker open transitions
    breaker_closes: int = 0          # circuit-breaker close transitions
    brownout_escalations: int = 0    # brownout ladder steps up
    brownout_deescalations: int = 0  # brownout ladder steps down

    def render(self) -> List[str]:
        return [
            f"retries:        {self.retries} scheduled, "
            f"{self.retry_budget_exhausted} budget-denied, "
            f"{self.timeouts} timeouts",
            f"hedging:        {self.hedges} hedged, {self.hedge_wins} secondary wins",
            f"breaker:        {self.breaker_opens} opens, {self.breaker_closes} closes",
            f"brownout:       {self.brownout_escalations} escalations, "
            f"{self.brownout_deescalations} de-escalations",
        ]

    def to_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "retry_budget_exhausted": self.retry_budget_exhausted,
            "timeouts": self.timeouts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "brownout_escalations": self.brownout_escalations,
            "brownout_deescalations": self.brownout_deescalations,
        }
