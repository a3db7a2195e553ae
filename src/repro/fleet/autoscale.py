"""Reactive autoscaling from utilization and tail-latency signals.

The :class:`Autoscaler` ticks on a fixed simulated interval and looks at
what happened in the window just past:

- **utilization** — fleet-wide busy time divided by live capacity time,
  straight from the routers' busy accounting;
- **p99 latency** — the 99th percentile of requests *finishing* in the
  window (the engine's own latency accounting);
- **queue depth** — requests waiting in batchers right now.

Scale **up** when the window looks saturated (utilization above the high
water mark, p99 beyond the SLO headroom, or queues deeper than one full
batch per replica); scale **down** when it looks idle (utilization below
the low water mark *and* healthy p99 *and* empty queues).  A cooldown of
``cooldown_ticks`` intervals follows every action so one burst cannot
thrash the fleet, and the replica count is clamped to
``[min_replicas, max_replicas]``.

New replicas pay the fleet's cold-start penalty (see
:meth:`repro.fleet.fleet.Fleet.cold_start_ms`) — scaling is *not* free
capacity, which is exactly why flash crowds still shed briefly even with
the autoscaler on.  Scale-down retires the most recently added idle-most
replica and migrates its queue, so shrinking never drops accepted work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serve.metrics import percentile
from .fleet import Fleet, Replica, ReplicaSpec

SCALE_UP = "up"
SCALE_DOWN = "down"


@dataclass(frozen=True)
class AutoscalePolicy:
    """The autoscaler's knobs."""

    min_replicas: int = 1
    max_replicas: int = 6
    interval_ms: float = 20.0           # evaluation cadence (simulated)
    utilization_high: float = 0.80      # scale up above this busy fraction
    utilization_low: float = 0.25       # scale down below this busy fraction
    slo_headroom: float = 1.0           # scale up when p99 > headroom * SLO
    cooldown_ticks: int = 2             # quiet intervals after any action

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0, got {self.interval_ms}")
        if not 0.0 <= self.utilization_low < self.utilization_high <= 1.0:
            raise ValueError("need 0 <= utilization_low < utilization_high <= 1")
        if self.slo_headroom <= 0:
            raise ValueError(f"slo_headroom must be > 0, got {self.slo_headroom}")
        if self.cooldown_ticks < 0:
            raise ValueError(f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}")

    def decide(
        self,
        cooldown: int,
        utilization: float,
        p99_ratio: float,
        depth: int,
        live: int,
        batch: int,
    ) -> Tuple[int, Optional[str], str]:
        """One tick's scaling decision, the rule both fleet engines call.

        Args:
            cooldown: Quiet ticks still owed from the last action.
            utilization: Busy fraction of live capacity over the window.
            p99_ratio: Window p99 latency over the tightest accepted SLO.
            depth: Requests queued on live replicas.
            live: Live replica count.
            batch: The serving config's ``max_batch_size``.

        Returns:
            ``(cooldown, action, reason)``: the cooldown to carry into the
            next tick, and :data:`SCALE_UP`, :data:`SCALE_DOWN` or ``None``
            with the audit-trail reason.
        """
        if cooldown > 0:
            return cooldown - 1, None, ""
        reason = None
        if live < self.max_replicas:
            if utilization > self.utilization_high:
                reason = f"utilization {utilization:.2f} > {self.utilization_high:.2f}"
            elif p99_ratio > self.slo_headroom:
                reason = f"p99 {p99_ratio:.2f}x SLO > {self.slo_headroom:.2f}x"
            elif depth > live * batch:
                reason = f"queue depth {depth} > {live * batch}"
            if reason is not None:
                return self.cooldown_ticks, SCALE_UP, reason
        if (
            live > self.min_replicas
            and utilization < self.utilization_low
            and p99_ratio <= 1.0
            and depth == 0
        ):
            reason = f"utilization {utilization:.2f} < {self.utilization_low:.2f}"
            return self.cooldown_ticks, SCALE_DOWN, reason
        return 0, None, ""


def tick_signals(
    window_ms: float,
    busy_delta_ms: float,
    live: int,
    samples: Sequence[float],
    floor: Optional[float],
) -> Tuple[float, float]:
    """One tick's utilization and p99 signals, the math both engines share.

    Args:
        window_ms: Time since the last tick.
        busy_delta_ms: Fleet busy time accrued over the window.
        live: Live replica count.
        samples: Latencies of the requests finishing in the window.
        floor: The tightest accepted SLO so far (``None`` before any).

    Returns:
        ``(utilization, p99_ratio)``: busy time over live capacity time,
        capped at 1, and the window p99 over ``floor``; each is 0.0 when
        its inputs are empty or zero.
    """
    if window_ms <= 0 or live == 0:
        utilization = 0.0
    else:
        utilization = min(1.0, busy_delta_ms / (window_ms * live))
    if not samples or not floor:
        p99_ratio = 0.0
    else:
        p99_ratio = percentile(samples, 99) / floor
    return utilization, p99_ratio


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling action, for the report's audit trail."""

    time_ms: float
    action: str                 # "up" | "down"
    reason: str
    replicas_after: int

    def render(self) -> str:
        arrow = "+" if self.action == SCALE_UP else "-"
        return (
            f"t={self.time_ms:8.2f} ms  scale {arrow}1 -> "
            f"{self.replicas_after} replicas  ({self.reason})"
        )


class Autoscaler:
    """Tick-driven replica-count controller over one :class:`Fleet`."""

    def __init__(
        self,
        fleet: Fleet,
        policy: AutoscalePolicy = AutoscalePolicy(),
        scale_spec: Optional[ReplicaSpec] = None,
        obs=None,
    ):
        """Args:
            fleet: The fleet to control.
            policy: Scaling thresholds and cadence.
            scale_spec: Design point for scale-up replicas (default: the
                fleet's first replica's spec).
            obs: Optional :class:`repro.obs.FleetObserver` receiving tick
                signals and scale events.
        """
        self.fleet = fleet
        self.policy = policy
        self.obs = obs or None
        self.scale_spec = scale_spec or next(
            iter(sorted(fleet.replicas.values(), key=lambda r: r.replica_id))
        ).spec
        self.events: List[ScaleEvent] = []
        self._cooldown = 0
        self._last_tick_ms = 0.0
        self._busy_snapshot = self._total_busy_ms()

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def _total_busy_ms(self) -> float:
        return sum(
            d.busy_ms
            for replica in self.fleet.replicas.values()
            for d in replica.engine.router.devices
        )

    def window_signals(self, now_ms: float) -> Tuple[float, float]:
        """``(utilization, p99_ratio)`` over the window just ended.

        The p99 reads the engines' own latency accounting (batch execution
        fixes each request's finish time as soon as it is scheduled, so
        requests "finish" on the simulated clock even mid-trace).
        """
        samples: List[float] = []
        for replica in self.fleet.replicas.values():
            # Fleet replicas are single-device engines, so results land in
            # non-decreasing finish order; walking newest-first and breaking
            # at the window's left edge touches only the new results plus
            # the (queue-bounded) batch of future-scheduled finishes —
            # O(new) per tick instead of rescanning the whole history.
            for result in reversed(replica.engine.results.values()):
                if result.finish_ms <= self._last_tick_ms:
                    break
                if result.finish_ms <= now_ms:
                    samples.append(result.latency_ms)
        return tick_signals(
            now_ms - self._last_tick_ms,
            self._total_busy_ms() - self._busy_snapshot,
            len(self.fleet.live_replicas()),
            samples,
            self.fleet.min_accepted_slo_ms,
        )

    def queue_depth(self) -> int:
        """Requests currently waiting in live replicas' batchers."""
        return sum(r.engine.batcher.pending for r in self.fleet.live_replicas())

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def tick(self, now_ms: float) -> Optional[ScaleEvent]:
        """Evaluate one window and possibly scale by one replica.

        Args:
            now_ms: The tick's simulated time (call on a fixed cadence).

        Returns:
            The :class:`ScaleEvent` taken, or ``None``.
        """
        utilization, p99_ratio = self.window_signals(now_ms)
        depth = self.queue_depth()
        live = len(self.fleet.live_replicas())
        if self.obs is not None:
            self.obs.on_tick(now_ms, utilization, p99_ratio, depth)
        self._last_tick_ms = now_ms
        self._busy_snapshot = self._total_busy_ms()

        self._cooldown, action, reason = self.policy.decide(
            self._cooldown, utilization, p99_ratio, depth, live,
            self.fleet.config.serving.max_batch_size,
        )
        if action is None:
            return None
        if action == SCALE_UP:
            self.fleet.add_replica(self.scale_spec, now_ms=now_ms, cold=True)
        else:
            victim = self._scale_down_victim()
            self.fleet.remove_replica(victim.replica_id, now_ms=now_ms)
        event = ScaleEvent(now_ms, action, reason, len(self.fleet.live_replicas()))
        self.events.append(event)
        if self.obs is not None:
            self.obs.on_scale(event)
        return event

    def _scale_down_victim(self) -> Replica:
        """The replica to retire: emptiest queue, then newest."""
        return min(
            self.fleet.live_replicas(),
            key=lambda r: (r.engine.batcher.pending, -r.replica_id),
        )
