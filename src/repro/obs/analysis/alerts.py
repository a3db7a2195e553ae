"""Multi-window, multi-burn-rate SLO alerting over the rolling windows.

The classic SRE recipe, scaled to simulated time: an alert *fires* when
the error budget is burning faster than a threshold over **both** a long
and a short trailing window — the long window gives significance, the
short one makes the alert resolve quickly once the incident is over.
Two tiers ship by default: **page** rules with high burn thresholds
(minutes-to-exhaustion class) and **ticket** rules with low thresholds
(slow leaks).

Everything here is exact integer arithmetic over the per-window counters
(`arrivals`, `completions`, `slo_met`, `shed_total`) until the final
burn-rate division, so two engines that emit identical window streams
produce identical alert streams — the differential suite holds alert
transitions byte-equal between the event-loop and columnar engines at
every shard count.

Evaluation happens **inside the run** on the simulated clock: the
observer feeds every closed window (empty ones included) to
:class:`AlertEvaluator`, transitions become trace instants at the
window's ``end_ms``, and the final state lands in the
``repro_alerts_firing`` gauge.  One evaluator sees every closed window
of a run, at any shard count, so byte-equality across shard counts
follows from window-stream equality.

:func:`replay_windows` re-runs the same evaluator offline over a windows
JSONL artifact (the ``repro.cli obs alerts`` command), and the test suite
pins that the replay reproduces the in-run transitions exactly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BurnRateRule",
    "AlertEvaluator",
    "AlertTransition",
    "default_policy",
    "replay_windows",
]

#: Default SLO-attainment objective the shipped rules budget against.
DEFAULT_OBJECTIVE = 0.99

#: Transition record: (simulated ms, rule name, "fire" | "resolve").
AlertTransition = Tuple[float, str, str]


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate rule.

    Attributes:
        name: Stable identifier (label value in metrics, trace instants).
        tier: ``"page"`` or ``"ticket"`` — severity, for the reports.
        signal: ``"slo"`` burns the SLO-attainment budget (missed-SLO
            completions plus sheds over completions plus sheds);
            ``"shed"`` burns an admission budget (sheds over arrivals).
        objective: Success objective in (0, 1); the error budget is
            ``1 - objective``.
        long_windows: Trailing windows for the significance condition.
        short_windows: Trailing windows for the freshness condition.
        burn_threshold: Fire when *both* trailing burn rates (error rate
            divided by budget) reach this multiple.
    """

    name: str
    tier: str
    signal: str
    objective: float
    long_windows: int
    short_windows: int
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.tier not in ("page", "ticket"):
            raise ValueError(f"tier must be page|ticket, got {self.tier!r}")
        if self.signal not in ("slo", "shed"):
            raise ValueError(f"signal must be slo|shed, got {self.signal!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError(
                f"need 1 <= short <= long, got {self.short_windows}/{self.long_windows}"
            )
        if self.burn_threshold <= 0.0:
            raise ValueError(f"burn threshold must be positive, got {self.burn_threshold}")


def default_policy(objective: float = DEFAULT_OBJECTIVE) -> Tuple[BurnRateRule, ...]:
    """The shipped two-tier policy, scaled to window counts (not hours).

    The classic 5m/1h/6h ladder collapses onto trailing window counts so
    the same shape works at any ``window_ms``: page rules demand a fast,
    corroborated burn; the ticket rule catches slow leaks.
    """
    return (
        BurnRateRule(
            name="page-slo-burn",
            tier="page",
            signal="slo",
            objective=objective,
            long_windows=15,
            short_windows=3,
            burn_threshold=14.4,
        ),
        BurnRateRule(
            name="ticket-slo-burn",
            tier="ticket",
            signal="slo",
            objective=objective,
            long_windows=30,
            short_windows=6,
            burn_threshold=3.0,
        ),
        BurnRateRule(
            name="page-shed-burn",
            tier="page",
            signal="shed",
            objective=objective,
            long_windows=10,
            short_windows=2,
            burn_threshold=14.4,
        ),
    )


@dataclass
class _RuleState:
    """Trailing-sum machinery for one rule (all integers, hence exact)."""

    rule: BurnRateRule
    long_dq: Deque[Tuple[int, int]] = field(default_factory=deque)
    short_dq: Deque[Tuple[int, int]] = field(default_factory=deque)
    long_bad: int = 0
    long_total: int = 0
    short_bad: int = 0
    short_total: int = 0
    firing: bool = False
    fires: int = 0
    resolves: int = 0

    def push(self, bad: int, total: int) -> None:
        if len(self.long_dq) == self.rule.long_windows:
            old_bad, old_total = self.long_dq.popleft()
            self.long_bad -= old_bad
            self.long_total -= old_total
        self.long_dq.append((bad, total))
        self.long_bad += bad
        self.long_total += total
        if len(self.short_dq) == self.rule.short_windows:
            old_bad, old_total = self.short_dq.popleft()
            self.short_bad -= old_bad
            self.short_total -= old_total
        self.short_dq.append((bad, total))
        self.short_bad += bad
        self.short_total += total

    def burn(self, bad: int, total: int) -> float:
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.rule.objective)

    def condition(self) -> bool:
        return (
            self.burn(self.long_bad, self.long_total) >= self.rule.burn_threshold
            and self.burn(self.short_bad, self.short_total) >= self.rule.burn_threshold
        )


class AlertEvaluator:
    """Evaluates a burn-rate policy over the closed-window stream.

    Feed every closed window in order via :meth:`observe_window`; read
    :attr:`transitions` (the full fire/resolve history) and
    :meth:`firing` (current state per rule) at any point.  It is
    deterministic: identical window streams produce identical transition
    histories.
    """

    def __init__(self, policy: Optional[Sequence[BurnRateRule]] = None):
        rules = tuple(policy if policy is not None else default_policy())
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in policy: {names}")
        self.rules = rules
        self._states = [_RuleState(rule) for rule in rules]
        self.transitions: List[AlertTransition] = []
        self.windows_seen = 0

    def observe_window(
        self,
        end_ms: float,
        arrivals: int,
        completions: int,
        slo_met: int,
        shed_total: int,
    ) -> List[AlertTransition]:
        """Absorb one closed window; returns transitions it caused."""
        self.windows_seen += 1
        emitted: List[AlertTransition] = []
        for state in self._states:
            rule = state.rule
            if rule.signal == "slo":
                bad = (completions - slo_met) + shed_total
                total = completions + shed_total
            else:  # "shed"
                bad = shed_total
                total = arrivals
            state.push(bad, total)
            now_firing = state.condition()
            if now_firing != state.firing:
                state.firing = now_firing
                action = "fire" if now_firing else "resolve"
                if now_firing:
                    state.fires += 1
                else:
                    state.resolves += 1
                emitted.append((end_ms, rule.name, action))
        self.transitions.extend(emitted)
        return emitted

    def firing(self) -> Dict[str, bool]:
        """Current fire state per rule name."""
        return {state.rule.name: state.firing for state in self._states}

    def transition_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-rule ``(fires, resolves)`` totals."""
        return {state.rule.name: (state.fires, state.resolves) for state in self._states}


def replay_windows(
    docs: Iterable[dict], policy: Optional[Sequence[BurnRateRule]] = None
) -> AlertEvaluator:
    """Re-run the evaluator offline over parsed windows-JSONL documents.

    Documents must be in stream order (they are — the tracker emits
    windows by ascending index).  Produces exactly the transitions the
    in-run evaluator produced for the same stream.
    """
    evaluator = AlertEvaluator(policy)
    for doc in docs:
        evaluator.observe_window(
            end_ms=float(doc["end_ms"]),
            arrivals=int(doc["arrivals"]),
            completions=int(doc["completions"]),
            slo_met=int(doc["slo_met"]),
            shed_total=int(doc["shed_total"]),
        )
    return evaluator
