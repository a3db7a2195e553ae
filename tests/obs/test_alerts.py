"""Burn-rate alerting: rule validation, fire/resolve mechanics, replay."""

import json
import pickle

import pytest

from repro.obs import AlertEvaluator, BurnRateRule, WindowTracker, default_policy
from repro.obs.analysis.alerts import replay_windows

# A fast page rule over tiny trailing windows: with objective 0.99 the
# budget is 0.01, so a window with >= 10% bad burns at >= 10x.
FAST_PAGE = BurnRateRule(
    name="fast-page",
    tier="page",
    signal="slo",
    objective=0.99,
    long_windows=3,
    short_windows=1,
    burn_threshold=10.0,
)

SHED_RULE = BurnRateRule(
    name="shed-page",
    tier="page",
    signal="shed",
    objective=0.99,
    long_windows=2,
    short_windows=1,
    burn_threshold=10.0,
)


def _good(ev, end_ms, n=100):
    return ev.observe_window(end_ms, arrivals=n, completions=n, slo_met=n, shed_total=0)


def _bad(ev, end_ms, n=100):
    return ev.observe_window(end_ms, arrivals=n, completions=n, slo_met=0, shed_total=0)


class TestRuleValidation:
    def test_rejects_bad_tier(self):
        with pytest.raises(ValueError, match="tier"):
            BurnRateRule("r", "sev1", "slo", 0.99, 3, 1, 10.0)

    def test_rejects_bad_signal(self):
        with pytest.raises(ValueError, match="signal"):
            BurnRateRule("r", "page", "latency", 0.99, 3, 1, 10.0)

    def test_rejects_objective_out_of_range(self):
        for objective in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="objective"):
                BurnRateRule("r", "page", "slo", objective, 3, 1, 10.0)

    def test_rejects_short_longer_than_long(self):
        with pytest.raises(ValueError, match="short <= long"):
            BurnRateRule("r", "page", "slo", 0.99, 2, 5, 10.0)
        with pytest.raises(ValueError, match="short <= long"):
            BurnRateRule("r", "page", "slo", 0.99, 3, 0, 10.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            BurnRateRule("r", "page", "slo", 0.99, 3, 1, 0.0)

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AlertEvaluator(policy=[FAST_PAGE, FAST_PAGE])

    def test_default_policy_is_valid_and_two_tier(self):
        rules = default_policy()
        tiers = {rule.tier for rule in rules}
        assert tiers == {"page", "ticket"}
        AlertEvaluator(policy=rules)  # must construct cleanly


class TestFireResolve:
    def test_quiet_stream_never_fires(self):
        ev = AlertEvaluator(policy=[FAST_PAGE])
        for i in range(20):
            assert _good(ev, (i + 1) * 10.0) == []
        assert ev.transitions == []
        assert ev.firing() == {"fast-page": False}

    def test_fires_on_burn_and_resolves_after(self):
        ev = AlertEvaluator(policy=[FAST_PAGE])
        _good(ev, 10.0)
        # 100% bad burns at 100x >= 10x on both trailing windows
        assert _bad(ev, 20.0) == [(20.0, "fast-page", "fire")]
        assert ev.firing() == {"fast-page": True}
        # short window (1) recovers immediately; condition needs BOTH
        assert _good(ev, 30.0) == [(30.0, "fast-page", "resolve")]
        assert ev.transitions == [
            (20.0, "fast-page", "fire"),
            (30.0, "fast-page", "resolve"),
        ]
        assert ev.transition_counts() == {"fast-page": (1, 1)}

    def test_long_window_gives_significance(self):
        # one bad window out of a long good history doesn't re-fire after
        # the short window clears: both conditions must hold
        ev = AlertEvaluator(policy=[FAST_PAGE])
        for i in range(3):
            _good(ev, (i + 1) * 10.0)
        _bad(ev, 40.0)
        _good(ev, 50.0)
        assert [a for (_, _, a) in ev.transitions] == ["fire", "resolve"]

    def test_shed_signal_burns_against_arrivals(self):
        ev = AlertEvaluator(policy=[SHED_RULE])
        ev.observe_window(10.0, arrivals=100, completions=50, slo_met=50, shed_total=50)
        assert ev.transitions == [(10.0, "shed-page", "fire")]
        ev.observe_window(20.0, arrivals=100, completions=100, slo_met=100, shed_total=0)
        assert ev.transitions[-1] == (20.0, "shed-page", "resolve")

    def test_empty_windows_are_neutral(self):
        # zero-total windows contribute burn 0.0, not NaN, and age the
        # trailing deques like any other window
        ev = AlertEvaluator(policy=[FAST_PAGE])
        _bad(ev, 10.0)
        assert ev.firing() == {"fast-page": True}
        for i in range(3):
            ev.observe_window((i + 2) * 10.0, 0, 0, 0, 0)
        assert ev.firing() == {"fast-page": False}

    def test_determinism_same_stream_same_transitions(self):
        stream = [
            (10.0, 100, 90, 60, 10),
            (20.0, 100, 40, 10, 60),
            (30.0, 100, 100, 100, 0),
            (40.0, 0, 0, 0, 0),
        ]
        runs = []
        for _ in range(2):
            ev = AlertEvaluator()
            for row in stream:
                ev.observe_window(*row)
            runs.append((ev.transitions, ev.firing(), ev.transition_counts()))
        assert runs[0] == runs[1]


class TestReplay:
    def test_replay_matches_in_run_evaluation(self):
        # drive a tracker through a burst of misses, then replay its own
        # JSONL artifact: transition histories must be identical
        live = []
        w = WindowTracker(
            window_ms=10.0,
            on_close=lambda index, win, sketch, shed_total: live.extend(
                ev.observe_window(
                    (index + 1) * 10.0,
                    win.arrivals,
                    win.completions,
                    win.slo_met,
                    shed_total,
                )
            ),
        )
        ev = AlertEvaluator(policy=[FAST_PAGE, SHED_RULE])
        for t in (1.0, 2.0, 3.0, 12.0, 13.0):
            w.record_arrival(t)
        w.record_completion(4.0, 3.0, True)
        w.record_shed(5.0, "overload")
        w.record_shed(6.0, "overload")
        w.record_completion(14.0, 2.0, True)
        w.record_completion(15.0, 12.0, False)
        w.flush_all()

        docs = [json.loads(line) for line in w.lines]
        replayed = replay_windows(docs, policy=[FAST_PAGE, SHED_RULE])
        assert replayed.transitions == live
        assert replayed.windows_seen == len(docs)

    def test_pickle_round_trip_resumes_mid_stream(self):
        # the evaluator is plain state: resuming a pickled evaluator
        # must match an uninterrupted one
        whole = AlertEvaluator(policy=[FAST_PAGE])
        resumed = AlertEvaluator(policy=[FAST_PAGE])
        stream = [(10.0, 100, 100, 100, 0), (20.0, 100, 100, 0, 0)]
        tail = [(30.0, 100, 100, 100, 0), (40.0, 100, 100, 100, 0)]
        for row in stream:
            whole.observe_window(*row)
            resumed.observe_window(*row)
        resumed = pickle.loads(pickle.dumps(resumed))
        for row in tail:
            whole.observe_window(*row)
            resumed.observe_window(*row)
        assert resumed.transitions == whole.transitions
        assert resumed.firing() == whole.firing()
