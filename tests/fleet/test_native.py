"""The C kernel's build and its guards fail loudly, never silently.

``REPRO_COLUMNAR_NATIVE`` has three states: unset auto-detects the
kernel (falling back to the event loop with a warning), ``1`` requires
it and ``0`` turns it off.
"""

import os
import warnings

import pytest

from repro.fleet import (
    ResiliencePolicy,
    _native,
    native_available,
    run_scenario,
    run_scenario_columnar,
)
from repro.fleet.chaos import backoff_delay_ms
from repro.fleet._native import I_HEAP
from repro.fleet.columnar import ColumnarFleetEngine, _prepare


@pytest.fixture
def fresh_loader(monkeypatch):
    """Forget the process's kernel so the next load() builds again."""
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_build_error", None)
    monkeypatch.delenv("REPRO_COLUMNAR_NATIVE", raising=False)


def test_failed_build_keeps_the_error(monkeypatch, fresh_loader):
    monkeypatch.setattr(_native, "_compiler", lambda: "/bin/false")
    assert _native.available() is False
    assert _native.build_error().startswith("/bin/false exited 1")


def test_missing_compiler_is_named(monkeypatch, fresh_loader):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    assert _native.available() is False
    assert "no C compiler" in _native.build_error()


def test_disabled_kernel_says_why(monkeypatch, fresh_loader):
    monkeypatch.setenv("REPRO_COLUMNAR_NATIVE", "0")
    assert _native.available() is False
    assert "REPRO_COLUMNAR_NATIVE=0" in _native.build_error()


def test_forced_kernel_without_compiler_raises(
    monkeypatch, fresh_loader, cluster_model, hash_tokenizer, weak_spec,
    fleet_config,
):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    # A resilience mechanism needs the kernel like any other run.
    for resilience in (None, ResiliencePolicy(max_retries=1)):
        with pytest.raises(RuntimeError, match="no C compiler"):
            run_scenario_columnar(
                "steady", cluster_model, hash_tokenizer, [weak_spec],
                fleet_config, native=True, seed=1, rate_scale=0.5,
                resilience=resilience,
            )


def _event_loop(cluster_model, hash_tokenizer, weak_spec, fleet_config):
    return run_scenario(
        "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        analytic=True, seed=1, rate_scale=0.5,
        resilience=ResiliencePolicy(max_retries=1),
    ).to_json()


def _columnar(cluster_model, hash_tokenizer, weak_spec, fleet_config):
    return run_scenario_columnar(
        "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        seed=1, rate_scale=0.5, resilience=ResiliencePolicy(max_retries=1),
    ).to_json()


def test_unset_setting_without_compiler_warns_and_falls_back(
    monkeypatch, fresh_loader, cluster_model, hash_tokenizer, weak_spec,
    fleet_config,
):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    args = (cluster_model, hash_tokenizer, weak_spec, fleet_config)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        got = _columnar(*args)
    assert got == _event_loop(*args)


def test_required_setting_without_compiler_raises(
    monkeypatch, fresh_loader, cluster_model, hash_tokenizer, weak_spec,
    fleet_config,
):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    monkeypatch.setenv("REPRO_COLUMNAR_NATIVE", "1")
    with pytest.raises(RuntimeError, match="no C compiler"):
        _columnar(cluster_model, hash_tokenizer, weak_spec, fleet_config)


def test_off_setting_runs_the_event_loop(
    monkeypatch, fresh_loader, cluster_model, hash_tokenizer, weak_spec,
    fleet_config,
):
    monkeypatch.setenv("REPRO_COLUMNAR_NATIVE", "0")

    def refuse(*args, **kwargs):
        raise AssertionError("REPRO_COLUMNAR_NATIVE=0 built the columnar engine")

    monkeypatch.setattr(ColumnarFleetEngine, "__init__", refuse)
    args = (cluster_model, hash_tokenizer, weak_spec, fleet_config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _columnar(*args)
    assert got == _event_loop(*args)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("jitter", [0.0, 0.5, 1.0])
def test_kernel_backoff_matches_python(jitter):
    policy = ResiliencePolicy(max_retries=8, backoff_base_ms=3.0, backoff_jitter=jitter)
    for seed in (-1, -(2**63), 0, 7, 2**63, 2**64 - 1, 2**70 + 5):
        for index in (0, 1, 12345, 2**31, 2**40):
            for attempt in range(1, 9):
                expected = backoff_delay_ms(policy, seed, index, attempt)
                got = _native.backoff_delay_ms(policy, seed, index, attempt)
                assert got == expected, (seed, index, attempt)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_build_dir_is_removed_after_load(monkeypatch, tmp_path, fresh_loader):
    workdir = tmp_path / "build"

    def mkdtemp(prefix=""):
        workdir.mkdir()
        return str(workdir)

    monkeypatch.setattr(_native.tempfile, "mkdtemp", mkdtemp)
    assert _native.available() is True
    assert _native.build_error() is None
    assert not os.path.exists(workdir)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_index_guard_names_the_limit(
    monkeypatch, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    monkeypatch.setattr(_native, "INDEX_LIMIT", 100)
    with pytest.raises(ValueError, match="int32 index limit of 100"):
        run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
            native=True, seed=1, rate_scale=0.5,
        )


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_index_guard_counts_pending_retries(
    monkeypatch, cluster_model, hash_tokenizer, weak_spec, fleet_config
):
    prep = _prepare(
        "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        None, None, (), 1, 0.5, 1.0, resilience=ResiliencePolicy(max_retries=1),
    )
    engine = ColumnarFleetEngine(prep)
    state = engine.initial_state()
    # Five retries pending and no arrivals: each may still complete.
    state.h_due[:5] = 1.0
    state.h_key[:5] = [(seq, seq, 1) for seq in range(5)]
    state.iv[I_HEAP] = 5
    queued = engine.B * engine.M
    monkeypatch.setattr(_native, "INDEX_LIMIT", queued + 4)
    with pytest.raises(ValueError, match=f"int32 index limit of {queued + 4}"):
        engine.drain_retries(state)
    monkeypatch.setattr(_native, "INDEX_LIMIT", queued + 5)
    partial = engine.drain_retries(state)
    queued_now = int(state.rows().depth.sum())
    assert not state.retry_heap
    assert partial.num_done + partial.num_shed + queued_now == 5
