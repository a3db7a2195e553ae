"""The C kernel's build and its guards fail loudly, never silently."""

import os

import pytest

from repro.fleet import (
    ResiliencePolicy,
    _native,
    native_available,
    run_scenario_columnar,
)


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
    with pytest.raises(RuntimeError, match="no C compiler"):
        run_scenario_columnar(
            "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
            native=True, seed=1, rate_scale=0.5,
        )
    # A resilience mechanism keeps its per-arrival Python path.
    report = run_scenario_columnar(
        "steady", cluster_model, hash_tokenizer, [weak_spec], fleet_config,
        native=True, seed=1, rate_scale=0.5,
        resilience=ResiliencePolicy(max_retries=1),
    )
    assert report.stats.completed > 0


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
