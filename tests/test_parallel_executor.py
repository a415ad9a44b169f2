"""Executor configuration satellites: env default, strict ints, loud fallback."""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

import repro.parallel.executor as executor
from repro.errors import ParameterError
from repro.parallel import (
    default_workers,
    pool_start_method,
    resolve_workers,
    run_shards,
    set_default_workers,
)


def _double(x):
    return 2 * x


def _nested_run_shards(x):
    """Worker that itself dispatches — must degrade, never deadlock."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return list(run_shards(_double, [(x,), (x + 1,)], workers=2))


class TestEnvDefault:
    @pytest.fixture(autouse=True)
    def _restore_session_default(self, monkeypatch):
        # Reading the env also records where the default came from; put
        # both back so later tests see an untouched session.
        monkeypatch.setattr(executor, "_DEFAULT_WORKERS",
                            executor._DEFAULT_WORKERS)
        monkeypatch.setattr(executor, "_WORKERS_SOURCE",
                            executor._WORKERS_SOURCE)

    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert executor._workers_from_env() == 1

    def test_valid_value_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert executor._workers_from_env() == 6

    @pytest.mark.parametrize("raw", ["zero", "2.5", "0", "-3", ""])
    def test_invalid_value_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            executor._workers_from_env()

    def test_invalid_value_raises_lazily_not_at_import(self, monkeypatch):
        # The env default is read on first use, never at import time, so
        # the error surfaces from the parallel-aware call — loudly —
        # instead of breaking ``import repro`` or silently running serial.
        monkeypatch.setenv("REPRO_WORKERS", "8x")
        monkeypatch.setattr(executor, "_DEFAULT_WORKERS", None)
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_cli_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        monkeypatch.setattr(executor, "_DEFAULT_WORKERS", None)
        assert resolve_workers(None) == 6
        with default_workers(2):  # what --workers routes through
            assert resolve_workers(None) == 2
        assert resolve_workers(None) == 6

    def test_cli_override_wins_even_over_malformed_env(self, monkeypatch):
        # An explicit --workers must not die on an env value it never
        # consults; the env error stays armed for env-only resolution.
        monkeypatch.setenv("REPRO_WORKERS", "8x")
        monkeypatch.setattr(executor, "_DEFAULT_WORKERS", None)
        with default_workers(2):
            assert resolve_workers(None) == 2
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestStrictIntWorkers:
    @pytest.mark.parametrize("bad", [2.5, 1.0, "3", True, False])
    def test_set_default_workers_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            set_default_workers(bad)

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_default_workers_context_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            with default_workers(bad):
                pass  # pragma: no cover

    @pytest.mark.parametrize("bad", [2.5, 1.5, "4", True])
    def test_resolve_workers_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            resolve_workers(bad)

    def test_genuine_ints_accepted(self):
        assert resolve_workers(3) == 3
        with default_workers(2):
            assert resolve_workers(None) == 2


class TestLoudSerialFallback:
    def test_pool_failure_warns_once_naming_cause(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("semaphores unavailable in sandbox")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        import repro.utils.once as once

        monkeypatch.setattr(once, "_SEEN", set())
        with pytest.warns(RuntimeWarning, match="semaphores unavailable"):
            assert list(run_shards(_double, [(1,), (2,)], workers=2)) == [2, 4]
        # Second failure in the same session is silent (one-time warning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(run_shards(_double, [(3,), (4,)], workers=2)) == [6, 8]

    def test_nested_dispatch_degrades_serially_not_deadlocks(self):
        # A pool worker is daemonic and may not fork a pool of its own.
        results = run_shards(_nested_run_shards, [(1,), (5,)], workers=2)
        assert list(results) == [[2, 4], [10, 12]]

    def test_serial_path_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(run_shards(_double, [(5,)], workers=4)) == [10]


def test_pool_start_method_is_real():
    assert pool_start_method() in multiprocessing.get_all_start_methods()
