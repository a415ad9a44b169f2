"""TraceStore / TraceHandle: the zero-copy shard dispatch protocol.

Pins the tentpole contracts: shards receive a handle (never a pickled
array copy), every backend reproduces the parent's bits exactly, and the
inline fallback keeps results identical when shared memory fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.systematic import SystematicSampler
from repro.errors import ParameterError, TraceFormatError
from repro.parallel import pool_runtime, run_shards, shared_values
from repro.parallel.ensembles import parallel_instance_means
from repro.trace.io import write_binary
from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess
from repro.trace.store import (
    _PUBLISHED,
    TraceHandle,
    TraceStore,
    resolve_values,
    write_rate_series,
)

SEED = 20050601


@pytest.fixture()
def values():
    # Comfortably above memory.MIN_SHARED_BYTES, so pools get handles.
    return np.random.default_rng(SEED).standard_normal(16384)


# ----------------------------------------------------------------- backends
class TestBackends:
    def test_inherit_is_zero_copy(self, values):
        with TraceStore.publish(values, backend="inherit") as store:
            attached = store.handle.values()
            assert attached is store.values
            np.testing.assert_array_equal(attached, values)
        # Closing drops the registry entry, so the handle is dead.
        assert store.handle.ref not in _PUBLISHED

    def test_shm_round_trips_bits(self, values):
        with TraceStore.publish(values, backend="shm") as store:
            assert store.handle.kind in ("shm", "inline")
            np.testing.assert_array_equal(store.handle.values(), values)

    def test_shm_attach_by_name(self, values):
        with TraceStore.publish(values, backend="shm") as store:
            if store.handle.kind != "shm":
                pytest.skip("shared memory unavailable in this environment")
            # Drop the fork-registry entry to force a genuine attach.
            parked = _PUBLISHED.pop(store.handle.ref)
            try:
                attached = store.handle.values()
                assert attached is not parked
                np.testing.assert_array_equal(attached, values)
                assert not attached.flags.writeable
            finally:
                _PUBLISHED[store.handle.ref] = parked

    def test_inline_fallback(self, values):
        with TraceStore.publish(values, backend="inline") as store:
            assert store.handle.kind == "inline"
            np.testing.assert_array_equal(store.handle.values(), values)

    def test_unknown_backend_rejected(self, values):
        with pytest.raises(ParameterError, match="backend"):
            TraceStore.publish(values, backend="tape")

    def test_publish_accepts_rate_process(self, values):
        process = RateProcess(np.abs(values) + 0.1)
        with TraceStore.publish(process, backend="inherit") as store:
            np.testing.assert_array_equal(store.values, process.values)

    def test_handle_nbytes_reports_buffer_size(self, values):
        with TraceStore.publish(values, backend="inherit") as store:
            assert store.handle.nbytes == values.nbytes

    def test_close_is_idempotent(self, values):
        store = TraceStore.publish(values, backend="shm")
        store.close()
        store.close()

    def test_inline_handles_compare_and_hash(self, values):
        """The ndarray payload must not poison __eq__/__hash__."""
        with TraceStore.publish(values, backend="inline") as a, \
                TraceStore.publish(values, backend="inline") as b:
            assert a.handle == b.handle  # payload excluded from comparison
            assert hash(a.handle) == hash(b.handle)
            assert len({a.handle, b.handle}) == 1


# --------------------------------------------------------------------- mmap
class TestMmap:
    def test_rps_round_trip(self, tmp_path, values):
        path = tmp_path / "trace.rps"
        write_rate_series(path, values)
        with TraceStore.open(path) as store:
            assert store.handle.kind == "mmap"
            np.testing.assert_array_equal(store.values, values)
            # Workers re-map from the path in the handle.
            np.testing.assert_array_equal(store.handle.values(), values)

    def test_rps_truncated_rejected(self, tmp_path, values):
        path = tmp_path / "trace.rps"
        write_rate_series(path, values)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceStore.open(path)

    def test_rps_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "trace.rps"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="magic"):
            TraceStore.open(path)

    def test_rpt_timestamp_column(self, tmp_path):
        trace = PacketTrace(
            timestamps=[0.0, 0.5, 1.25, 2.0],
            sources=[1, 1, 2, 2],
            destinations=[3, 3, 4, 4],
            sizes=[100, 200, 300, 400],
            protocols=[6, 6, 17, 17],
        )
        path = tmp_path / "trace.rpt"
        write_binary(trace, path)
        with TraceStore.open(path) as store:
            np.testing.assert_array_equal(store.values, trace.timestamps)

    def test_rpt_truncated_rejected(self, tmp_path):
        trace = PacketTrace(
            timestamps=[0.0, 1.0, 2.0],
            sources=[1, 1, 1],
            destinations=[2, 2, 2],
            sizes=[10, 10, 10],
            protocols=[6, 6, 6],
        )
        path = tmp_path / "trace.rpt"
        write_binary(trace, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceStore.open(path)

    def test_rpt_non_float_field_rejected(self, tmp_path):
        path = tmp_path / "trace.rpt"
        path.write_bytes(b"RPTRACE1" + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="timestamp"):
            TraceStore.open(path, field="size")

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="extension"):
            TraceStore.open(tmp_path / "trace.bin")


# ----------------------------------------------------------- worker protocol
def _worker_sees(ref):
    """Module-level shard worker: reports what crossed the boundary."""
    return (type(ref).__name__, float(resolve_values(ref).sum()))


def _attach_only(handle):
    """Force the non-registry attach path inside a (forked) worker."""
    _PUBLISHED.pop(handle.ref, None)
    return float(handle.values().sum())


class TestWorkerProtocol:
    def test_resolve_values_passthrough(self, values):
        assert resolve_values(values) is values
        process = RateProcess(np.abs(values) + 1.0)
        assert resolve_values(process) is process.values

    def test_shared_values_yields_handle_for_pools(self, values):
        with shared_values(values, workers=4, n_tasks=4) as ref:
            assert isinstance(ref, TraceHandle)
            np.testing.assert_array_equal(resolve_values(ref), values)

    def test_shared_values_serial_passthrough(self, values):
        with shared_values(values, workers=1, n_tasks=4) as ref:
            assert ref is values
        with shared_values(values, workers=4, n_tasks=1) as ref:
            assert ref is values

    def test_shared_values_small_array_passthrough(self):
        small = np.arange(16, dtype=np.float64)
        with shared_values(small, workers=4, n_tasks=4) as ref:
            assert ref is small

    def test_workers_receive_handle_across_pool(self, values):
        with shared_values(values, workers=2, n_tasks=2) as ref:
            results = run_shards(_worker_sees, [(ref,), (ref,)], workers=2)
        expected = float(values.sum())
        for kind, total in results:
            assert kind == "TraceHandle"
            assert total == expected

    def test_shm_attach_across_pool(self, values):
        with TraceStore.publish(values, backend="shm") as store:
            if store.handle.kind != "shm":
                pytest.skip("shared memory unavailable in this environment")
            results = run_shards(
                _attach_only, [(store.handle,), (store.handle,)], workers=2
            )
        assert results == [float(values.sum())] * 2


class TestEnsembleDispatch:
    def test_parallel_instance_means_passes_handle_not_copy(
        self, values, monkeypatch
    ):
        """The acceptance pin: shard tasks carry a TraceHandle, no array."""
        import repro.parallel.ensembles as ensembles

        captured = []

        def spy(fn, tasks, *, workers=None):
            tasks = list(tasks)
            captured.extend(tasks)
            return [fn(*task) for task in tasks]

        monkeypatch.setattr(ensembles, "run_shards", spy)
        trace = RateProcess(np.abs(values) + 0.1)
        sampler = SystematicSampler(interval=32, offset=None)
        parallel_instance_means(sampler, trace, 8, SEED, workers=4)
        assert captured, "no shard tasks dispatched"
        for task in captured:
            ref = task[1]
            assert isinstance(ref, TraceHandle), type(ref)
            assert not isinstance(ref, np.ndarray)

    def test_sharing_off_matches_sharing_on(self, values, monkeypatch):
        """Where shared memory fails under a live persistent pool, the
        trace rides inline in every shard (warned once), same results."""
        from multiprocessing import shared_memory

        import repro.utils.once as once

        def no_shm(*args, **kwargs):
            raise OSError("shared memory unavailable")

        trace = RateProcess(np.abs(values) + 0.1)
        sampler = SystematicSampler(interval=32, offset=None)
        with pool_runtime(workers=2):
            # The first region forks the pool after publishing (inherit);
            # the second publishes into the live pool, so it needs shm.
            shared = parallel_instance_means(sampler, trace, 8, SEED, workers=2)
            monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
            monkeypatch.setattr(once, "_SEEN", set())
            with pytest.warns(RuntimeWarning, match="pickled into every shard"):
                pickled = parallel_instance_means(
                    sampler, trace, 8, SEED, workers=2
                )
        np.testing.assert_array_equal(shared, pickled)

    def test_mmap_handle_feeds_ensemble(self, tmp_path, values):
        """A disk-backed trace joins the ensemble path without loading."""
        path = tmp_path / "trace.rps"
        series = np.abs(values) + 0.1
        write_rate_series(path, series)
        sampler = SystematicSampler(interval=32, offset=None)
        with TraceStore.open(path) as store:
            from_disk = parallel_instance_means(
                sampler, store.values, 8, SEED, workers=2
            )
        in_memory = parallel_instance_means(sampler, series, 8, SEED, workers=2)
        np.testing.assert_array_equal(from_disk, in_memory)
