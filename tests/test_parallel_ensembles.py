"""Determinism pins for the sharded ensemble engine.

The acceptance contract of repro.parallel: every parallelized
ensemble/estimator produces identical results for workers=1 and
workers=4 (exact, or 1e-12 where the reduction order differs), and
matches the pre-existing sequential path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bss import BiasedSystematicSampler
from repro.core.simple_random import SimpleRandomSampler
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.core.variance import average_variance, instance_means
from repro.errors import ParameterError
from repro.hurst.aggvar import aggregate_variances
from repro.hurst.dfa import dfa_fluctuations
from repro.hurst.rs import default_window_sizes, rs_statistics
from repro.parallel import (
    default_workers,
    get_default_workers,
    parallel_aggregate_variances,
    parallel_average_variance,
    parallel_dfa_fluctuations,
    parallel_instance_means,
    parallel_rs_statistics,
    parallel_tail_probabilities,
    resolve_workers,
    run_shards,
    set_default_workers,
)
from repro.queueing.simulation import queue_occupancy, tail_probabilities
from repro.traffic.synthetic import fgn_trace

N = 1 << 13
SEED = 20050601
N_INSTANCES = 12


@pytest.fixture(scope="module")
def trace():
    return fgn_trace(N, SEED)


SAMPLERS = [
    SystematicSampler(interval=64, offset=None),
    StratifiedSampler(interval=64),
    SimpleRandomSampler(rate=1.0 / 64),
    BiasedSystematicSampler(interval=64, extra_samples=4, epsilon=1.0, offset=None),
]


class TestEnsembleDeterminism:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.name)
    def test_workers_1_vs_4_bit_identical(self, trace, sampler):
        one = parallel_instance_means(sampler, trace, N_INSTANCES, SEED, workers=1)
        four = parallel_instance_means(sampler, trace, N_INSTANCES, SEED, workers=4)
        np.testing.assert_array_equal(one, four)

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.name)
    def test_matches_sequential_path(self, trace, sampler):
        sequential = instance_means(sampler, trace, N_INSTANCES, SEED)
        parallel = parallel_instance_means(
            sampler, trace, N_INSTANCES, SEED, workers=4
        )
        np.testing.assert_array_equal(sequential, parallel)

    def test_shard_count_does_not_matter(self, trace):
        sampler = SAMPLERS[0]
        results = [
            parallel_instance_means(sampler, trace, N_INSTANCES, SEED, workers=w)
            for w in (1, 2, 3, 4, N_INSTANCES, N_INSTANCES + 5)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_average_variance_exact(self, trace):
        sampler = SAMPLERS[3]
        sequential = average_variance(sampler, trace, N_INSTANCES, SEED)
        parallel = parallel_average_variance(
            sampler, trace, N_INSTANCES, SEED, workers=4
        )
        assert sequential == parallel

    def test_instance_means_workers_kwarg_routes_to_engine(self, trace):
        sampler = SAMPLERS[1]
        np.testing.assert_array_equal(
            instance_means(sampler, trace, N_INSTANCES, SEED, workers=4),
            instance_means(sampler, trace, N_INSTANCES, SEED),
        )


class TestEstimatorDeterminism:
    """Sharded estimators match the sequential path; an odd shard count
    (3) cuts the joint cost line at uneven row boundaries."""

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_rs_statistics(self, trace, workers):
        sizes = default_window_sizes(N)
        sequential = rs_statistics(trace.values, sizes)
        sharded = parallel_rs_statistics(trace.values, sizes, workers=workers)
        np.testing.assert_allclose(sequential, sharded, rtol=1e-12, atol=1e-12)

    def test_rs_degenerate_sizes_nan(self, trace):
        sizes = np.array([1, N * 2, 64])
        sequential = rs_statistics(trace.values, sizes)
        parallel = parallel_rs_statistics(trace.values, sizes, workers=4)
        np.testing.assert_array_equal(np.isnan(sequential), np.isnan(parallel))
        np.testing.assert_allclose(
            sequential[2], parallel[2], rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_aggregate_variances(self, trace, workers):
        sizes = np.unique(np.geomspace(2, N // 8, 8).astype(np.int64))
        sequential = aggregate_variances(trace.values, sizes)
        sharded = parallel_aggregate_variances(
            trace.values, sizes, workers=workers
        )
        np.testing.assert_allclose(sequential, sharded, rtol=1e-12, atol=1e-12)

    def test_aggregate_variances_oversized_block_rejected(self, trace):
        with pytest.raises(ParameterError, match="no complete block"):
            parallel_aggregate_variances(
                trace.values, [N * 2], workers=4
            )

    def test_aggregate_variances_invalid_block_rejected(self, trace):
        """Same error contract as the sequential path's block_means."""
        for bad in (0, -2):
            with pytest.raises(ParameterError, match="block must be >= 1"):
                parallel_aggregate_variances(trace.values, [bad], workers=4)

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_dfa_fluctuations(self, trace, workers):
        sizes = default_window_sizes(N)
        sequential = dfa_fluctuations(trace.values, sizes)
        sharded = parallel_dfa_fluctuations(trace.values, sizes, workers=workers)
        np.testing.assert_allclose(sequential, sharded, rtol=1e-12, atol=1e-12)

    def test_all_degenerate_sizes_all_nan(self, trace):
        sizes = np.array([1, N * 2])
        sequential = rs_statistics(trace.values, sizes)
        parallel = parallel_rs_statistics(trace.values, sizes, workers=4)
        assert np.isnan(sequential).all() and np.isnan(parallel).all()

    def test_tail_probabilities_exact(self, trace):
        arrivals = trace.values - trace.values.min() + 0.1
        occupancy = queue_occupancy(arrivals, capacity=float(arrivals.mean()) / 0.8)
        thresholds = np.geomspace(0.1, max(float(occupancy.max()), 1.0), 64)
        sequential = tail_probabilities(occupancy, thresholds)
        one = parallel_tail_probabilities(occupancy, thresholds, workers=1)
        four = parallel_tail_probabilities(occupancy, thresholds, workers=4)
        np.testing.assert_array_equal(sequential, one)
        np.testing.assert_array_equal(one, four)


class TestWorkerConfig:
    def test_default_is_one(self):
        assert get_default_workers() == 1
        assert resolve_workers(None) == 1

    def test_context_manager_restores(self):
        with default_workers(4):
            assert get_default_workers() == 4
            assert resolve_workers(None) == 4
        assert get_default_workers() == 1

    def test_context_manager_none_is_noop(self):
        with default_workers(None):
            assert get_default_workers() == 1

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_workers(3):
                raise RuntimeError("boom")
        assert get_default_workers() == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            resolve_workers(0)
        with pytest.raises(ParameterError, match="workers"):
            resolve_workers(2.5)
        with pytest.raises(ParameterError, match="workers"):
            set_default_workers(0)

    def test_session_default_drives_instance_means(self, trace):
        sampler = SAMPLERS[0]
        baseline = instance_means(sampler, trace, N_INSTANCES, SEED)
        with default_workers(4):
            routed = instance_means(sampler, trace, N_INSTANCES, SEED)
        np.testing.assert_array_equal(baseline, routed)


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"worker exploded on {x}")


class TestRunShards:
    def test_order_preserved(self):
        assert run_shards(_square, [(3,), (1,), (2,)], workers=4) == [9, 1, 4]

    def test_serial_for_single_task(self):
        assert run_shards(_square, [(5,)], workers=8) == [25]

    def test_empty_tasks(self):
        assert run_shards(_square, [], workers=4) == []

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="worker exploded"):
            run_shards(_fail, [(1,), (2,)], workers=4)

    def test_worker_exceptions_propagate_serially(self):
        with pytest.raises(ValueError, match="worker exploded"):
            run_shards(_fail, [(1,)], workers=1)


class TestExperimentWorkersWiring:
    def test_run_experiment_workers_identical(self):
        from repro.experiments import run_experiment

        baseline = run_experiment("fig05", scale=0.05, seed=SEED)
        routed = run_experiment("fig05", scale=0.05, seed=SEED, workers=2)
        assert get_default_workers() == 1  # restored afterwards
        for a, b in zip(baseline, routed):
            assert a.experiment_id == b.experiment_id
            for name in a.series:
                np.testing.assert_array_equal(
                    np.asarray(a.series[name]), np.asarray(b.series[name])
                )
