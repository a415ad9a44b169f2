"""Determinism pins for whole-ensemble dispatch and the workers knob.

The acceptance contract of repro.parallel: a unit of work dispatched
through ``run_shards`` — here a whole Monte-Carlo ensemble, as a campaign
dispatches whole cells — gives bit-identical results for workers=1 and
workers=4, equal to running it in-process, and ``run_shards`` hands the
results back in task order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.bss import BiasedSystematicSampler
from repro.core.simple_random import SimpleRandomSampler
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.core.variance import average_variance, instance_means
from repro.errors import ParameterError
from repro.parallel import (
    default_workers,
    get_default_workers,
    resolve_workers,
    run_shards,
    set_default_workers,
)
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


def _dispatch(fn, tasks, workers):
    return list(run_shards(fn, tasks, workers=workers))


class TestEnsembleDeterminism:
    """Whole ensembles as dispatch tasks, one task per seed."""

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.name)
    def test_workers_1_vs_4_bit_identical(self, trace, sampler):
        tasks = [(sampler, trace, N_INSTANCES, SEED + i) for i in range(4)]
        one = _dispatch(instance_means, tasks, 1)
        four = _dispatch(instance_means, tasks, 4)
        for a, b in zip(one, four):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.name)
    def test_matches_sequential_path(self, trace, sampler):
        tasks = [(sampler, trace, N_INSTANCES, SEED + i) for i in range(3)]
        for task, dispatched in zip(tasks, _dispatch(instance_means, tasks, 4)):
            np.testing.assert_array_equal(instance_means(*task), dispatched)

    def test_shard_count_does_not_matter(self, trace):
        tasks = [(SAMPLERS[0], trace, N_INSTANCES, SEED + i) for i in range(5)]
        results = [
            _dispatch(instance_means, tasks, w) for w in (1, 2, 3, 4, 5, 9)
        ]
        for other in results[1:]:
            for a, b in zip(results[0], other):
                np.testing.assert_array_equal(a, b)

    def test_average_variance_exact(self, trace):
        tasks = [(SAMPLERS[3], trace, N_INSTANCES, SEED + i) for i in range(3)]
        dispatched = _dispatch(average_variance, tasks, 4)
        assert dispatched == [average_variance(*task) for task in tasks]


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

    def test_session_default_drives_run_shards(self):
        tasks = [(x,) for x in range(4)]
        with obs.telemetry() as col:
            assert _dispatch(_square, tasks, None) == [0, 1, 4, 9]
        assert "executor.pool_forks" not in col.counters
        with obs.telemetry() as col, default_workers(2):
            assert _dispatch(_square, tasks, None) == [0, 1, 4, 9]
        assert col.counters["executor.pool_forks"] == 1


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"worker exploded on {x}")


class TestRunShards:
    def test_order_preserved(self):
        assert _dispatch(_square, [(3,), (1,), (2,)], 4) == [9, 1, 4]

    def test_serial_for_single_task(self):
        assert _dispatch(_square, [(5,)], 8) == [25]

    def test_empty_tasks(self):
        assert _dispatch(_square, [], 4) == []

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="worker exploded"):
            _dispatch(_fail, [(1,), (2,)], 4)

    def test_worker_exceptions_propagate_serially(self):
        with pytest.raises(ValueError, match="worker exploded"):
            _dispatch(_fail, [(1,)], 1)

    def test_invalid_workers_rejected_at_call(self):
        with pytest.raises(ParameterError, match="workers"):
            run_shards(_square, [(1,)], workers=0)


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
