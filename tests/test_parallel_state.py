"""Tests for repro.parallel.state: merge algebra of the partial states."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.parallel.state import (
    MergeableState,
    MomentState,
    TailHistogramState,
)


class TestMomentState:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=1001)
        state = MomentState.from_values(x)
        assert state.count == x.size
        assert state.mean == pytest.approx(x.mean(), rel=1e-12)
        assert state.variance == pytest.approx(x.var(), rel=1e-12)

    def test_merge_matches_whole(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=997)
        merged = MomentState.from_values(x[:313]).merge(
            MomentState.from_values(x[313:])
        )
        assert merged.count == x.size
        assert merged.mean == pytest.approx(x.mean(), rel=1e-12)
        assert merged.variance == pytest.approx(x.var(), rel=1e-12)

    def test_empty_is_identity(self):
        state = MomentState.from_values([1.0, 2.0, 3.0])
        assert MomentState().merge(state) == state
        assert state.merge(MomentState()) == state

    def test_empty_finalizes_to_nan(self):
        count, mean, variance = MomentState().finalize()
        assert count == 0
        assert np.isnan(mean) and np.isnan(variance)

    def test_merge_order_near_invariant(self):
        rng = np.random.default_rng(2)
        parts = [MomentState.from_values(rng.normal(size=100)) for _ in range(5)]
        forward = reduce(MomentState.merge, parts)
        backward = reduce(MomentState.merge, parts[::-1])
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.variance == pytest.approx(backward.variance, rel=1e-12)


class TestTailHistogramState:
    def test_counts_exact(self):
        q = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        thresholds = np.array([0.5, 2.0, 10.0])
        state = TailHistogramState.from_values(q, thresholds)
        np.testing.assert_array_equal(state.above, [4, 2, 0])
        np.testing.assert_array_equal(state.finalize(), [0.8, 0.4, 0.0])

    def test_merge_is_addition(self):
        thresholds = np.array([1.0])
        a = TailHistogramState.from_values([0.5, 2.0], thresholds)
        b = TailHistogramState.from_values([3.0], thresholds)
        merged = a.merge(b)
        assert merged.total == 3
        np.testing.assert_array_equal(merged.above, [2])

    def test_empty_identity(self):
        thresholds = np.array([1.0, 2.0])
        state = TailHistogramState.from_values([0.0, 3.0], thresholds)
        merged = TailHistogramState.empty(2).merge(state)
        np.testing.assert_array_equal(merged.above, state.above)
        assert merged.total == state.total

    def test_empty_finalize_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            TailHistogramState.empty(3).finalize()

    def test_mismatched_grids_rejected(self):
        a = TailHistogramState.empty(2)
        b = TailHistogramState.empty(3)
        with pytest.raises(ParameterError, match="different scale grids"):
            a.merge(b)


class TestProtocol:
    def test_states_satisfy_protocol(self):
        for state in (MomentState(), TailHistogramState.empty(1)):
            assert isinstance(state, MergeableState)
