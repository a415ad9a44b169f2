"""Parity tests pinning the vectorized hot paths to their reference loops.

Every vectorized rewrite in this repo keeps the original loop
implementation as a private ``_reference_*`` function; these tests assert
the two produce *identical* output — same rng consumption, same values
bit-for-bit, same ``n_base`` and index ordering — across the regimes and
edge cases the rewrites special-case (fixed vs online thresholds, random
offsets, zero pre-samples, zero extras, partial tail intervals, series of
one interval).  The single exception is DFA, pinned at 1e-12 because its
hot path keeps a BLAS matrix-vector product whose reduction order is not
bit-reproducible against a per-box loop.  Davies–Harte fGn has no loop to
keep: it is pinned to the ``numpy.fft`` formula it replaced.  The packet
samplers' batched ``offer_many`` is pinned to the base-class loop over
``offer``, which stays the default for samplers that do not override it.
BSS's blocked replay is pinned over random series built to stress it, and
the one NumPy behaviour it relies on — ``np.cumsum`` adding float64 left
to right — is pinned on its own.  The trace writers are pinned to
per-packet format and ``struct.pack`` loops.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bss as bss_module
from repro.core.adaptive import AdaptiveRandomSampler
from repro.core.bss import BiasedSystematicSampler
from repro.core.renewal import IntervalDistribution
from repro.core.snc import (
    _reference_sampled_acf_via_renewal,
    sampled_acf_via_renewal,
    snc_sweep,
)
from repro.core.stratified import StratifiedSampler
from repro.core.streaming import (
    BernoulliPacketSampler,
    CountStratifiedSampler,
    CountSystematicSampler,
    PacketSampler,
)
from repro.core.systematic import SystematicSampler
from repro.core.variance import _reference_instance_means, instance_means
from repro.errors import ParameterError
from repro.hurst.aggvar import _reference_aggregate_variances, aggregate_variances
from repro.hurst.confidence import (
    _reference_moving_block_resample,
    moving_block_resample,
)
from repro.hurst.dfa import _reference_dfa_fluctuations, dfa_fluctuations
from repro.hurst.rs import _reference_rs_statistics, rs_statistics
from repro.queueing.simulation import (
    _reference_tail_probabilities,
    queue_occupancy,
    tail_probabilities,
)
from repro.trace import io as trace_io
from repro.trace.io import _RECORD, read_binary, write_binary, write_csv
from repro.trace.packet import PacketTrace
from repro.traffic.fgn import fgn_autocovariance, fgn_davies_harte
from repro.traffic.onoff import OnOffModel
from repro.traffic.synthetic import (
    fgn_trace,
    synthetic_packet_trace,
    synthetic_trace,
)


@pytest.fixture(scope="module")
def pareto():
    """Heavy-tailed LRD trace — the paper's synthetic workload."""
    return synthetic_trace(1 << 14, 1234)


@pytest.fixture(scope="module")
def fgn():
    """Light-tailed Gaussian LRD trace — the no-bursts regime."""
    return fgn_trace(1 << 14, 4321)


def assert_same_sampling(result, reference):
    np.testing.assert_array_equal(result.indices, reference.indices)
    assert result.values.tobytes() == reference.values.tobytes()
    assert result.n_population == reference.n_population
    assert result.n_base == reference.n_base
    assert result.method == reference.method


# ------------------------------------------------------------------- BSS
class TestBssParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"n_presamples": 0},
            {"n_presamples": 50},
            {"extra_samples": 0},
            {"epsilon": 0.6},
            {"epsilon": 1.5},
            {"interval": 37, "extra_samples": 3},
            {"interval": 1000, "extra_samples": 12},
        ],
    )
    def test_online_threshold(self, pareto, kwargs):
        config = {"interval": 100, "extra_samples": 8}
        config.update(kwargs)
        sampler = BiasedSystematicSampler(**config)
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )

    @pytest.mark.parametrize("epsilon", [1.0, 1.1, 1.3])
    def test_online_threshold_fgn(self, fgn, epsilon):
        """Light-tailed input: triggers range from dense to nonexistent."""
        sampler = BiasedSystematicSampler(
            interval=64, extra_samples=6, epsilon=epsilon
        )
        assert_same_sampling(
            sampler.sample(fgn), sampler._reference_sample(fgn)
        )

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 100.0])
    def test_fixed_threshold(self, pareto, factor):
        sampler = BiasedSystematicSampler(
            interval=50, extra_samples=4, threshold=factor * pareto.mean
        )
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )

    def test_random_offset_consumes_same_stream(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=128, extra_samples=4, offset=None
        )
        for seed in range(5):
            assert_same_sampling(
                sampler.sample(pareto, seed),
                sampler._reference_sample(pareto, seed),
            )

    def test_partial_tail_interval(self, pareto):
        """Extras of the final interval may run past the series end."""
        n = len(pareto) - 7
        values = pareto.values[:n]
        sampler = BiasedSystematicSampler(
            interval=50, extra_samples=8, threshold=0.5 * float(values.mean())
        )
        assert_same_sampling(
            sampler.sample(values), sampler._reference_sample(values)
        )

    def test_series_of_exactly_one_interval(self):
        values = np.full(10, 3.0)
        sampler = BiasedSystematicSampler(interval=10, extra_samples=3)
        assert_same_sampling(
            sampler.sample(values), sampler._reference_sample(values)
        )

    def test_series_shorter_than_interval_rejected_by_both(self):
        values = np.ones(5)
        sampler = BiasedSystematicSampler(interval=10, extra_samples=2)
        with pytest.raises(ParameterError):
            sampler.sample(values)
        with pytest.raises(ParameterError):
            sampler._reference_sample(values)

    def test_presamples_exceed_series(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=2048, extra_samples=4, n_presamples=100
        )
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )

    @pytest.mark.parametrize("hurst", [0.55, 0.8, 0.95])
    def test_fig21_dense_triggers(self, hurst):
        """Fig. 21's configuration: about half the intervals trigger.

        ``n`` gives 8192 intervals, so the blocked replay runs over four
        blocks.
        """
        n = 1 << 16
        assert n // 8 >= 3 * bss_module._REPLAY_BLOCK
        series = 10.0 + fgn_davies_harte(n, hurst, 21)
        sampler = BiasedSystematicSampler(
            interval=8, extra_samples=4, epsilon=1.0
        )
        result = sampler.sample(series)
        assert result.n_extra > n // 64
        assert_same_sampling(result, sampler._reference_sample(series))

    @pytest.mark.parametrize("level", [0.1, 0.3, 0.7, 1.1])
    def test_constant_inexact_series(self, level):
        """A constant series keeps extras only where the running mean
        rounds below it: the decisions test the order of every addition.
        """
        series = np.full(8 * (3 * bss_module._REPLAY_BLOCK + 100), level)
        sampler = BiasedSystematicSampler(interval=8, extra_samples=4)
        result = sampler.sample(series)
        assert result.n_extra > 0
        assert_same_sampling(result, sampler._reference_sample(series))

    @pytest.mark.parametrize(
        "tail",
        [
            0,
            1,
            1023,
            1024,
            bss_module._REPLAY_BLOCK - 1,
            bss_module._REPLAY_BLOCK + 1,
            2 * bss_module._REPLAY_BLOCK,
        ],
    )
    def test_replay_tail_lengths(self, tail):
        """The first keeping interval is placed so exactly ``tail``
        intervals follow it: none, a few, and block edges on or next to
        the last interval."""
        pivot, interval = 10, 4
        values = np.ones((pivot + 1 + tail, interval))
        values[pivot] = 5.0  # the first interval to trigger and keep
        values[pivot + 1 :] = 1.0 + np.random.default_rng(tail).pareto(
            1.3, (tail, interval)
        )
        series = values.ravel()
        sampler = BiasedSystematicSampler(
            interval=interval, extra_samples=2, n_presamples=2
        )
        result = sampler.sample(series)
        assert result.n_extra >= 2
        assert_same_sampling(result, sampler._reference_sample(series))


def _stress_series(kind: str, n: int, seed: int) -> np.ndarray:
    """A series shaped to stress the online-threshold replay."""
    rng = np.random.default_rng(seed)
    if kind == "fgn+10":
        # Fig. 21's shape: dense triggers at eps = 1.0.
        return 10.0 + fgn_davies_harte(max(n, 2), 0.85, seed)[:n]
    if kind == "ties":
        # Small integers in runs: thresholds land exactly on values.
        runs = np.repeat(rng.integers(1, 4, n), rng.integers(1, 6, n))
        return runs[:n].astype(np.float64)
    if kind == "constant":
        # An inexact decimal: every decision rests on rounding alone.
        return np.full(n, rng.choice([0.1, 0.3, 0.7, 1.1]))
    if kind == "decimals":
        # Inexact decimals in runs: thresholds land within an ulp of
        # values, so a sum added in another order flips decisions.
        picks = rng.choice([0.1, 0.2, 0.3, 0.7], n)
        return np.repeat(picks, rng.integers(1, 6, n))[:n]
    if kind == "signed":
        # Zero, negative and signed-zero values; thresholds cross zero.
        values = rng.integers(-3, 4, n).astype(np.float64)
        zeros = values == 0
        values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        return values
    return rng.pareto(1.3, n) + 1.0  # heavy-tailed


@st.composite
def _bss_cases(draw, rows, *, min_interval: int = 1, min_extras: int = 0):
    """(sampler, series, rng seed) with about ``rows`` regular samples."""
    interval = draw(st.integers(min_interval, 12))
    sampler = BiasedSystematicSampler(
        interval=interval,
        extra_samples=draw(st.integers(min_extras, 6)),
        epsilon=draw(st.sampled_from([0.4, 0.9, 1.0, 1.25])),
        n_presamples=draw(st.integers(0, 8)),
        offset=draw(st.none() | st.integers(0, interval - 1)),
    )
    # A partial final interval puts its extras past the series end.
    n = draw(rows) * interval + draw(st.integers(0, interval - 1))
    kind = draw(
        st.sampled_from(
            ["fgn+10", "ties", "constant", "decimals", "signed", "pareto"]
        )
    )
    series = _stress_series(kind, n, draw(st.integers(0, 2**32 - 1)))
    return sampler, series, draw(st.integers(0, 2**16))


class TestBssReplayProperty:
    """``sample`` ≡ ``_reference_sample`` over series built to stress the
    blocked replay: dense triggers, ties at the threshold, decisions that
    rest on rounding, zero and negative values, extras past the series
    end."""

    @given(
        _bss_cases(
            st.integers(8, 1100)
            | st.integers(
                2 * bss_module._REPLAY_BLOCK, 3 * bss_module._REPLAY_BLOCK + 64
            ),
            min_interval=2,
            min_extras=1,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, case):
        """Short series and series over several blocks."""
        sampler, series, seed = case
        assert_same_sampling(
            sampler.sample(series, seed),
            sampler._reference_sample(series, seed),
        )

    @given(_bss_cases(st.integers(1, 120)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_with_tiny_blocks(self, case):
        """Blocks of 5 intervals: many blocks and rounds per instance,
        block edges at every position."""
        sampler, series, seed = case
        with mock.patch.object(bss_module, "_REPLAY_BLOCK", 5):
            result = sampler.sample(series, seed)
        assert_same_sampling(result, sampler._reference_sample(series, seed))


def _loop_cumsum(values: np.ndarray) -> np.ndarray:
    """Running sums as the reference loop forms them, in Python floats."""
    total = float(values[0])
    out = [total]
    for value in values[1:].tolist():
        total += value
        out.append(total)
    return np.array(out, dtype=np.float64)


def _adversarial_floats(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = 4096
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    near_one = 1.0 + rng.integers(-8, 9, n) * np.finfo(np.float64).eps
    cancelling = np.repeat(rng.normal(size=n // 2) * 1e16, 2)
    cancelling[1::2] *= -1.0
    zeros = rng.choice([0.0, -0.0, 1e-300, -1e-300, 5e-324], n)
    parts = [wide, near_one, -near_one, cancelling, zeros]
    return rng.permutation(np.concatenate(parts))


class TestCumsumArithmetic:
    """The blocked BSS replay takes running sums from ``np.cumsum``: it
    must add float64 left to right, exactly like ``total += value``, and
    adding ``+0.0`` for an unkept sample must not change a sum's value.
    A NumPy change to the accumulation order fails here, by name."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cumsum_is_a_left_to_right_loop(self, seed):
        values = _adversarial_floats(seed)
        expected = _loop_cumsum(values)
        assert np.cumsum(values).tobytes() == expected.tobytes()
        # The replay's input is a C-ordered matrix, flattened by cumsum.
        rows = values.reshape(-1, 8)
        assert np.cumsum(rows).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zeroed_entries_leave_sums_unchanged(self, seed):
        values = _adversarial_floats(seed)
        kept = np.random.default_rng(seed).random(values.size) < 0.4
        kept[0] = True
        zeroed = np.cumsum(np.where(kept, values, 0.0))
        skipped = _loop_cumsum(values[kept])
        np.testing.assert_array_equal(zeroed[kept], skipped)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_finite_floats(self, values):
        values = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            summed = np.cumsum(values)
        assert summed.tobytes() == _loop_cumsum(values).tobytes()


# -------------------------------------------------------------------- SNC
def _heavy_gaps() -> IntervalDistribution:
    pmf = np.concatenate([[0.0], np.arange(1.0, 65.0) ** -1.5])
    return IntervalDistribution(pmf=pmf / pmf.sum(), name="heavy")


SNC_DISTRIBUTIONS = {
    "stratified": IntervalDistribution.stratified(10),
    "simple-random": IntervalDistribution.geometric(0.1),
    "systematic": IntervalDistribution.deterministic(7),
    "heavy": _heavy_gaps(),
}


class TestSncParity:
    """The sweep computes each kernel k(·, tau) once for every beta; per
    (beta, tau) it must give the reference loop's bits."""

    @pytest.mark.parametrize(
        "dist", SNC_DISTRIBUTIONS.values(), ids=SNC_DISTRIBUTIONS
    )
    @pytest.mark.parametrize("const", [1.0, 2.5])
    def test_sampled_acf(self, dist, const):
        taus = [1, 2, 7, 40, 64, 97]
        for beta in (0.05, 0.5, 0.95):
            fast = sampled_acf_via_renewal(dist, beta, taus, const=const)
            reference = _reference_sampled_acf_via_renewal(
                dist, beta, taus, const=const
            )
            assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "dist", SNC_DISTRIBUTIONS.values(), ids=SNC_DISTRIBUTIONS
    )
    def test_sweep(self, dist):
        betas = [0.1, 0.45, 0.8]
        taus = None if dist.name != "heavy" else np.arange(4, 40)
        results = snc_sweep(dist, betas, taus=taus)
        assert [r.beta for r in results] == betas
        for result in results:
            reference = _reference_sampled_acf_via_renewal(
                dist, result.beta, result.taus
            )
            assert result.sampled_acf.tobytes() == reference.tobytes()


# -------------------------------------------------------------- adaptive
def _adaptive_series(kind: str, n: int, seed: int) -> np.ndarray:
    """A finite series shaped to steer the adaptive detector."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, rng.choice([0.1, 0.3, 2.5, 1.5e308]))
    if kind == "zero":
        return np.zeros(n)
    if kind == "negative":
        # long_run < 0: only the ``long_run > 0`` guard keeps it quiet.
        return -(rng.pareto(1.3, n) + 1.0)
    if kind == "signed":
        values = rng.integers(-3, 4, n).astype(np.float64)
        values[values == 0] = rng.choice([0.0, -0.0], int((values == 0).sum()))
        return values * rng.pareto(1.3, n)
    return rng.pareto(1.3, n) + 1.0  # heavy-tailed


@st.composite
def _adaptive_cases(draw):
    """(sampler, series, rng seed) over the sampler's valid parameters."""
    sampler = AdaptiveRandomSampler(
        base_rate=draw(
            st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0])
            | st.floats(0.0, 1.0, exclude_min=True)
        ),
        boost_factor=draw(st.sampled_from([1.0, 4.0]) | st.floats(1.0, 50.0)),
        trigger=draw(st.floats(0.0, 4.0, exclude_min=True)),
        ewma_alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )
    kind = draw(
        st.sampled_from(["pareto", "constant", "zero", "negative", "signed"])
    )
    series = _adaptive_series(
        kind, draw(st.integers(1, 2000)), draw(st.integers(0, 2**32 - 1))
    )
    return sampler, series, draw(st.integers(0, 2**16))


def _detector_flags(
    sampler: AdaptiveRandomSampler, sampled: np.ndarray
) -> list[bool]:
    """The detector's ``elevated`` flag after each of ``sampled``."""
    ewma = long_run = None
    flags = []
    for value in sampled.tolist():
        if ewma is None:
            ewma = long_run = value
        else:
            ewma = sampler.ewma_alpha * value + (1 - sampler.ewma_alpha) * ewma
            long_run = 0.005 * value + 0.995 * long_run
        flags.append(long_run > 0 and ewma > sampler.trigger * long_run)
    return flags


class TestAdaptiveParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0.01},
            {"base_rate": 0.02, "boost_factor": 8.0, "trigger": 1.2},
            {"base_rate": 0.5, "boost_factor": 2.0},
            {"base_rate": 1e-9},  # fallback single-sample draw
        ],
    )
    def test_same_stream_same_samples(self, pareto, kwargs):
        sampler = AdaptiveRandomSampler(**kwargs)
        for seed in (0, 7):
            assert_same_sampling(
                sampler.sample(pareto, seed),
                sampler._reference_sample(pareto, seed),
            )

    def test_flat_series(self):
        flat = np.full(5000, 2.5)
        sampler = AdaptiveRandomSampler(base_rate=0.05)
        assert_same_sampling(
            sampler.sample(flat, 3), sampler._reference_sample(flat, 3)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0.05, "boost_factor": 1.0},  # both rates equal
            {"base_rate": 1.0},  # every granule is sampled
            {"base_rate": 0.05, "ewma_alpha": 1.0},  # the EWMA is the value
        ],
    )
    def test_edge_parameters(self, pareto, kwargs):
        """The trace ends in a burst, so the detector ends elevated (see
        ``test_square_wave_flips_the_regime`` for why that matters)."""
        series = pareto.values.copy()
        series[-100:] *= 50.0
        sampler = AdaptiveRandomSampler(**kwargs)
        for seed in (0, 7):
            result = sampler.sample(series, seed)
            assert _detector_flags(sampler, result.values)[-1]
            assert_same_sampling(
                result, sampler._reference_sample(series, seed)
            )

    def test_square_wave_flips_the_regime(self):
        """Quiet and loud blocks in turn: the detector engages and lets go
        many times, and every flip must land on the reference's sample.

        ``n_base`` counts the flag *before* each pick; a count taken after
        the update differs from it only if the detector ends elevated, so
        the wave ends on a loud block the detector is still reacting to.
        """
        series = np.tile(np.repeat([1.0, 10.0], [600, 200]), 12)
        sampler = AdaptiveRandomSampler(base_rate=0.05, ewma_alpha=0.2)
        result = sampler.sample(series, 5)
        flags = _detector_flags(sampler, result.values)
        assert sum(a != b for a, b in zip([False] + flags, flags)) >= 12
        assert flags[-1]
        assert_same_sampling(result, sampler._reference_sample(series, 5))

    def test_single_point(self):
        """n = 1 takes the loop for some seeds and the fallback draw for
        the others."""
        sampler = AdaptiveRandomSampler(base_rate=0.5)
        series = np.array([3.0])
        for seed in range(10):
            assert_same_sampling(
                sampler.sample(series, seed),
                sampler._reference_sample(series, seed),
            )

    @pytest.mark.parametrize("base_rate", [0.02, 1e-9])
    def test_generator_left_in_the_same_state(self, pareto, base_rate):
        """On one generator, the draw after ``sample`` is the draw after
        ``_reference_sample``: both consume the same stream, with and
        without the fallback draw."""
        sampler = AdaptiveRandomSampler(base_rate=base_rate)
        gen = np.random.default_rng(11)
        start = gen.bit_generator.state
        sampler.sample(pareto, gen)
        after_sample = gen.random()
        gen.bit_generator.state = start
        sampler._reference_sample(pareto, gen)
        assert after_sample == gen.random()

    @given(_adaptive_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        sampler, series, seed = case
        assert_same_sampling(
            sampler.sample(series, seed),
            sampler._reference_sample(series, seed),
        )


# ----------------------------------------------------------- Monte-Carlo
class TestInstanceMeansParity:
    def test_systematic_random_offset(self, pareto):
        sampler = SystematicSampler(interval=100, offset=None)
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 32, 5),
            _reference_instance_means(sampler, pareto, 32, 5),
        )

    def test_systematic_uneven_tail(self, pareto):
        """Offsets split instances into two sample-count groups."""
        values = pareto.values[: 100 * 37 + 13]
        sampler = SystematicSampler(interval=100, offset=None)
        np.testing.assert_array_equal(
            instance_means(sampler, values, 48, 9),
            _reference_instance_means(sampler, values, 48, 9),
        )

    def test_stratified(self, pareto):
        sampler = StratifiedSampler(interval=64)
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 32, 5),
            _reference_instance_means(sampler, pareto, 32, 5),
        )

    def test_stratified_partial_stratum(self, pareto):
        values = pareto.values[: 64 * 100 + 17]
        sampler = StratifiedSampler(interval=64)
        np.testing.assert_array_equal(
            instance_means(sampler, values, 24, 2),
            _reference_instance_means(sampler, values, 24, 2),
        )

    def test_generic_sampler_unchanged(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=100, extra_samples=4, offset=None
        )
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 8, 11),
            _reference_instance_means(sampler, pareto, 8, 11),
        )


class TestMovingBlockParity:
    @pytest.mark.parametrize("block", [8, 64, 511, 512, 513, 4096])
    def test_both_regimes(self, fgn, block):
        """Gather path (short blocks) and slice path (long) are identical."""
        np.testing.assert_array_equal(
            moving_block_resample(fgn.values, block, np.random.default_rng(3)),
            _reference_moving_block_resample(
                fgn.values, block, np.random.default_rng(3)
            ),
        )


# ------------------------------------------------------------ estimators
class TestEstimatorParity:
    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_rs(self, trace_name, request):
        x = request.getfixturevalue(trace_name).values
        sizes = [8, 16, 100, 1000, x.size, x.size + 1]
        np.testing.assert_array_equal(
            rs_statistics(x, sizes), _reference_rs_statistics(x, sizes)
        )

    def test_rs_constant_windows(self):
        x = np.concatenate([np.full(64, 5.0), np.random.default_rng(0).random(64)])
        sizes = [8, 32, 64]
        np.testing.assert_array_equal(
            rs_statistics(x, sizes), _reference_rs_statistics(x, sizes)
        )

    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_dfa(self, trace_name, request):
        """DFA keeps the BLAS matrix-vector product on its hot path, whose
        reduction order may differ from the per-box dot by ulps — parity
        is therefore pinned at 1e-12 instead of bit equality."""
        x = request.getfixturevalue(trace_name).values
        sizes = [3, 4, 8, 100, 1000, x.size + 1]  # includes degenerate sizes
        np.testing.assert_allclose(
            dfa_fluctuations(x, sizes),
            _reference_dfa_fluctuations(x, sizes),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_aggvar(self, trace_name, request):
        x = request.getfixturevalue(trace_name).values
        sizes = [1, 2, 10, 100, x.size // 8]
        np.testing.assert_array_equal(
            aggregate_variances(x, sizes),
            _reference_aggregate_variances(x, sizes),
        )

    def test_aggvar_oversize_block_rejected_by_both(self, pareto):
        x = pareto.values
        with pytest.raises(ParameterError):
            aggregate_variances(x, [x.size + 1])
        with pytest.raises(ParameterError):
            _reference_aggregate_variances(x, [x.size + 1])


# -------------------------------------------------------------- queueing
class TestTailProbabilityParity:
    def test_matches_scan(self, pareto):
        occupancy = queue_occupancy(pareto.values, capacity=pareto.mean / 0.8)
        thresholds = np.geomspace(0.5, max(float(occupancy.max()), 1.0), 50)
        np.testing.assert_array_equal(
            tail_probabilities(occupancy, thresholds),
            _reference_tail_probabilities(occupancy, thresholds),
        )

    def test_exact_threshold_is_strict(self):
        occupancy = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        thresholds = [0.0, 1.0, 2.5, 3.0, 4.0]
        np.testing.assert_array_equal(
            tail_probabilities(occupancy, thresholds),
            _reference_tail_probabilities(occupancy, thresholds),
        )


# ---------------------------------------------------------------- traffic
ONOFF_MODELS = {
    "one-source": OnOffModel(n_sources=1),
    # Unequal tails and minimums, and a rate whose +/- sums round, so the
    # order of the scatter into the difference array shows.
    "unequal": OnOffModel(
        n_sources=5, alpha_on=1.2, alpha_off=1.7, min_on=2.5, min_off=11.0,
        peak_rate=0.3,
    ),
    "aggregate": OnOffModel.for_hurst(0.8, n_sources=64, peak_rate=1.7),
    # Sub-tick ON bursts (most start and end in one tick, and are dropped)
    # and near-infinite-mean OFF gaps, which outlast the first batch of
    # draws.
    "sub-tick": OnOffModel(
        n_sources=5, alpha_on=2.5, alpha_off=1.05, min_on=0.1, min_off=0.7,
        peak_rate=0.1,
    ),
}


class TestOnOffParity:
    @pytest.mark.parametrize("model", ONOFF_MODELS.values(), ids=ONOFF_MODELS)
    @pytest.mark.parametrize("n_ticks", [1, 2, 4096, 1 << 14])
    @pytest.mark.parametrize("warmup", [0, 7, None])
    def test_matches_loop(self, model, n_ticks, warmup):
        for seed in (0, 1, 2):
            fast_rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            np.testing.assert_array_equal(
                model.generate(n_ticks, fast_rng, warmup=warmup),
                model._reference_generate(n_ticks, loop_rng, warmup=warmup),
            )
            # Same consumption of the caller's generator.
            assert fast_rng.random() == loop_rng.random()


def _frozen_autocovariance(hurst, n_lags, sigma=1.0):
    """fGn's autocovariance as three ``**`` passes, kept apart from the
    shared power table ``fgn_autocovariance`` computes it from."""
    k = np.arange(n_lags, dtype=np.float64)
    two_h = 2.0 * hurst
    return 0.5 * sigma**2 * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h
    )


def _embedding_eigenvalues(n, hurst, sigma=1.0):
    """Eigenvalues of the power-of-two circulant m = 2**g >= 2(n - 1),
    first row [g0 .. g_{m/2}, g_{m/2-1} .. g1]."""
    m = 2
    while m < 2 * (n - 1):
        m *= 2
    gamma = _frozen_autocovariance(hurst, m // 2 + 1, sigma=sigma)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.rfft(row).real


def _numpy_fft_fgn(n, hurst, gen, sigma=1.0):
    """Davies-Harte on numpy.fft, one temporary per step."""
    eigenvalues = _embedding_eigenvalues(n, hurst, sigma=sigma)
    m = 2 * (eigenvalues.size - 1)
    if eigenvalues.min() < 0:
        eigenvalues = np.clip(eigenvalues, 0.0, None)
    scale = np.sqrt(eigenvalues / m)
    real = gen.normal(size=m // 2 + 1)
    imag = gen.normal(size=m // 2 + 1)
    weights = (real + 1j * imag) * scale
    weights[0] = real[0] * scale[0] * np.sqrt(2.0)
    weights[-1] = real[-1] * scale[-1] * np.sqrt(2.0)
    return (np.fft.irfft(weights, n=m) * m / np.sqrt(2.0))[:n]


def _assert_same_fgn(n, hurst, seed, sigma):
    """Same bits, signed zeros included, and the same generator state."""
    fast_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    fast = fgn_davies_harte(n, hurst, fast_rng, sigma=sigma)
    oracle = _numpy_fft_fgn(n, hurst, oracle_rng, sigma=sigma)
    assert fast.dtype == oracle.dtype and fast.shape == oracle.shape == (n,)
    assert fast.tobytes() == oracle.tobytes()
    assert fast_rng.random() == oracle_rng.random()


class TestFgnParity:
    """The in-place work-array Davies-Harte gives the bits of a plain
    numpy.fft recomputation with a temporary per step.

    ``n = 4098`` and ``2**17 + 1`` embed in m > 2(n - 1) and m = 2(n - 1),
    so their rows reach lags beyond n - 1; ``H = 0.5`` takes ndarray
    power's exact fast path for the exponent 1.
    """

    @pytest.mark.parametrize(
        "n, hurst, sigma",
        [(2, 0.7, 1.0), (3, 0.3, 1.0), (4096, 0.8, 2.5), (1 << 17, 0.85, 1.0),
         (1 << 17, 0.6, 0.4), (4098, 0.75, 1.5)],
    )
    def test_matches_numpy_fft(self, n, hurst, sigma):
        for seed in (0, 1):
            _assert_same_fgn(n, hurst, seed, sigma)

    @pytest.mark.parametrize(
        "n", [2, 3, 5, 4097, 4098, 1 << 16, (1 << 17) + 1, 1 << 19]
    )
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.85, 0.95])
    def test_grid(self, n, hurst):
        for seed, sigma in enumerate((1.0, 2.5, 3)):
            _assert_same_fgn(n, hurst, seed, sigma)

    @pytest.mark.parametrize("n, hurst", [(1 << 18, 0.998), (1 << 19, 0.9825)])
    def test_eigenvalue_clip_branch(self, n, hurst):
        """Round-off leaves eigenvalues in [-1e-8 max, 0), which are
        clipped to zero: 1479 of them at (2**18, 0.998), 3 at
        (2**19, 0.9825)."""
        eigenvalues = _embedding_eigenvalues(n, hurst)
        assert -1e-8 * eigenvalues.max() <= eigenvalues.min() < 0
        _assert_same_fgn(n, hurst, 5, 1.0)

    @pytest.mark.parametrize("n_lags", [1, 2, 3, 4097])
    @pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.85, 0.95])
    def test_autocovariance_matches_three_powers(self, n_lags, hurst):
        for sigma in (1.0, 2.5, 3):
            assert (
                fgn_autocovariance(hurst, n_lags, sigma=sigma).tobytes()
                == _frozen_autocovariance(hurst, n_lags, sigma=sigma).tobytes()
            )


# -------------------------------------------------------- packet samplers
PACKETS = 1000

#: (kind, parameter, window length in packets) per sampler under test.
PACKET_SAMPLERS = [
    *(
        pytest.param("systematic", (period, offset), period,
                     id=f"systematic-{period}-offset{offset}")
        for period in (1, 7, 100)
        for offset in sorted({0, period - 1})
    ),
    *(
        pytest.param("stratified", period, period, id=f"stratified-{period}")
        for period in (1, 3, 100, 2 * PACKETS)
    ),
    *(
        pytest.param("bernoulli", rate, round(1 / rate), id=f"bernoulli-{rate}")
        for rate in (0.01, 0.5, 1.0)
    ),
]


def _packet_sampler(kind: str, parameter, seed: int) -> PacketSampler:
    if kind == "systematic":
        period, offset = parameter
        return CountSystematicSampler(period, offset=offset)
    if kind == "stratified":
        return CountStratifiedSampler(parameter, rng=seed)
    return BernoulliPacketSampler(parameter, rng=seed)


def _chunk_bounds(chunking: str, window: int) -> list[int]:
    """Chunk edges over ``PACKETS`` packets; cuts land on a window boundary."""
    boundary = window if window < PACKETS else PACKETS // 2
    return {
        "whole": [0, PACKETS],
        "single-packets": list(range(PACKETS + 1)),
        "before-boundary": [0, boundary - 1, PACKETS],
        "at-boundary": [0, boundary, PACKETS],
        "after-boundary": [0, boundary + 1, PACKETS],
        "empty-chunk": [0, boundary, boundary, PACKETS],
    }[chunking]


def _sampler_state(sampler: PacketSampler) -> dict:
    state = dict(vars(sampler))
    if "_rng" in state:
        state["_rng"] = state["_rng"].bit_generator.state
    return state


def assert_same_sampler(batched: PacketSampler, looped: PacketSampler) -> None:
    assert _sampler_state(batched) == _sampler_state(looped)
    if hasattr(looped, "_rng"):
        assert batched._rng.random() == looped._rng.random()
        assert batched._rng.integers(0, 1000) == looped._rng.integers(0, 1000)


@pytest.fixture(scope="module")
def packets():
    """(timestamps, sizes) of a ``PACKETS``-packet synthetic capture."""
    trace = synthetic_packet_trace(PACKETS, rng=11)
    return trace.timestamps, trace.sizes


class TestPacketSamplerParity:
    """``offer_many`` leaves sampler and generator where ``offer`` calls do.

    The reference is the base-class ``offer_many``: one ``offer`` call per
    packet, which the samplers under test override.  That
    ``integers(size=k)`` consumes the generator like ``k`` scalar
    draws is a NumPy implementation detail; the stratified cases pin it.
    """

    @pytest.mark.parametrize("kind, parameter, window", PACKET_SAMPLERS)
    @pytest.mark.parametrize(
        "chunking",
        ["whole", "single-packets", "before-boundary", "at-boundary",
         "after-boundary", "empty-chunk"],
    )
    def test_matches_offer_loop(self, packets, kind, parameter, window, chunking):
        bounds = _chunk_bounds(chunking, window)
        for seed in (0, 1, 2):
            batched = _packet_sampler(kind, parameter, seed)
            looped = _packet_sampler(kind, parameter, seed)
            for lo, hi in zip(bounds, bounds[1:]):
                chunk = [column[lo:hi] for column in packets]
                np.testing.assert_array_equal(
                    batched.offer_many(*chunk),
                    PacketSampler.offer_many(looped, *chunk),
                )
            assert_same_sampler(batched, looped)

    @pytest.mark.parametrize(
        "kind, parameter",
        [("systematic", (7, 3)), ("stratified", 7), ("bernoulli", 0.3)],
    )
    def test_mixed_calls_and_reset(self, packets, kind, parameter):
        mixed = _packet_sampler(kind, parameter, 5)
        looped = _packet_sampler(kind, parameter, 5)
        steps = [("many", 10), ("one", 3), ("many", 0), ("many", 25),
                 ("reset", 0), ("one", 1), ("many", 40), ("reset", 0),
                 ("many", 1), ("one", 2), ("many", 100)]
        position = 0
        for step, n in steps:
            if step == "reset":
                mixed.reset()
                looped.reset()
                continue
            chunk = [column[position:position + n] for column in packets]
            position += n
            expected = PacketSampler.offer_many(looped, *chunk)
            if step == "one":
                decided = [mixed.offer(float(ts), int(size))
                           for ts, size in zip(*chunk)]
            else:
                decided = mixed.offer_many(*chunk)
            np.testing.assert_array_equal(decided, expected)
        assert_same_sampler(mixed, looped)


# -------------------------------------------------------------- trace io
def _loop_csv_lines(trace: PacketTrace) -> str:
    lines = ["# repro-trace v1: timestamp,src,dst,size,protocol"]
    for i in range(len(trace)):
        lines.append(
            f"{trace.timestamps[i]:.6f},{trace.sources[i]},"
            f"{trace.destinations[i]},{trace.sizes[i]},{trace.protocols[i]}"
        )
    return "\n".join(lines) + "\n"


def _loop_binary_records(trace: PacketTrace) -> bytes:
    return b"".join(
        _RECORD.pack(
            float(trace.timestamps[i]),
            int(trace.sources[i]),
            int(trace.destinations[i]),
            int(trace.sizes[i]),
            int(trace.protocols[i]),
        )
        for i in range(len(trace))
    )


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_CSV_BOUND_BITS = struct.unpack(
    "<Q", struct.pack("<d", trace_io._FIXED_POINT_BOUND)
)[0]
_any_double = st.integers(0, 2**64 - 1).map(_double)
#: Timestamps inside the NumPy formatter's domain and at its edge.
_csv_inside = st.one_of(
    st.floats(0, 1e4),
    # Multiples of 2^-7 and 2^-8: odd multiples of 2^-7 are exact ties at
    # the sixth decimal, which round to even.
    st.integers(0, 2**39).map(lambda k: k / 128),
    st.integers(0, 2**40).map(lambda k: k / 256),
    # The doubles nearest (2k + 1) / 2e6: x * 1e6 often rounds onto the
    # half-integer, and the exact residual decides.
    st.integers(0, 2_251_799_813_685_247).map(lambda k: (2 * k + 1) / 2e6),
    st.integers(-8, 8).map(lambda k: _double(_CSV_BOUND_BITS + k)),
    _any_double,
)
#: Timestamps only ``%`` formats.
_csv_outside = st.one_of(
    st.sampled_from([-0.0, np.inf, -np.inf]),
    st.floats(max_value=-0.0, allow_infinity=False),
    # Past 2^53/10^6, fl(x * 1e6) is an even integer and rounds wrongly.
    st.floats(trace_io._FIXED_POINT_BOUND, 1e11),
    st.floats(min_value=trace_io._FIXED_POINT_BOUND, allow_infinity=False),
    _any_double,
)


@pytest.fixture()
def packet_trace():
    rng = np.random.default_rng(99)
    n = 500
    return PacketTrace(
        timestamps=np.sort(rng.random(n) * 1e4),
        sources=rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        destinations=rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        sizes=rng.integers(0, 2**16, n).astype(np.uint32),
        protocols=rng.integers(0, 256, n).astype(np.uint8),
    )


class TestTraceIoParity:
    def test_csv_bytes_match_loop_format(self, packet_trace, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(packet_trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(packet_trace)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 15])
    def test_csv_blocks_match_loop_format(self, packet_trace, tmp_path, n):
        """Blocks of 7 rows: no block, a partial one, exactly one, one
        plus a row, and two plus a row."""
        trace = packet_trace.select(np.arange(len(packet_trace)) < n)
        path = tmp_path / "t.csv"
        with mock.patch.object(trace_io, "_CSV_CHUNK", 7):
            write_csv(trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(trace)

    def test_csv_rounding_and_column_ranges(self, tmp_path):
        """``%.6f`` rounds each double's exact value: 5e-07 lies just
        below a half, 1.5e-06 and 2.5e-06 just above.  ``round(x * 1e6)``
        rounds 2.5e-06 to even and 123456789.9999995 up, both wrong.  The
        integer columns reach their dtypes' maxima."""
        top = 2**32 - 1
        trace = PacketTrace(
            timestamps=[5e-07, 1.5e-06, 2.5e-06, 123456789.9999995, 1e15],
            sources=[0, top, 1, top, top],
            destinations=[top, 0, top, 2, top],
            sizes=[top, 40, 0, top, top],
            protocols=[255, 0, 6, 17, 255],
        )
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        text = path.read_text(encoding="utf-8")
        assert text == _loop_csv_lines(trace)
        assert text.splitlines()[1:] == [
            f"0.000000,0,{top},{top},255",
            f"0.000002,{top},0,40,0",
            f"0.000003,1,{top},0,6",
            f"123456789.999999,{top},2,{top},17",
            f"1000000000000000.000000,{top},{top},{top},255",
        ]

    def test_csv_numpy_and_percent_blocks_alternate(self, tmp_path):
        """Blocks of 7 rows: NumPy formats the blocks inside its domain
        and hands a block holding -0.0, NaN or inf back to ``%``."""
        rng = np.random.default_rng(5)
        timestamps = np.arange(35) / 128
        timestamps[0] = -0.0
        timestamps[16] = np.nan
        timestamps[34] = np.inf
        trace = PacketTrace(
            timestamps,
            rng.integers(0, 2**32, 35, dtype=np.uint64).astype(np.uint32),
            rng.integers(0, 2**32, 35, dtype=np.uint64).astype(np.uint32),
            rng.integers(0, 2**32, 35, dtype=np.uint64).astype(np.uint32),
            rng.integers(0, 256, 35).astype(np.uint8),
        )
        fixed_point_rows = trace_io._fixed_point_rows
        formatted = []

        def spy(*columns):
            block = fixed_point_rows(*columns)
            formatted.append(block is not None)
            return block

        path = tmp_path / "t.csv"
        with mock.patch.object(trace_io, "_CSV_CHUNK", 7), \
                mock.patch.object(trace_io, "_fixed_point_rows", spy):
            write_csv(trace, path)
        assert formatted == [False, True, False, True, False]
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(trace)

    @given(
        inside=st.lists(_csv_inside, max_size=48),
        outside=st.lists(_csv_outside, max_size=16),
        nan_rows=st.lists(st.integers(0, 60), max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_csv_bytes_match_loop_property(
        self, tmp_path_factory, inside, outside, nan_rows, data
    ):
        """Any trace, in blocks of 7 rows so that NumPy and ``%`` blocks
        alternate in one file: sorted timestamps from every double, exact
        and inexact ties, the domain's edge, signed zeros and negatives,
        NaN rows anywhere, and the integer columns over their full
        ranges."""
        timestamps = np.sort(np.array(inside + outside, dtype=np.float64))
        for row in nan_rows:
            timestamps = np.insert(timestamps, min(row, timestamps.size), np.nan)
        n = timestamps.size
        uint32 = st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
        trace = PacketTrace(
            timestamps,
            data.draw(uint32),
            data.draw(uint32),
            data.draw(uint32),
            data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)),
        )
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with mock.patch.object(trace_io, "_CSV_CHUNK", 7):
            write_csv(trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(trace)

    def test_binary_bytes_match_struct_loop(self, packet_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(packet_trace, path)
        data = path.read_bytes()
        expected = (
            b"RPTRACE1"
            + struct.pack("<Q", len(packet_trace))
            + _loop_binary_records(packet_trace)
        )
        assert data == expected
        assert read_binary(path) == packet_trace

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 15])
    def test_binary_blocks_match_struct_loop(self, packet_trace, tmp_path, n):
        """Blocks of 7 records: no block, a partial one, exactly one, one
        plus a record, and two plus a record."""
        trace = packet_trace.select(np.arange(len(packet_trace)) < n)
        path = tmp_path / "t.rpt"
        with mock.patch.object(trace_io, "_BINARY_CHUNK", 7):
            write_binary(trace, path)
        assert path.read_bytes() == (
            b"RPTRACE1" + struct.pack("<Q", n) + _loop_binary_records(trace)
        )
