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
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveRandomSampler
from repro.core.bss import BiasedSystematicSampler
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
    np.testing.assert_array_equal(result.values, reference.values)
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


# -------------------------------------------------------------- adaptive
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


def _numpy_fft_fgn(n, hurst, seed, sigma=1.0):
    """Davies-Harte as first written, on numpy.fft."""
    gen = np.random.default_rng(seed)
    gamma = fgn_autocovariance(hurst, n, sigma=sigma)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.rfft(row).real
    if eigenvalues.min() < 0:
        eigenvalues = np.clip(eigenvalues, 0.0, None)
    m = row.size
    scale = np.sqrt(eigenvalues / m)
    real = gen.normal(size=n)
    imag = gen.normal(size=n)
    weights = (real + 1j * imag) * scale
    weights[0] = real[0] * scale[0] * np.sqrt(2.0)
    weights[-1] = real[-1] * scale[-1] * np.sqrt(2.0)
    return (np.fft.irfft(weights, n=m) * m / np.sqrt(2.0))[:n]


class TestFgnParity:
    """scipy.fft gives numpy.fft's bits.

    Since NumPy 2.0 both libraries run the same pocketfft code, so the
    pin is exact; ``n = 2**17`` exercises Bluestein's algorithm (its
    FFT length ``2 * (2**17 - 1)`` has a large prime factor), and the
    second seed of each case runs on scipy.fft's cached plan.
    """

    @pytest.mark.parametrize(
        "n, hurst, sigma",
        [(2, 0.7, 1.0), (3, 0.3, 1.0), (4096, 0.8, 2.5), (1 << 17, 0.85, 1.0),
         (1 << 17, 0.6, 0.4)],
    )
    def test_matches_numpy_fft(self, n, hurst, sigma):
        for seed in (0, 1):
            np.testing.assert_array_equal(
                fgn_davies_harte(n, hurst, seed, sigma=sigma),
                _numpy_fft_fgn(n, hurst, seed, sigma=sigma),
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
