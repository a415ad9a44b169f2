"""The normal CDF, log-gamma and digamma ports (:mod:`repro.utils.special`).

The closed-form classes need only the stdlib: special values, identities,
the stdlib's own ``erfc`` and ``lgamma`` within stated tolerances, the
ported domain, and what ``ndtr`` allocates.  The parity classes pin all
three ports to :mod:`scipy.special` bit for bit: on every argument the
package itself hands them in a scale-0.1 run of all figures and in the
smoke campaign, on at least 10^6 random points each, and around each
edge between the branches of the C code.
"""

from __future__ import annotations

import math
import tempfile
import tracemalloc

import golden
import numpy as np
import pytest

from repro.analysis import theory
from repro.errors import ParameterError
from repro.hurst import wavelet
from repro.traffic import copula
from repro.traffic.fgn import fgn_davies_harte
from repro.utils import special
from repro.utils.special import digamma, gammaln, ndtr


def _around(x: float, steps: int = 64) -> np.ndarray:
    """``x`` and the ``steps`` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[::-1] + above[1:])


class TestNdtrClosedForm:
    def test_special_values(self):
        assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5
        assert ndtr(math.inf) == 1.0 and ndtr(-math.inf) == 0.0
        assert math.isnan(ndtr(math.nan))
        assert ndtr(40.0) == 1.0 and ndtr(-40.0) == 0.0

    def test_shape_and_scalar(self):
        values = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = ndtr(values)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert type(ndtr(0.25)) is np.float64
        assert ndtr(np.empty(0)).shape == (0,)

    def test_against_stdlib_erfc(self):
        """``0.5 erfc(-a/sqrt(2))`` by the stdlib: within 2e-14 relative
        for |a| <= 8 and 1e-12 out to a = -37 (measured 1.2e-14 and
        4.2e-13; rounding a/sqrt(2) alone moves erfc by ~1e-15)."""
        a = np.linspace(-37.0, 8.0, 200_001)
        oracle = np.array([0.5 * math.erfc(-v / math.sqrt(2.0))
                           for v in a.tolist()])
        rel = np.abs(ndtr(a) - oracle) / oracle
        assert rel[np.abs(a) <= 8.0].max() <= 2e-14
        assert rel.max() <= 1e-12

    def test_blocks_do_not_change_a_bit(self, monkeypatch):
        a = np.random.default_rng(3).normal(0.0, 4.0, 10_001)
        whole = ndtr(a)
        monkeypatch.setattr(special, "_NDTR_BLOCK", 7)
        assert whole.tobytes() == ndtr(a).tobytes()

    def test_no_temporary_the_size_of_the_input(self):
        """Besides its result, a call allocates only a few block-sized
        temporaries (measured: 4.5 blocks of floats)."""
        a = fgn_davies_harte(1 << 20, 0.8, 1)
        ndtr(a[:1024])
        tracemalloc.start()
        try:
            ndtr(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * a.size + 6 * 8 * special._NDTR_BLOCK


class TestGammalnClosedForm:
    def test_integers_against_lgamma(self):
        """``math.lgamma`` at 1 .. 200,000: within 4e-15 relative
        (measured 6.6e-16), and exactly 0 at 1 and 2."""
        n = np.arange(1.0, 200_001.0)
        ours = gammaln(n)
        theirs = np.array([math.lgamma(v) for v in n.tolist()])
        assert ours[0] == 0.0 and ours[1] == 0.0
        assert np.all(np.abs(ours - theirs) <= 4e-15 * np.abs(theirs))

    def test_half_and_recurrence(self):
        assert abs(gammaln(0.5) - 0.5 * math.log(math.pi)) <= 4e-16
        x = np.random.default_rng(5).uniform(0.1, 50.0, 1000)
        gap = gammaln(x + 1.0) - gammaln(x) - np.log(x)
        assert np.all(np.abs(gap) <= 1e-13)

    def test_infinity_and_overflow(self):
        assert gammaln(math.inf) == math.inf
        assert gammaln(1e306) == math.inf
        assert math.isfinite(gammaln(special._MAXLGM))

    def test_shape_and_scalar(self):
        assert gammaln(np.full((2, 3), 4.0)).shape == (2, 3)
        assert type(gammaln(4.0)) is np.float64


class TestDigammaClosedForm:
    def test_one_is_minus_euler(self):
        assert digamma(1.0) == -np.euler_gamma

    def test_integers_and_half(self):
        for n in range(1, 12):
            harmonic = math.fsum(1.0 / k for k in range(1, n))
            assert abs(digamma(float(n)) - (harmonic - np.euler_gamma)) <= 4e-15
        assert abs(digamma(0.5) + np.euler_gamma + 2 * math.log(2)) <= 4e-16

    def test_recurrence(self):
        """``psi(x + 1) = psi(x) + 1/x`` within 2e-15 of the terms'
        magnitudes (measured 2.9e-16)."""
        gen = np.random.default_rng(7)
        x = np.concatenate([gen.uniform(1e-3, 30.0, 20_000),
                            10.0 ** gen.uniform(-3.0, 8.0, 20_000)])
        after, psi = digamma(x + 1.0), digamma(x)
        scale = np.abs(after) + np.abs(psi) + 1.0 / x
        assert np.all(np.abs(after - psi - 1.0 / x) <= 2e-15 * scale)

    def test_infinity(self):
        assert digamma(math.inf) == math.inf

    def test_shape_and_scalar(self):
        assert digamma(np.full((2, 3), 4.5)).shape == (2, 3)
        assert type(digamma(4.5)) is np.float64


@pytest.mark.parametrize("fn", [gammaln, digamma])
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -2.5, -math.inf, math.nan])
def test_outside_the_ported_domain(fn, bad):
    with pytest.raises(ParameterError, match="x > 0"):
        fn(bad)
    with pytest.raises(ParameterError, match="x > 0"):
        fn(np.array([3.0, bad, 4.0]))


# ------------------------------------------------------------- SciPy parity
@pytest.fixture(scope="module")
def scipy_special():
    import scipy.special

    return scipy.special


def _assert_same(ours, theirs, points):
    """Equal bits, NaN for NaN (SciPy returns its own NaN for a NaN)."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    moved = ours[~nan].view(np.int64) != theirs[~nan].view(np.int64)
    assert not moved.any(), np.asarray(points)[~nan][moved][:5]


@pytest.fixture(scope="module")
def package_arguments():
    """Every argument the package passes each port in a scale-0.1 run of
    all figures (as the golden panels run them) and in the smoke
    campaign at one worker; the run's outputs must be the golden ones."""
    seen = {"ndtr": [], "gammaln": [], "digamma": []}

    def recording(name, fn):
        def record(x):
            seen[name].append(np.array(x, dtype=np.float64))
            return fn(x)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(copula, "ndtr", recording("ndtr", ndtr))
        patch.setattr(theory, "gammaln", recording("gammaln", gammaln))
        patch.setattr(wavelet, "digamma", recording("digamma", digamma))
        panels = golden.panel_digests(golden.run_panels())
        with tempfile.TemporaryDirectory() as directory:
            campaign = golden.smoke_campaign_digests(directory)
    recorded = golden.load()
    assert panels == recorded["panels"]
    assert campaign == recorded["campaign"]["smoke"]
    return {name: np.concatenate([a.ravel() for a in arrays])
            for name, arrays in seen.items()}


class TestNdtrParity:
    def test_package_arguments(self, scipy_special, package_arguments):
        a = package_arguments["ndtr"]
        assert a.size >= 600_000
        _assert_same(ndtr(a), scipy_special.ndtr(a), a)

    def test_random_points(self, scipy_special):
        gen = np.random.default_rng(20050608)
        magnitudes = 10.0 ** gen.uniform(-310.0, 308.0, 200_000)
        a = np.concatenate([
            gen.standard_normal(400_000),
            gen.uniform(-40.0, 40.0, 400_000),
            magnitudes * gen.choice([-1.0, 1.0], magnitudes.size),
        ])
        _assert_same(ndtr(a), scipy_special.ndtr(a), a)

    def test_branch_edges_and_special_values(self, scipy_special):
        """|a/sqrt(2)| = 1/sqrt(2) (cephes's own switch to erfc), 1 (erfc's
        exp branch), 8 (erfc's R/S) and sqrt(MAXLOG) (underflow)."""
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                 math.sqrt(special._MAXLOG) * math.sqrt(2.0)]
        a = np.concatenate([_around(s * e) for e in edges for s in (-1, 1)]
                           + [[0.0, -0.0, math.inf, -math.inf, math.nan,
                               5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                               1.7e308, -1.7e308]])
        _assert_same(ndtr(a), scipy_special.ndtr(a), a)


class TestGammalnParity:
    def test_package_arguments(self, scipy_special, package_arguments):
        x = package_arguments["gammaln"]
        assert x.size >= 10_000
        _assert_same(gammaln(x), scipy_special.gammaln(x), x)

    def test_random_points(self, scipy_special):
        gen = np.random.default_rng(20050608)
        x = np.concatenate([
            gen.uniform(0.0, 13.0, 150_000),
            gen.uniform(13.0, 1000.0, 250_000),
            10.0 ** gen.uniform(-310.0, 306.0, 600_000),
            np.arange(1.0, 20_001.0),
        ])
        x = x[x > 0.0]
        assert x.size >= 1_000_000
        _assert_same(gammaln(x), scipy_special.gammaln(x), x)

    def test_branch_edges(self, scipy_special):
        """x = 2 and 3 (the recurrence's ends), 13 (Stirling), 1000 (its
        short series), 1e8 (no series) and MAXLGM (overflow)."""
        x = np.concatenate(
            [_around(e) for e in (1.0, 2.0, 3.0, 13.0, 1000.0, 1e8,
                                  special._MAXLGM)]
            + [[5e-324, 2.2e-308, 0.5, math.inf]])
        _assert_same(gammaln(x), scipy_special.gammaln(x), x)


class TestDigammaParity:
    def test_package_arguments(self, scipy_special, package_arguments):
        x = package_arguments["digamma"]
        assert x.size >= 80
        _assert_same(digamma(x), scipy_special.digamma(x), x)

    def test_random_points(self, scipy_special):
        gen = np.random.default_rng(20050608)
        x = np.concatenate([
            gen.uniform(0.0, 10.0, 100_000),
            gen.uniform(10.0, 1000.0, 300_000),
            10.0 ** gen.uniform(-310.0, 308.0, 600_000),
            np.arange(0.5, 5000.0, 0.5),
        ])
        x = x[x > 0.0]
        assert x.size >= 1_000_000
        _assert_same(digamma(x), scipy_special.digamma(x), x)

    def test_branch_edges(self, scipy_special):
        """x = 1 and 2 (Boost's interval), 10 (the asymptotic series, and
        the last exact integer) and 1e17 (the series' terms vanish)."""
        x = np.concatenate(
            [_around(e) for e in (1.0, 2.0, 3.0, 10.0, 13.0, 1000.0, 1e8,
                                  1e17)]
            + [np.arange(1.0, 12.0), [5e-324, 2.2e-308, math.inf]])
        _assert_same(digamma(x), scipy_special.digamma(x), x)
