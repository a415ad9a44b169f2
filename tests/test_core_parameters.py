"""Tests for BSS parameter design theory (paper Eqs. 23 and 30)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import (
    epsilon_for_ratio,
    epsilon_roots,
    l_for_target_mean,
    l_for_unbiased,
    l_for_xi,
    l_surface,
    max_unbiased_eta,
    overhead_ratio,
    overhead_surface,
    threshold_ratio,
    xi_bias,
    xi_surface,
)
from repro.errors import DesignError, ParameterError

ALPHA = 1.5  # the paper's synthetic-trace tail index


class TestThresholdRatio:
    def test_formula(self):
        """m = eps * alpha / (alpha - 1); eps = 1 -> m = 3 for alpha = 1.5."""
        assert threshold_ratio(1.0, ALPHA) == pytest.approx(3.0)

    def test_inverse(self):
        assert epsilon_for_ratio(threshold_ratio(1.3, ALPHA), ALPHA) == pytest.approx(1.3)

    def test_eps1_is_m_equal_one(self):
        """The infeasible root eps1 = (alpha-1)/alpha maps to m = 1."""
        eps1 = (ALPHA - 1) / ALPHA
        assert threshold_ratio(eps1, ALPHA) == pytest.approx(1.0)


class TestXiBias:
    def test_no_extras_is_baseline(self):
        assert xi_bias(0, 1.0, ALPHA) == pytest.approx(1.0)
        assert xi_bias(0, 1.0, ALPHA, baseline_eta=0.3) == pytest.approx(0.7)

    def test_positive_extras_bias_upward(self):
        assert xi_bias(10, 1.0, ALPHA) > 1.0

    def test_xi_tends_to_one_at_large_eps(self):
        assert xi_bias(10, 50.0, ALPHA) == pytest.approx(1.0, abs=1e-3)

    def test_xi_small_at_tiny_eps(self):
        """Below eps1 the 'qualified' samples are small: xi < 1 (Fig. 11's
        rising branch from ~0)."""
        assert xi_bias(5, 0.05, ALPHA) < 0.5

    def test_fig11_shape_two_crossings(self):
        """Fig. 11: with a baseline eta, xi crosses 1 exactly twice."""
        eps_grid = np.linspace(0.2, 10.0, 4000)
        xi = np.array([xi_bias(5, e, ALPHA, baseline_eta=0.1) for e in eps_grid])
        crossings = np.sum(np.diff(np.sign(xi - 1.0)) != 0)
        assert crossings == 2

    def test_invalid(self):
        with pytest.raises(DesignError):
            xi_bias(-1, 1.0, ALPHA)
        with pytest.raises(DesignError):
            xi_bias(1, 1.0, ALPHA, baseline_eta=1.0)


class TestOverheadRatio:
    def test_formula(self):
        """L'/N = L * m^(-2 alpha): L=10, eps=1, alpha=1.5 -> 10/27."""
        assert overhead_ratio(10, 1.0, ALPHA) == pytest.approx(10 / 27)

    def test_fig15_rockets_below_half(self):
        """Fig. 15: overhead explodes for eps < 0.5."""
        assert overhead_ratio(10, 0.4, ALPHA) > 5 * overhead_ratio(10, 1.0, ALPHA)

    def test_decreases_with_eps(self):
        values = [overhead_ratio(10, e, ALPHA) for e in (0.5, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]


class TestLForUnbiased:
    def test_closed_form(self):
        """Eq. (23) reduces to eta * m^(2a) / (m - 1)."""
        eta, eps = 0.2, 1.0
        m = 3.0
        assert l_for_unbiased(eta, eps, ALPHA) == pytest.approx(
            eta * m**3 / (m - 1)
        )

    def test_fig9_increases_with_eta(self):
        assert l_for_unbiased(0.4, 1.0, ALPHA) > l_for_unbiased(0.1, 1.0, ALPHA)

    def test_fig9_explodes_near_eps1(self):
        """L -> infinity as eps approaches eps1 = (alpha-1)/alpha = 1/3."""
        near = l_for_unbiased(0.2, 0.334, ALPHA)
        far = l_for_unbiased(0.2, 1.5, ALPHA)
        assert near > 10 * far

    def test_infeasible_below_eps1(self):
        with pytest.raises(DesignError, match="m="):
            l_for_unbiased(0.2, 0.3, ALPHA)

    def test_invalid_eta(self):
        with pytest.raises(DesignError):
            l_for_unbiased(0.0, 1.0, ALPHA)


class TestLForXi:
    def test_round_trip_with_xi(self):
        L = l_for_xi(1.3, 1.0, ALPHA)
        assert xi_bias(L, 1.0, ALPHA) == pytest.approx(1.3)

    def test_paper_ballpark_eps1_L10(self):
        """Sec. V-C worked example: eps = 1, alpha = 1.5, xi ~ 1.5 needs
        L ~ 10 (the paper's Fig. 16 setting)."""
        L = l_for_xi(1.52, 1.0, ALPHA)
        assert 8 <= L <= 12

    def test_target_above_m_rejected(self):
        with pytest.raises(DesignError, match="xi"):
            l_for_xi(3.5, 1.0, ALPHA)

    def test_target_below_one_rejected(self):
        with pytest.raises(DesignError):
            l_for_xi(0.9, 1.0, ALPHA)


class TestLForTargetMean:
    def test_equivalent_closed_form(self):
        """l_for_target_mean solves xi = 1/(1-eta)."""
        eta = 0.25
        L = l_for_target_mean(eta, 1.0, ALPHA)
        assert xi_bias(L, 1.0, ALPHA) == pytest.approx(1.0 / (1.0 - eta))

    def test_invalid_eta(self):
        with pytest.raises(DesignError):
            l_for_target_mean(1.0, 1.0, ALPHA)


class TestEpsilonRoots:
    def test_two_roots_bracket_paper_values(self):
        """Fig. 12's settings: L=10 -> eps2 = 2.55, L=8 -> eps2 = 2.28
        (synthetic, alpha=1.5).  Both correspond to a baseline eta ~ 0.148;
        our roots must land close."""
        eta = 0.148
        __, eps2_l10 = epsilon_roots(10, ALPHA, eta)
        __, eps2_l8 = epsilon_roots(8, ALPHA, eta)
        assert eps2_l10 == pytest.approx(2.55, abs=0.15)
        assert eps2_l8 == pytest.approx(2.28, abs=0.15)

    def test_real_trace_roots(self):
        """Fig. 13's settings: alpha=1.71, L=10 -> eps2 = 1.809, L=8 -> 1.68
        (baseline eta ~ 0.21)."""
        eta = 0.21
        __, eps2_l10 = epsilon_roots(10, 1.71, eta)
        __, eps2_l8 = epsilon_roots(8, 1.71, eta)
        assert eps2_l10 == pytest.approx(1.809, abs=0.12)
        assert eps2_l8 == pytest.approx(1.68, abs=0.12)

    def test_eps1_near_infeasible_boundary(self):
        eps1, __ = epsilon_roots(10, ALPHA, 0.148)
        assert eps1 == pytest.approx((ALPHA - 1) / ALPHA, abs=0.05)

    def test_eps2_grows_with_l(self):
        """The paper: 'for the other solution eps2, it increases with L'."""
        roots = [epsilon_roots(L, ALPHA, 0.1)[1] for L in (5, 8, 10, 20)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_roots_actually_solve_xi_equals_one(self):
        eps1, eps2 = epsilon_roots(10, ALPHA, 0.2)
        for eps in (eps1, eps2):
            assert xi_bias(10, eps, ALPHA, baseline_eta=0.2) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_eta_above_maximum_rejected(self):
        limit = max_unbiased_eta(5, ALPHA)
        with pytest.raises(DesignError, match="increase L"):
            epsilon_roots(5, ALPHA, limit * 1.01)

    @pytest.mark.parametrize("m_max", [1.01, 1.2, 1.625, 5.0])
    def test_m_max_without_a_decaying_root_below_it_rejected(self, m_max):
        """At alpha = 1.3, m* = 1.625 and the decaying root is m = 10.85
        (eps2 = 2.505).  m_max = 1.01 used to return the rising-branch
        root as eps2; the others raised a bare ``ValueError``."""
        with pytest.raises(DesignError, match="m_max"):
            epsilon_roots(10, 1.3, 0.2, m_max=m_max)

    @pytest.mark.parametrize("m_max", [float("inf"), float("nan"), -2.0, True])
    def test_m_max_must_be_a_finite_positive_number(self, m_max):
        with pytest.raises(ParameterError, match="m_max"):
            epsilon_roots(10, 1.3, 0.2, m_max=m_max)

    def test_m_max_above_the_root_finds_it(self):
        eps1, eps2 = epsilon_roots(10, 1.3, 0.2)
        assert eps2 == pytest.approx(2.505, abs=1e-3)
        near = epsilon_roots(10, 1.3, 0.2, m_max=11.0)
        assert near == pytest.approx((eps1, eps2), rel=1e-9)

    def test_root_exactly_at_m_max_is_returned(self):
        eta = 10 * 11.0 ** (-2.0 * 1.3) * (11.0 - 1.0)  # g(11.0) == 0.0
        _, eps2 = epsilon_roots(10, 1.3, eta, m_max=11.0)
        assert eps2 == epsilon_for_ratio(11.0, 1.3)


class TestSurfaces:
    def test_xi_surface_shape(self):
        surface = xi_surface([1, 5, 10], np.linspace(0.5, 3, 7), ALPHA)
        assert surface.shape == (3, 7)

    def test_l_surface_infeasible_nan(self):
        surface = l_surface([0.1, 0.3], [0.2, 1.0], ALPHA)
        assert np.isnan(surface[0, 0])  # eps=0.2 < eps1
        assert np.isfinite(surface[0, 1])

    def test_overhead_surface_monotone_in_l(self):
        surface = overhead_surface([1, 5, 10], [1.0], ALPHA)
        assert surface[0, 0] < surface[1, 0] < surface[2, 0]
