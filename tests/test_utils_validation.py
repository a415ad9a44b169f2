"""Tests for repro.utils.validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.utils.validation import (
    require_alpha,
    require_finite,
    require_hurst,
    require_in_range,
    require_int_at_least,
    require_non_negative,
    require_positive,
    require_probability,
)


class TestRequireFinite:
    def test_accepts_finite_numbers(self):
        assert require_finite("x", -2.5) == -2.5
        assert type(require_finite("x", np.int64(3))) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="x must be a finite number"):
            require_finite("x", bad)

    @pytest.mark.parametrize("bad", [True, "3", None])
    def test_rejects_bools_and_non_numbers(self, bad):
        with pytest.raises(ParameterError, match="x must be a number"):
            require_finite("x", bad)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(ParameterError, match="x must be"):
            require_positive("x", bad)

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bools(self, bad):
        """``True`` used to pass as 1.0."""
        with pytest.raises(ParameterError, match="x must be a number"):
            require_positive("x", bad)

    @pytest.mark.parametrize("bad", ["3", None, 1j])
    def test_rejects_non_numbers(self, bad):
        """These used to escape as a bare ``TypeError``."""
        with pytest.raises(ParameterError, match="x must be a number"):
            require_positive("x", bad)

    def test_accepts_numpy_scalars(self):
        assert require_positive("x", np.float32(0.5)) == 0.5
        assert type(require_positive("x", np.int64(3))) is float


class TestRequireNonNegative:
    def test_accepts_zero_and_positive(self):
        assert require_non_negative("x", 0) == 0.0
        assert type(require_non_negative("x", np.int64(3))) is float

    @pytest.mark.parametrize("bad", [-1e-300, -1, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(ParameterError, match="x must be a finite number >= 0"):
            require_non_negative("x", bad)

    @pytest.mark.parametrize("bad", [True, False, "3", None])
    def test_rejects_bools_and_non_numbers(self, bad):
        with pytest.raises(ParameterError, match="x must be a number"):
            require_non_negative("x", bad)


class TestRequireProbability:
    def test_accepts_half(self):
        assert require_probability("p", 0.5) == 0.5

    def test_one_is_allowed(self):
        assert require_probability("p", 1.0) == 1.0

    def test_zero_rejected_by_default(self):
        with pytest.raises(ParameterError):
            require_probability("p", 0.0)

    def test_zero_allowed_when_flagged(self):
        assert require_probability("p", 0.0, allow_zero=True) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            require_probability("p", bad)

    @pytest.mark.parametrize("allow_zero", [False, True])
    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bools(self, bad, allow_zero):
        """``True`` used to pass as 1 and ``False`` as 0 where 0 is allowed."""
        with pytest.raises(ParameterError, match="p must be a number"):
            require_probability("p", bad, allow_zero=allow_zero)

    @pytest.mark.parametrize("bad", ["0.5", None])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ParameterError, match="p must be a number"):
            require_probability("p", bad)


class TestRequireIntAtLeast:
    def test_accepts_int(self):
        assert require_int_at_least("n", 5, 1) == 5

    def test_accepts_integral_float(self):
        assert require_int_at_least("n", 5.0, 1) == 5

    def test_rejects_fractional(self):
        with pytest.raises(ParameterError, match="integer"):
            require_int_at_least("n", 5.5, 1)

    def test_rejects_below_minimum(self):
        with pytest.raises(ParameterError, match=">= 3"):
            require_int_at_least("n", 2, 3)

    def test_rejects_non_numeric(self):
        with pytest.raises(ParameterError):
            require_int_at_least("n", "five", 1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite(self, bad):
        """``int(inf)`` raises ``OverflowError``, not ``ValueError``."""
        with pytest.raises(ParameterError, match="integer"):
            require_int_at_least("n", bad, 1)


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert require_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ParameterError):
            require_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            require_in_range("x", math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("inclusive", [True, False])
    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bools(self, bad, inclusive):
        """``require_in_range("q", True, 0, 1)`` used to return 1.0."""
        with pytest.raises(ParameterError, match="q must be a number"):
            require_in_range("q", bad, -1.0, 2.0, inclusive=inclusive)

    @pytest.mark.parametrize("bad", ["0.5", None])
    def test_rejects_non_numbers(self, bad):
        """These used to escape as a bare ``TypeError``."""
        with pytest.raises(ParameterError, match="q must be a number"):
            require_in_range("q", bad, 0.0, 1.0)

    def test_domain_validators_reject_bools(self):
        with pytest.raises(ParameterError, match="must be a number"):
            require_hurst("h", True)
        with pytest.raises(ParameterError, match="must be a number"):
            require_alpha("alpha", True)


class TestDomainValidators:
    def test_alpha_paper_range(self):
        assert require_alpha("alpha", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [1.0, 2.0, 0.5, 2.5])
    def test_alpha_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ParameterError):
            require_alpha("alpha", bad)

    def test_hurst_lrd_range(self):
        assert require_hurst("h", 0.62) == 0.62

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3])
    def test_hurst_rejects(self, bad):
        with pytest.raises(ParameterError):
            require_hurst("h", bad)
