"""Brent's root finder and bounded minimiser (:mod:`repro.utils.brent`).

The closed-form classes need only the stdlib.  The parity classes pin
both ports to SciPy's ``brentq`` and bounded ``minimize_scalar`` bit for
bit: on every bracket and objective the package itself hands them, and
on random functions, exceptions and non-convergence included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import parameters
from repro.errors import DesignError
from repro.experiments import fig14, fig16
from repro.experiments.config import EVAL_ALPHA, PARETO_ALPHA, REAL_ALPHA
from repro.hurst import whittle
from repro.traffic.fgn import fgn_davies_harte
from repro.utils import brent
from repro.utils.brent import Minimum, brentq, minimize_bounded

SQRT2 = math.sqrt(2.0)


class TestBrentqClosedForm:
    def test_root_of_x_squared_minus_two(self):
        root = brentq(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - SQRT2) <= 2e-12 + 4 * 2.0**-52 * SQRT2

    def test_root_at_an_endpoint_is_returned_as_given(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_returns_a_python_float(self):
        assert type(brentq(lambda x: x - 0.3, np.float64(0.0), 1)) is float

    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value(self):
        with pytest.raises(ValueError, match="is NaN"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_maxiter_exhaustion(self, monkeypatch):
        monkeypatch.setattr(brent, "_MAXITER", 3)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            brentq(lambda x: x * x - 2.0, 0.0, 2.0)


class TestMinimizeBoundedClosedForm:
    @pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.9])
    def test_minimum_inside_the_bounds(self, c):
        found = minimize_bounded(lambda x: (x - c) ** 2, (0.0, 1.0))
        assert isinstance(found, Minimum)
        assert found.success and found.message == "Solution found."
        assert abs(found.x - c) < 1e-5
        assert found.fun == (found.x - c) ** 2

    @pytest.mark.parametrize("c, edge", [(-1.0, 0.0), (2.0, 1.0)])
    def test_minimum_outside_the_bounds_lands_on_the_nearer_one(self, c, edge):
        found = minimize_bounded(lambda x: (x - c) ** 2, (0.0, 1.0), xatol=1e-8)
        assert found.success
        assert 0.0 <= found.x <= 1.0
        assert abs(found.x - edge) < 1e-7

    def test_args_are_passed_through(self):
        found = minimize_bounded(lambda x, c: (x - c) ** 2, (0.0, 1.0), (0.25,))
        assert abs(found.x - 0.25) < 1e-5

    def test_maxiter_exhaustion(self, monkeypatch):
        monkeypatch.setattr(brent, "_MAXFUN", 3)
        found = minimize_bounded(lambda x: (x - 0.3) ** 2, (0.0, 1.0))
        assert not found.success
        assert found.message == "Maximum number of function calls reached."

    def test_nan_value(self):
        found = minimize_bounded(lambda x: math.nan, (0.0, 1.0))
        assert not found.success
        assert found.message == "NaN result encountered."

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (math.nan, 1.0), (1.0, 0.0)])
    def test_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="bound"):
            minimize_bounded(lambda x: x * x, bounds)


# ------------------------------------------------------------- SciPy parity
@pytest.fixture(scope="module")
def scipy_optimize():
    import scipy.optimize

    return scipy.optimize


def _bits(value: float) -> str:
    return float(value).hex()


def _root_outcome(solver, f, a, b, **options):
    """``("root", bits)`` or ``(exception type, message)``."""
    try:
        return "root", _bits(solver(f, a, b, **options))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_same_root(scipy_optimize, f, a, b):
    """Both solvers, SciPy's capped at the port's (patchable) iterations."""
    ours = _root_outcome(brentq, f, a, b)
    theirs = _root_outcome(scipy_optimize.brentq, f, a, b, maxiter=brent._MAXITER)
    assert ours == theirs, (a, b, brent._MAXITER)
    return ours


def _scipy_minimum(scipy_optimize, func, bounds, args=(), *, xatol=1e-5) -> Minimum:
    result = scipy_optimize.minimize_scalar(
        func, bounds=bounds, args=args, method="bounded",
        options={"xatol": xatol, "maxiter": brent._MAXFUN},
    )
    return Minimum(float(result.x), float(result.fun), bool(result.success),
                   result.message)


def _assert_same_minimum(scipy_optimize, func, bounds, args=(), **options):
    ours = minimize_bounded(func, bounds, args, **options)
    theirs = _scipy_minimum(scipy_optimize, func, bounds, args, **options)
    assert (_bits(ours.x), _bits(ours.fun), ours.success, ours.message) == (
        _bits(theirs.x), _bits(theirs.fun), theirs.success, theirs.message
    ), (bounds, options, brent._MAXFUN)
    return ours


def test_constants_are_scipys_defaults(scipy_optimize):
    """The package's callers used SciPy's defaults; the ports keep them."""
    import inspect

    from scipy.optimize._optimize import _minimize_scalar_bounded

    root_defaults = inspect.signature(scipy_optimize.brentq).parameters
    assert (brent._XTOL, brent._RTOL, brent._MAXITER) == tuple(
        root_defaults[name].default for name in ("xtol", "rtol", "maxiter")
    )
    bounded_defaults = inspect.signature(_minimize_scalar_bounded).parameters
    assert brent._MAXFUN == bounded_defaults["maxiter"].default
    ours = inspect.signature(minimize_bounded).parameters
    assert ours["xatol"].default == bounded_defaults["xatol"].default


@pytest.fixture
def recorded_brackets(monkeypatch, scipy_optimize):
    """Route a module's ``brentq`` through both solvers, asserting equal
    bits on each bracket; returns the outcomes seen."""
    seen = []

    def both(f, a, b):
        outcome = _assert_same_root(scipy_optimize, f, a, b)
        seen.append(outcome)
        if outcome[0] != "root":
            raise outcome[0](outcome[1])
        return float.fromhex(outcome[1])

    def install(module):
        monkeypatch.setattr(module, "brentq", both)
        return seen

    return install


class TestBrentqParity:
    def test_epsilon_roots_brackets(self, recorded_brackets):
        """An L x alpha x eta sweep that covers Fig. 10 (alpha 1.5, eta
        0.148, L in 1, 2, 5, 8, 10), Fig. 11 (alpha 1.5, eta 0.1, L 5),
        Figs. 12 and 13 (alpha 1.5 and 1.71) and the evaluation trace."""
        seen = recorded_brackets(parameters)
        alphas = (1.1, 1.3, PARETO_ALPHA, REAL_ALPHA, 1.9)
        etas = (0.01, 0.05, 0.1, 0.148, 0.2, 0.21, 0.3, 0.5, 0.8)
        for L in (1, 2, 3, 5, 8, 10, 20, 30, 100):
            for alpha in alphas:
                for eta in etas:
                    try:
                        parameters.epsilon_roots(L, alpha, eta)
                    except DesignError:
                        continue
        assert len(seen) >= 500
        assert all(kind == "root" for kind, _ in seen)

    def test_fig14_grid_peak_brackets(self, recorded_brackets):
        """Fig. 14's own grid (14 of its 50 cells are attainable), then a
        denser sweep of xi targets."""
        seen = recorded_brackets(fig14)
        for L in fig14.LS:
            for xi_target in fig14.XI_LEVELS:
                fig14._eps_for_xi(L, xi_target)
        assert len(seen) == 14
        for L in fig14.LS:
            for xi_target in np.linspace(1.01, 2.5, 40):
                fig14._eps_for_xi(L, float(xi_target))
        assert len(seen) >= 100

    def test_fig16_grid_peak_brackets(self, recorded_brackets):
        """Figs. 16 and 17 tune eps for xi = 1/(1 - eta) at a fixed L."""
        seen = recorded_brackets(fig16)
        for alpha in (PARETO_ALPHA, REAL_ALPHA, EVAL_ALPHA):
            for L in (1, 2, 5, 10, 20, 30):
                for eta in np.linspace(0.01, 0.9, 30):
                    try:
                        fig16.eps_for_xi_at_l(1.0 / (1.0 - eta), L, alpha)
                    except DesignError:
                        continue
        assert len(seen) >= 150

    def test_random_functions(self, monkeypatch, scipy_optimize):
        gen = np.random.default_rng(20050608)
        kinds = {"root": 0, ValueError: 0, RuntimeError: 0}
        for _ in range(1500):
            f, a, b = _random_bracket(gen)
            maxiter = int(gen.integers(0, 6)) if gen.random() < 0.15 else 100
            monkeypatch.setattr(brent, "_MAXITER", maxiter)
            outcome = _assert_same_root(scipy_optimize, f, a, b)
            kinds[outcome[0]] += 1
        assert kinds["root"] >= 1000
        assert kinds[ValueError] > 0 and kinds[RuntimeError] > 0

    def test_errors_match(self, monkeypatch, scipy_optimize):
        cases = [
            (lambda x: x * x + 1.0, -1.0, 1.0, 100),
            (lambda x: 1e-200, 0.0, 1.0, 100),
            (lambda x: math.nan, 0.0, 1.0, 100),
            (lambda x: math.nan if x > 0.1 else -1.0, 0.0, 1.0, 100),
            (lambda x: x * x - 2.0, 0.0, 2.0, 3),
            (lambda x: x * x - 2.0, 0.0, 2.0, 0),
        ]
        for f, a, b, maxiter in cases:
            monkeypatch.setattr(brent, "_MAXITER", maxiter)
            kind, _ = _assert_same_root(scipy_optimize, f, a, b)
            assert kind in (ValueError, RuntimeError)


def _random_bracket(gen):
    """A random smooth (or deliberately awkward) function and a bracket."""
    kind = int(gen.integers(0, 8))
    r = float(gen.uniform(-5.0, 5.0))
    lo = r - float(10.0 ** gen.uniform(-3, 1.5))
    hi = r + float(10.0 ** gen.uniform(-3, 1.5))
    c, k = float(gen.uniform(0.1, 3.0)), float(gen.uniform(0.2, 4.0))
    if kind == 0:  # a polynomial with one real root
        def f(x):
            return (x - r) * (1.0 + c * x * x)
    elif kind == 1:  # an exponential
        def f(x):
            return math.exp(k * (x - r)) - 1.0
    elif kind == 2:  # a sigmoid plus a cubic
        def f(x):
            return math.tanh(k * (x - r)) + c * (x - r) ** 3
    elif kind == 3:  # tiny values, whose products underflow to zero
        def f(x):
            return (x - r) * 1e-170
    elif kind == 4:  # plateaus: only bisection makes progress
        def f(x):
            return math.floor(k * (x - r)) + 0.5
    elif kind == 5:  # the epsilon_roots function, on its decaying branch
        alpha, L = float(gen.uniform(1.05, 1.95)), float(gen.uniform(1, 50))
        m_star = 2.0 * alpha / (2.0 * alpha - 1.0)
        eta = float(gen.uniform(0.01, 0.99)) * L * m_star ** (-2.0 * alpha) * (m_star - 1.0)
        lo, hi = m_star, float(10.0 ** gen.uniform(1, 6))

        def f(x):
            return L * x ** (-2.0 * alpha) * (x - 1.0) - eta
    elif kind == 6:  # a sine, often with several roots or none
        def f(x):
            return math.sin(k * x) - c / 3.0
    else:  # a steep cubic
        def f(x):
            return ((x - r) * k) ** 3 + (x - r) * 1e-9
    if gen.random() < 0.5:
        lo, hi = hi, lo
    return f, lo, hi


class TestMinimizeBoundedParity:
    @pytest.fixture(scope="class")
    def periodogram_inputs(self):
        """Fifty-two fGn series over H and n, for both Whittle estimators."""
        series = []
        for i, hurst in enumerate(np.linspace(0.55, 0.95, 13)):
            for j, n in enumerate((128, 256, 512, 1024)):
                series.append(fgn_davies_harte(n, float(hurst), 1000 * i + j))
        return series

    @pytest.mark.parametrize("estimator", ["local_whittle_hurst", "fgn_whittle_hurst"])
    def test_whittle_objectives(self, monkeypatch, scipy_optimize,
                                periodogram_inputs, estimator):
        calls = []

        def both(func, bounds, args=(), **options):
            calls.append(options)
            return _assert_same_minimum(scipy_optimize, func, bounds, args, **options)

        monkeypatch.setattr(whittle, "minimize_bounded", both)
        for values in periodogram_inputs:
            getattr(whittle, estimator)(values)
        assert len(calls) == len(periodogram_inputs) >= 50

    # SciPy's NumPy scalars warn where an infinite objective makes inf - inf.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_random_functions(self, monkeypatch, scipy_optimize):
        gen = np.random.default_rng(7211)
        failures = 0
        for _ in range(1500):
            func, bounds = _random_objective(gen)
            xatol = float(10.0 ** gen.uniform(-9, -2))
            maxfun = int(gen.integers(1, 12)) if gen.random() < 0.15 else 500
            monkeypatch.setattr(brent, "_MAXFUN", maxfun)
            found = _assert_same_minimum(scipy_optimize, func, bounds, xatol=xatol)
            failures += not found.success
        assert 0 < failures < 1500

    def test_bound_errors_match(self, scipy_optimize):
        for bounds in [(0.0, math.inf), (math.nan, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError) as ours:
                minimize_bounded(lambda x: x * x, bounds)
            with pytest.raises(ValueError) as theirs:
                _scipy_minimum(scipy_optimize, lambda x: x * x, bounds)
            assert str(ours.value) == str(theirs.value)


def _random_objective(gen):
    """A random objective on random bounds; it sees Python floats only,
    as the Whittle objectives' arithmetic does not depend on the type."""
    kind = int(gen.integers(0, 6))
    lo = float(gen.uniform(-5.0, 4.0))
    hi = lo + float(10.0 ** gen.uniform(-4, 1))
    c = float(gen.uniform(lo - 1.0, hi + 1.0))
    k, d = float(gen.uniform(0.5, 20.0)), float(gen.uniform(0.0, 2.0))
    if kind == 0:  # a parabola, the minimum maybe outside the bounds
        def func(x):
            return (x - c) * (x - c)
    elif kind == 1:  # a parabola with ripples: several local minima
        def func(x):
            return (x - c) * (x - c) + d * math.sin(k * x)
    elif kind == 2:  # a cusp or a flat bottom
        p = float(gen.uniform(0.3, 4.0))

        def func(x):
            return abs(x - c) ** p
    elif kind == 3:  # a double well
        def func(x):
            y = x - c
            return y**4 - d * y * y
    elif kind == 4:  # infinite where the objective is undefined, as Whittle's
        t = float(gen.uniform(lo, hi))

        def func(x):
            return math.inf if x < t else (x - c) * (x - c)
    else:  # NaN past a point
        t = float(gen.uniform(lo, hi))

        def func(x):
            return math.nan if x > t else (x - c) * (x - c)
    return (lambda x: func(float(x))), (lo, hi)
