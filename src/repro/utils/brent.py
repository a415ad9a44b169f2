"""Brent's scalar root finder and bounded minimiser (Brent 1973, chs. 4-5).

Two stdlib-only ports that follow SciPy's implementations step for step,
so that they return the same floats SciPy does:

* :func:`brentq` is the iteration of SciPy's ``brentq.c``, behind its
  ``brentq``: it finds the BSS design's epsilon roots (Sec. V-C,
  Eqs. 23 and 30) in :mod:`repro.core.parameters` and in Figs. 14
  and 16.
* :func:`minimize_bounded` is SciPy's ``_minimize_scalar_bounded``,
  behind ``minimize_scalar(method="bounded")``: the Whittle Hurst
  estimators minimise their objectives with it.

With them, designing a sampler or estimating a Hurst parameter loads
none of SciPy's optimisation package.  ``tests/test_brent.py`` pins both
to SciPy's results bit for bit.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

__all__ = ["Minimum", "brentq", "minimize_bounded"]

# SciPy's defaults, which every caller of the package used: brentq stops
# within _XTOL + _RTOL * |x| of a root (_RTOL is SciPy's floor, four
# machine epsilons) or raises after _MAXITER iterations, and
# minimize_bounded gives up after _MAXFUN function evaluations.
_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100
_MAXFUN = 500

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


def brentq(f, a, b) -> float:
    """A root of ``f`` in the bracket ``[a, b]``, where ``f(a)`` and
    ``f(b)`` differ in sign.

    The estimate ``x`` is within ``2e-12 + 4 eps |x|`` of a root.  A step
    interpolates (secant, or inverse quadratic through three points) when
    it is shorter than half the step before last and lands well inside
    the bracket, and bisects otherwise; it moves at least half the
    tolerance.

    Raises
    ------
    ValueError
        If ``f(a)`` and ``f(b)`` have the same sign or ``f`` returns NaN.
    RuntimeError
        If 100 iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denominator = dblk * dpre * (fblk - fpre)
                # An underflowed denominator makes C's step infinite (or
                # NaN), which the length test below rejects.
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denominator
                        if denominator else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


class Minimum(NamedTuple):
    """What :func:`minimize_bounded` found."""

    x: float
    fun: float
    success: bool
    message: str


def _sign(x: float) -> float:
    """NumPy's ``sign(x) + (x == 0)``: +1 for zero, NaN for NaN."""
    if x < 0:
        return -1.0
    return 1.0 if x >= 0 else x


def _maximum(x: float, y: float) -> float:
    """NumPy's ``maximum``, which propagates NaN from either side."""
    return x if x > y or x != x else y


def minimize_bounded(func, bounds, args=(), *, xatol: float = 1e-5) -> Minimum:
    """A local minimum of ``func`` on ``bounds = (lo, hi)`` by Brent's
    golden-section search with parabolic interpolation.

    ``x`` is within about ``xatol`` of the minimiser.  ``success`` is
    False, with the reason in ``message``, when 500 function evaluations
    do not converge or a value is NaN.

    Raises
    ------
    ValueError
        If a bound is not finite or ``lo > hi``.
    """
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")

    flag = 0
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x, *args))
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + _sign(rat) * _maximum(abs(rat), tol1)
        fu = float(func(x, *args))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            flag = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    message = ("Solution found.", "Maximum number of function calls reached.",
               "NaN result encountered.")[flag]
    return Minimum(x=xf, fun=fx, success=flag == 0, message=message)
