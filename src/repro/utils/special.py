"""The normal CDF, log-gamma and digamma functions, ported from SciPy.

Three NumPy-and-``math`` ports of the C code behind SciPy's functions of
the same names.  Each keeps that code's operations and their order, so it
returns the floats SciPy does:

* :func:`ndtr`, the standard normal CDF, is cephes ``ndtr`` with its
  ``erf`` and ``erfc``.  It maps fGn to uniforms in the Gaussian copula
  behind every Pareto-marginal trace (:mod:`repro.traffic.copula`;
  Sec. V, Fig. 8).
* :func:`gammaln`, log Gamma, is cephes ``lgam``.  It weighs the
  negative-binomial lags of Eq. (11) (Fig. 2).
* :func:`digamma` is cephes ``psi`` as SciPy ships it: below 10 it
  reduces x into [1, 2] by recurrence and there uses Boost's rational
  approximation (``digamma_imp_1_2``).  It bias-corrects the wavelet
  estimator's octave energies.

NumPy does the ``+ - * /``, which it rounds as C does.  ``exp`` and ``log``
must be the platform libm's, which SciPy's compiled code calls, so the
ports call them through :func:`math.exp` and :func:`math.log`, one point
at a time.  NumPy's vectorised ``np.exp`` and ``np.log`` are its own and
round differently: with NumPy 2.4 on an AVX-512 host, ``np.exp`` differed
from libm on about 93,000 of 2,000,000 uniform points (in [-709, 0] as
in [-1, 1]), and ``np.log`` on 111 of the integers 1 to 2,000,000.

Only the domain the package uses is ported: every float64 for ``ndtr``,
and x > 0 for the other two, which raise :class:`ParameterError`
elsewhere.  ``tests/test_special.py`` pins all three to SciPy bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError

__all__ = ["digamma", "gammaln", "ndtr"]

_SQRT1_2 = 0.70710678118654752440
# log(DBL_MAX): erfc underflows to 0 once -x*x is below -_MAXLOG.
_MAXLOG = 7.09782712893383996732e2

# ndtr.c: erf on |x| <= 1 is x T(x^2) / U(x^2); erfc on x >= 1 is
# exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8 on.  U, Q
# and S omit their leading coefficient of 1 (p1evl).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)

# gamma.c: Stirling's series for x >= 13 (A); below, x is moved into
# [2, 3] by recurrence and log Gamma is x B(x) / C(x) there.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# psi.c: the asymptotic series (A) above 10; on [1, 2] Boost's
# (x - root) (Y + P(x - 1) / Q(x - 1)), root split in three parts and Y
# a float32 constant.
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
          7.57575757575757575758e-3, -4.16666666666666666667e-3,
          3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056,
          -0.28919126444774784, -0.65031853770896507,
          -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144,
          0.054151797245674225, 0.43593529692665969, 1.4606242909763515,
          2.0767117023730469, 1.0)
_PSI_Y = float(np.float32(0.99558162689208984))
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_EULER = 0.577215664901532860606512090082402431

#: Points per block of :func:`ndtr`; its temporaries are this long.
_NDTR_BLOCK = 32768


def _polevl(x, coef):
    """cephes ``polevl``: ``coef[0] x^N + ... + coef[N]`` by Horner's rule,
    on a float or, in place in one new array, on an array ``x``."""
    ans = coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """cephes ``p1evl``: :func:`_polevl` with a leading coefficient of 1
    that ``coef`` leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (:func:`math.exp` or :func:`math.log`) at each point of ``x``."""
    return np.fromiter(map(fn, x.tolist()), np.float64, count=x.size)


def _result(out: np.ndarray):
    """An array for an array argument, a NumPy float for a scalar, as a
    SciPy ufunc returns."""
    return out[()] if out.ndim == 0 else out


def _positive(name: str, x) -> np.ndarray:
    """``x`` as a float64 array, unless a point of it is not > 0."""
    values = np.asarray(x, dtype=np.float64)
    bad = values[~(values > 0.0)]
    if bad.size:
        raise ParameterError(
            f"{name} is defined here for x > 0 only, got {bad.flat[0]!r}"
        )
    return values


# ---------------------------------------------------------------- ndtr
def ndtr(a):
    """The standard normal CDF, ``(1 + erf(a / sqrt(2))) / 2``, at each
    point of ``a`` (any float64; NaN gives NaN).

    With x = a/sqrt(2), cephes takes ``0.5 + 0.5 erf(x)`` while
    ``|x| < 1/sqrt(2)``.  Above, it takes ``h = 0.5 erfc(|x|)``, or
    ``1 - h`` for x > 0, where erfc is ``1 - erf(|x|)`` up to 1.  Up to 1
    both branches give the same float.  There ``1 - erf(|x|)`` and its half
    are exact.  For x < 0 the erf branch's exact result,
    ``0.5 - 0.5 erf(|x|)``, is that float; for x > 0 both branches round
    ``0.5 + 0.5 erf(|x|)`` once.  So the port takes the erf branch wherever
    ``|x| < 1``.

    It works through ``a`` in blocks of ``_NDTR_BLOCK`` points: besides its
    result, it allocates only block-sized temporaries.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    points, values = a.reshape(-1), out.reshape(-1)
    # Points beyond about 1e154 overflow in the erf branch; erfc's
    # overwrites them.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, points.size, _NDTR_BLOCK):
            y = values[start:start + _NDTR_BLOCK]
            x = points[start:start + _NDTR_BLOCK] * _SQRT1_2
            z = x * x
            erf = _polevl(z, _ERF_T)  # x * T(z) / U(z), in place
            erf *= x
            erf /= _p1evl(z, _ERF_U)
            erf *= 0.5
            np.add(erf, 0.5, out=y)
            tail = np.flatnonzero(np.abs(x) >= 1.0)
            if tail.size:
                x = x[tail]
                half = 0.5 * _erfc_from_1(np.abs(x))
                y[tail] = np.where(x > 0.0, 1.0 - half, half)
    return _result(out)


def _erfc_from_1(x: np.ndarray) -> np.ndarray:
    """cephes ``erfc`` at each point of ``x >= 1`` (infinity included)."""
    z = -x * x
    y = _libm(math.exp, z)
    near = x < 8.0
    if near.all():
        y *= _polevl(x, _ERFC_P)
        y /= _p1evl(x, _ERFC_Q)
    else:
        y *= np.where(near, _polevl(x, _ERFC_P), _polevl(x, _ERFC_R))
        y /= np.where(near, _p1evl(x, _ERFC_Q), _p1evl(x, _ERFC_S))
    y[z < -_MAXLOG] = 0.0  # underflow
    return y


# ------------------------------------------------------------- gammaln
def gammaln(x):
    """log Gamma(x) at each point of ``x`` > 0 (infinity included)."""
    x = _positive("gammaln", x)
    out = np.empty(x.shape)
    small = x < 13.0
    out[small] = [_lgam_below_13(v) for v in x[small].tolist()]
    out[~small] = _lgam_stirling(x[~small])
    return _result(out)


def _lgam_below_13(x: float) -> float:
    """cephes ``lgam`` for 0 < x < 13: recurrence into [2, 3], then the
    rational approximation there."""
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    p = x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    return math.log(z) + p


def _lgam_stirling(x: np.ndarray) -> np.ndarray:
    """cephes ``lgam`` at each x >= 13: Stirling's series, with fewer
    terms from 1000 on and none above 1e8; infinity above ``_MAXLGM``."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = (x - 0.5) * _libm(math.log, x) - x + _LS2PI
        p = 1.0 / (x * x)
        series = np.where(
            x < 1000.0,
            _polevl(p, _LGAM_A),
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
            * p + 0.0833333333333333333333,
        )
        out = np.where(x > 1.0e8, q, q + series / x)
    out[x > _MAXLGM] = math.inf
    return out


# ------------------------------------------------------------- digamma
def digamma(x):
    """psi(x) = d/dx log Gamma(x) at each point of ``x`` > 0 (infinity
    included)."""
    x = _positive("digamma", x)
    out = np.empty(x.shape)
    small = x <= 10.0
    out[small] = [_psi_to_10(v) for v in x[small].tolist()]
    out[~small] = _psi_asymptotic(x[~small])
    return _result(out)


def _psi_to_10(x: float) -> float:
    """cephes ``psi`` for 0 < x <= 10: a harmonic sum at the integers,
    elsewhere recurrence into [1, 2] and Boost's approximation there."""
    y = 0.0
    if x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    else:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    g = x - _PSI_ROOT1
    g -= _PSI_ROOT2
    g -= _PSI_ROOT3
    r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
    return y + (g * _PSI_Y + g * r)


def _psi_asymptotic(x: np.ndarray) -> np.ndarray:
    """cephes ``psi`` at each x > 10: ``log x - 1/(2x)`` less the
    asymptotic series in ``1/x^2``, whose terms vanish from 1e17 on."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = 1.0 / (x * x)
        series = np.where(x < 1.0e17, z * _polevl(z, _PSI_A), 0.0)
        return _libm(math.log, x) - (0.5 / x) - series
