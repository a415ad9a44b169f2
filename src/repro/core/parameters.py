"""BSS parameter design: the bias factor xi and the (L, eps) trade-off.

The paper models the traffic marginal as Pareto(l, alpha) and derives how
the expected BSS estimate relates to the design knobs (Sec. V-C):

* ``eps`` — the normalised threshold, ``a_th = eps * Xr``;
* ``L``  — extra samples taken per triggered interval.

Writing ``m = a_th / l = eps * alpha / (alpha - 1)`` (the threshold in
units of the Pareto scale) and ``q = m^(-2 alpha)`` (the expected kept
fraction of extra samples per regular sample: trigger probability
``m^-alpha`` times qualification probability ``m^-alpha``):

* expected qualified samples per regular sample: ``L' / N = L q``
  (Fig. 15's overhead surface);
* each qualified sample has conditional mean ``a_th alpha/(alpha-1)
  = m Xr``;
* the bias factor of the combined estimate (paper Eq. 30) is::

      xi(L, eps) = (baseline + L q m) / (1 + L q)

  where ``baseline`` is the relative accuracy of the regular samples
  alone: 1 in the idealised model, ``1 - eta`` when the systematic
  baseline under-estimates by eta.

Setting ``xi = 1`` with the eta-corrected baseline recovers the paper's
Eq. (23), ``L = eta * m^(2 alpha) / (m - 1)``, and its two epsilon roots
(Figs. 10/11): the infeasible ``eps1 = (alpha-1)/alpha`` (i.e. ``m = 1``)
and the feasible larger root ``eps2`` that grows with L.  Setting
``xi = 1/(1-eta)`` on the ideal baseline gives the *biased* BSS design the
paper ultimately recommends.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DesignError
from repro.utils.brent import brentq
from repro.utils.validation import require_alpha, require_positive

__all__ = [
    "threshold_ratio",
    "epsilon_for_ratio",
    "xi_bias",
    "overhead_ratio",
    "l_for_unbiased",
    "l_for_xi",
    "l_for_target_mean",
    "epsilon_roots",
    "xi_surface",
    "l_surface",
    "overhead_surface",
    "max_unbiased_eta",
]


def threshold_ratio(eps: float, alpha: float) -> float:
    """m = a_th / l = eps * alpha / (alpha - 1) for a_th = eps * Xr."""
    require_positive("eps", eps)
    require_alpha("alpha", alpha)
    return eps * alpha / (alpha - 1.0)


def epsilon_for_ratio(m: float, alpha: float) -> float:
    """Inverse of :func:`threshold_ratio`."""
    require_positive("m", m)
    require_alpha("alpha", alpha)
    return m * (alpha - 1.0) / alpha


def xi_bias(L: float, eps: float, alpha: float, *, baseline_eta: float = 0.0) -> float:
    """The bias factor xi of Eq. (30) (eta-corrected when requested).

    ``xi = E(W_hat) / Xr`` under the Pareto model; ``xi = 1`` means BSS is
    unbiased.  ``baseline_eta`` models the regular samples delivering
    ``(1 - eta) Xr`` instead of ``Xr`` (the empirical reality for
    heavy-tailed traffic at finite rates).
    """
    if L < 0:
        raise DesignError(f"L must be non-negative, got {L}")
    if not 0.0 <= baseline_eta < 1.0:
        raise DesignError(f"baseline_eta must lie in [0, 1), got {baseline_eta}")
    m = threshold_ratio(eps, alpha)
    q = m ** (-2.0 * alpha)
    return ((1.0 - baseline_eta) + L * q * m) / (1.0 + L * q)


def overhead_ratio(L: float, eps: float, alpha: float) -> float:
    """Expected overhead L'/N = L * m^(-2 alpha) (Fig. 15)."""
    if L < 0:
        raise DesignError(f"L must be non-negative, got {L}")
    m = threshold_ratio(eps, alpha)
    return L * m ** (-2.0 * alpha)


def l_for_unbiased(eta: float, eps: float, alpha: float) -> float:
    """Paper Eq. (23): L making BSS unbiased given baseline under-estimate eta.

    ``L = eta * m^(2 alpha) / (m - 1)``.  Requires ``m > 1`` — i.e.
    ``eps > (alpha-1)/alpha``; below that the threshold sits under the
    Pareto scale and no positive L exists (the paper's infeasible eps1
    branch).
    """
    if not 0.0 < eta < 1.0:
        raise DesignError(f"eta must lie in (0, 1), got {eta}")
    m = threshold_ratio(eps, alpha)
    if m <= 1.0:
        raise DesignError(
            f"eps={eps} gives threshold ratio m={m:.3f} <= 1; "
            f"need eps > {epsilon_for_ratio(1.0, alpha):.3f} for a feasible L"
        )
    return eta * m ** (2.0 * alpha) / (m - 1.0)


def l_for_xi(xi: float, eps: float, alpha: float) -> float:
    """Invert Eq. (30): the L achieving a target bias factor xi.

    ``L = (xi - 1) / (q (m - xi))``; feasible only for ``1 < xi < m``.
    """
    m = threshold_ratio(eps, alpha)
    if not 1.0 < xi < m:
        raise DesignError(
            f"target xi={xi:.3f} must lie in (1, m={m:.3f}); "
            "raise eps (hence m) or lower the target"
        )
    q = m ** (-2.0 * alpha)
    return (xi - 1.0) / (q * (m - xi))


def l_for_target_mean(eta: float, eps: float, alpha: float) -> float:
    """The paper's biased-BSS design: xi = 1/(1-eta) to cancel the gap.

    Equivalent closed form: ``L = eta / (q (m (1-eta) - 1))``.
    """
    if not 0.0 < eta < 1.0:
        raise DesignError(f"eta must lie in (0, 1), got {eta}")
    return l_for_xi(1.0 / (1.0 - eta), eps, alpha)


def max_unbiased_eta(L: float, alpha: float) -> float:
    """Largest baseline eta for which the unbiased locus has a root.

    ``g(m) = L m^(-2 alpha) (m - 1)`` peaks at ``m* = 2 alpha/(2 alpha - 1)``;
    etas above ``g(m*)`` admit no epsilon solving xi = 1 for this L.
    """
    require_positive("L", L)
    require_alpha("alpha", alpha)
    m_star = 2.0 * alpha / (2.0 * alpha - 1.0)
    return L * m_star ** (-2.0 * alpha) * (m_star - 1.0)


#: The largest threshold ratio ``m = a_th / l`` searched for eps2.  It lies
#: far above the decaying branch's start ``m* = 2 alpha/(2 alpha - 1) < 2``.
M_MAX = 1e6


def epsilon_roots(L: float, alpha: float, eta: float) -> tuple[float, float]:
    """The two unbiased-threshold roots of Fig. 11.

    Solves ``xi(L, eps; eta) = 1``, i.e. ``L m^(-2 alpha)(m-1) = eta``.
    Returns ``(eps1, eps2)``: eps1 on the rising branch near
    ``(alpha-1)/alpha`` (the paper calls it infeasible — it corresponds to
    a threshold at the very bottom of the distribution), eps2 on the
    decaying branch (grows with L, the setting used in Figs. 12/13).

    eps2 is searched for in threshold ratios up to :data:`M_MAX`; a
    :class:`DesignError` says when L is so large that no decaying-branch
    root lies at or below it.
    """
    require_positive("L", L)
    require_alpha("alpha", alpha)
    if not 0.0 < eta < 1.0:
        raise DesignError(f"eta must lie in (0, 1), got {eta}")

    def g(m: float) -> float:
        return L * m ** (-2.0 * alpha) * (m - 1.0) - eta

    m_star = 2.0 * alpha / (2.0 * alpha - 1.0)
    if g(m_star) <= 0:
        raise DesignError(
            f"eta={eta:.3f} exceeds the unbiased maximum "
            f"{max_unbiased_eta(L, alpha):.3f} for L={L}; increase L"
        )
    if g(M_MAX) > 0:
        raise DesignError(
            f"no decaying-branch root in m <= M_MAX={M_MAX:g}: L={L} is too "
            f"large for eta={eta}; lower L"
        )
    # g(1) = -eta < 0.  When L * 1e-12 > eta the rising-branch root lies
    # below 1 + 1e-12, so bracket it from 1 instead.
    low = 1.0 + 1e-12
    m1 = brentq(g, low, m_star) if g(low) <= 0 else brentq(g, 1.0, low)
    m2 = brentq(g, m_star, M_MAX)
    return epsilon_for_ratio(m1, alpha), epsilon_for_ratio(m2, alpha)


# --------------------------------------------------------------- surfaces
def xi_surface(Ls, epss, alpha: float, *, baseline_eta: float = 0.0) -> np.ndarray:
    """xi over a (L, eps) grid — Figs. 10 (surface) and 14 (contours)."""
    Ls = np.asarray(Ls, dtype=np.float64)
    epss = np.asarray(epss, dtype=np.float64)
    out = np.empty((Ls.size, epss.size))
    for i, L in enumerate(Ls):
        for j, eps in enumerate(epss):
            out[i, j] = xi_bias(float(L), float(eps), alpha,
                                baseline_eta=baseline_eta)
    return out


def l_surface(etas, epss, alpha: float) -> np.ndarray:
    """Eq. (23) L over a (eta, eps) grid — Fig. 9.  Infeasible cells = NaN."""
    etas = np.asarray(etas, dtype=np.float64)
    epss = np.asarray(epss, dtype=np.float64)
    out = np.full((etas.size, epss.size), np.nan)
    for i, eta in enumerate(etas):
        for j, eps in enumerate(epss):
            try:
                out[i, j] = l_for_unbiased(float(eta), float(eps), alpha)
            except DesignError:
                continue
    return out


def overhead_surface(Ls, epss, alpha: float) -> np.ndarray:
    """L'/N over a (L, eps) grid — Fig. 15."""
    Ls = np.asarray(Ls, dtype=np.float64)
    epss = np.asarray(epss, dtype=np.float64)
    out = np.empty((Ls.size, epss.size))
    for i, L in enumerate(Ls):
        for j, eps in enumerate(epss):
            out[i, j] = overhead_ratio(float(L), float(eps), alpha)
    return out
