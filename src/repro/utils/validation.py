"""Argument validators shared across the library.

All validators raise :class:`repro.errors.ParameterError` with a message that
names the offending argument, so failures read well from user code.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError


def _is_finite(name: str, value) -> bool:
    """Whether ``value`` is finite; raise if it is not a number.

    Bools do not pass, though Python counts them as 0 and 1: ``True`` is
    never meant as a rate, a scale or a bound.
    """
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return math.isfinite(value)
    except TypeError:
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def require_finite(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a finite number, else raise."""
    if not _is_finite(name, value):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number > 0, else raise."""
    if not _is_finite(name, value) or value <= 0:
        raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number >= 0, else raise."""
    if not _is_finite(name, value) or value < 0:
        raise ParameterError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def require_probability(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Return ``value`` if it lies in (0, 1] (or [0, 1] when allowed)."""
    finite = _is_finite(name, value)
    lo_ok = value >= 0 if allow_zero else value > 0
    if not finite or not lo_ok or value > 1:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ParameterError(f"{name} must lie in {bound}, got {value!r}")
    return float(value)


def require_int_at_least(name: str, value: int, minimum: int) -> int:
    """Return ``value`` as int if it is an integer >= ``minimum``.

    Integral floats (``5.0``) pass; bools do not, though Python counts
    them as ints — ``True`` is never meant as a count.
    """
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, int):
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None
        if as_int != value:
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        value = as_int
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies inside [low, high] (or (low, high))."""
    finite = _is_finite(name, value)
    if inclusive:
        ok = low <= value <= high
        interval = f"[{low}, {high}]"
    else:
        ok = low < value < high
        interval = f"({low}, {high})"
    if not finite or not ok:
        raise ParameterError(f"{name} must lie in {interval}, got {value!r}")
    return float(value)


def require_alpha(name: str, value: float) -> float:
    """Validate a heavy-tail shape parameter in the paper's range (1, 2).

    The paper restricts itself to infinite-variance, finite-mean Pareto
    tails, i.e. ``1 < alpha < 2``.
    """
    return require_in_range(name, value, 1.0, 2.0, inclusive=False)


def require_hurst(name: str, value: float) -> float:
    """Validate a Hurst parameter for an LRD process: 0.5 < H < 1."""
    return require_in_range(name, value, 0.5, 1.0, inclusive=False)
