"""Scalar power weights a |x|^gamma on the line.

Exponents are exact rationals (stdlib Fraction); interval averages use
closed forms, with log1p/expm1 forms on origin-free intervals so narrow
far-from-zero intervals do not lose precision to cancellation.
integral_abs_pow_stack applies the same forms to many exponents and
intervals at once, elementwise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .search import Interval

__all__ = [
    "Interval",
    "NotIntegrableError",
    "NotA2Error",
    "parse_rational",
    "format_rational",
    "integral_abs_pow",
    "integral_abs_pow_stack",
    "average_abs_pow",
    "scalar_is_a2",
    "scalar_closed_form_constant",
]

_RAT_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


class NotIntegrableError(ArithmeticError):
    """Requested average does not exist as a finite integral."""


class NotA2Error(ValueError):
    """Weight fails its A2 characterization, so the operation is undefined."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a 'p/q' string.

    Floats and decimal/scientific strings are rejected: exponent arithmetic
    in this package is exact and a float literal would silently break that.
    """
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        m = _RAT_RE.match(value)
        if not m:
            raise ValueError(f"not an exact rational: {value!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ValueError(f"zero denominator in rational: {value!r}")
        return Fraction(num, den)
    raise ValueError(f"not an exact rational: {value!r}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _integral_positive_side(g: float, lo: float, hi: float) -> float:
    """Integral of x^g over [lo, hi] with 0 <= lo < hi."""
    if lo == 0.0:
        if g <= -1.0:
            raise NotIntegrableError(f"|x|^{g} is not integrable at 0")
        return hi ** (g + 1.0) / (g + 1.0)
    if g == -1.0:
        return math.log1p((hi - lo) / lo)
    return lo ** (g + 1.0) * math.expm1((g + 1.0) * math.log1p((hi - lo) / lo)) / (g + 1.0)


def integral_abs_pow(gamma, iv: Interval) -> float:
    """Closed-form integral of |x|^gamma over iv.

    Splits at 0 when the interval straddles it; gamma <= -1 with 0 in the
    closed interval raises NotIntegrableError. The exponent is used as a
    float, so one within rounding of -1 takes the logarithmic form.
    """
    g = float(gamma)
    a, b = iv.a, iv.b
    if a >= 0.0:
        return _integral_positive_side(g, a, b)
    if b <= 0.0:
        return _integral_positive_side(g, -b, -a)
    if g <= -1.0:
        raise NotIntegrableError(f"|x|^{g} is not integrable across 0")
    return (-a) ** (g + 1.0) / (g + 1.0) + b ** (g + 1.0) / (g + 1.0)


def integral_abs_pow_stack(gammas, a, b) -> np.ndarray:
    """integral_abs_pow elementwise over gammas, a and b broadcast together
    (exponents shaped (m, 1) against intervals shaped (1, k) give every
    pair), with NaN where it would raise NotIntegrableError.

    The closed forms and their operations are integral_abs_pow's, so a
    value depends on its own exponent and interval alone: an interval that
    touches 0 sums |x|^s / s over its sides (a side of length 0 adds 0),
    an origin-free one takes the log1p/expm1 form. Branches computed for
    other elements of the stack (0 ** s, a negative base) run under
    np.errstate and are discarded.
    """
    s = np.asarray(gammas, dtype=float) + 1.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    touch = (a <= 0.0) & (b >= 0.0)
    touching = np.count_nonzero(touch)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if touching == touch.size:
            return np.where(s > 0.0, b ** s / s + (-a) ** s / s, np.nan)
        abs_a, abs_b = np.abs(a), np.abs(b)
        lo, hi = np.minimum(abs_a, abs_b), np.maximum(abs_a, abs_b)
        log = np.log1p((hi - lo) / lo)
        out = lo ** s * np.expm1(s * log) / s
        if touching:
            out = np.where(touch, b ** s / s + (-a) ** s / s, out)
        if s.min() <= 0.0:
            out = np.where(s == 0.0, log, out)
            out = np.where((s <= 0.0) & touch, np.nan, out)
    return out


def average_abs_pow(gamma, iv: Interval) -> float:
    return integral_abs_pow(gamma, iv) / iv.length


def scalar_is_a2(gamma) -> bool:
    """Exact test: |x|^gamma is an A2 weight iff -1 < gamma < 1."""
    g = Fraction(gamma)
    return Fraction(-1) < g < Fraction(1)


def scalar_closed_form_constant(gamma) -> float:
    """sup over anchored/symmetric/origin-free intervals of <|x|^g><|x|^-g>.

    Equals 1/(1 - g^2); attained by intervals with one endpoint at 0 (and
    by symmetric ones). Not a bound over arbitrary intervals: asymmetric
    straddling intervals exceed it, which is exactly why the sup search
    restricts its family.
    """
    g = Fraction(gamma)
    if not scalar_is_a2(g):
        raise NotA2Error(f"|x|^{format_rational(g)} is not A2")
    return 1.0 / float((1 - g) * (1 + g))
