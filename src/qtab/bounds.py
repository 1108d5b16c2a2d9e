"""The involution-number ratios of eq8.

``eq8_check`` gives the two scaled involution-number ratios as exact
fractions.  ``qtab limit eq8`` is the only command that imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from .stats import t_count
from .values import Value

__all__ = ["Eq8Report", "eq8_check"]


class Eq8Report(Value):
    """The two scaled involution-number ratios at a given enumeration size:
    ``ratio_offset`` = n^a t_{n-a} / t_{n+a} and ``ratio_stride`` =
    n^a t_n / t_{n+2a}.  An immutable value."""

    __slots__ = ("a", "n", "ratio_offset", "ratio_stride")

    def __init__(self, a: int, n: int, ratio_offset: Fraction, ratio_stride: Fraction):
        Value.__init__(self, a, n, ratio_offset, ratio_stride)


def eq8_check(a: int, n: int) -> Eq8Report:
    """Exact values of the two ratios that tend to 1 as n grows."""
    if a < 0 or n < a:
        raise ValueError("need n >= a >= 0")
    return Eq8Report(
        a,
        n,
        Fraction(n**a * t_count(n - a), t_count(n + a)),
        Fraction(n**a * t_count(n), t_count(n + 2 * a)),
    )
