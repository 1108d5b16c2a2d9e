"""Maj statistic polynomials over involutions and over all permutations.

Each polynomial has an enumeration path, the ground truth at small sizes,
and a closed form that reaches the sizes the limit computations need.  For
the involutions the closed form is one exact integer recurrence from
Littlewood's identity; run at a packing point it gives the polynomial
(``t_poly``), at a rational point its value (``t_value``).  Its twin from
Cauchy's identity gives the joint (imaj, maj) value over all permutations
(``a_value``), whose polynomial (``a_poly``) sums hook-length products over
same-shape pairs of tableaux.  Each point's prefix is cached and grows on
demand, so every caller at one point shares a single series; the scaled
evaluators that :mod:`qtab.limits` reads divide it by q-factorials, whose
values at each point are a cached prefix of their own.  The test
suite pins each closed form to enumeration and to the partition/hook-length
sums, and the CLI reports which path produced a polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

# The polynomial functions import the formal type and the packed kernel when
# they run, so the series and the scaled evaluators, which limits read, load neither.
if TYPE_CHECKING:
    from .bivar import BivarPoly

__all__ = [
    "t_count",
    "t_poly_enum",
    "t_poly",
    "a_poly_enum",
    "a_poly",
    "q_integer_value",
    "q_factorial_value",
    "t_scaled_value",
    "t_value",
    "a_scaled_value",
    "a_value",
]


_INVOLUTION_COUNTS = [1, 1]


def t_count(n: int) -> int:
    """Number of involutions of [n], by the two-term recurrence.

    Iterative so that sizes in the thousands (needed by the scaled ratio
    checks) do not hit the recursion limit.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_INVOLUTION_COUNTS) <= n:
        k = len(_INVOLUTION_COUNTS)
        _INVOLUTION_COUNTS.append(
            _INVOLUTION_COUNTS[k - 1] + (k - 1) * _INVOLUTION_COUNTS[k - 2]
        )
    return _INVOLUTION_COUNTS[n]


@lru_cache(maxsize=None)
def t_poly_enum(n: int) -> BivarPoly:
    """Maj generating polynomial over involutions, by direct enumeration."""
    from .bivar import BivarPoly
    from .permutation import involutions

    return BivarPoly(((0, perm.maj()), 1) for perm in involutions(n))


@lru_cache(maxsize=None)
def t_poly(n: int) -> BivarPoly:
    """Maj generating polynomial over involutions: the series at the packing point."""
    from .bivar import unpack
    from .polynomial import packed_width

    width = packed_width(t_count(n))
    return unpack(width, _series(n, Fraction(1 << width)).numerator)


@lru_cache(maxsize=None)
def a_poly_enum(n: int) -> BivarPoly:
    """Joint (imaj, maj) generating polynomial over all permutations."""
    from .bivar import BivarPoly
    from .permutation import permutations

    return BivarPoly(((perm.imaj(), perm.maj()), 1) for perm in permutations(n))


@lru_cache(maxsize=None)
def a_poly(n: int) -> BivarPoly:
    """Joint (imaj, maj) polynomial as a sum of products of hook polynomials.

    Each partition contributes its maj polynomial in p times the same
    polynomial in q: row i, the packed coefficient of p^i, gains c_i times
    the packed polynomial, where c_i is its coefficient of q^i, read off
    the packed value's digits.
    """
    from .bivar import unpack
    from .polynomial import packed_digits, packed_qfactorial, packed_width
    from .tableau import hook_packed, partitions

    width = packed_width(packed_qfactorial(n, 0))
    rows = [0] * (n * (n - 1) // 2 + 1)
    for shape in partitions(n):
        value = hook_packed(shape, width)
        for i, coeff in enumerate(packed_digits(width, value)):
            rows[i] += coeff * value
    return unpack(width, *rows)


# -- exact rational evaluation ------------------------------------------------


def q_integer_value(h: int, q: Fraction) -> Fraction:
    """Value of 1 + q + ... + q^(h-1) at a rational point."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    if q == 1:
        return Fraction(h)
    return (q**h - 1) / (q - 1)


# Per point q, the prefix [0]_q!, [1]_q!, ...; like _SERIES it only ever grows.
_Q_FACTORIALS: dict[Fraction, list[Fraction]] = {}


def q_factorial_value(n: int, q: Fraction) -> Fraction:
    """Value of [n]_q! = [1]_q [2]_q ... [n]_q at a rational point."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = Fraction(q)
    values = _Q_FACTORIALS.setdefault(q, [Fraction(1)])
    while len(values) <= n:
        values.append(values[-1] * q_integer_value(len(values), q))
    return values[n]


# Littlewood's and Cauchy's identities under principal specialization
# (Macdonald ch. I §5; Stanley EC2 Prop. 7.19.11) give one recurrence for the
# involution series t_m and the permutation series a_m:
#
#     m x_m = sum_{k=1..m} c_m(k) x_(m-k),   c_m(k) = g_k prod_v [m choose k]_v
#
# over the variables v of the series (q; or p and q).  With (q;q)_i =
# (1-q)(1-q^2)...(1-q^i), g_k is (p;p)_(k-1) (q;q)_(k-1) for permutations, and
# (q;q)_(k-1) with its factor 1 - q^(k/2) turned into 1 + q^(k/2) for
# involutions.  At v = r/s every factor is homogenized: s^i - r^i stands for
# 1 - v^i, and the Gaussian rows follow H[m][k] = s^(m-k) H[m-1][k-1] +
# r^k H[m-1][k].  So x_m is the series at r/s times s^(m(m-1)/2) for each
# variable: an integer, and m divides the sum exactly.  At q = 2^w it is the
# packed polynomial.
#
# Per parameter tuple the cache holds the last Gaussian row of each variable
# (the whole table would hold O(n^4) bits), the weights g_0..g_m and the
# prefix x_0..x_m; g_0 is an unused placeholder so that g[k] is g_k.  The
# lists only ever grow.
_SERIES: dict[tuple[Fraction, ...], tuple[list[list[int]], list[int], list[int]]] = {}


def _series(n: int, *params: Fraction) -> Fraction:
    """The involution series (one parameter) or the permutation series (two) at n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    points = [(v.numerator, v.denominator) for v in params]
    rows, g, x = _SERIES.setdefault(params, ([[1] for _ in points], [0], [1]))
    involution = len(points) == 1
    while len(x) <= n:
        m = len(x)
        for (r, s), row in zip(points, rows):
            row.append(0)
            for k in range(m, 0, -1):
                row[k] = s ** (m - k) * row[k - 1] + r**k * row[k]
        g.append(
            math.prod(
                s**i + r**i if involution and 2 * i == m else s**i - r**i
                for r, s in points
                for i in range(1, m)
            )
        )
        total = 0
        for k in range(1, m + 1):
            term = g[k] * x[m - k]
            for row in rows:
                term *= row[k]
            total += term
        x.append(total // m)
    return Fraction(x[n], math.prod(s for _, s in points) ** (n * (n - 1) // 2))


def t_value(n: int, q: Fraction) -> Fraction:
    """Maj generating function over involutions of [n], evaluated at q."""
    return _series(n, Fraction(q))


def t_scaled_value(n: int, q: Fraction) -> Fraction:
    """Involutions' maj polynomial at q, divided by the q-factorial of n."""
    return t_value(n, q) / q_factorial_value(n, q)


def a_value(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Joint (imaj, maj) generating function over permutations, at (p, q)."""
    return _series(n, Fraction(p), Fraction(q))


def a_scaled_value(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Joint (imaj, maj) polynomial at (p, q), divided by both factorials."""
    p, q = Fraction(p), Fraction(q)
    return a_value(n, p, q) / (q_factorial_value(n, p) * q_factorial_value(n, q))
