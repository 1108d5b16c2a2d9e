"""Maj statistic polynomials over involutions and over all permutations.

Each polynomial has two computation paths.  The enumeration path sums the
statistic over the underlying permutations and is the ground truth at small
sizes.  The fast path sums hook-length products over partitions (involutions
correspond to single tableaux, permutations to same-shape pairs, and descents
transport through the correspondence), which reaches the sizes the limit
computations need.  The fast path is only trusted after the exhaustive
cross-check band in the test suite passes, and the CLI reports which path
produced a number.

Exact rational evaluators (``t_scaled_value`` and friends) evaluate the same
sums at a fixed rational point without materializing polynomials; they are
the workhorses of :mod:`qtab.limits`.  They do not sum over partitions: the
scaled values are the coefficients of Littlewood's and Cauchy's Schur-function
products, whose logarithms have closed forms, so one O(n^2) exact recurrence
gives the whole prefix b_0..b_n.  Each parameter's prefix is cached and grows
on demand, so every caller at one parameter shares a single series.  The test
suite pins the series to the partition/hook-length sum they replace.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polynomial import BivarPoly, packed_qfactorial, packed_width, unpack
from .tableau import hook_packed, partitions

__all__ = [
    "t_count",
    "t_poly_enum",
    "t_poly",
    "a_poly_enum",
    "a_poly",
    "q_integer_value",
    "q_factorial_value",
    "q_binomial_value",
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
    from .permutation import involutions

    return BivarPoly(((0, perm.maj()), 1) for perm in involutions(n))


@lru_cache(maxsize=None)
def t_poly(n: int) -> BivarPoly:
    """Maj generating polynomial over involutions: hook products packed at one width."""
    width = packed_width(t_count(n))
    return unpack(width, sum(hook_packed(shape, width) for shape in partitions(n)))


@lru_cache(maxsize=None)
def a_poly_enum(n: int) -> BivarPoly:
    """Joint (imaj, maj) generating polynomial over all permutations."""
    from .permutation import permutations

    return BivarPoly(((perm.imaj(), perm.maj()), 1) for perm in permutations(n))


@lru_cache(maxsize=None)
def a_poly(n: int) -> BivarPoly:
    """Joint (imaj, maj) polynomial as a sum of products of hook polynomials.

    Each partition contributes its maj polynomial in p times the same
    polynomial in q: row i, the packed coefficient of p^i, gains c_i times
    the packed polynomial, where c_i is its coefficient of q^i.
    """
    width = packed_width(packed_qfactorial(n, 0))
    rows = [0] * (n * (n - 1) // 2 + 1)
    for shape in partitions(n):
        value = hook_packed(shape, width)
        for i, coeff in enumerate(unpack(width, value).q_coefficients()):
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


def q_factorial_value(n: int, q: Fraction) -> Fraction:
    value = Fraction(1)
    for i in range(1, n + 1):
        value *= q_integer_value(i, q)
    return value


def q_binomial_value(n: int, k: int, q: Fraction) -> Fraction:
    """Gaussian binomial evaluated at a rational point; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return Fraction(0)
    value = Fraction(1)
    for i in range(1, k + 1):
        value *= q_integer_value(n - k + i, q) / q_integer_value(i, q)
    return value


# Each scaled value is the coefficient b_n of a generating function whose
# logarithm is known in closed form, so the whole prefix b_0..b_n follows from
# m b_m = sum_{k=1..m} c_k b_{m-k}.  Per parameter the cache holds
# ([c_0, c_1, ...], [b_0, b_1, ...]); both lists only ever grow, and c_0 is an
# unused placeholder so that c[k] is c_k.
_T_SERIES: dict[Fraction, tuple[list[Fraction], list[Fraction]]] = {}
_A_SERIES: dict[tuple[Fraction, Fraction], tuple[list[Fraction], list[Fraction]]] = {}


def _series_value(series, n: int, log_coefficient) -> Fraction:
    """b_n of the cached series, extending both lists as far as n first."""
    c, b = series
    while len(b) <= n:
        m = len(b)
        c.append(log_coefficient(m))
        b.append(sum(c[k] * b[m - k] for k in range(1, m + 1)) / m)
    return b[n]


def t_scaled_value(n: int, q: Fraction) -> Fraction:
    """Involutions' maj polynomial at q, divided by the q-factorial of n.

    The coefficient of t^n in Littlewood's product sum_lambda s_lambda(x) =
    prod_i (1 - x_i)^-1 prod_{i<j} (1 - x_i x_j)^-1 at x_i = t(1-q)q^i.  Its
    logarithm is sum_k p_k/k + sum_r (p_r^2 - p_2r)/(2r) with power sums
    p_k = (1-q)^k t^k / (1-q^k), so k times its t^k coefficient is
    (1-q)^(k-1)/[k]_q for odd k and (1-q)^(k-2)/[k/2]_q^2 for even k.  As an
    identity of rational functions in q this needs no case split at q = 1
    (where the series is e^(t + t^2/2)) or for q > 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = Fraction(q)

    def log_coefficient(k: int) -> Fraction:
        if k % 2:
            return (1 - q) ** (k - 1) / q_integer_value(k, q)
        return (1 - q) ** (k - 2) / q_integer_value(k // 2, q) ** 2

    series = _T_SERIES.setdefault(q, ([Fraction(0)], [Fraction(1)]))
    return _series_value(series, n, log_coefficient)


def t_value(n: int, q: Fraction) -> Fraction:
    """Maj generating function over involutions of [n], evaluated at q."""
    return t_scaled_value(n, q) * q_factorial_value(n, Fraction(q))


def a_scaled_value(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Joint (imaj, maj) polynomial at (p, q), divided by both factorials.

    The coefficient of t^n in the Cauchy product sum_lambda s_lambda(x)
    s_lambda(y) = prod_{i,j} (1 - x_i y_j)^-1 at x_i = t(1-p)p^i,
    y_j = (1-q)q^j.  Its logarithm is sum_k p_k(x) p_k(y)/k, so k times its
    t^k coefficient is (1-p)^(k-1) (1-q)^(k-1) / ([k]_p [k]_q), again valid
    as a rational identity for every positive p and q (e^t at p = q = 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = Fraction(p), Fraction(q)

    def log_coefficient(k: int) -> Fraction:
        return ((1 - p) * (1 - q)) ** (k - 1) / (
            q_integer_value(k, p) * q_integer_value(k, q)
        )

    series = _A_SERIES.setdefault((p, q), ([Fraction(0)], [Fraction(1)]))
    return _series_value(series, n, log_coefficient)


def a_value(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Joint (imaj, maj) generating function over permutations, at (p, q)."""
    return (
        a_scaled_value(n, p, q)
        * q_factorial_value(n, Fraction(p))
        * q_factorial_value(n, Fraction(q))
    )
