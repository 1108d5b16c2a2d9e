"""The packed polynomial kernel, and exact rationals rendered as decimals.

The q-formulas (q-factorials, q-binomials, hook products, Jacobi-Trudi
determinants) run on packed values: a polynomial in q is the integer it takes
at q = 2^width (Kronecker substitution).  Evaluation is a ring homomorphism,
so sums, products and exact quotients of packed values are those of the
polynomials, and the base-2^width digits of a packed value are its
coefficients.  At width 0 every q-integer [h] is h, so the same formulas
count.  :mod:`qtab.bivar` reads coefficient tables off packed values and
prints them; the limit computations, reading the series as integers and the
weights as tables, never load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

# only ``format_decimal`` reads rationals, and imports `fractions` and
# `decimal` when it runs
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "packed_width", "times_q_integer", "packed_qfactorial", "packed_qbinomial",
    "divide_packed", "packed_digits", "format_decimal",
]


def packed_width(bound: int) -> int:
    """Digit width, a whole number of bytes, in which every value <= bound fits."""
    return 8 * (bound.bit_length() // 8 + 1)


def times_q_integer(value: int, h: int, width: int) -> int:
    """value * [h] at q = 2^width, and value * h at width 0.

    Shifts and adds along the binary digits of h, by [2m] = [m] + q^m [m] and
    [2m + 1] = 1 + q [2m], so no product of two long integers is formed.
    """
    result, m = 0, 0
    for bit in bin(h)[2:]:
        result += result << width * m
        m *= 2
        if bit == "1":
            result = value + (result << width)
            m += 1
    return result


def divide_packed(numerator: int, denominator: int) -> int:
    """Exact quotient of packed values; raises ValueError on a remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError("inexact packed division")
    return quotient


@lru_cache(maxsize=None)
def packed_qfactorial(n: int, width: int) -> int:
    """[n]! at q = 2^width (n! at width 0)."""
    if n < 0:
        raise ValueError("qfactorial requires n >= 0")
    value = 1
    for h in range(2, n + 1):
        value = times_q_integer(value, h, width)
    return value


@lru_cache(maxsize=None)
def packed_qbinomial(n: int, k: int, width: int) -> int:
    """[n choose k] at q = 2^width, as a ratio of q-integer products."""
    if k < 0 or k > n:
        raise ValueError(f"qbinomial({n}, {k}) requires 0 <= k <= n")
    k = min(k, n - k)
    numerator = denominator = 1
    for i in range(1, k + 1):
        numerator = times_q_integer(numerator, n - k + i, width)
        denominator = times_q_integer(denominator, i, width)
    return divide_packed(numerator, denominator)


def packed_digits(width: int, value: int) -> list[int]:
    """The base-2^width digits of a packed value, lowest first: its coefficients."""
    step = width // 8
    data = value.to_bytes(-(-value.bit_length() // 8), "little")
    return [int.from_bytes(data[d : d + step], "little") for d in range(0, len(data), step)]


def format_decimal(value: Fraction, significant_digits: int = 12) -> str:
    """Render an exact rational as a fixed-precision decimal string.

    The value is rounded half up (ties away from zero) to
    ``significant_digits`` significant digits at any magnitude, by the
    standard library's correctly rounded decimal arithmetic, and printed
    without an exponent or trailing zeros.  Presentation only: rounding
    happens at the final step, never inside a computation.  From 1 to
    10,000 digits are printed; the work grows with the digits asked for,
    so more raise ValueError instead of running on.
    """
    import decimal
    from fractions import Fraction

    if significant_digits < 1:
        raise ValueError("need at least one significant digit")
    if significant_digits > 10_000:
        raise ValueError("at most 10000 significant digits are printed")
    value = Fraction(value)
    if value == 0:
        return "0"
    num, den = value.numerator, value.denominator
    # Half up to p digits reads no digit past the (p + 1)-th, so the quotient
    # truncated to p + 1 or more digits rounds as the value does.  With
    # x = bits(den) - bits(num) + 1, |value| > 2^-x >= 10^-ceil(x/3), so a
    # shift of p + ceil(x/3) digits leaves at least p + 1.  Python divides long
    # integers with a short quotient in linear time, where decimal would
    # convert both long operands in quadratic time.
    shift = significant_digits + max(0, -((num.bit_length() - den.bit_length() - 1) // 3))
    truncated = abs(num) * 10**shift // den
    context = decimal.Context(
        prec=significant_digits,
        rounding=decimal.ROUND_HALF_UP,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )
    rounded = decimal.Decimal(truncated if num > 0 else -truncated).scaleb(-shift, context)
    text = format(rounded, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text
