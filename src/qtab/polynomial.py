"""Exact polynomial kernel: sparse integer polynomials in two formal variables.

Coefficients are arbitrary-precision Python ints and all ring operations are
exact.  Univariate polynomials in q are the p-degree-0 slice of the same
representation.  Evaluation at rational points returns ``fractions.Fraction``,
the scalar type used end to end by the limit computations, so that tolerances
are statements about exact numbers rather than floating-point artifacts.

The q-formulas (q-factorials, q-binomials, hook products, Jacobi-Trudi
determinants) run on a packed kernel instead: a polynomial in q is the
integer it takes at q = 2^width (Kronecker substitution).  Evaluation is a
ring homomorphism, so sums, products and exact quotients of packed values are
those of the polynomials, and ``unpack`` reads the coefficients back off the
digits.  At width 0 every q-integer [h] is h, so the same formulas count.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

__all__ = [
    "BivarPoly",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "q_integer",
    "qfactorial",
    "qbinomial",
    "packed_width",
    "times_q_integer",
    "packed_qfactorial",
    "packed_qbinomial",
    "divide_packed",
    "packed_digits",
    "unpack",
    "format_decimal",
]


class BivarPoly:
    """A polynomial in the formal variables p and q with integer coefficients.

    Terms are stored sparsely as a map from exponent pairs
    ``(p_degree, q_degree)`` to nonzero integer coefficients.  Instances are
    immutable and hashable; arithmetic never loses precision.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, int], int] = {}
        for (i, j), coeff in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term p^{i}*q^{j}")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            if coeff:
                total = clean.get((i, j), 0) + coeff
                if total:
                    clean[(i, j)] = total
                else:
                    clean.pop((i, j), None)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def monomial(cls, p_degree: int, q_degree: int, coeff: int = 1) -> "BivarPoly":
        return cls({(p_degree, q_degree): coeff})

    # -- inspection --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms sorted by (p-degree, q-degree) ascending."""
        return sorted(self._terms.items())

    def degree_q(self) -> int:
        """Largest q-exponent, or -1 for the zero polynomial."""
        return max((j for _, j in self._terms), default=-1)

    def q_coefficients(self) -> list[int]:
        """Dense q-coefficient list; raises if any term involves p."""
        if any(i for i, _ in self._terms):
            raise ValueError("polynomial involves p; not univariate in q")
        out = [0] * (self.degree_q() + 1)
        for (_, j), c in self._terms.items():
            out[j] = c
        return out

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "BivarPoly":
        if isinstance(value, BivarPoly):
            return value
        if isinstance(value, int):
            return BivarPoly({(0, 0): value})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        result = BivarPoly.__new__(BivarPoly)
        object.__setattr__(result, "_terms", terms)
        return result

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        result = BivarPoly.__new__(BivarPoly)
        object.__setattr__(result, "_terms", {k: -c for k, c in self._terms.items()})
        return result

    def __sub__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                total = terms.get(key, 0) + c1 * c2
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
        result = BivarPoly.__new__(BivarPoly)
        object.__setattr__(result, "_terms", terms)
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivarPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def swap_variables(self) -> "BivarPoly":
        """Exchange the roles of p and q."""
        return BivarPoly({(j, i): c for (i, j), c in self._terms.items()})

    def evaluate(self, p_value: Scalar, q_value: Scalar) -> Fraction:
        """Exact rational evaluation at p = p_value, q = q_value.

        With p = a/b, q = r/s and P, Q the largest degrees, the terms are summed
        as integers c a^i b^(P-i) r^j s^(Q-j) over the common denominator
        b^P s^Q, so one ``Fraction`` is built.
        """
        p_value = Fraction(p_value)
        q_value = Fraction(q_value)
        terms = self._terms
        p_degrees = {i for i, _ in terms}
        q_degrees = {j for _, j in terms}
        top_p, top_q = max(p_degrees, default=0), max(q_degrees, default=0)
        a, b = p_value.numerator, p_value.denominator
        r, s = q_value.numerator, q_value.denominator
        p_scaled = {i: a**i * b ** (top_p - i) for i in p_degrees}
        q_scaled = {j: r**j * s ** (top_q - j) for j in q_degrees}
        total = sum([c * p_scaled[i] * q_scaled[j] for (i, j), c in terms.items()])
        return Fraction(total, b**top_p * s**top_q)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _monomial_str(i: int, j: int, coeff: int) -> str:
        parts = []
        if abs(coeff) != 1 or (i == 0 and j == 0):
            parts.append(str(abs(coeff)))
        if i == 1:
            parts.append("p")
        elif i > 1:
            parts.append(f"p^{i}")
        if j == 1:
            parts.append("q")
        elif j > 1:
            parts.append(f"q^{j}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (i, j), coeff in self.sorted_terms():
            text = self._monomial_str(i, j, coeff)
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BivarPoly({self._terms!r})"

    def to_json_terms(self) -> list[list]:
        """JSON form: list of [p_degree, q_degree, coefficient-string] triples."""
        return [[i, j, str(c)] for (i, j), c in self.sorted_terms()]

    @classmethod
    def from_json_terms(cls, triples: Iterable[Iterable]) -> "BivarPoly":
        return cls({(int(i), int(j)): int(c) for i, j, c in triples})


ZERO = BivarPoly()
ONE = BivarPoly({(0, 0): 1})
P = BivarPoly({(1, 0): 1})
Q = BivarPoly({(0, 1): 1})


def q_integer(h: int) -> BivarPoly:
    """The q-analog of the integer h: 1 + q + ... + q^(h-1)."""
    if h < 0:
        raise ValueError("q_integer requires h >= 0")
    return BivarPoly({(0, d): 1 for d in range(h)})


# -- packed kernel -------------------------------------------------------------


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


def unpack(width: int, *rows: int) -> BivarPoly:
    """The polynomial whose packed value is ``rows[i]`` in its p^i row.

    The base-2^width digits are the coefficients.  Every polynomial packed
    here has nonnegative coefficients that sum to its value at q = 1, so with
    the width ``packed_width`` gives for that value no coefficient reaches
    2^width and the digits do not carry into each other.
    """
    return BivarPoly(
        {
            (i, j): coeff
            for i, value in enumerate(rows)
            for j, coeff in enumerate(packed_digits(width, value))
        }
    )


@lru_cache(maxsize=None)
def qfactorial(n: int) -> BivarPoly:
    """The q-factorial: product of q-integers 1 through n (1 for n = 0)."""
    width = packed_width(packed_qfactorial(n, 0))
    return unpack(width, packed_qfactorial(n, width))


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> BivarPoly:
    """Gaussian binomial coefficient as an exact polynomial in q."""
    width = packed_width(packed_qbinomial(n, k, 0))
    return unpack(width, packed_qbinomial(n, k, width))


def format_decimal(value: Fraction, significant_digits: int = 12) -> str:
    """Render an exact rational as a fixed-precision decimal string.

    The value is rounded half up (ties away from zero) to
    ``significant_digits`` significant digits at any magnitude, by the
    standard library's correctly rounded decimal arithmetic, and printed
    without an exponent or trailing zeros.  Presentation only: rounding
    happens at the final step, never inside a computation.
    """
    if significant_digits < 1:
        raise ValueError("need at least one significant digit")
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
