"""Sparse integer polynomials in two formal variables p and q.

Coefficients are arbitrary-precision Python ints and all ring operations are
exact.  Univariate polynomials in q are the p-degree-0 slice of the same
representation.  Evaluation at rational points is ``weights.evaluate``, the
one evaluator of coefficient tables, and returns ``fractions.Fraction``.
``unpack`` reads a polynomial off the digits of a value of the packed kernel
of :mod:`qtab.polynomial`; the q-factorials and q-binomials are built that way.
Only the commands that print a polynomial load this module: the ``qpoly``
kinds, and ``qtab verify`` when a check fails and prints its sides.  The
theorem weights of :mod:`qtab.weights` are coefficient tables, so no
``limit`` kind and no passing ``verify`` loads it; the test suite uses it to
rebuild the weights as the polynomials they were first defined as.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

from .polynomial import packed_digits, packed_qbinomial, packed_qfactorial, packed_width

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["BivarPoly", "ZERO", "ONE", "P", "Q", "q_integer", "unpack", "qfactorial", "qbinomial"]


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

    def evaluate(self, p_value: int | Fraction, q_value: int | Fraction) -> Fraction:
        """Exact rational evaluation at p = p_value, q = q_value (``weights.evaluate``)."""
        from fractions import Fraction

        from .weights import evaluate

        return evaluate(self._terms, Fraction(p_value), Fraction(q_value))

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
