"""Integer polynomials in p and q as read-only coefficient tables, and their text.

The package holds every polynomial it returns in one form: a read-only table
``{(i, k): c}`` of the nonzero coefficients c of p^i q^k, as the theorem
weights of :mod:`qtab.weights` are held.  Evaluation at rational points is
``weights.evaluate``, the one evaluator of tables.  ``unpack`` reads a table
off the digits of a value of the packed kernel of :mod:`qtab.polynomial`; the
q-factorials and q-binomials are read that way.  ``text`` and ``json_terms``
print a table for ``qtab qpoly``, and ``qtab verify`` prints the sides of a
failing check with ``text``; no ``limit`` kind and no passing ``verify``
loads this module.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

from .polynomial import packed_digits, packed_qbinomial, packed_qfactorial, packed_width

if TYPE_CHECKING:
    from .weights import Table

__all__ = ["unpack", "qfactorial", "qbinomial", "text", "json_terms"]


def unpack(width: int, *rows: int) -> Table:
    """The table whose packed value is ``rows[i]`` in its p^i row.

    The base-2^width digits are the coefficients.  Every polynomial packed
    here has nonnegative coefficients that sum to its value at q = 1, so with
    the width ``packed_width`` gives for that value no coefficient reaches
    2^width and the digits do not carry into each other.
    """
    return MappingProxyType({
        (i, k): c
        for i, value in enumerate(rows)
        for k, c in enumerate(packed_digits(width, value))
        if c
    })


@lru_cache(maxsize=None)
def qfactorial(n: int) -> Table:
    """The q-factorial: product of q-integers 1 through n (1 for n = 0)."""
    width = packed_width(packed_qfactorial(n, 0))
    return unpack(width, packed_qfactorial(n, width))


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> Table:
    """Gaussian binomial coefficient as an exact polynomial in q."""
    width = packed_width(packed_qbinomial(n, k, 0))
    return unpack(width, packed_qbinomial(n, k, width))


def _monomial(i: int, k: int, c: int) -> str:
    parts = [str(abs(c))] if abs(c) != 1 or i == k == 0 else []
    for name, degree in (("p", i), ("q", k)):
        if degree:
            parts.append(name if degree == 1 else f"{name}^{degree}")
    return "*".join(parts)


def text(table: Table) -> str:
    """The polynomial in p and q, terms by (p-degree, q-degree) ascending, as in
    ``1 + 2*q - p^2*q^3``; the empty table prints as ``0``."""
    pieces = []
    for (i, k), c in sorted(table.items()):
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + _monomial(i, k, c))
    return " ".join(pieces) or "0"


def json_terms(table: Table) -> list[list]:
    """JSON form: [p_degree, q_degree, coefficient-string] triples, sorted by degree."""
    return [[i, k, str(c)] for (i, k), c in sorted(table.items())]
