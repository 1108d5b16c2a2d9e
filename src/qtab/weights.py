"""The containment theorem weights: a coefficient table per cut size j.

Each exact identity of :mod:`qtab.containment` and each limit theorem of
:mod:`qtab.limits` is a sum over cut sizes j of a weight w(j) times a cut
term.  The weights are defined here once: the pattern weights
``qlim1_weight`` (read off the j-set of a permutation), ``m2_1_weight`` (the
j2-set of a pair), ``m3_weight`` and ``m3_1_weight`` (skew maj sums inside a
tableau shape), and the weight sums W(j) over all patterns of a size
(``involution_weight_sum``, ``pair_weight_sum``).

A weight w(j) is a polynomial in p and q held as a plain table
``{(i, k): c}`` of its nonzero coefficients c of p^i q^k: q marks the maj
side and p the imaj side.  Its readers need no polynomial type: ``evaluate``,
the one table evaluator, gives its exact value at (p, q) to the limits and to
``BivarPoly.evaluate``, and ``qtab verify`` packs a table or compares it with
a tally.  The skew maj sums and the q-factorials are read off the digits of
packed values (``tableau.f_coefficients``, ``packed_qfactorial``), and a
product of a p side and a q side is the outer product of their coefficient
lists, so no formal polynomial is built.

Each weight is computed once per pattern, or once per pattern size for the
sums, and returned read-only; the tableau weights depend on the pattern's
shape only.  The j-sets and the tableau functions are imported by
the weights that read them, so a limit over permutation patterns loads no
tableau code and one over tableau patterns no permutation code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .polynomial import packed_digits, packed_qfactorial, packed_width
from .stats import t_count

if TYPE_CHECKING:
    from .permutation import Permutation
    from .tableau import Partition

__all__ = [
    "qlim1_weight",
    "m2_1_weight",
    "m3_weight",
    "m3_1_weight",
    "involution_weight_sum",
    "pair_weight_sum",
    "evaluate",
]

# the coefficients c of p^i q^k, by (i, k), nonzero only
Table = Mapping[tuple[int, int], int]


def evaluate(table: Table, p: Fraction, q: Fraction) -> Fraction:
    """A coefficient table at (p, q), exactly: with p = a/b, q = r/s and P, Q the
    largest degrees, the terms are summed as integers c a^i b^(P-i) r^k s^(Q-k)
    over b^P s^Q, so one ``Fraction`` is built."""
    top_p = max([i for i, _ in table], default=0)
    top_q = max([k for _, k in table], default=0)
    a, b, r, s = p.numerator, p.denominator, q.numerator, q.denominator
    total = sum([
        c * a**i * b ** (top_p - i) * r**k * s ** (top_q - k) for (i, k), c in table.items()
    ])
    return Fraction(total, b**top_p * s**top_q)


def _frozen(tables: dict[int, dict[tuple[int, int], int]]) -> Mapping[int, Table]:
    return MappingProxyType({j: MappingProxyType(table) for j, table in tables.items()})


def _add_product(
    table: dict, p_side: Sequence[int], q_side: Sequence[int], scale: int = 1
) -> dict:
    """Add scale (sum_i p_side[i] p^i) (sum_k q_side[k] q^k) to the table."""
    for i, c in enumerate(p_side):
        if c:
            for k, d in enumerate(q_side):
                if d:
                    table[i, k] = table.get((i, k), 0) + scale * c * d
    return table


def _qfactorial(n: int) -> list[int]:
    """The coefficients of [n]_q!, lowest first, which sum to n!."""
    width = packed_width(math.factorial(n))
    return packed_digits(width, packed_qfactorial(n, width))


@lru_cache(maxsize=None)
def qlim1_weight(sigma: Permutation) -> Mapping[int, Table]:
    """q^(maj of sigma's suffix past j), on the j-set of sigma."""
    from .jsets import j_set

    return _frozen({j: {(0, sigma.suffix(j).maj()): 1} for j in j_set(sigma)})


@lru_cache(maxsize=None)
def m2_1_weight(sigma: Permutation, tau: Permutation) -> Mapping[int, Table]:
    """p^(imaj of tau's j highest values) q^(maj of sigma's suffix past j), on the j2-set."""
    from .jsets import j2_set

    return _frozen({
        j: {(tau.restrict_high(j).imaj(), sigma.suffix(j).maj()): 1}
        for j in j2_set(sigma, tau)
    })


def _inner_sums(alpha: Partition, beta: Partition | None) -> Mapping[int, Table]:
    """By size j, the sum of f_{beta/mu}(p) f_{alpha/mu}(q) over the shapes mu of
    size j inside both, or of f_{alpha/mu}(q) over those inside alpha when beta
    is None."""
    from .tableau import SkewShape, f_coefficients, partitions_inside

    top = alpha.size if beta is None else min(alpha.size, beta.size)
    tables = {}
    for j in range(top + 1):
        table = tables[j] = {}
        for mu in partitions_inside(j, alpha):
            if beta is None:
                _add_product(table, (1,), f_coefficients(SkewShape(alpha, mu)))
            elif beta.contains(mu):
                p_side = f_coefficients(SkewShape(beta, mu))
                _add_product(table, p_side, f_coefficients(SkewShape(alpha, mu)))
    return _frozen(tables)


@lru_cache(maxsize=None)
def m3_weight(alpha: Partition) -> Mapping[int, Table]:
    """Sum of f_{alpha/mu}(q) over the inner shapes mu of size j."""
    return _inner_sums(alpha, None)


@lru_cache(maxsize=None)
def m3_1_weight(alpha: Partition, beta: Partition) -> Mapping[int, Table]:
    """Sum of f_{beta/mu}(p) f_{alpha/mu}(q) over the inner shapes mu of size j in both."""
    return _inner_sums(alpha, beta)


@lru_cache(maxsize=None)
def involution_weight_sum(m: int) -> Mapping[int, Table]:
    """W(j) = t_j C(m, j) [m-j]_q!, the involution weights summed over the patterns of size m."""
    return _frozen({
        j: _add_product({}, (1,), _qfactorial(m - j), t_count(j) * math.comb(m, j))
        for j in range(m + 1)
    })


@lru_cache(maxsize=None)
def pair_weight_sum(a: int, b: int) -> Mapping[int, Table]:
    """W(j) = j! C(a, j) C(b, j) [b-j]_p! [a-j]_q!, the pair weights summed over the
    patterns of sizes a and b."""
    return _frozen({
        j: _add_product(
            {}, _qfactorial(b - j), _qfactorial(a - j),
            math.factorial(j) * math.comb(a, j) * math.comb(b, j),
        )
        for j in range(min(a, b) + 1)
    })
