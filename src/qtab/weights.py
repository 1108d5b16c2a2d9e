"""The containment theorem weights: a polynomial per cut size j.

Each exact identity of :mod:`qtab.containment` and each limit theorem of
:mod:`qtab.limits` is a sum over cut sizes j of a weight w(j) times a cut
term.  The weights are defined here once: the pattern weights
``qlim1_weight`` (read off the j-set of a permutation), ``m2_1_weight`` (the
j2-set of a pair), ``m3_weight`` and ``m3_1_weight`` (skew maj sums inside a
tableau shape), and the weight sums W(j) over all patterns of a size
(``involution_weight_sum``, ``pair_weight_sum``).  In each polynomial q marks
the maj side and p the imaj side.

Each weight is computed once per pattern, or once per pattern size for the
sums, and returned read-only; the tableau weights depend on the pattern's
shape only.  The j-sets and the tableau functions are imported by
the weights that read them, so a limit over permutation patterns loads no
tableau code and one over tableau patterns no permutation code.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .bivar import ZERO, BivarPoly, qfactorial
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
]


@lru_cache(maxsize=None)
def qlim1_weight(sigma: Permutation) -> Mapping[int, BivarPoly]:
    """q^(maj of sigma's suffix past j), on the j-set of sigma."""
    from .jsets import j_set

    return MappingProxyType(
        {j: BivarPoly.monomial(0, sigma.suffix(j).maj()) for j in j_set(sigma)}
    )


@lru_cache(maxsize=None)
def m2_1_weight(sigma: Permutation, tau: Permutation) -> Mapping[int, BivarPoly]:
    """p^(imaj of tau's j highest values) q^(maj of sigma's suffix past j), on the j2-set."""
    from .jsets import j2_set

    return MappingProxyType({
        j: BivarPoly.monomial(tau.restrict_high(j).imaj(), sigma.suffix(j).maj())
        for j in j2_set(sigma, tau)
    })


@lru_cache(maxsize=None)
def m3_weight(alpha: Partition) -> Mapping[int, BivarPoly]:
    """Sum of f_{alpha/mu}(q) over the inner shapes mu of size j."""
    from .tableau import SkewShape, f_poly, partitions_inside

    return MappingProxyType({
        j: sum((f_poly(SkewShape(alpha, mu)) for mu in partitions_inside(j, alpha)), ZERO)
        for j in range(alpha.size + 1)
    })


@lru_cache(maxsize=None)
def m3_1_weight(alpha: Partition, beta: Partition) -> Mapping[int, BivarPoly]:
    """Sum of f_{beta/mu}(p) f_{alpha/mu}(q) over the inner shapes mu of size j in both."""
    from .tableau import SkewShape, f_poly, partitions_inside

    return MappingProxyType({
        j: sum(
            (
                f_poly(SkewShape(beta, mu)).swap_variables() * f_poly(SkewShape(alpha, mu))
                for mu in partitions_inside(j, alpha)
                if beta.contains(mu)
            ),
            ZERO,
        )
        for j in range(min(alpha.size, beta.size) + 1)
    })


@lru_cache(maxsize=None)
def involution_weight_sum(m: int) -> Mapping[int, BivarPoly]:
    """W(j) = t_j C(m, j) [m-j]_q!, the involution weights summed over the patterns of size m."""
    return MappingProxyType(
        {j: t_count(j) * math.comb(m, j) * qfactorial(m - j) for j in range(m + 1)}
    )


@lru_cache(maxsize=None)
def pair_weight_sum(a: int, b: int) -> Mapping[int, BivarPoly]:
    """W(j) = j! C(a, j) C(b, j) [b-j]_p! [a-j]_q!, the pair weights summed over the
    patterns of sizes a and b."""
    return MappingProxyType({
        j: math.factorial(j)
        * math.comb(a, j)
        * math.comb(b, j)
        * qfactorial(b - j).swap_variables()
        * qfactorial(a - j)
        for j in range(min(a, b) + 1)
    })
