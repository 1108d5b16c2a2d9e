"""Permutation restrictions, pattern containment by enumeration, and the
one-instance checks of ``permcont1`` and ``permcont2``.

A permutation contains a pattern when its low restriction at the pattern's
size equals the pattern.  ``enum_inv_containing`` and
``enum_perm_containing`` list the containing involutions and permutations by
brute force.  ``verify_permcont1``/``verify_permcont2`` run the reports of
:mod:`qtab.permcont` on the buckets of one size (one size pair).
"""

from __future__ import annotations

from typing import Sequence

from qtab.containment import IdentityReport
from qtab.permcont import permcont1_buckets, permcont1_report, permcont2_buckets, permcont2_report
from qtab.permutation import Permutation, involutions, permutations, word_low, word_std


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def standardize(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to a sequence of distinct integers."""
    return Permutation(word_std(values))


def word_is_involution(word: Sequence[int]) -> bool:
    return all(word[v - 1] == i for i, v in enumerate(word, start=1))


def is_involution(perm: Permutation) -> bool:
    return word_is_involution(perm.word)


def restrict_low(perm: Permutation, k: int) -> Permutation:
    """Subword of values <= k; already a permutation of [k]."""
    perm._check_cut(k)
    return Permutation(word_low(perm.word, k))


def prefix(perm: Permutation, k: int) -> Permutation:
    """Standardization of the first k letters."""
    perm._check_cut(k)
    return Permutation(word_std(perm.word[:k]))


def contains(perm: Permutation, pattern: Permutation) -> bool:
    """Whether the low restriction at the pattern's size equals the pattern."""
    if pattern.size > perm.size:
        return False
    return restrict_low(perm, pattern.size) == pattern


def enum_inv_containing(pattern: Permutation, n: int) -> list[Permutation]:
    """Involutions of [n] whose low restriction equals the pattern."""
    return [pi for pi in involutions(n) if contains(pi, pattern)]


def enum_perm_containing(sigma: Permutation, tau: Permutation, n: int) -> list[Permutation]:
    """Permutations of [n] with low restriction sigma and standardized prefix tau."""
    a, b = sigma.size, tau.size
    if a > n or b > n:
        return []
    return [
        pi
        for pi in permutations(n)
        if restrict_low(pi, a) == sigma and prefix(pi, b) == tau
    ]


def verify_permcont1(m: int, n: int) -> IdentityReport:
    """Both involution identities at pattern size m, free size n: the one-size sweep."""
    return permcont1_report(m, n, permcont1_buckets(n + m, [m])[m])


def verify_permcont2(a: int, b: int, total: int) -> IdentityReport:
    """Both pair identities for patterns of sizes a and b in [total]: the one-pair sweep."""
    return permcont2_report(a, b, total, permcont2_buckets(total, [(a, b)])[a, b])
