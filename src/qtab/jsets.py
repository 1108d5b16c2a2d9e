"""j-sets and j2-sets of permutations, and their lists by size (brute force).

The j-set of a permutation collects the cut points j at which the
standardized prefix is an involution; the j2-set of a pair collects the cuts
where the prefix of one equals the low restriction of the other.  The
criteria that decide membership of an arbitrary set from its difference
sequence, and the generating function of the counts, are in
:mod:`qtab.jcriteria`; the test suite checks them against the lists here.

Brute-force j2-sets walk the cuts down from min(len sigma, len tau): a step
pops the last letter r of sigma's standardized prefix, lowers the letters
above r, and drops j from tau's low restriction.  The j-set of w is the
j2-set of (w, w^-1): the low restriction of w^-1 at j inverts the prefix.
The brute list of j2-sets of (w, w) stops each walk at its first kept cut
below the top and looks up the rest among the sets of the smaller words; it
walks ``bytes`` words, since n! bounds the sizes it can reach, while
``j_set``/``j2_set`` walk words of any length.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from .permutation import Permutation, word_low, word_std

__all__ = [
    "j_set",
    "j2_set",
    "j_sets_of",
    "j2_sets_of",
    "j2_count",
    "j2_counts",
]


def _j2_set_words(sigma: Sequence[int], tau: Sequence[int]) -> frozenset[int]:
    top = min(len(sigma), len(tau))
    pre, low, cuts = list(word_std(sigma[:top])), list(word_low(tau, top)), [0]
    for j in range(top, 0, -1):
        if pre == low:
            cuts.append(j)
        r = pre.pop()
        pre = [v - 1 if v > r else v for v in pre]
        low.remove(j)
    return frozenset(cuts)


def _j_set_word(word: Sequence[int]) -> frozenset[int]:
    inverse = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inverse[v - 1] = i
    return _j2_set_words(word, inverse)


def j_set(perm: Permutation) -> frozenset[int]:
    """Cut points whose standardized prefix is an involution; 0 always is."""
    return _j_set_word(perm.word)


def j2_set(sigma: Permutation, tau: Permutation) -> frozenset[int]:
    """Cut points j where the prefix of sigma equals the low restriction of tau."""
    return _j2_set_words(sigma.word, tau.word)


@lru_cache(maxsize=None)
def j_sets_of(n: int) -> frozenset[frozenset[int]]:
    """All j-sets arising from permutations of [n] (brute force)."""
    return frozenset(_j_set_word(w) for w in itertools.permutations(range(1, n + 1)))


def _j2_word_sets(n: int) -> Iterator[tuple[bytes, frozenset[int]]]:
    """Each w in S_n, as a ``bytes`` word, with J2(w, w), walking down from n to
    the first kept cut j < n and reading the cuts up to j from ``_j2_memo(j)``
    (see ``j2_sets_of``).  Those sets are shared objects, so n is added to
    each distinct one once, and the sets yielded are shared too.

    A step is three C calls: ``translate`` pops the last letter r of the
    standardized prefix and lowers the letters above r, ``replace`` drops j + 1
    from the low restriction, and the two words are compared.  The tables are
    built per call for letters up to n, so importing this module builds none."""
    if n == 0:
        yield b"", frozenset((0,))
        return
    # drop[r] maps v to v - 1 above r; letter[v] is the one-letter word v
    drop = [bytes(range(r + 1)) + bytes(range(r, 255)) for r in range(n + 1)]
    letter = [bytes((v,)) for v in range(n + 1)]
    memos = [_j2_memo(j) for j in range(n)]
    # J2(u, u) of the first kept cut -> that set with n added
    tops: dict[frozenset[int], frozenset[int]] = {}
    for w in map(bytes, itertools.permutations(range(1, n + 1))):
        pre = low = w
        for j in range(n - 1, -1, -1):
            pre = pre[:-1].translate(drop[pre[-1]])
            low = low.replace(letter[j + 1], b"")
            if pre == low:
                lower = memos[j][pre]
                yield w, tops.get(lower) or tops.setdefault(lower, lower | {n})
                break


@lru_cache(maxsize=None)
def _j2_memo(n: int) -> dict[bytes, frozenset[int]]:
    """J2(u, u) for every u in S_n, keyed by the ``bytes`` word of u, each
    distinct set one shared object."""
    return dict(_j2_word_sets(n))


@lru_cache(maxsize=None)
def j2_sets_of(n: int) -> frozenset[frozenset[int]]:
    """All j2-sets of pairs (pi, pi) over permutations of [n] (brute force).

    Every j2-set with largest element n arises this way, so this is the full
    list of j2-sets with maximum n.  Each walk stops at its first kept cut
    j < n, where u = std(w[:j]) = low_j(w), and takes J2(u, u) for the cuts up
    to j: for i <= j, std(w[:i]) = std(u[:i]) and low_i(w) = low_i(u).
    """
    return frozenset(cuts for _, cuts in _j2_word_sets(n))


def j2_count(n: int) -> int:
    """Number of j2-sets with largest element n, by brute force over [n]."""
    return len(j2_sets_of(n))


def j2_counts(n_max: int) -> list[int]:
    """``j2_count(n)`` for n = 0..n_max, walking each S_n once.

    The walk of S_n_max fills ``_j2_memo(j)`` for every j < n_max, and the
    distinct values of that memo are the j2-sets with maximum j.  The top size
    is not memoized: its n_max! words are not needed again.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    top = j2_count(n_max)
    return [len(set(_j2_memo(j).values())) for j in range(n_max)] + [top]
