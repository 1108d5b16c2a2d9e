"""The brute-force list of j-sets, and the j-set criterion and extension lemmas.

``j_sets_of`` lists the j-sets of all permutations of [n].  ``is_j_set``
decides j-set membership of any finite set from its merged difference
sequence (``psi`` of :mod:`qtab.jcriteria`): every psi block except the last
is an overpartition ending in an overlined 2, and the last block is (1) or
empty.  ``j_extend_ok`` and ``j2_extend_ok`` decide whether appending one
element keeps a j-set a j-set, or a j2-set a j2-set.  The tests check each
against the brute-force lists; no command runs them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from qtab.jcriteria import Entry, is_j2_set, psi
from qtab.jsets import _j_set_word


@lru_cache(maxsize=None)
def j_sets_of(n: int) -> frozenset[frozenset[int]]:
    """All j-sets arising from permutations of [n] (brute force)."""
    return frozenset(_j_set_word(w) for w in itertools.permutations(range(1, n + 1)))


def is_overpartition(entries: Iterable[Entry]) -> bool:
    """Weakly decreasing positive entries, overlines only on a value's last occurrence."""
    entries = list(entries)
    values = [v for v, _ in entries]
    if any(v <= 0 for v in values):
        return False
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        return False
    for i, (v, over) in enumerate(entries):
        if over and any(u == v for u, _ in entries[i + 1 :]):
            return False
    return True


def is_j_set(values: Iterable[int]) -> bool:
    """Decide j-set membership from the merged difference sequence."""
    values = set(values)
    if 0 not in values:
        return False
    blocks = psi(values)
    for block in blocks[:-1]:
        if not is_overpartition(block):
            return False
    return blocks[-1] in ((), ((1, False),))


def j_extend_ok(j_values: Iterable[int], n: int) -> bool:
    """Whether appending n keeps a j-set a j-set.

    Requires a j-set with largest element m >= 2 and n > m.  True exactly
    when n = m + 1 or n - m >= m - M, where M is the largest element of the
    set that is <= m - 2 (0 qualifies, and is always present).
    """
    j_values = set(j_values)
    if not is_j_set(j_values):
        raise ValueError("not a j-set")
    m = max(j_values)
    if m < 2:
        raise ValueError("largest element must be at least 2")
    if n <= m:
        raise ValueError("extension point must exceed the largest element")
    if n == m + 1:
        return True
    reachable = max(x for x in j_values if x <= m - 2)
    return n - m >= m - reachable


def j2_extend_ok(j_values: Iterable[int], m: int) -> bool:
    """Whether appending (largest + m) keeps a j2-set a j2-set.

    Requires a j2-set with at least two elements; with top gap k between the
    two largest elements, the extension works exactly when m = 1 or m >= k.
    """
    ordered = sorted(set(j_values))
    if not is_j2_set(ordered):
        raise ValueError("not a j2-set")
    if len(ordered) < 2:
        raise ValueError("need at least two elements")
    if m < 1:
        raise ValueError("extension gap must be positive")
    k = ordered[-1] - ordered[-2]
    return m == 1 or m >= k
