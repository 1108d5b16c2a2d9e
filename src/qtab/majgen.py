"""The skew maj identities: ``majgen`` and ``majgen1``.

``majgen`` checks the sum of the skew maj polynomials f_{lam/alpha} over all
outer shapes lam of a size against the inner skew sums of alpha
(``m3_weight``) times binomials and involution polynomials; ``majgen1`` is
the pair version over outer shapes containing both bases, against
``m3_1_weight``.  Their q = 1 (p = q = 1) specializations are the classical
skew enumeration identities.  Both check through ``_cut_check`` of
:mod:`qtab.containment`.

The left sides enumerate every standard filling of every outer shape.  One
walk from a base up to the largest added size tallies them all
(``_chain_walk``): a filling of lam/base with d cells is a chain of shapes
from base to lam, adding the cell of entry i at step i, so each chain prefix
is a filling of a smaller outer shape, visited once.  ``sweep`` runs the
report loops of ``qtab verify majgen|majgen1``.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache
from typing import Iterable

from .containment import IdentityReport, _cut_check
from .tableau import Partition, SkewShape, partitions, partitions_inside, skew_syt_count
from .weights import m3_1_weight, m3_weight

__all__ = ["verify_majgen", "verify_majgen1"]

# (maj, count) terms of one skew shape's fillings, by maj; one tuple of them
# per outer shape of a size
Terms = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _partition_list(n: int) -> tuple[Partition, ...]:
    return tuple(partitions(n))


def _chain_walk(base: Partition, top: int) -> tuple[tuple[Terms, ...], ...]:
    """``_outer_majs(base, d)`` for every d <= top, from one depth-first walk of
    the chains that add one cell at a time to base, up to top cells.

    Step i adds entry i in a row r that is the first or shorter than the row
    above, and entry i - 1 is a descent when r is below the row of entry
    i - 1.  Each chain prefix is tallied by its shape, the row lengths padded
    to base.length + top rows, and its maj.  The walk keeps its own stack of
    (shape, row of the last entry, maj, entries placed), so no cap on the
    size runs into the interpreter's recursion limit."""
    rows = base.length + top
    tally = Counter()
    stack = [((*base.parts, *[0] * top), rows, 0, 0)]
    while stack:
        parts, row, maj, i = stack.pop()
        tally[parts, maj] += 1
        if i < top:
            for r in range(rows):
                if r == 0 or parts[r] < parts[r - 1]:
                    grown = (*parts[:r], parts[r] + 1, *parts[r + 1 :])
                    stack.append((grown, r, maj + i if r > row else maj, i + 1))
    by_shape: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (parts, maj), count in sorted(tally.items()):
        by_shape.setdefault(parts, []).append((maj, count))
    return tuple(
        tuple(
            tuple(by_shape[(*lam.parts, *[0] * (rows - lam.length))]) if lam.contains(base) else ()
            for lam in _partition_list(base.size + added)
        )
        for added in range(top + 1)
    )


# the deepest chain walk made from each base, which holds every shallower one
_WALKS: dict[Partition, tuple[tuple[Terms, ...], ...]] = {}


def _outer_majs(base: Partition, added: int) -> tuple[Terms, ...]:
    """The (maj, count) terms of f_{lam/base} for each lam in ``_partition_list(|base| +
    added)``, in that order; none where lam does not contain base.  Read off the
    deepest chain walk from base, which walks deeper when added is past it."""
    walk = _WALKS.get(base)
    if walk is None or len(walk) <= added:
        walk = _WALKS[base] = _chain_walk(base, added)
    return walk[added]


def _pack_q(terms: Iterable[tuple[int, int]], width: int) -> int:
    """The terms (j, c), read as c q^j, at q = 2^width."""
    total = 0
    for j, c in terms:
        total += c << width * j
    return total


@lru_cache(maxsize=None)
def _outer_packed(base: Partition, added: int, width: int) -> tuple[int, ...]:
    """``_outer_majs(base, added)``, each f_{lam/base} at q = 2^width."""
    return tuple(_pack_q(terms, width) for terms in _outer_majs(base, added))


@lru_cache(maxsize=None)
def _inner_counts(alpha: Partition) -> dict[int, int]:
    """By size, the sum of f^{alpha/mu} over the shapes mu inside alpha."""
    return {
        size: sum(skew_syt_count(SkewShape(alpha, mu)) for mu in partitions_inside(size, alpha))
        for size in range(alpha.size + 1)
    }


@lru_cache(maxsize=None)
def _common_inner_counts(alpha: Partition, beta: Partition) -> dict[int, int]:
    """By size, the sum of f^{beta/mu} f^{alpha/mu} over the shapes mu inside both."""
    counts: dict[int, int] = {}
    for size in range(min(alpha.size, beta.size) + 1):
        for mu in partitions_inside(size, alpha):
            if beta.contains(mu):
                product = skew_syt_count(SkewShape(beta, mu)) * skew_syt_count(SkewShape(alpha, mu))
                counts[size] = counts.get(size, 0) + product
    return counts


def verify_majgen(alpha: Partition, n: int) -> IdentityReport:
    """Skew maj sums over all outer shapes (enumerated) vs binomial/involution closed form.

    Also checks the q = 1 specialization against the classical count computed
    independently with plain binomials, involution numbers, and skew tableau
    counts.
    """
    report = IdentityReport("majgen", {"alpha": str(alpha), "n": n})
    lhs = (
        lambda width, _: sum(_outer_packed(alpha, n, width)),
        max((terms[-1][0] for terms in _outer_majs(alpha, n) if terms), default=-1),
    )
    weight, counts = m3_weight(alpha), _inner_counts(alpha)
    _cut_check(report, f"alpha={alpha} n={n}", lhs, weight, False, 0, n, n - alpha.size, counts)
    return report


def verify_majgen1(alpha: Partition, beta: Partition, m: int, n: int) -> IdentityReport:
    """Pair version over outer shapes containing both bases.

    Nonempty only when m + |alpha| = n + |beta|; inconsistent data verifies
    trivially as 0 = 0.  The p = q = 1 row checks the classical pair count.
    """
    report = IdentityReport(
        "majgen1", {"alpha": str(alpha), "beta": str(beta), "m": m, "n": n}
    )
    lhs, weight, counts = ((lambda width, stride: 0), -1), {}, {}
    if m + alpha.size == n + beta.size:
        # sum of f_{lam/alpha}(p) f_{lam/beta}(q) over the shapes lam of size
        # |alpha| + m = |beta| + n, which are outer to both
        p_majs, q_majs = _outer_majs(alpha, m), _outer_majs(beta, n)

        def pack(width: int, stride: int) -> int:
            p_side = _outer_packed(alpha, m, width * stride)
            return sum(map(operator.mul, p_side, _outer_packed(beta, n, width)))

        degree = max((q[-1][0] for p, q in zip(p_majs, q_majs) if p and q), default=-1)
        lhs = pack, degree
        weight, counts = m3_1_weight(alpha, beta), _common_inner_counts(alpha, beta)
    instance = f"alpha={alpha} beta={beta} m={m} n={n}"
    _cut_check(report, instance, lhs, weight, True, m, n, n - alpha.size, counts)
    return report


def sweep(which: str, k: int, cap: int) -> list[IdentityReport]:
    """The reports of ``qtab verify majgen|majgen1`` (``sweep_reports``) over the
    bases of size up to k and the added sizes up to cap; one chain walk per
    base, to cap, serves every added size."""
    shapes = [shape for size in range(k + 1) for shape in _partition_list(size)]
    for base in shapes:
        _outer_majs(base, cap)
    if which == "majgen":
        return [verify_majgen(alpha, n) for alpha in shapes for n in range(cap + 1)]
    return [
        verify_majgen1(alpha, beta, m, n)
        for alpha in shapes
        for beta in shapes
        for m in range(cap + 1)
        if 0 <= (n := m + alpha.size - beta.size) <= cap
    ]
