"""The permutation containment identities: ``permcont1`` and ``permcont2``.

A permutation contains a pattern when its low restriction at the pattern's
size equals the pattern.  ``permcont1`` checks the maj generating functions
over involutions with a given low restriction against binomial/involution-
polynomial sums indexed by the pattern's j-set, plus the unrestricted
companion identity; ``permcont2`` checks the two-variable analog over all
permutations with given low restriction and standardized prefix, indexed by
the j2-set.  Both check through ``_cut_check`` of :mod:`qtab.containment`.

``permcont1_buckets``/``permcont2_buckets`` sweep the involutions or the
permutations of [total] once for every pattern size asked for at that total,
and ``permcont1_report``/``permcont2_report``, both ``_pattern_report``,
check one instance on the buckets.  ``sweep`` runs the report loops of
``qtab verify permcont1|permcont2``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .containment import IdentityReport, _cut_check, _pack, _suffix_majs
from .permutation import involution_words, permutations, word_low, word_std
from .weights import involution_weight_sum, m2_1_weight, pair_weight_sum, qlim1_weight

if TYPE_CHECKING:
    from .containment import Side
    from .weights import Table

__all__ = ["permcont1_buckets", "permcont1_report", "permcont2_buckets", "permcont2_report"]


def _tally_side(tally: Mapping[tuple[int, int], int]) -> Side:
    """A tally of counts by (p-degree, q-degree)."""
    return (
        lambda width, stride: _pack(tally.items(), width, stride),
        max([j for _, j in tally], default=-1),
    )


def permcont1_buckets(total: int, sizes: Sequence[int]) -> dict[int, dict]:
    """One sweep of the involutions of [total] for every pattern size m:
    counts of (0, the suffix maj past m), by low restriction at m.

    The sweep counts one key per involution with one ``Counter``: its prefix
    at the top size and its suffix majs at the cuts up to there.  The buckets
    fill from the distinct keys after.  In an involution the values 1..m sit
    at the positions w[:m], so the low restriction at m, those values in the
    order of their positions, depends only on that raw prefix and is computed
    once per prefix, as in ``permcont2_buckets``."""
    if any(m > total for m in sizes):
        raise ValueError("ambient size smaller than a pattern")
    top = max(sizes, default=0)
    keys = Counter((w[:top], *_suffix_majs(w)[: top + 1]) for w in involution_words(total))
    counts: dict[int, dict] = {m: {} for m in sizes}
    low_by_prefix: dict[tuple[int, ...], tuple[int, ...]] = {}
    for (prefix, *majs), count in keys.items():
        for m, bucket in counts.items():
            positions = prefix[:m]
            if (low := low_by_prefix.get(positions)) is None:
                low = tuple(sorted(range(1, m + 1), key=lambda v: positions[v - 1]))
                low_by_prefix[positions] = low
            tally, stat = bucket.setdefault(low, {}), (0, majs[m])
            tally[stat] = tally.get(stat, 0) + count
    return counts


def _pattern_report(
    report: IdentityReport, weight_sum: Mapping[int, Table], weight_of: Callable,
    sizes: tuple[int, ...], by_key: dict, m: int, n: int,
) -> IdentityReport:
    """The overall check on every bucket, then one per pattern on its own
    bucket: sigma of size sizes[0], and for pairs tau of size sizes[1].  A
    pattern weight's terms are monomials, so its count row reads 1 per cut."""
    pair, offset, merged = len(sizes) == 2, n - sizes[0], Counter()
    for tally in by_key.values():
        merged.update(tally)
    overall = "all permutations" if pair else "all involutions"
    _cut_check(report, overall, _tally_side(merged), weight_sum, pair, m, n, offset)
    for patterns in itertools.product(*map(permutations, sizes)):
        weight = weight_of(*patterns)
        instance = " ".join(f"{name}={p.compact()}" for name, p in zip(("sigma", "tau"), patterns))
        words = tuple(p.word for p in patterns)
        lhs = _tally_side(by_key.get(words if pair else words[0], {}))
        _cut_check(report, instance, lhs, weight, pair, m, n, offset, dict.fromkeys(weight, 1))
    return report


def permcont1_report(m: int, n: int, by_low: dict) -> IdentityReport:
    """Both involution identities at pattern size m, free size n, on swept buckets;
    the q = 1 rows double-check the plain count over binomials and involutions."""
    report = IdentityReport("permcont1", {"m": m, "n": n})
    # only the pair cut terms read their m
    return _pattern_report(report, involution_weight_sum(m), qlim1_weight, (m,), by_low, 0, n)


def permcont2_buckets(total: int, pairs: Sequence[tuple[int, int]]) -> dict[tuple[int, int], dict]:
    """One sweep of the permutations of [total] for every pattern-size pair (a, b):
    counts of (imaj of the high restriction at a, maj of the suffix past b) by
    (low restriction at a, standardized prefix at b).  That imaj is the maj of
    the inverse word past a, so one suffix-maj pass over the word and one over
    its inverse serve every a and b.

    The standardized prefix at b depends only on the raw prefix w[:b], and the
    low restriction at a only on the positions inv[:a] of the values 1..a, so
    each is computed once per raw key and looked up after.  The sweep keeps a
    column per size, one entry per permutation: the interned id of (low
    restriction, imaj) at each a, and of (standardized prefix, maj) at each
    b.  The bucket of (a, b) counts the id pairs of the columns of a and b
    together."""
    if any(total < max(pair) for pair in pairs):
        raise ValueError("ambient size smaller than a pattern")
    counts: dict[tuple[int, int], dict] = {pair: {} for pair in pairs}
    lows: dict[int, list[int]] = {a: [] for a, _ in counts}
    heads: dict[int, list[int]] = {b: [] for _, b in counts}
    low_by_positions: dict[tuple[int, ...], tuple[int, ...]] = {}
    std_by_prefix: dict[tuple[int, ...], tuple[int, ...]] = {}
    ids: dict[tuple[tuple[int, ...], int], int] = {}
    inv = [0] * total
    for w in itertools.permutations(range(1, total + 1)):
        for i, v in enumerate(w, start=1):
            inv[v - 1] = i
        imajs, majs = _suffix_majs(inv), _suffix_majs(w)
        for a, column in lows.items():
            key = tuple(inv[:a])
            if (low := low_by_positions.get(key)) is None:
                low = low_by_positions[key] = word_low(w, a)
            column.append(ids.setdefault((low, imajs[a]), len(ids)))
        for b, column in heads.items():
            key = w[:b]
            if (head := std_by_prefix.get(key)) is None:
                head = std_by_prefix[key] = word_std(key)
            column.append(ids.setdefault((head, majs[b]), len(ids)))
    keys = list(ids)
    for (a, b), bucket in counts.items():
        for (low_id, head_id), count in Counter(zip(lows[a], heads[b])).items():
            (low, imaj), (head, maj) = keys[low_id], keys[head_id]
            bucket.setdefault((low, head), {})[imaj, maj] = count
    return counts


def permcont2_report(a: int, b: int, total: int, by_key: dict) -> IdentityReport:
    """Both pair identities for patterns of sizes a and b in [total], on swept buckets,
    against Gaussian binomials, the two-variable maj polynomial and the j2-sets."""
    report = IdentityReport("permcont2", {"a": a, "b": b, "total": total})
    weight_sum = pair_weight_sum(a, b)
    return _pattern_report(report, weight_sum, m2_1_weight, (a, b), by_key, total - a, total - b)


def sweep(which: str, k: int, cap: int) -> list[IdentityReport]:
    """The reports of ``qtab verify permcont1|permcont2`` (``sweep_reports``): one
    sweep per ambient size up to cap, whose buckets go before the next sweep,
    with the reports put in pattern-size order."""
    reports = []
    for total in range(cap + 1):
        sizes = range(min(k, total) + 1)
        if which == "permcont1":
            swept = permcont1_buckets(total, sizes)
            reports += [permcont1_report(m, total - m, swept.pop(m)) for m in sizes]
        else:
            pairs = list(itertools.product(sizes, sizes))
            swept = permcont2_buckets(total, pairs)
            reports += [permcont2_report(*ab, total, swept.pop(ab)) for ab in pairs]
    return sorted(reports, key=lambda r: tuple(r.params.values()))
