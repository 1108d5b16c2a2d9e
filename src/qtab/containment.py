"""Containment enumerators and machine verification of the exact identities.

A permutation contains a pattern when its low restriction at the pattern's
size equals the pattern; a tableau contains another when its low restriction
does.  The ``verify_*`` functions each pit a brute-force enumeration of one
side of an identity against an independently assembled closed form and return
a structured report, so a failing instance is a reproducible fixture rather
than a bare assertion.  The identities verified:

* ``permcont1`` -- maj generating functions over involutions with a given low
  restriction, against binomial/involution-polynomial sums indexed by the
  pattern's j-set (plus the unrestricted companion identity);
* ``permcont2`` -- the two-variable analog over all permutations with given
  low restriction and standardized prefix, indexed by the j2-set;
* ``permtotab`` -- transport of the j-set sums to skew tableau polynomials
  (single and pair versions);
* ``majgen``   -- skew-shape maj sums over all outer shapes against inner
  skew sums (single and pair versions), whose q = 1 specializations are the
  classical skew enumeration identities.

Each identity is a sum over cut sizes j of a weight w(j) times a cut term
T(j), and so is each limit theorem, which is the ratio of two such sums.  The
weights, a polynomial per j, are defined once in :mod:`qtab.weights` and
re-exported here: the pattern weights ``qlim1_weight``, ``m2_1_weight``,
``m3_weight`` and ``m3_1_weight``, and the weight sums W(j) over all patterns
of a size (``involution_weight_sum``, ``pair_weight_sum``).
``involution_cut_sum`` and ``pair_cut_sum`` are the two polynomial sums over
the cuts.  The reports check these polynomials, and :mod:`qtab.limits`
evaluates the same ones at rational points without loading this module.

``permcont1_buckets``/``permcont2_buckets`` sweep the involutions or the
permutations of [total] once for every pattern size asked for at that total,
and ``permcont1_report``/``permcont2_report`` check one instance on the
buckets; ``verify_permcont1``/``verify_permcont2`` are the one-instance case.
Likewise ``permtotab_reports``/``permtotab_pair_reports`` check every cut of
one tableau (pair) from one j-set (j2-set) per permutation (pair), and
``verify_permtotab``/``verify_permtotab_pair`` are the one-cut case.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .jsets import j2_set, j_set
from .permutation import Permutation, involution_words, involutions, permutations
from .permutation import word_low, word_std
from .polynomial import ZERO, BivarPoly, qbinomial
from .rsk import rs
from .stats import a_poly, t_count, t_poly
from .tableau import (
    Partition,
    SkewShape,
    Tableau,
    conjecture_probe,
    enumerate_syt,
    f_poly_enum,
    partitions,
    partitions_inside,
    skew_syt_count,
)
from .weights import (
    involution_weight_sum,
    m2_1_weight,
    m3_1_weight,
    m3_weight,
    pair_weight_sum,
    qlim1_weight,
)

__all__ = [
    "contains",
    "tab_contains",
    "pair_contains",
    "enum_inv_containing",
    "enum_perm_containing",
    "enum_tab_containing",
    "enum_pair_containing",
    "IdentityReport",
    "qlim1_weight",
    "m2_1_weight",
    "m3_weight",
    "m3_1_weight",
    "involution_weight_sum",
    "pair_weight_sum",
    "involution_cut_sum",
    "pair_cut_sum",
    "perms_with_insertion_tableau",
    "perms_with_recording_tableau",
    "permcont1_buckets",
    "permcont1_report",
    "verify_permcont1",
    "permcont2_buckets",
    "permcont2_report",
    "verify_permcont2",
    "permtotab_reports",
    "verify_permtotab",
    "permtotab_pair_reports",
    "verify_permtotab_pair",
    "verify_majgen",
    "verify_majgen1",
    "conjecture_probe",
]


def contains(perm: Permutation, pattern: Permutation) -> bool:
    """Whether the low restriction at the pattern's size equals the pattern."""
    if pattern.size > perm.size:
        return False
    return perm.restrict_low(pattern.size) == pattern


def tab_contains(tab: Tableau, pattern: Tableau) -> bool:
    if pattern.size > tab.size:
        return False
    return tab.restrict_low(pattern.size) == pattern


def pair_contains(p_tab: Tableau, q_tab: Tableau, a_tab: Tableau, b_tab: Tableau) -> bool:
    return tab_contains(p_tab, a_tab) and tab_contains(q_tab, b_tab)


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
        if pi.restrict_low(a) == sigma and pi.prefix(b) == tau
    ]


def enum_tab_containing(pattern: Tableau, n: int) -> list[Tableau]:
    """Standard Young tableaux of size n containing the pattern."""
    out = []
    for shape in partitions(n):
        for tab in enumerate_syt(SkewShape.straight(shape)):
            if tab_contains(tab, pattern):
                out.append(tab)
    return out


def enum_pair_containing(a_tab: Tableau, b_tab: Tableau, n: int) -> list[tuple[Tableau, Tableau]]:
    """Same-shape tableau pairs of size n containing the given pair."""
    out = []
    for shape in partitions(n):
        tabs = list(enumerate_syt(SkewShape.straight(shape)))
        firsts = [t for t in tabs if tab_contains(t, a_tab)]
        seconds = [t for t in tabs if tab_contains(t, b_tab)]
        out.extend((p, q) for p in firsts for q in seconds)
    return out


class IdentityReport:
    """Outcome of checking one identity over a grid of instances.  Reports
    with equal fields are equal; being mutable, they are not hashable."""

    def __init__(
        self, theorem: str, params: dict, checked: int = 0, failures: list[dict] | None = None
    ):
        self.theorem = theorem
        self.params = params
        self.checked = checked
        self.failures = [] if failures is None else failures

    def _fields(self) -> tuple:
        return (self.theorem, self.params, self.checked, self.failures)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"IdentityReport(theorem={self.theorem!r}, params={self.params!r}, "
            f"checked={self.checked!r}, failures={self.failures!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance: str, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append({"instance": instance, "lhs": str(lhs), "rhs": str(rhs)})

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "range": self.params,
            "checked": self.checked,
            "failures": self.failures,
        }

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.theorem} {json.dumps(self.params, sort_keys=True)} "
            f"checked={self.checked} failures={len(self.failures)} {status}"
        )


@lru_cache(maxsize=None)
def _involution_cut_term(n: int, k: int) -> BivarPoly:
    return qbinomial(n, k) * t_poly(k)


@lru_cache(maxsize=None)
def _pair_cut_term(m: int, n: int, k: int) -> BivarPoly:
    return qbinomial(m, k).swap_variables() * qbinomial(n, k) * a_poly(k)


def involution_cut_sum(weight: Mapping[int, BivarPoly], m: int, n: int) -> BivarPoly:
    """sum_j w(j) [n choose k]_q t_k(q), k = n - m + j, for patterns of size m and
    n free points; cuts with k < 0 drop out."""
    total = ZERO
    for j, w in weight.items():
        if (k := n - m + j) >= 0:
            total = total + w * _involution_cut_term(n, k)
    return total


def pair_cut_sum(weight: Mapping[int, BivarPoly], a: int, b: int, m: int, n: int) -> BivarPoly:
    """sum_j w(j) [m choose k]_p [n choose k]_q A_k(p, q), k = n - a + j, for patterns
    of sizes a and b with m + a = n + b; cuts with k < 0 drop out."""
    if m + a != n + b:
        raise ValueError("pair cut sum needs m + a = n + b")
    total = ZERO
    for j, w in weight.items():
        if (k := n - a + j) >= 0:
            total = total + w * _pair_cut_term(m, n, k)
    return total


def _maj_poly(maj_counts: dict[int, int]) -> BivarPoly:
    return BivarPoly({(0, m): c for m, c in maj_counts.items()})


def _suffix_majs(word: Sequence[int]) -> list[int]:
    """maj(word[c:]) for every cut c, in one pass: each cut adds the descents past it."""
    majs, acc, past = [0] * (len(word) + 1), 0, 0
    for c in range(len(word) - 2, -1, -1):
        past += word[c] > word[c + 1]
        acc += past
        majs[c] = acc
    return majs


def permcont1_buckets(total: int, sizes: Sequence[int]) -> dict[int, dict]:
    """One sweep of the involutions of [total] for every pattern size m:
    counts of the suffix maj past m, by low restriction at m.

    In an involution the values 1..m sit at the positions w[:m], so the low
    restriction at m depends only on that raw prefix and is computed once per
    prefix, as in ``permcont2_buckets``."""
    if any(m > total for m in sizes):
        raise ValueError("ambient size smaller than a pattern")
    counts: dict[int, dict] = {m: {} for m in sizes}
    low_by_prefix: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in involution_words(total):
        majs = _suffix_majs(w)
        for m, bucket in counts.items():
            key = w[:m]
            if (low := low_by_prefix.get(key)) is None:
                low = low_by_prefix[key] = word_low(w, m)
            tally = bucket.setdefault(low, {})
            tally[majs[m]] = tally.get(majs[m], 0) + 1
    return counts


def permcont1_report(m: int, n: int, by_low: dict) -> IdentityReport:
    """Both involution identities at pattern size m, free size n, on swept buckets;
    the q = 1 rows double-check the plain count over binomials and involutions."""
    report = IdentityReport("permcont1", {"m": m, "n": n})
    overall = sum(map(_maj_poly, by_low.values()), ZERO)
    report.record("all involutions", overall, involution_cut_sum(involution_weight_sum(m), m, n))

    for sigma in permutations(m):
        lhs = _maj_poly(by_low.get(sigma.word, {}))
        weight = qlim1_weight(sigma)
        count_rhs = sum(math.comb(n, k) * t_count(k) for j in weight if (k := n - m + j) >= 0)
        report.record(f"sigma={sigma.compact()}", lhs, involution_cut_sum(weight, m, n))
        report.record(
            f"sigma={sigma.compact()} q=1 count",
            lhs.evaluate(1, 1),
            Fraction(count_rhs),
        )
    return report


def verify_permcont1(m: int, n: int) -> IdentityReport:
    """Both involution identities at pattern size m, free size n: the one-size sweep."""
    return permcont1_report(m, n, permcont1_buckets(n + m, [m])[m])


def permcont2_buckets(total: int, pairs: Sequence[tuple[int, int]]) -> dict[tuple[int, int], dict]:
    """One sweep of the permutations of [total] for every pattern-size pair (a, b):
    counts of (imaj of the high restriction at a, maj of the suffix past b) by
    (low restriction at a, standardized prefix at b).  That imaj is the maj of
    the inverse word past a, so one suffix-maj pass over the word and one over
    its inverse serve every a and b.

    The standardized prefix at b depends only on the raw prefix w[:b], and the
    low restriction at a only on the positions inv[:a] of the values 1..a, so
    each is computed once per raw key and looked up after."""
    if any(total < max(pair) for pair in pairs):
        raise ValueError("ambient size smaller than a pattern")
    counts: dict[tuple[int, int], dict] = {pair: {} for pair in pairs}
    sizes_a, sizes_b = {a for a, _ in counts}, {b for _, b in counts}
    low_by_positions: dict[tuple[int, ...], tuple[int, ...]] = {}
    std_by_prefix: dict[tuple[int, ...], tuple[int, ...]] = {}
    inv = [0] * total
    for w in itertools.permutations(range(1, total + 1)):
        for i, v in enumerate(w, start=1):
            inv[v - 1] = i
        imajs, majs = _suffix_majs(inv), _suffix_majs(w)
        lows, heads = {}, {}
        for a in sizes_a:
            key = tuple(inv[:a])
            if (low := low_by_positions.get(key)) is None:
                low = low_by_positions[key] = word_low(w, a)
            lows[a] = low
        for b in sizes_b:
            key = w[:b]
            if (head := std_by_prefix.get(key)) is None:
                head = std_by_prefix[key] = word_std(key)
            heads[b] = head
        for (a, b), bucket in counts.items():
            tally, stat = bucket.setdefault((lows[a], heads[b]), {}), (imajs[a], majs[b])
            tally[stat] = tally.get(stat, 0) + 1
    return counts


def permcont2_report(a: int, b: int, total: int, by_key: dict) -> IdentityReport:
    """Both pair identities for patterns of sizes a and b in [total], on swept buckets,
    against Gaussian binomials, the two-variable maj polynomial and the j2-sets."""
    report = IdentityReport("permcont2", {"a": a, "b": b, "total": total})
    m, n = total - a, total - b
    overall = sum(map(BivarPoly, by_key.values()), ZERO)
    report.record("all permutations", overall, pair_cut_sum(pair_weight_sum(a, b), a, b, m, n))

    for sigma in permutations(a):
        for tau in permutations(b):
            lhs = BivarPoly(by_key.get((sigma.word, tau.word), {}))
            weight = m2_1_weight(sigma, tau)
            count_rhs = sum(
                math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                for j in weight
                if (k := n - a + j) >= 0
            )
            instance = f"sigma={sigma.compact()} tau={tau.compact()}"
            report.record(instance, lhs, pair_cut_sum(weight, a, b, m, n))
            report.record(f"{instance} p=q=1 count", lhs.evaluate(1, 1), Fraction(count_rhs))
    return report


def verify_permcont2(a: int, b: int, total: int) -> IdentityReport:
    """Both pair identities for patterns of sizes a and b in [total]: the one-pair sweep."""
    return permcont2_report(a, b, total, permcont2_buckets(total, [(a, b)])[a, b])


@lru_cache(maxsize=None)
def _perms_by_tableau(n: int) -> tuple[dict[Tableau, list[Permutation]], ...]:
    """Permutations of [n] grouped by insertion tableau and by recording tableau."""
    by_insertion: dict[Tableau, list[Permutation]] = {}
    by_recording: dict[Tableau, list[Permutation]] = {}
    for pi in permutations(n):
        p_tab, q_tab = rs(pi)
        by_insertion.setdefault(p_tab, []).append(pi)
        by_recording.setdefault(q_tab, []).append(pi)
    return by_insertion, by_recording


def perms_with_insertion_tableau(tab: Tableau) -> list[Permutation]:
    """Permutations whose insertion tableau equals the given tableau."""
    return list(_perms_by_tableau(tab.size)[0].get(tab, []))


def perms_with_recording_tableau(tab: Tableau) -> list[Permutation]:
    """Permutations whose recording tableau equals the given tableau."""
    return list(_perms_by_tableau(tab.size)[1].get(tab, []))


def permtotab_reports(a_tab: Tableau, cuts: Sequence[int]) -> list[IdentityReport]:
    """Suffix-maj sum over the insertion class of a tableau vs inner skew sums, per cut.

    Left side at cut j: over permutations whose insertion tableau is the given
    one and whose j-set contains j, sum q^(maj of the suffix past j).  Right
    side: sum of the skew maj polynomials of the tableau's shape over all
    inner shapes of size j.  One j-set per permutation serves every cut.
    """
    alpha = a_tab.shape.outer
    by_cut = {j: Counter() for j in cuts}
    for sigma in perms_with_insertion_tableau(a_tab):
        majs = _suffix_majs(sigma.word)
        for j in j_set(sigma) & by_cut.keys():
            by_cut[j][majs[j]] += 1
    rows = a_tab.to_json()["rows"]
    reports = []
    for j, tally in by_cut.items():
        report = IdentityReport("permtotab", {"tableau": rows, "j": j})
        report.record(f"shape={alpha} j={j}", _maj_poly(tally), m3_weight(alpha).get(j, ZERO))
        reports.append(report)
    return reports


def verify_permtotab(a_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_reports`` at the one cut j."""
    return permtotab_reports(a_tab, [j])[0]


def permtotab_pair_reports(
    a_tab: Tableau, b_tab: Tableau, cuts: Sequence[int]
) -> list[IdentityReport]:
    """Pair version: joint statistic over (insertion, recording) classes, per cut.

    Left side at cut j: over pairs (sigma, tau) with the given insertion and
    recording tableaux whose j2-set contains j, sum p^(imaj of tau's high
    restriction at j) q^(maj of sigma's suffix past j).  Right side: sum over
    inner shapes mu of size j of the skew polynomial of B's shape in p times
    that of A's shape in q.  One j2-set per pair serves every cut.
    """
    alpha = a_tab.shape.outer
    beta = b_tab.shape.outer
    by_cut = {j: Counter() for j in cuts}
    # the inverse of tau's high restriction at j is the suffix of tau's inverse past j
    taus = [(tau, _suffix_majs(tau.inverse().word)) for tau in perms_with_recording_tableau(b_tab)]
    for sigma in perms_with_insertion_tableau(a_tab):
        majs = _suffix_majs(sigma.word)
        for tau, imajs in taus:
            for j in j2_set(sigma, tau) & by_cut.keys():
                by_cut[j][imajs[j], majs[j]] += 1
    params = {"tableau_a": a_tab.to_json()["rows"], "tableau_b": b_tab.to_json()["rows"]}
    reports = []
    for j, tally in by_cut.items():
        report = IdentityReport("permtotab-pair", {**params, "j": j})
        report.record(
            f"shapes={alpha};{beta} j={j}", BivarPoly(tally), m3_1_weight(alpha, beta).get(j, ZERO)
        )
        reports.append(report)
    return reports


def verify_permtotab_pair(a_tab: Tableau, b_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_pair_reports`` at the one cut j."""
    return permtotab_pair_reports(a_tab, b_tab, [j])[0]


@lru_cache(maxsize=None)
def _partition_list(n: int) -> tuple[Partition, ...]:
    return tuple(partitions(n))


@lru_cache(maxsize=None)
def _outer_shapes(base: Partition, added: int) -> tuple[Partition, ...]:
    return tuple(lam for lam in _partition_list(base.size + added) if lam.contains(base))


@lru_cache(maxsize=None)
def _outer_majs(base: Partition, added: int) -> dict[Partition, tuple[tuple[int, int], ...]]:
    """The (maj, count) terms of f_{lam/base}, for each lam in ``_outer_shapes(base, added)``."""
    return {
        lam: tuple((maj, c) for (_, maj), c in f_poly_enum(SkewShape(lam, base)).sorted_terms())
        for lam in _outer_shapes(base, added)
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
    lhs = ZERO
    for lam in _outer_shapes(alpha, n):
        lhs = lhs + f_poly_enum(SkewShape(lam, alpha))
    rhs = involution_cut_sum(m3_weight(alpha), alpha.size, n)
    count_rhs = 0
    for k in range(n + 1):
        if n - k > alpha.size:
            continue
        inner_count = 0
        for mu in partitions_inside(alpha.size - (n - k), alpha):
            inner_count += skew_syt_count(SkewShape(alpha, mu))
        count_rhs += math.comb(n, k) * t_count(k) * inner_count
    report.record(f"alpha={alpha} n={n}", lhs, rhs)
    report.record(f"alpha={alpha} n={n} q=1 count", lhs.evaluate(1, 1), Fraction(count_rhs))
    return report


def verify_majgen1(alpha: Partition, beta: Partition, m: int, n: int) -> IdentityReport:
    """Pair version over outer shapes containing both bases.

    Nonempty only when m + |alpha| = n + |beta|; inconsistent data verifies
    trivially as 0 = 0.  The p = q = 1 row checks the classical pair count.
    """
    report = IdentityReport(
        "majgen1", {"alpha": str(alpha), "beta": str(beta), "m": m, "n": n}
    )
    lhs = rhs = ZERO
    if m + alpha.size == n + beta.size:
        # f_{lam/alpha}(p) f_{lam/beta}(q), summed term by term into one tally; the
        # shapes of size |alpha| + m that contain beta are those outer to beta by n
        tally: Counter = Counter()
        q_majs = _outer_majs(beta, n)
        for lam, p_side in _outer_majs(alpha, m).items():
            if (q_side := q_majs.get(lam)) is not None:
                for i, c in p_side:
                    for j, d in q_side:
                        tally[i, j] += c * d
        lhs = BivarPoly(tally)
        rhs = pair_cut_sum(m3_1_weight(alpha, beta), alpha.size, beta.size, m, n)
    inner_counts = _common_inner_counts(alpha, beta)
    count_rhs = 0
    for k in range(min(m, n) + 1):
        size = beta.size - (m - k)
        if size >= 0 and alpha.size - size == n - k >= 0:
            pairs = math.comb(m, k) * math.comb(n, k) * math.factorial(k)
            count_rhs += pairs * inner_counts.get(size, 0)
    report.record(f"alpha={alpha} beta={beta} m={m} n={n}", lhs, rhs)
    report.record(
        f"alpha={alpha} beta={beta} m={m} n={n} p=q=1 count",
        lhs.evaluate(1, 1),
        Fraction(count_rhs),
    )
    return report
