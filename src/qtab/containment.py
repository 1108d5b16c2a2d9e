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
weights, a coefficient table {(i, k): c} of a polynomial in p and q per j,
are defined once in :mod:`qtab.weights` and re-exported here: the pattern
weights ``qlim1_weight``, ``m2_1_weight``, ``m3_weight`` and
``m3_1_weight``, and the weight sums W(j) over all patterns of a size
(``involution_weight_sum``, ``pair_weight_sum``).  The cut terms
read t_k and A_k from the series that :mod:`qtab.limits` evaluates at
rational points (``t_value``, ``a_value``), here at the packing point.

Single and pair versions share one path per kind of check, with a pair flag
where they differ, as the limit kernel's families do.  ``_cut_check`` checks
a left side against a cut sum, and for the pattern and majgen identities
also the q = 1 (p = q = 1) count row, in plain integers.  A permtotab check,
``_permtotab``, compares a tally with one weight as coefficient tables.  A
cut sum check, whose right side is a sum of products, packs each side into
one integer, the side at q = 2^w and p = 2^(w * D) for a width w and stride
D that make packing injective on both sides (see ``_check``), and compares
the integers.  No check builds a polynomial: a failing one unpacks its sides
into tables and prints them through :mod:`qtab.bivar` (``_show``), which a
passing sweep never loads.  Report lines print their params with
``_json_text`` and permtotab's instance labels are joined only to print a
failure (``_Label``), so a text report loads no ``json``.

``permcont1_buckets``/``permcont2_buckets`` sweep the involutions or the
permutations of [total] once for every pattern size asked for at that total,
and ``permcont1_report``/``permcont2_report``, both ``_pattern_report``,
check one instance on the buckets; ``verify_permcont1``/``verify_permcont2``
are the one-instance case.  Likewise ``permtotab_reports``/
``permtotab_pair_reports`` check every cut of one tableau (pair) from one
j-set (j2-set) per permutation (pair), and ``verify_permtotab``/
``verify_permtotab_pair`` are the one-cut case.
``sweep_reports`` runs the report loops of ``qtab verify``, and
``cmd_verify``, its handler, at the end of the module, checks the arguments
and the ``QTAB_MAX_N`` cap and prints the reports.  ``qtab.cli`` imports it
only for ``verify``, and the handler imports ``qtab.cli`` only when it runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .polynomial import packed_qbinomial, packed_width
from .stats import a_value, t_count, t_value
from .weights import (
    involution_weight_sum,
    m2_1_weight,
    m3_1_weight,
    m3_weight,
    pair_weight_sum,
    qlim1_weight,
)

# The permutation, tableau, j-set and insertion code is imported by the
# functions that read it, so a verify kind loads only what its identity runs:
# permcont1 and permcont2 no tableau code, majgen and majgen1 no permutation or j-set code.
if TYPE_CHECKING:
    from .permutation import Permutation
    from .tableau import Partition, Tableau
    from .weights import Table

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
    "sweep_reports",
    "conjecture_probe",
]


def __getattr__(name: str):
    # the probe is re-exported from :mod:`qtab.tableau`, loaded on first use
    if name == "conjecture_probe":
        from .tableau import conjecture_probe

        return conjecture_probe
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from .permutation import involutions

    return [pi for pi in involutions(n) if contains(pi, pattern)]


def enum_perm_containing(sigma: Permutation, tau: Permutation, n: int) -> list[Permutation]:
    """Permutations of [n] with low restriction sigma and standardized prefix tau."""
    from .permutation import permutations

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
    from .tableau import SkewShape, enumerate_syt, partitions

    out = []
    for shape in partitions(n):
        for tab in enumerate_syt(SkewShape.straight(shape)):
            if tab_contains(tab, pattern):
                out.append(tab)
    return out


def enum_pair_containing(a_tab: Tableau, b_tab: Tableau, n: int) -> list[tuple[Tableau, Tableau]]:
    """Same-shape tableau pairs of size n containing the given pair."""
    from .tableau import SkewShape, enumerate_syt, partitions

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

    def record(self, instance: object, lhs, rhs, show: Callable[[object], str] = str) -> None:
        """Count one check of lhs = rhs; a failure keeps the instance's text and both
        sides as ``show`` prints them."""
        self.checked += 1
        if lhs != rhs:
            self.failures.append({"instance": str(instance), "lhs": show(lhs), "rhs": show(rhs)})

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
            f"{self.theorem} {_json_text(self.params)} "
            f"checked={self.checked} failures={len(self.failures)} {status}"
        )


def _json_text(params: dict) -> str:
    """``json.dumps(params, sort_keys=True)`` for what report params hold: ints,
    strings with no character JSON escapes, and lists of ints and nulls (a
    skew tableau's rows) or of such lists, which print as JSON does once each
    None reads null."""
    return "{" + ", ".join(
        f'"{k}": "{v}"' if isinstance(v, str) else f'"{k}": {v!r}'.replace("None", "null")
        for k, v in sorted(params.items())
    ) + "}"


class _Label(tuple):
    """A check's instance label, kept as its pieces and joined only when printed."""

    __slots__ = ()

    def __str__(self) -> str:
        return "".join(map(str, self))


def _show(table: Table) -> str:
    """A coefficient table as its polynomial prints, for a failing check."""
    from .bivar import BivarPoly

    return str(BivarPoly(table))


# -- packed identity checks ------------------------------------------------------

# A side of an identity as (pack, degree): pack(width, stride) is its
# polynomial at q = 2^width, p = 2^(width * stride), and degree, a bound on
# its q-degree (-1 for the zero polynomial), comes from the side's own pieces.
Side = tuple[Callable[[int, int], int], int]


def _pack(terms: Iterable[tuple[tuple[int, int], int]], width: int, stride: int) -> int:
    """The terms ((i, j), c), read as c p^i q^j, at q = 2^width, p = 2^(width * stride)."""
    total = 0
    for (i, j), c in terms:
        total += c << width * (stride * i + j)
    return total


def _pack_q(terms: Iterable[tuple[int, int]], width: int) -> int:
    """The terms (j, c), read as c q^j, at q = 2^width."""
    total = 0
    for j, c in terms:
        total += c << width * j
    return total


def _unpack(value: int, width: int, stride: int) -> dict[tuple[int, int], int]:
    """The coefficient table ``_pack`` gave value at (width, stride): digit i,
    read balanced in [-2^(width-1), 2^(width-1)), is the coefficient of
    p^(i // stride) q^(i % stride).  ``packed_width`` puts 2^(width-1) above
    every coefficient of a real side; a negative one, which only a broken
    weight gives, reads back too."""
    half, terms, i = 1 << width - 1, {}, 0
    while value:
        digit = ((value + half) & (2 * half - 1)) - half
        if digit:
            terms[divmod(i, stride)] = digit
        value = (value - digit) >> width
        i += 1
    return terms


def _check(report: IdentityReport, instance: str, lhs: Side, rhs: Side) -> int:
    """Record whether two sides agree, compared as one packed integer each, and
    return the left side's value at p = q = 1.

    Packing is evaluation, a ring homomorphism, so a side packs by summing
    the products of its packed pieces.  At width 0 every piece, so the side,
    packs to its value at p = q = 1, and the values are read that way.

    The comparison is exact.  Every piece of either side (a brute-force tally,
    a skew maj polynomial, a weight, a Gaussian binomial, t_k or A_k) has
    nonnegative coefficients, so each side does, and none of its coefficients
    exceeds its value at p = q = 1, their sum.  The width is ``packed_width``
    of the larger of the two values, so no coefficient reaches 2^width; the
    stride is the least power of two above the larger of the two degree
    bounds, so every term c p^i q^j of either side has j < stride (a power of
    two lets checks share their packed pieces).  Each value and each bound
    comes from that side's own pieces, never from the identity.  A term
    c p^i q^j packs to the digit c at place stride * i + j in base 2^width,
    distinct terms to distinct places, and no digit carries: the base-2^width
    digits of a packed side are its coefficients.  Two sides that pack to one
    integer are one polynomial, and a failure prints the sides unpacked.
    """
    (pack_lhs, degree_lhs), (pack_rhs, degree_rhs) = lhs, rhs
    value = pack_lhs(0, 0)
    width = packed_width(max(value, pack_rhs(0, 0)))
    stride = 1 << max(degree_lhs, degree_rhs, 0).bit_length()
    report.record(
        instance,
        pack_lhs(width, stride),
        pack_rhs(width, stride),
        lambda packed: _show(_unpack(packed, width, stride)),
    )
    return value


def _tally_side(tally: Mapping[tuple[int, int], int]) -> Side:
    """A tally of counts by (p-degree, q-degree)."""
    return (
        lambda width, stride: _pack(tally.items(), width, stride),
        max([j for _, j in tally], default=-1),
    )


@lru_cache(maxsize=None)
def _cut_term(pair: bool, m: int, n: int, k: int, width: int, stride: int) -> int:
    """The cut term at q = 2^width, p = 2^(width * stride), t_k and A_k from the limits'
    series: [m choose k]_p [n choose k]_q A_k(p, q) for pairs, else [n choose k]_q t_k(q)."""
    term, q, p = packed_qbinomial(n, k, width), 1 << width, 1 << width * stride
    if pair:
        return term * packed_qbinomial(m, k, width * stride) * a_value(k, p, q).numerator
    return term * t_value(k, q).numerator


def _cut_side(weight: Mapping[int, Table], pair: bool, m: int, n: int, offset: int) -> Side:
    """sum_j w(j) T(k), k = j + offset, over the cuts with k >= 0; T is ``_cut_term``, of
    q-degree at most k(n - k) + C(k, 2), as no word of length k has maj above C(k, 2)."""
    cuts = [
        (sorted(w.items()), max([d for _, d in w], default=-1), k)
        for j, w in weight.items()
        if (k := j + offset) >= 0
    ]

    def pack(width: int, stride: int) -> int:
        return sum(
            _pack(terms, width, stride) * _cut_term(pair, m, n, k, width, stride)
            for terms, _, k in cuts
        )

    degree = max((d + k * (n - k) + k * (k - 1) // 2 for _, d, k in cuts), default=-1)
    return pack, degree


def _cut_check(
    report: IdentityReport, instance: str, lhs: Side, weight: Mapping[int, Table],
    pair: bool, m: int, n: int, offset: int, counts: Mapping[int, int] | None = None,
) -> None:
    """Check lhs = sum_j w(j) T(j + offset) packed (``_cut_side``), then, unless
    counts is None, the same sum at q = 1 (p = q = 1 for pairs) in plain
    integers: sum_j counts[j] C(n, k) (C(m, k) k! for pairs, else t_k(1)) over
    k = j + offset >= 0, against the left side's value there."""
    value = _check(report, instance, lhs, _cut_side(weight, pair, m, n, offset))
    if counts is not None:
        count = sum(
            c * math.comb(n, k) * (math.comb(m, k) * math.factorial(k) if pair else t_count(k))
            for j, c in counts.items()
            if (k := j + offset) >= 0
        )
        report.record(f"{instance} {'p=q=1' if pair else 'q=1'} count", value, count)


# -- sweeps and reports -------------------------------------------------------------


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
    counts of (0, the suffix maj past m), by low restriction at m.

    In an involution the values 1..m sit at the positions w[:m], so the low
    restriction at m depends only on that raw prefix and is computed once per
    prefix, as in ``permcont2_buckets``."""
    from .permutation import involution_words, word_low

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
            tally, stat = bucket.setdefault(low, {}), (0, majs[m])
            tally[stat] = tally.get(stat, 0) + 1
    return counts


def _pattern_report(
    report: IdentityReport, weight_sum: Mapping[int, Table], weight_of: Callable,
    sizes: tuple[int, ...], by_key: dict, m: int, n: int,
) -> IdentityReport:
    """The overall check on every bucket, then one per pattern on its own
    bucket: sigma of size sizes[0], and for pairs tau of size sizes[1].  A
    pattern weight's terms are monomials, so its count row reads 1 per cut."""
    from .permutation import permutations

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
    each is computed once per raw key and looked up after.  The sweep keeps a
    column per size, one entry per permutation: the interned id of (low
    restriction, imaj) at each a, and of (standardized prefix, maj) at each
    b.  The bucket of (a, b) counts the id pairs of the columns of a and b
    together."""
    from .permutation import word_low, word_std

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


def verify_permcont2(a: int, b: int, total: int) -> IdentityReport:
    """Both pair identities for patterns of sizes a and b in [total]: the one-pair sweep."""
    return permcont2_report(a, b, total, permcont2_buckets(total, [(a, b)])[a, b])


@lru_cache(maxsize=None)
def _perms_by_tableau(n: int) -> tuple[dict[Tableau, list[Permutation]], ...]:
    """Permutations of [n] grouped by insertion tableau and by recording tableau."""
    from .permutation import permutations
    from .rsk import rs

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


def _permtotab(
    theorem: str, params: dict, label: tuple, by_cut: dict, weight: Mapping[int, Table]
) -> list[IdentityReport]:
    """One report per cut j: the tally at j against w(j), compared as coefficient tables."""
    reports = []
    for j, tally in by_cut.items():
        report = IdentityReport(theorem, {**params, "j": j})
        report.record(_Label((*label, " j=", j)), tally, weight.get(j, {}), _show)
        reports.append(report)
    return reports


def permtotab_reports(a_tab: Tableau, cuts: Sequence[int]) -> list[IdentityReport]:
    """Suffix-maj sum over the insertion class of a tableau vs inner skew sums, per cut.

    Left side at cut j: over permutations whose insertion tableau is the given
    one and whose j-set contains j, sum q^(maj of the suffix past j).  Right
    side: sum of the skew maj polynomials of the tableau's shape over all
    inner shapes of size j.  One j-set per permutation serves every cut.
    """
    from .jsets import j_set

    alpha = a_tab.shape.outer
    by_cut = {j: Counter() for j in cuts}
    for sigma in perms_with_insertion_tableau(a_tab):
        majs = _suffix_majs(sigma.word)
        for j in j_set(sigma) & by_cut.keys():
            by_cut[j][0, majs[j]] += 1
    params = {"tableau": a_tab.to_json()["rows"]}
    return _permtotab("permtotab", params, ("shape=", alpha), by_cut, m3_weight(alpha))


def verify_permtotab(a_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_reports`` at the one cut j."""
    return permtotab_reports(a_tab, [j])[0]


@lru_cache(maxsize=None)
def _recording_class(b_tab: Tableau) -> tuple[tuple[Permutation, list[int]], ...]:
    """The permutations with recording tableau B, each with its inverse's suffix majs:
    the inverse of tau's high restriction at j is the suffix of tau's inverse past j."""
    return tuple(
        (tau, _suffix_majs(tau.inverse().word)) for tau in perms_with_recording_tableau(b_tab)
    )


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
    from .jsets import j2_set

    alpha = a_tab.shape.outer
    beta = b_tab.shape.outer
    by_cut = {j: Counter() for j in cuts}
    for sigma in perms_with_insertion_tableau(a_tab):
        majs = _suffix_majs(sigma.word)
        for tau, imajs in _recording_class(b_tab):
            for j in j2_set(sigma, tau) & by_cut.keys():
                by_cut[j][imajs[j], majs[j]] += 1
    params = {"tableau_a": a_tab.to_json()["rows"], "tableau_b": b_tab.to_json()["rows"]}
    label = ("shapes=", alpha, ";", beta)
    return _permtotab("permtotab-pair", params, label, by_cut, m3_1_weight(alpha, beta))


def verify_permtotab_pair(a_tab: Tableau, b_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_pair_reports`` at the one cut j."""
    return permtotab_pair_reports(a_tab, b_tab, [j])[0]


@lru_cache(maxsize=None)
def _partition_list(n: int) -> tuple[Partition, ...]:
    from .tableau import partitions

    return tuple(partitions(n))


@lru_cache(maxsize=None)
def _outer_majs(base: Partition, added: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (maj, count) terms of f_{lam/base} for each lam in ``_partition_list(|base| +
    added)``, in that order; none where lam does not contain base."""
    from .tableau import SkewShape, maj_tally

    return tuple(
        tuple(maj_tally(SkewShape(lam, base))) if lam.contains(base) else ()
        for lam in _partition_list(base.size + added)
    )


@lru_cache(maxsize=None)
def _outer_packed(base: Partition, added: int, width: int) -> tuple[int, ...]:
    """``_outer_majs(base, added)``, each f_{lam/base} at q = 2^width."""
    return tuple(_pack_q(terms, width) for terms in _outer_majs(base, added))


@lru_cache(maxsize=None)
def _inner_counts(alpha: Partition) -> dict[int, int]:
    """By size, the sum of f^{alpha/mu} over the shapes mu inside alpha."""
    from .tableau import SkewShape, partitions_inside, skew_syt_count

    return {
        size: sum(skew_syt_count(SkewShape(alpha, mu)) for mu in partitions_inside(size, alpha))
        for size in range(alpha.size + 1)
    }


@lru_cache(maxsize=None)
def _common_inner_counts(alpha: Partition, beta: Partition) -> dict[int, int]:
    """By size, the sum of f^{beta/mu} f^{alpha/mu} over the shapes mu inside both."""
    from .tableau import SkewShape, partitions_inside, skew_syt_count

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


# -- the sweeps of ``qtab verify`` --------------------------------------------------


def sweep_reports(which: str, max_size: int, cap: int | None = None) -> list[IdentityReport]:
    """The reports of ``qtab verify <which>`` over pattern sizes up to max_size.

    cap bounds the ambient total for permcont1/permcont2 and the added size n
    for majgen/majgen1; permtotab reads only max_size.  permcont1/2 run one
    sweep per ambient size, whose buckets go before the next sweep, and put
    the reports in pattern-size order.
    """
    k = max_size
    reports = []
    if which in ("permcont1", "permcont2"):
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
    if which == "permtotab":
        from .tableau import SkewShape, enumerate_syt, partitions

        tabs = [
            tab
            for size in range(1, k + 1)
            for shape in partitions(size)
            for tab in enumerate_syt(SkewShape.straight(shape))
        ]
        for tab in tabs:
            reports += permtotab_reports(tab, range(tab.size + 1))
        for a_tab in tabs:
            for b_tab in tabs:
                cuts = range(min(a_tab.size, b_tab.size) + 1)
                reports += permtotab_pair_reports(a_tab, b_tab, cuts)
        return reports
    shapes = [shape for size in range(k + 1) for shape in _partition_list(size)]
    if which == "majgen":
        return [verify_majgen(alpha, n) for alpha in shapes for n in range(cap + 1)]
    if which == "majgen1":
        return [
            verify_majgen1(alpha, beta, m, n)
            for alpha in shapes
            for beta in shapes
            for m in range(cap + 1)
            if 0 <= (n := m + alpha.size - beta.size) <= cap
        ]
    raise ValueError(f"no verify sweep named {which!r}")


# -- the handler of ``qtab verify`` -------------------------------------------------

# the --max-total default of each kind, and what the size under QTAB_MAX_N counts
_VERIFY_CAPS = {
    "permcont1": (8, "involution enumeration"),
    "permcont2": (6, "permutation enumeration"),
    "majgen": (5, "tableau enumeration"),
    "majgen1": (5, "tableau enumeration"),
}


def _verify_reports(args) -> list[IdentityReport]:
    from .cli import UsageError, _check_enum_size

    which, k = args.which, args.max_size
    for flag, value in (("--max-size", k), ("--max-total", args.max_total)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative, got {value}")
    if which == "permtotab":
        if args.max_total is not None:
            raise UsageError("verify permtotab does not read --max-total")
        cap = None
        _check_enum_size(k, "permutation enumeration")
    else:
        default, what = _VERIFY_CAPS[which]
        cap = args.max_total if args.max_total is not None else default
        _check_enum_size(cap, what)
    return sweep_reports(which, k, cap)


def cmd_verify(args) -> int:
    reports = _verify_reports(args)
    failures = sum(len(r.failures) for r in reports)
    checked = sum(r.checked for r in reports)
    if args.json:
        import json

        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    else:
        for report in reports:
            print(report)
        print(f"total: reports={len(reports)} checked={checked} failures={failures}")
    return 0 if failures == 0 else 1
