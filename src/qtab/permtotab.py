"""The transport identities to tableaux: ``permtotab`` (single and pair).

``permtotab`` checks the transport of the j-set sums to skew tableau
polynomials: over the permutations with a given insertion tableau, the suffix
majs at the cuts of their j-sets, against the inner skew maj sums of the
tableau's shape (``m3_weight``), and the pair version over (insertion,
recording) classes and j2-sets against ``m3_1_weight``.  A check compares a
tally with one weight as coefficient tables, so nothing here packs or loads
:mod:`qtab.stats`, and the instance labels are joined only to print a
failure (``_Label``).

``permtotab_reports``/``permtotab_pair_reports`` check every cut of one
tableau (pair) from one j-set (j2-set) per permutation (pair).  ``sweep``
runs the report loops of ``qtab verify permtotab``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

from .containment import IdentityReport, _show, _suffix_majs
from .permutation import permutations
from .rsk import rs
from .tableau import SkewShape, enumerate_syt, partitions
from .weights import m3_1_weight, m3_weight

if TYPE_CHECKING:
    from .permutation import Permutation
    from .tableau import Tableau
    from .weights import Table

__all__ = [
    "perms_with_insertion_tableau",
    "perms_with_recording_tableau",
    "permtotab_reports",
    "permtotab_pair_reports",
]


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


class _Label(tuple):
    """A check's instance label, kept as its pieces and joined only when printed."""

    __slots__ = ()

    def __str__(self) -> str:
        return "".join(map(str, self))


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


def sweep(which: str, k: int, cap: int | None = None) -> list[IdentityReport]:
    """The reports of ``qtab verify permtotab`` (``sweep_reports``): every cut of
    every straight tableau of size 1 to k, then of every pair of them; no cap."""
    tabs = [
        tab
        for size in range(1, k + 1)
        for shape in partitions(size)
        for tab in enumerate_syt(SkewShape.straight(shape))
    ]
    reports = []
    for tab in tabs:
        reports += permtotab_reports(tab, range(tab.size + 1))
    for a_tab in tabs:
        for b_tab in tabs:
            cuts = range(min(a_tab.size, b_tab.size) + 1)
            reports += permtotab_pair_reports(a_tab, b_tab, cuts)
    return reports
