"""Tableau restrictions and transposes, tableau containment by enumeration,
involutions as single tableaux, and the one-cut checks of ``permtotab``.

A tableau contains another when its low restriction at the other's size
equals it.  A skew tableau keeps its inner shape, so the high restriction of
a tableau keeps its anchor.  ``enum_tab_containing`` and
``enum_pair_containing`` list the containing tableaux and same-shape pairs by
brute force.  ``verify_permtotab``/``verify_permtotab_pair`` run the reports
of :mod:`qtab.permtotab` at one cut.
"""

from __future__ import annotations

from qtab.containment import IdentityReport
from qtab.permtotab import permtotab_pair_reports, permtotab_reports
from qtab.permutation import Permutation
from qtab.rsk import rs, rs_inverse
from qtab.tableau import Partition, SkewShape, Tableau, enumerate_syt, partitions

from .permutation import is_involution


def restrict_low(tab: Tableau, k: int) -> Tableau:
    """The subtableau of entries <= k (entries increase, so a row prefix)."""
    if not 0 <= k <= tab.size:
        raise ValueError(f"cut {k} out of range 0..{tab.size}")
    inner = tab.shape.inner
    new_rows = []
    new_parts = []
    for r, row in enumerate(tab.rows, start=1):
        kept = tuple(v for v in row if v <= k)
        new_rows.append(kept)
        new_parts.append(inner.part(r) + len(kept))
    while new_parts and new_parts[-1] == 0:
        new_parts.pop()
        new_rows.pop()
    outer = Partition(tuple(new_parts))
    return Tableau(SkewShape(outer, inner), tuple(new_rows))


def restrict_high(tab: Tableau, k: int) -> Tableau:
    """Entries > k, each decreased by k, on the complementary skew shape."""
    if not 0 <= k <= tab.size:
        raise ValueError(f"cut {k} out of range 0..{tab.size}")
    low_outer = restrict_low(tab, k).shape.outer
    new_rows = tuple(tuple(v - k for v in row if v > k) for row in tab.rows)
    return Tableau(SkewShape(tab.shape.outer, low_outer), new_rows)


def conjugate(tab: Tableau) -> Tableau:
    """Transpose across the main diagonal."""
    shape = SkewShape(tab.shape.outer.conjugate(), tab.shape.inner.conjugate())
    cells = {(c, r): v for (r, c), v in tab.entries().items()}
    inner = shape.inner
    rows = tuple(
        tuple(cells[(r, c)] for c in range(inner.part(r) + 1, shape.outer.part(r) + 1))
        for r in range(1, shape.outer.length + 1)
    )
    return Tableau(shape, rows)


def tab_contains(tab: Tableau, pattern: Tableau) -> bool:
    if pattern.size > tab.size:
        return False
    return restrict_low(tab, pattern.size) == pattern


def pair_contains(p_tab: Tableau, q_tab: Tableau, a_tab: Tableau, b_tab: Tableau) -> bool:
    return tab_contains(p_tab, a_tab) and tab_contains(q_tab, b_tab)


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


def rs_involution(perm: Permutation) -> Tableau:
    """The single tableau corresponding to an involution."""
    if not is_involution(perm):
        raise ValueError(f"{perm} is not an involution")
    p_tab, _ = rs(perm)
    return p_tab


def rs_involution_inverse(tab: Tableau) -> Permutation:
    """The involution corresponding to a standard Young tableau."""
    perm = rs_inverse(tab, tab)
    if not is_involution(perm):
        raise AssertionError("equal-pair preimage is not an involution")
    return perm


def verify_permtotab(a_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_reports`` at the one cut j."""
    return permtotab_reports(a_tab, [j])[0]


def verify_permtotab_pair(a_tab: Tableau, b_tab: Tableau, j: int) -> IdentityReport:
    """``permtotab_pair_reports`` at the one cut j."""
    return permtotab_pair_reports(a_tab, b_tab, [j])[0]
