"""Row-insertion correspondence between permutations and tableau pairs.

``rs`` sends a permutation to an (insertion, recording) pair of standard
Young tableaux of the same shape; ``rs_inverse`` reverses it by extracting the
largest recorded entry and reverse-bumping.  An involution's insertion and
recording tableaux coincide, so involutions correspond to single tableaux;
the tests check that correspondence.

The descent sets transport through the correspondence: the recording tableau
carries the descents of the permutation and the insertion tableau those of
its inverse.  That fact is what lets tableau containment statistics be
computed from permutation containment statistics, and it is pinned down
exhaustively in the test suite.
"""

from __future__ import annotations

from bisect import bisect_right

from .permutation import Permutation
from .tableau import Tableau

__all__ = ["rs", "rs_inverse"]


def rs(perm: Permutation) -> tuple[Tableau, Tableau]:
    """Insertion and recording tableaux of a permutation (row insertion)."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for position, value in enumerate(perm.word, start=1):
        x = value
        for r, row in enumerate(p_rows):
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                q_rows[r].append(position)
                break
            row[i], x = x, row[i]
        else:
            p_rows.append([x])
            q_rows.append([position])
    return Tableau.from_rows(p_rows), Tableau.from_rows(q_rows)


def rs_inverse(p_tab: Tableau, q_tab: Tableau) -> Permutation:
    """The permutation mapping to the given (insertion, recording) pair."""
    if not (p_tab.is_straight and q_tab.is_straight):
        raise ValueError("tableaux must be straight-shaped")
    if p_tab.shape != q_tab.shape:
        raise ValueError("tableaux must have the same shape")
    p_rows = [list(row) for row in p_tab.rows]
    n = p_tab.size
    word = [0] * n
    for step in range(n, 0, -1):
        r = q_tab.row_of(step)
        x = p_rows[r - 1].pop()
        for row in reversed(p_rows[: r - 1]):
            i = bisect_right(row, x) - 1
            row[i], x = x, row[i]
        word[step - 1] = x
    return Permutation(tuple(word))
