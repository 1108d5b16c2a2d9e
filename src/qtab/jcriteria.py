"""j-set and j2-set membership criteria, read off a set's difference sequence.

Membership of an arbitrary finite set is decided from its top-down difference
sequence:

* ``delta``      -- differences of consecutive elements, largest pair first;
* ``delta_bar``  -- the same sequence after the 1-merge pass (a 1 that is not
  the final entry absorbs its successor e into an overlined e+1);
* ``psi``        -- ``delta_bar`` split into blocks after each overlined 2;
* ``psi2``       -- ``delta`` split into blocks after each 1.

A set containing 0 is a j-set when every psi block except the last is an
overpartition ending in an overlined 2 and the last block is (1) or empty; it
is a j2-set when the psi2 blocks cover the whole difference sequence and each
is weakly decreasing with its single 1 at the end.  Both criteria are checked
against the brute-force lists of :mod:`qtab.jsets` in the test suite, as is
``j2_series``, the generating function of the j2-set counts by largest
element.

Overlined entries are written with a trailing apostrophe in text (``2'``) and
carry a boolean flag in JSON.
"""

from __future__ import annotations

from typing import Iterable

from .values import Value, parse_ints

__all__ = [
    "JProfile",
    "j_profile",
    "delta",
    "delta_bar",
    "psi",
    "psi2",
    "is_overpartition",
    "is_j_set",
    "is_j2_set",
    "j_extend_ok",
    "j2_extend_ok",
    "j2_series",
    "parse_int_set",
    "format_int_set",
    "format_entries",
]

# an entry of the merged difference sequence: (value, overlined)
Entry = tuple[int, bool]


def parse_int_set(text: str) -> frozenset[int]:
    """Parse a list such as ``0,1,3,6`` or ``0 1 3 6`` as ``parse_ints`` reads it;
    a malformed list raises ValueError."""
    try:
        return frozenset(parse_ints(text))
    except ValueError:
        raise ValueError(
            f"cannot parse set {text.strip()!r}: expected integers separated by commas"
            " or spaces, like 0,1,3"
        ) from None


def format_int_set(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(values))


def format_entries(entries: Iterable[Entry]) -> str:
    return ",".join(f"{v}'" if over else str(v) for v, over in entries)


def delta(values: Iterable[int]) -> tuple[int, ...]:
    """Differences of consecutive elements, read from the top down."""
    ordered = sorted(set(values))
    if not ordered:
        raise ValueError("difference sequence of an empty set")
    if ordered[0] < 0:
        raise ValueError("set elements must be nonnegative")
    return tuple(
        ordered[i] - ordered[i - 1] for i in range(len(ordered) - 1, 0, -1)
    )


def delta_bar(values: Iterable[int]) -> tuple[Entry, ...]:
    """Merge pass: each non-final 1 absorbs its successor e into overlined e+1.

    A single left-to-right scan; after a merge, scanning resumes after the
    merged entry.
    """
    seq: list[Entry] = [(a, False) for a in delta(values)]
    i = 0
    while i < len(seq) - 1:
        value, over = seq[i]
        if value == 1 and not over:
            succ = seq[i + 1][0]
            seq[i : i + 2] = [(succ + 1, True)]
        i += 1
    return tuple(seq)


def psi(values: Iterable[int]) -> tuple[tuple[Entry, ...], ...]:
    """Split the merged sequence into blocks ending at each overlined 2.

    Returns k + 1 blocks where k is the number of overlined 2s; the final
    block (possibly empty) holds whatever follows the last one.
    """
    merged = delta_bar(values)
    blocks: list[tuple[Entry, ...]] = []
    start = 0
    for i, entry in enumerate(merged):
        if entry == (2, True):
            blocks.append(merged[start : i + 1])
            start = i + 1
    blocks.append(merged[start:])
    return tuple(blocks)


def psi2(values: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Split the difference sequence into blocks ending at each 1.

    Every entry must land in a block, so the sequence has to end with a 1;
    otherwise the set cannot be a j2-set and a ValueError signals it.
    The empty sequence (a singleton set) gives no blocks.
    """
    diff = delta(values)
    if diff and diff[-1] != 1:
        raise ValueError("difference sequence does not end in 1; no full block split")
    blocks: list[tuple[int, ...]] = []
    start = 0
    for i, a in enumerate(diff):
        if a == 1:
            blocks.append(diff[start : i + 1])
            start = i + 1
    return tuple(blocks)


class JProfile(Value):
    """The full difference-sequence decomposition of a finite set.

    ``psi2_blocks`` is None when the difference sequence does not end in 1
    (such a set is not a j2-set candidate).  An immutable value.
    """

    __slots__ = ("delta", "delta_bar", "psi_blocks", "psi2_blocks")

    def __init__(
        self,
        delta: tuple[int, ...],
        delta_bar: tuple[Entry, ...],
        psi_blocks: tuple[tuple[Entry, ...], ...],
        psi2_blocks: tuple[tuple[int, ...], ...] | None,
    ):
        Value.__init__(self, delta, delta_bar, psi_blocks, psi2_blocks)

    def to_json(self) -> dict:
        def entry(e: Entry) -> dict:
            return {"value": e[0], "overlined": e[1]}

        return {
            "delta": list(self.delta),
            "delta_bar": [entry(e) for e in self.delta_bar],
            "psi": [[entry(e) for e in block] for block in self.psi_blocks],
            "psi2": None
            if self.psi2_blocks is None
            else [list(block) for block in self.psi2_blocks],
        }


def j_profile(values: Iterable[int]) -> JProfile:
    values = sorted(set(values))
    try:
        blocks2 = psi2(values)
    except ValueError:
        blocks2 = None
    return JProfile(delta(values), delta_bar(values), psi(values), blocks2)


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


def is_j2_set(values: Iterable[int]) -> bool:
    """Decide j2-set membership from the difference-sequence blocks."""
    values = set(values)
    if 0 not in values:
        return False
    try:
        blocks = psi2(values)
    except ValueError:
        return False
    # each block ends at its only 1, so weak decrease is all that is left
    for block in blocks:
        if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
            return False
    return True


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


def j2_series(n_max: int) -> list[int]:
    """Coefficients through x^n_max of 1 / (1 - x * prod_{i>=2} 1/(1-x^i)).

    Coefficient n counts the j2-sets with largest element n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    inner = [0] * (n_max + 1)
    inner[0] = 1
    for i in range(2, n_max + 1):
        for d in range(i, n_max + 1):
            inner[d] += inner[d - i]
    shifted = [0] + inner[:n_max]  # x * inner
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for d in range(1, n_max + 1):
        coeffs[d] = sum(shifted[t] * coeffs[d - t] for t in range(1, d + 1))
    return coeffs
