"""Partitions, skew shapes, standard Young tableaux, and their maj polynomials.

Cells are addressed (row, column), 1-based, rows drawn top-down (English
convention).  A skew tableau remembers its inner shape explicitly, so the
high restriction of a tableau keeps its anchor: two skew tableaux are equal
only if both shapes and all entries agree.

``f_poly`` is the sum of q^maj over the standard fillings of a (possibly
skew) shape.  Straight shapes take the hook-length product q^b [n]! / prod [h]
(``hook_packed``).  Skew shapes take Jacobi-Trudi with the principal
specialization (Stanley, EC2 7.16 and Prop. 7.19.11), a signed sum of
q-multinomials.  Both run on the packed kernel of :mod:`qtab.polynomial`, and
one choice between them (``_packed``) serves ``f_poly`` and, at width 0,
``skew_syt_count``.  ``f_coefficients`` reads the polynomial's coefficients
off the packed value's digits; ``f_poly`` and the theorem weights of
:mod:`qtab.weights` are built from them.
``maj_tally`` enumerates every filling and tallies it by maj; it is the
oracle the test suite pins both paths to on an exhaustive band (as
``f_poly_enum``, its polynomial), and the left-hand side of the ``majgen``
identities.  ``conjecture_probe``, the exploratory tuple
containment ratio, is a sum of products of these skew counts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .polynomial import (
    divide_packed,
    packed_digits,
    packed_qbinomial,
    packed_qfactorial,
    packed_width,
    times_q_integer,
)
from .values import Value, parse_ints

# the polynomial functions import the formal type when they run, so the
# commands that only count or read tableaux do not load it
if TYPE_CHECKING:
    from .bivar import BivarPoly

__all__ = [
    "Partition",
    "SkewShape",
    "Tableau",
    "partitions",
    "partitions_inside",
    "enumerate_syt",
    "f_poly",
    "f_coefficients",
    "f_poly_enum",
    "f_poly_hook",
    "maj_tally",
    "hook_packed",
    "syt_count",
    "skew_syt_count",
    "conjecture_probe",
]


class Partition(Value):
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    An immutable value: equal parts give equal, equally hashed partitions.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(p <= 0 for p in parts):
            raise ValueError(f"{parts}: parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"{parts} is not weakly decreasing")
        Value.__init__(self, parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse parts as ``parse_ints`` reads them; blank text is the empty
        partition."""
        try:
            parts = parse_ints(text)
        except ValueError:
            raise ValueError(f"cannot parse partition from {text.strip()!r}") from None
        return cls(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def part(self, row: int) -> int:
        """Row length, 0 beyond the last row (row is 1-based)."""
        return self.parts[row - 1] if 1 <= row <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        # parts are positive, so a longer other never fits
        mine, theirs = self.parts, other.parts
        return len(theirs) <= len(mine) and all(a >= b for a, b in zip(mine, theirs))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        width = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p > j) for j in range(width)))

    def hook_lengths(self) -> tuple[int, ...]:
        """Hook lengths of all cells, row-major."""
        conj = self.conjugate().parts
        out = []
        for r, row_len in enumerate(self.parts, start=1):
            for c in range(1, row_len + 1):
                out.append(row_len - c + conj[c - 1] - r + 1)
        return tuple(out)


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest-first lexicographic order, without recursion:
    lower the last part above 1 and refill the freed cells with parts that size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [n] if n else []
    while True:
        yield Partition(tuple(parts))
        freed = 0
        while parts and parts[-1] == 1:
            freed += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        top = parts[-1]
        freed += 1
        while freed > top:
            parts.append(top)
            freed -= top
        parts.append(freed)


def partitions_inside(n: int, outer: Partition) -> Iterator[Partition]:
    """Partitions of n whose diagram fits inside ``outer``."""
    for mu in partitions(n):
        if outer.contains(mu):
            yield mu


class SkewShape(Value):
    """The cells of ``outer`` not in ``inner``.  An immutable value."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} does not fit inside outer {outer}")
        Value.__init__(self, outer, inner)

    @classmethod
    def straight(cls, outer: Partition) -> "SkewShape":
        return cls(outer, Partition(()))

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        """Parse ``outer/inner`` part lists, e.g. ``4,3,2/3,2`` or ``2,2``."""
        outer_text, _, inner_text = text.partition("/")
        return cls(Partition.parse(outer_text), Partition.parse(inner_text))

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def is_straight(self) -> bool:
        return not self.inner.parts

    def __str__(self) -> str:
        if self.is_straight:
            return str(self.outer)
        return f"{self.outer}/{self.inner}"

    def conjugate(self) -> "SkewShape":
        return SkewShape(self.outer.conjugate(), self.inner.conjugate())


class Tableau(Value):
    """A standard filling of a (possibly skew) shape with 1..n.

    ``rows[i]`` carries the entries of row i + 1, covering columns
    ``inner[i] + 1`` through ``outer[i]``.  An immutable value: equal shapes
    and rows give equal, equally hashed tableaux.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: tuple[tuple[int, ...], ...]):
        # set before the checks, which read the cells through ``entries``
        Value.__init__(self, shape, rows)
        outer, inner = shape.outer, shape.inner
        if len(rows) != outer.length:
            raise ValueError("row count does not match the outer shape")
        for r, row in enumerate(rows, start=1):
            if len(row) != outer.part(r) - inner.part(r):
                raise ValueError(f"row {r} has wrong length")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row {r} is not strictly increasing")
        n = shape.size
        cells = self.entries()
        if sorted(cells.values()) != list(range(1, n + 1)):
            raise ValueError(f"entries are not a permutation of 1..{n}")
        for (r, c), v in cells.items():
            above = cells.get((r - 1, c))
            if above is not None and above >= v:
                raise ValueError(f"column {c} is not strictly increasing")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Tableau":
        """Straight tableau from its rows."""
        outer = Partition(tuple(len(r) for r in rows))
        return cls(SkewShape.straight(outer), tuple(tuple(r) for r in rows))

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def is_straight(self) -> bool:
        return self.shape.is_straight

    def straight_shape(self) -> Partition:
        """The shape of a straight tableau; a skew one raises ValueError."""
        if not self.is_straight:
            raise ValueError(f"pattern of skew shape {self.shape}: need a straight tableau")
        return self.shape.outer

    def entries(self) -> dict[tuple[int, int], int]:
        inner = self.shape.inner
        out = {}
        for r, row in enumerate(self.rows, start=1):
            for i, v in enumerate(row):
                out[(r, inner.part(r) + 1 + i)] = v
        return out

    def row_of(self, value: int) -> int:
        """1-based row holding the given entry."""
        for r, row in enumerate(self.rows, start=1):
            if value in row:
                return r
        raise ValueError(f"entry {value} not in tableau")

    # -- statistics -----------------------------------------------------------

    def descents(self) -> frozenset[int]:
        """Entries i whose successor i + 1 sits in a strictly lower row."""
        row_index = {v: r for r, row in enumerate(self.rows, start=1) for v in row}
        return frozenset(i for i in range(1, self.size) if row_index[i + 1] > row_index[i])

    def maj(self) -> int:
        return sum(self.descents())

    # -- restrictions -----------------------------------------------------------

    def restrict_low(self, k: int) -> "Tableau":
        """The subtableau of entries <= k (entries increase, so a row prefix)."""
        if not 0 <= k <= self.size:
            raise ValueError(f"cut {k} out of range 0..{self.size}")
        inner = self.shape.inner
        new_rows = []
        new_parts = []
        for r, row in enumerate(self.rows, start=1):
            kept = tuple(v for v in row if v <= k)
            new_rows.append(kept)
            new_parts.append(inner.part(r) + len(kept))
        while new_parts and new_parts[-1] == 0:
            new_parts.pop()
            new_rows.pop()
        outer = Partition(tuple(new_parts))
        return Tableau(SkewShape(outer, inner), tuple(new_rows))

    def restrict_high(self, k: int) -> "Tableau":
        """Entries > k, each decreased by k, on the complementary skew shape."""
        if not 0 <= k <= self.size:
            raise ValueError(f"cut {k} out of range 0..{self.size}")
        low_outer = self.restrict_low(k).shape.outer
        new_rows = tuple(tuple(v - k for v in row if v > k) for row in self.rows)
        return Tableau(SkewShape(self.shape.outer, low_outer), new_rows)

    def conjugate(self) -> "Tableau":
        """Transpose across the main diagonal."""
        shape = self.shape.conjugate()
        cells = {(c, r): v for (r, c), v in self.entries().items()}
        inner = shape.inner
        rows = tuple(
            tuple(cells[(r, c)] for c in range(inner.part(r) + 1, shape.outer.part(r) + 1))
            for r in range(1, shape.outer.length + 1)
        )
        return Tableau(shape, rows)

    # -- formats ------------------------------------------------------------------

    def to_json(self) -> dict:
        inner = self.shape.inner
        padded = [
            [None] * inner.part(r) + list(row) for r, row in enumerate(self.rows, start=1)
        ]
        return {
            "outer": list(self.shape.outer.parts),
            "inner": list(self.shape.inner.parts),
            "rows": padded,
        }

    @classmethod
    def from_json(cls, data) -> "Tableau":
        """The tableau of a JSON object or its text: ``outer`` and the optional
        ``inner`` list integers, ``rows`` lists of integers, each row either
        bare or led by one null per inner cell.  Any other value, booleans and
        floats included, or a null out of place raises a ValueError naming the
        field; a missing field raises KeyError."""
        if isinstance(data, str):
            import json

            data = json.loads(data)
        if type(data) is not dict:
            raise ValueError("expected a JSON object with fields 'outer' and 'rows'")
        outer = Partition(_json_list(data["outer"], "outer"))
        inner = Partition(_json_list(data.get("inner", []), "inner"))
        rows = []
        for r, row in enumerate(_json_list(data["rows"], "rows", list), start=1):
            row, k = _json_list(row, "rows", type(None)), inner.part(r)
            if None in row:
                if row[:k] != (None,) * k or None in row[k:]:
                    raise ValueError(
                        f"field 'rows': row {r} holds nulls other than one leading null"
                        f" per inner cell ({k})"
                    )
                row = row[k:]
            rows.append(row)
        return cls(SkewShape(outer, inner), tuple(rows))

    def pretty(self) -> str:
        """Text diagram with dots marking inner cells."""
        inner = self.shape.inner
        width = max((len(str(v)) for row in self.rows for v in row), default=1)
        lines = []
        for r, row in enumerate(self.rows, start=1):
            cells = ["." * width] * inner.part(r) + [str(v).rjust(width) for v in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _json_list(values, field: str, *types) -> tuple:
    """The entries of a JSON list that holds only integers (not booleans) and
    values of the other ``types``; anything else raises ValueError."""
    if type(values) is not list or not {*map(type, values)} <= {int, *types}:
        raise ValueError(f"field {field!r} must hold integers in lists, as in the schema")
    return tuple(values)


def _row_words(shape: SkewShape) -> Iterator[tuple[int, ...]]:
    """The row of each entry 1..n for every standard filling, depth first with
    rows tried top to bottom: a row's next cell is free when the row has room
    and the cell above it is inner or filled.  ``ends[r]`` is row r's last inner
    or filled column; row 0, never tried, ends at the first row's length."""
    n, outer = shape.size, (0, *shape.outer.parts)
    ends = [shape.outer.part(1), *map(shape.inner.part, range(1, len(outer)))]
    word, i, r, top = [0] * n, 0, 1, len(outer)
    while True:
        if i == n:
            yield tuple(word)
        else:
            while r < top and (ends[r] >= outer[r] or ends[r] >= ends[r - 1]):
                r += 1
            if r < top:
                ends[r] += 1
                word[i], i, r = r, i + 1, 1
                continue
        if i == 0:
            return
        i -= 1
        ends[word[i]] -= 1
        r = word[i] + 1


def enumerate_syt(shape: SkewShape) -> Iterator[Tableau]:
    """All standard fillings of a skew shape, in a deterministic order."""
    rows = range(1, shape.outer.length + 1)
    for w in _row_words(shape):
        yield Tableau(shape, tuple(tuple(v for v, s in enumerate(w, 1) if s == r) for r in rows))


def maj_tally(shape: SkewShape) -> list[tuple[int, int]]:
    """The (maj, count) pairs of the standard fillings of a shape, by maj, from
    enumerating every filling (the oracle), tallied from row words with no
    tableau built: i is a descent when entry i + 1 sits in a lower row than
    entry i."""
    majs = Counter(sum(i for i in range(1, len(w)) if w[i - 1] < w[i]) for w in _row_words(shape))
    return sorted(majs.items())


@lru_cache(maxsize=None)
def f_poly_enum(shape: SkewShape) -> BivarPoly:
    """Maj generating polynomial by enumerating every standard filling: the
    polynomial of ``maj_tally``."""
    from .bivar import BivarPoly

    return BivarPoly({(0, maj): c for maj, c in maj_tally(shape)})


def _jacobi_trudi(shape: SkewShape, width: int) -> int:
    """Sum over w in S_l of sgn(w) [n; k_1, ..., k_l] at q = 2^width.

    k_r = outer_r - inner_w(r) - r + w(r), and terms with a negative k_r drop
    out.  Expanded by minors on the first r rows: the column set S of a minor
    fixes N = k_1 + ... + k_r, so the product of [N choose k_r] memoizes on S.
    """
    length = shape.outer.length
    a = [shape.outer.part(r) - r for r in range(1, length + 1)]
    b = [shape.inner.part(c) - c for c in range(1, length + 1)]
    memo = {0: 1}

    def minor(columns: int, r: int, total: int) -> int:
        if columns in memo:
            return memo[columns]
        value, sign = 0, (-1) ** r
        for c in range(length):
            if columns >> c & 1:
                k = a[r] - b[c]
                rest = minor(columns ^ 1 << c, r - 1, total - k) if k >= 0 else 0
                if rest:
                    value += sign * packed_qbinomial(total, k, width) * rest
                sign = -sign
        memo[columns] = value
        return value

    return minor((1 << length) - 1, length - 1, shape.size)


def _packed(shape: SkewShape, width: int) -> int:
    """f_poly of the shape at q = 2^width: the hook product for a straight
    shape, else Jacobi-Trudi."""
    if shape.is_straight:
        return hook_packed(shape.outer, width)
    return _jacobi_trudi(shape, width)


@lru_cache(maxsize=None)
def f_coefficients(shape: SkewShape) -> tuple[int, ...]:
    """The coefficients of ``f_poly``, lowest maj first: the digits of ``_packed``,
    whose width is above the filling count, so above every coefficient."""
    width = packed_width(skew_syt_count(shape))
    return tuple(packed_digits(width, _packed(shape, width)))


@lru_cache(maxsize=None)
def f_poly(shape: SkewShape) -> BivarPoly:
    """Maj generating polynomial of the shape: hook product or Jacobi-Trudi."""
    from .bivar import BivarPoly

    return BivarPoly({(0, maj): c for maj, c in enumerate(f_coefficients(shape))})


def hook_packed(shape: Partition, width: int) -> int:
    """q^b [n]! / (product of [h] over the hook lengths h) at q = 2^width.

    b = sum of (i - 1) * shape_i, the least maj of a filling.  At width 0 this
    is the hook-length count.
    """
    denominator = 1
    for h in shape.hook_lengths():
        denominator = times_q_integer(denominator, h, width)
    value = divide_packed(packed_qfactorial(shape.size, width), denominator)
    return value << width * sum(i * p for i, p in enumerate(shape.parts))


def f_poly_hook(shape: Partition) -> BivarPoly:
    """Maj generating polynomial of a straight shape via the hook-length product."""
    return f_poly(SkewShape.straight(shape))


def syt_count(shape: Partition) -> int:
    """Number of standard fillings of a straight shape (hook-length formula)."""
    return hook_packed(shape, 0)


@lru_cache(maxsize=None)
def skew_syt_count(shape: SkewShape) -> int:
    """Number of standard fillings of a (possibly skew) shape.

    Skew shapes take the Jacobi-Trudi determinant at q = 1 (Aitken's count).
    """
    return _packed(shape, 0)


def conjecture_probe(patterns: list[Tableau], n: int) -> Fraction:
    """Exact containment ratio for tuples of same-shape tableaux.

    Counts tuples (T_1, ..., T_k) of common shape of size n with T_i
    containing the i-th pattern, divided by the count of unconstrained
    same-shape tuples.  A tableau of shape lam containing a fixed pattern of
    shape alpha is determined by an arbitrary standard filling of lam/alpha,
    so both counts reduce to skew counts.  Patterns must be straight.  No
    limit is asserted; this is an exploratory estimator.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    shapes = [pattern.straight_shape() for pattern in patterns]
    numerator = denominator = 0
    for lam in partitions(n):
        denominator += skew_syt_count(SkewShape.straight(lam)) ** len(shapes)
        if all(lam.contains(alpha) for alpha in shapes):
            numerator += math.prod(skew_syt_count(SkewShape(lam, alpha)) for alpha in shapes)
    return Fraction(numerator, denominator)
