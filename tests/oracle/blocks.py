"""Binary words, 0-1 matrices, the block decomposition phi and shuffles.

``phi`` cuts the matrix of a permutation into four submatrices by a column
split at ``a`` and a row split at ``b``, and records each block's
compression with the binary words that place it; ``phi_inverse``
reassembles the permutation.  ``shuffle`` interleaves two permutations along
a binary word.  The tests check ``phi`` against its inverse and the shuffle
maj identity; no command runs any of it.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from qtab.permutation import Permutation
from qtab.values import Value

from .permutation import standardize


class BinaryWord(Value):
    """A word of 0s and 1s; ``weight`` counts the 1s.  An immutable value."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"{bits} is not a 0/1 word")
        Value.__init__(self, bits)

    @classmethod
    def parse(cls, text: str) -> "BinaryWord":
        return cls(tuple(int(ch) for ch in text.strip()))

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def binary_words(length: int, weight: int) -> Iterator[BinaryWord]:
    """All 0/1 words of the given length and weight, lexicographically."""
    for ones in itertools.combinations(range(length), weight):
        yield BinaryWord(tuple(int(i in ones) for i in range(length)))


class ZeroOneMatrix(Value):
    """A 0-1 matrix in which every row and column holds at most one 1.  An
    immutable value."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in entries:
            if any(x not in (0, 1) for x in row):
                raise ValueError("entries must be 0 or 1")
            if sum(row) > 1:
                raise ValueError("row with more than one 1")
        if any(sum(column) > 1 for column in zip(*entries)):
            raise ValueError("column with more than one 1")
        Value.__init__(self, entries)

    @classmethod
    def from_permutation(cls, perm: Permutation) -> "ZeroOneMatrix":
        columns = range(1, perm.size + 1)
        return cls(tuple(tuple(int(v == j) for j in columns) for v in perm.word))

    def compress(self) -> Permutation:
        """The permutation left after deleting all-zero rows and columns."""
        return standardize([row.index(1) for row in self.entries if 1 in row])

    def row_word(self) -> BinaryWord:
        return BinaryWord(tuple(sum(row) for row in self.entries))

    def col_word(self) -> BinaryWord:
        return BinaryWord(tuple(map(sum, zip(*self.entries))))


def matrix_of(perm: Permutation) -> ZeroOneMatrix:
    """Permutation matrix: entry (i, j) is 1 exactly when the i-th letter is j."""
    return ZeroOneMatrix.from_permutation(perm)


class PhiImage(Value):
    """Image of a permutation under the 2x2 block decomposition of its matrix.

    The matrix of a permutation of [a + m] = [b + n] is cut after column a and
    after row b.  ``p11``, ``p12``, ``p21``, ``p22`` are the compressions of
    the four blocks; ``c1`` and ``c2`` are the column words of the bottom-left
    and bottom-right blocks, ``r1`` and ``r2`` the row words of the top-right
    and bottom-right blocks.  An immutable value.
    """

    __slots__ = ("p11", "p12", "p21", "p22", "c1", "r1", "c2", "r2", "a", "b")

    def __init__(
        self,
        p11: Permutation,
        p12: Permutation,
        p21: Permutation,
        p22: Permutation,
        c1: BinaryWord,
        r1: BinaryWord,
        c2: BinaryWord,
        r2: BinaryWord,
        a: int,
        b: int,
    ):
        m, n = len(c2), len(r2)
        if len(c1) != a or len(r1) != b:
            raise ValueError("word lengths do not match the cut sizes")
        if a + m != b + n:
            raise ValueError("block dimensions are inconsistent")
        j = p11.size
        k = n - a + j
        if p12.size != b - j or p21.size != a - j or p22.size != k:
            raise ValueError("block permutation sizes do not match")
        if c1.weight != a - j or r1.weight != b - j or c2.weight != k or r2.weight != k:
            raise ValueError("word weights do not match the block sizes")
        Value.__init__(self, p11, p12, p21, p22, c1, r1, c2, r2, a, b)


def phi(perm: Permutation, a: int, b: int) -> PhiImage:
    """Decompose a permutation along a column cut at a and a row cut at b."""
    total = perm.size
    if not (0 <= a <= total and 0 <= b <= total):
        raise ValueError(f"cuts a={a}, b={b} out of range for size {total}")
    w = perm.word
    inv = perm.inverse().word  # inv[j-1] = position of value j

    def block(rows: range, cols: range) -> Permutation:
        colset = set(cols)
        return standardize([w[i - 1] for i in rows if w[i - 1] in colset])

    top, bottom = range(1, b + 1), range(b + 1, total + 1)
    left, right = range(1, a + 1), range(a + 1, total + 1)
    return PhiImage(
        p11=block(top, left),
        p12=block(top, right),
        p21=block(bottom, left),
        p22=block(bottom, right),
        c1=BinaryWord(tuple(1 if inv[j - 1] > b else 0 for j in left)),
        r1=BinaryWord(tuple(1 if w[i - 1] > a else 0 for i in top)),
        c2=BinaryWord(tuple(1 if inv[j - 1] > b else 0 for j in right)),
        r2=BinaryWord(tuple(1 if w[i - 1] > a else 0 for i in bottom)),
        a=a,
        b=b,
    )


def phi_inverse(image: PhiImage) -> Permutation:
    """Reassemble the permutation from its block decomposition."""
    a, b = image.a, image.b
    word = [0] * (a + len(image.c2))

    def slots(bits: BinaryWord, offset: int) -> list[list[int]]:
        """1-based indices, shifted by offset, of the 0s and then of the 1s."""
        return [[offset + i for i, x in enumerate(bits.bits, 1) if x == bit] for bit in (0, 1)]

    top_left_rows, top_right_rows = slots(image.r1, 0)
    bottom_left_rows, bottom_right_rows = slots(image.r2, b)
    left_top_cols, left_bottom_cols = slots(image.c1, 0)
    right_top_cols, right_bottom_cols = slots(image.c2, a)
    blocks = [
        (image.p11, top_left_rows, left_top_cols),
        (image.p12, top_right_rows, right_top_cols),
        (image.p21, bottom_left_rows, left_bottom_cols),
        (image.p22, bottom_right_rows, right_bottom_cols),
    ]
    for perm, rows, cols in blocks:
        if perm.size != len(rows) or perm.size != len(cols):
            raise ValueError("block does not fit its row/column slots")
        for s, v in enumerate(perm.word):
            word[rows[s] - 1] = cols[v - 1]
    return Permutation(tuple(word))


def shuffle(sigma: Permutation, tau: Permutation, word: BinaryWord) -> Permutation:
    """Interleave sigma and the shifted tau along a 0/1 word.

    The i-th 0 of the word receives the i-th letter of sigma; the j-th 1
    receives a + tau_j, where a is the size of sigma.
    """
    a, b = sigma.size, tau.size
    if word.length != a + b or word.weight != b:
        raise ValueError(
            f"word of length {word.length}, weight {word.weight} cannot shuffle "
            f"sizes {a} and {b}"
        )
    lows, highs = iter(sigma.word), iter(tau.word)
    return Permutation(tuple(a + next(highs) if bit else next(lows) for bit in word.bits))
