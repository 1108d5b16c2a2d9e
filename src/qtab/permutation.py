"""Permutations, descent statistics, restriction operators, and 0-1 matrices.

A permutation is stored in one-line notation with values 1..n.  A kernel of
plain tuple functions, with no validation, computes its statistics and its
four restriction operators: ``word_std`` (standardization), ``word_low`` /
``word_high`` (the subword of values <= k / of values > k shifted down by k),
``word_maj``, ``word_imaj`` and ``word_is_involution``.  ``standardize`` and
the ``Permutation`` methods -- ``restrict_low``, ``restrict_high``, ``prefix``
and ``suffix`` (the letters before / after a cut, standardized), ``maj``,
``imaj``, ``is_involution`` -- are validated wrappers over it.  Brute-force
sweeps run the kernel on ``itertools.permutations`` and ``involution_words``.

The module also provides the block decomposition of a permutation matrix cut
into four submatrices by a column split at ``a`` and a row split at ``b``,
together with its inverse, and the shuffle of two permutations along a binary
word.  These are the combinatorial engines behind the exact containment
identities in :mod:`qtab.containment`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

__all__ = [
    "Permutation",
    "BinaryWord",
    "ZeroOneMatrix",
    "PhiImage",
    "standardize",
    "permutations",
    "involutions",
    "matrix_of",
    "phi",
    "phi_inverse",
    "shuffle",
]


def word_std(values: Sequence[int]) -> tuple[int, ...]:
    """The word of 1..len order-isomorphic to a sequence of distinct integers."""
    ranks = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple([ranks[v] for v in values])


def word_low(word: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple([v for v in word if v <= k])


def word_high(word: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple([v - k for v in word if v > k])


def word_maj(word: Sequence[int]) -> int:
    """Sum of the positions i with word[i-1] > word[i]; any distinct letters."""
    return sum([i for i in range(1, len(word)) if word[i - 1] > word[i]])


def word_imaj(word: Sequence[int]) -> int:
    """imaj of the standardized word: maj of its positions listed by increasing value."""
    return word_maj(sorted(range(len(word)), key=word.__getitem__))


def word_is_involution(word: Sequence[int]) -> bool:
    return all(word[v - 1] == i for i, v in enumerate(word, start=1))


def standardize(values: Sequence[int]) -> "Permutation":
    """The permutation order-isomorphic to a sequence of distinct integers."""
    return Permutation(word_std(values))


class Permutation:
    """A permutation of [n] in one-line notation; n = 0 is the empty permutation.

    An immutable value: equal words give equal, equally hashed permutations.
    """

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        if tuple(sorted(word)) != tuple(range(1, len(word) + 1)):
            raise ValueError(f"{word} is not a permutation of 1..{len(word)}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.word,))

    def __repr__(self) -> str:
        return f"Permutation(word={self.word!r})"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation.

        Accepts space- or comma-separated values, or the compact digit form
        for n <= 9 (e.g. ``513697428``).  The empty string is the empty
        permutation.
        """
        text = text.strip()
        if not text:
            return cls(())
        if any(ch in text for ch in " ,"):
            return cls(tuple(int(tok) for tok in text.replace(",", " ").split()))
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation from {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @property
    def size(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)

    def compact(self) -> str:
        """Digit string form, only valid for n <= 9."""
        if self.size > 9:
            raise ValueError("compact form requires n <= 9")
        return "".join(str(v) for v in self.word)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_involution(self) -> bool:
        return word_is_involution(self.word)

    # -- statistics ---------------------------------------------------------

    def descents(self) -> frozenset[int]:
        """Positions i in [n-1] where the letter drops."""
        w = self.word
        return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def maj(self) -> int:
        """Major index: the sum of the descent positions."""
        return word_maj(self.word)

    def imaj(self) -> int:
        """Major index of the inverse permutation."""
        return word_imaj(self.word)

    # -- restriction operators ------------------------------------------------

    def _check_cut(self, k: int) -> None:
        if not 0 <= k <= self.size:
            raise ValueError(f"cut point {k} out of range 0..{self.size}")

    def restrict_low(self, k: int) -> "Permutation":
        """Subword of values <= k; already a permutation of [k]."""
        self._check_cut(k)
        return Permutation(word_low(self.word, k))

    def restrict_high(self, k: int) -> "Permutation":
        """Subword of values > k, shifted down to a permutation of [n-k]."""
        self._check_cut(k)
        return Permutation(word_high(self.word, k))

    def prefix(self, k: int) -> "Permutation":
        """Standardization of the first k letters."""
        self._check_cut(k)
        return Permutation(word_std(self.word[:k]))

    def suffix(self, k: int) -> "Permutation":
        """Standardization of the letters after position k."""
        self._check_cut(k)
        return Permutation(word_std(self.word[k:]))


def permutations(n: int) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic order."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def involution_words(n: int) -> Iterator[tuple[int, ...]]:
    """Words of all involutions of [n]: the smallest free value is fixed, then
    paired with each larger free value in turn.  The cost is the involution
    count, not n!.  One buffer is reused; every slot is rewritten per word."""
    word = [0] * n

    def build(free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(word)
            return
        x, rest = free[0], free[1:]
        word[x - 1] = x
        yield from build(rest)
        for idx, y in enumerate(rest):
            word[x - 1], word[y - 1] = y, x
            yield from build(rest[:idx] + rest[idx + 1 :])

    yield from build(tuple(range(1, n + 1)))


def involutions(n: int) -> Iterator[Permutation]:
    """All involutions of [n], in the order of ``involution_words``."""
    for word in involution_words(n):
        yield Permutation(word)


class BinaryWord:
    """A word of 0s and 1s; ``weight`` counts the 1s.  An immutable value."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"{bits} is not a 0/1 word")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bits,))

    def __repr__(self) -> str:
        return f"BinaryWord(bits={self.bits!r})"

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


class ZeroOneMatrix:
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
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"ZeroOneMatrix(entries={self.entries!r})"

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


class PhiImage:
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
        for name, value in zip(self.__slots__, (p11, p12, p21, p22, c1, r1, c2, r2, a, b)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"PhiImage({shown})"


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
