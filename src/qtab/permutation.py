"""Permutations, descent statistics and restriction operators.

A permutation is stored in one-line notation with values 1..n.  A kernel of
plain tuple functions, with no validation, computes its statistics and its
four restriction operators: ``word_std`` (standardization), ``word_low`` /
``word_high`` (the subword of values <= k / of values > k shifted down by k),
``word_maj``, ``word_imaj`` and ``word_is_involution``.  ``standardize`` and
the ``Permutation`` methods -- ``restrict_low``, ``restrict_high``, ``prefix``
and ``suffix`` (the letters before / after a cut, standardized), ``maj``,
``imaj``, ``is_involution`` -- are validated wrappers over it.  Brute-force
sweeps run the kernel on ``itertools.permutations`` and ``involution_words``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .values import Value, parse_ints

__all__ = [
    "Permutation",
    "standardize",
    "permutations",
    "involutions",
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


class Permutation(Value):
    """A permutation of [n] in one-line notation; n = 0 is the empty permutation.

    An immutable value: equal words give equal, equally hashed permutations.
    """

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        if tuple(sorted(word)) != tuple(range(1, len(word) + 1)):
            raise ValueError(f"{word} is not a permutation of 1..{len(word)}")
        Value.__init__(self, word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation.

        Accepts values as ``parse_ints`` reads them, or the compact digit form
        for n <= 9 (e.g. ``513697428``).  Blank text is the empty permutation.
        """
        text = text.strip()
        try:
            if "," in text or len(text.split()) > 1:
                word = parse_ints(text)
            else:
                word = [int(ch) for ch in text]
        except ValueError:
            raise ValueError(f"cannot parse permutation from {text!r}") from None
        return cls(tuple(word))

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
