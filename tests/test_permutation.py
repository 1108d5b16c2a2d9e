import itertools

import pytest
from hypothesis import given, strategies as st

from oracle.blocks import (
    BinaryWord,
    ZeroOneMatrix,
    binary_words,
    matrix_of,
    phi,
    phi_inverse,
    shuffle,
)
from oracle.permutation import (
    identity,
    is_involution,
    prefix,
    restrict_low,
    standardize,
    word_is_involution,
)
from polys import add, mul
from qtab.bivar import qbinomial
from qtab.permutation import (
    Permutation,
    involution_words,
    involutions,
    permutations,
    word_high,
    word_imaj,
    word_low,
    word_maj,
    word_std,
)
from qtab.stats import t_count

EXAMPLE = Permutation.parse("5 1 3 6 9 7 4 2 8")


def test_parse_forms():
    assert Permutation.parse("513697428") == EXAMPLE
    assert Permutation.parse("5,1,3,6,9,7,4,2,8") == EXAMPLE
    assert Permutation.parse("") == Permutation(())
    assert Permutation.parse(" 2, 1 ") == Permutation.parse("2 1") == Permutation((2, 1))
    with pytest.raises(ValueError):
        Permutation.parse("1 1 2")
    for text in ("2,,1", ",", "1,2,"):
        with pytest.raises(ValueError, match="cannot parse permutation"):
            Permutation.parse(text)


def test_restrictions_worked_example():
    assert restrict_low(EXAMPLE, 4) == Permutation.parse("1342")
    assert EXAMPLE.restrict_high(4) == Permutation.parse("12534")
    assert prefix(EXAMPLE, 4) == Permutation.parse("3124")
    assert EXAMPLE.suffix(4) == Permutation.parse("53214")


def test_restriction_edges():
    assert restrict_low(EXAMPLE, 0) == Permutation(())
    assert prefix(EXAMPLE, 0) == Permutation(())
    assert prefix(EXAMPLE, 9) == EXAMPLE
    assert restrict_low(EXAMPLE, 9) == EXAMPLE
    with pytest.raises(ValueError):
        restrict_low(EXAMPLE, 10)


def test_descents_maj_worked_example():
    assert EXAMPLE.descents() == frozenset({1, 5, 6, 7})
    assert EXAMPLE.maj() == 19


def test_identity_and_decreasing_statistics():
    ident = identity(6)
    assert ident.descents() == frozenset()
    assert ident.maj() == 0
    p321 = Permutation.parse("321")
    assert p321.descents() == frozenset({1, 2})
    assert p321.maj() == 3
    assert p321.imaj() == 3  # self-inverse


@pytest.mark.parametrize("n", range(0, 6))
def test_prefix_inverse_commutes_with_low_restriction(n):
    for perm in permutations(n):
        inv = perm.inverse()
        for k in range(n + 1):
            assert prefix(perm, k).inverse() == restrict_low(inv, k)


@pytest.mark.parametrize("n", range(0, 6))
def test_restrictions_compose(n):
    for perm in permutations(n):
        assert prefix(perm, n) == perm
        for k in range(n + 1):
            for j in range(k + 1):
                assert restrict_low(restrict_low(perm, k), j) == restrict_low(perm, j)


@pytest.mark.parametrize("n", range(0, 8))
def test_maj_generating_function_is_qfactorial(n):
    from qtab.bivar import qfactorial

    total = {}
    for perm in permutations(n):
        total = add(total, {(0, perm.maj()): 1})
    assert total == qfactorial(n)


@pytest.mark.parametrize("n", range(0, 9))
def test_involution_generator(n):
    invs = list(involutions(n))
    assert len(invs) == t_count(n)
    assert all(is_involution(p) for p in invs)
    assert len(set(invs)) == len(invs)


# References for the word kernel, independent of it: standardization by
# counting smaller letters, maj and imaj through descent sets, involutions
# through the inverse, and the dict-building involution generator the kernel's
# buffer generator replaced.
def _std_reference(values):
    return tuple(sum(u <= v for u in values) for v in values)


def _involutions_reference(n):
    def build(remaining, mapping):
        if not remaining:
            yield mapping
            return
        x, rest = remaining[0], remaining[1:]
        yield from build(rest, {**mapping, x: x})
        for idx, y in enumerate(rest):
            yield from build(rest[:idx] + rest[idx + 1 :], {**mapping, x: y, y: x})

    for mapping in build(tuple(range(1, n + 1)), {}):
        yield tuple(mapping[i] for i in range(1, n + 1))


@pytest.mark.parametrize("n", range(0, 8))
def test_word_kernel_matches_references(n):
    for word in itertools.permutations(range(1, n + 1)):
        perm = Permutation(word)
        inv = perm.inverse()
        assert word_maj(word) == perm.maj() == sum(perm.descents())
        assert word_imaj(word) == perm.imaj() == sum(inv.descents())
        assert word_is_involution(word) == is_involution(perm) == (inv == perm)
        for k in range(n + 1):
            head, tail = word[:k], word[k:]
            low = tuple(v for v in word if v <= k)
            high = tuple(v - k for v in word if v > k)
            assert word_std(head) == prefix(perm, k).word == _std_reference(head)
            assert word_std(tail) == perm.suffix(k).word == _std_reference(tail)
            assert word_low(word, k) == restrict_low(perm, k).word == low
            assert word_high(word, k) == perm.restrict_high(k).word == high
            # the sweeps take maj of a raw suffix and imaj of a raw high word
            std_tail = Permutation(_std_reference(tail))
            assert word_maj(tail) == sum(std_tail.descents())
            assert word_imaj(tail) == sum(std_tail.inverse().descents())
            assert word_imaj(high) == sum(Permutation(high).inverse().descents())


@pytest.mark.parametrize("n", range(0, 12))
def test_involution_words_keep_order(n):
    words = list(involution_words(n))
    assert words == list(_involutions_reference(n))
    assert [perm.word for perm in involutions(n)] == words


def test_standardize():
    assert standardize([9, 7, 4, 2, 8]) == Permutation.parse("53214")
    assert standardize([]) == Permutation(())


def test_matrix_worked_example():
    m = matrix_of(Permutation.parse("4132"))
    assert m.entries == ((0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0))
    assert m.compress() == Permutation.parse("4132")


def test_equivalent_matrices_compress_alike():
    first = ZeroOneMatrix(((0, 1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)))
    second = ZeroOneMatrix(
        ((0, 1, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 0))
    )
    assert first.compress() == Permutation.parse("213")
    assert second.compress() == Permutation.parse("213")
    assert str(second.row_word()) == "1011"
    assert str(second.col_word()) == "11010"


def test_matrix_words_edges():
    zero = ZeroOneMatrix(((0, 0), (0, 0)))
    assert str(zero.row_word()) == "00"
    assert zero.compress() == Permutation(())
    full = matrix_of(Permutation.parse("4132"))
    assert str(full.row_word()) == "1111"
    assert str(full.col_word()) == "1111"
    empty = ZeroOneMatrix(())
    assert empty.compress() == Permutation(())


def test_matrix_invariant_enforced():
    with pytest.raises(ValueError):
        ZeroOneMatrix(((1, 1),))
    with pytest.raises(ValueError):
        ZeroOneMatrix(((1,), (1,)))


def test_phi_worked_example():
    image = phi(Permutation.parse("7152436"), 2, 3)
    assert image.p11 == Permutation.parse("1")
    assert image.p12 == Permutation.parse("21")
    assert image.p21 == Permutation.parse("1")
    assert image.p22 == Permutation.parse("213")
    assert str(image.c1) == "01"
    assert str(image.r1) == "101"
    assert str(image.c2) == "11010"
    assert str(image.r2) == "0111"


def test_phi_no_cut():
    perm = Permutation.parse("3142")
    image = phi(perm, 0, 0)
    assert image.p11 == Permutation(())
    assert image.p22 == perm
    assert str(image.c2) == "1111"
    assert str(image.r2) == "1111"
    assert phi_inverse(image) == perm


@pytest.mark.parametrize("n", range(0, 6))
def test_phi_roundtrip_exhaustive(n):
    for a in range(n + 1):
        for b in range(n + 1):
            for perm in permutations(n):
                assert phi_inverse(phi(perm, a, b)) == perm


def test_phi_shuffle_structure():
    # the suffix operators factor through the bottom blocks as shuffles
    for perm in permutations(5):
        for a in range(6):
            for b in range(6):
                image = phi(perm, a, b)
                assert perm.suffix(b) == shuffle(image.p21, image.p22, image.r2)
                assert perm.restrict_high(a).inverse() == shuffle(
                    image.p12.inverse(), image.p22.inverse(), image.c2
                )


def test_phi_matches_matrix_slices():
    perm = Permutation.parse("7152436")
    image = phi(perm, 2, 3)
    m = matrix_of(perm).entries

    def block(rows, cols):
        return ZeroOneMatrix(tuple(tuple(m[i][j] for j in cols) for i in rows))

    assert block(range(0, 3), range(0, 2)).compress() == image.p11
    assert block(range(0, 3), range(2, 7)).compress() == image.p12
    assert block(range(3, 7), range(0, 2)).compress() == image.p21
    assert block(range(3, 7), range(2, 7)).compress() == image.p22
    assert block(range(3, 7), range(0, 2)).col_word() == image.c1
    assert block(range(0, 3), range(2, 7)).row_word() == image.r1
    assert block(range(3, 7), range(2, 7)).col_word() == image.c2
    assert block(range(3, 7), range(2, 7)).row_word() == image.r2


def test_shuffle_worked_example():
    result = shuffle(
        Permutation.parse("3142"), Permutation.parse("231"), BinaryWord.parse("0010110")
    )
    assert result == Permutation.parse("3164752")


def test_shuffle_trivial():
    sigma = Permutation.parse("312")
    assert shuffle(sigma, Permutation(()), BinaryWord.parse("000")) == sigma
    with pytest.raises(ValueError):
        shuffle(sigma, sigma, BinaryWord.parse("0101"))


@pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(4)])
def test_shuffle_maj_identity(a, b):
    # summed over all interleavings, maj factors through a Gaussian binomial
    for sigma in permutations(a):
        for tau in permutations(b):
            total = {}
            for word in binary_words(a + b, b):
                total = add(total, {(0, shuffle(sigma, tau, word).maj()): 1})
            expected = mul({(0, sigma.maj() + tau.maj()): 1}, qbinomial(a + b, b))
            assert total == expected


@given(st.permutations(list(range(1, 7))))
def test_inverse_involutive(word):
    perm = Permutation(tuple(word))
    assert perm.inverse().inverse() == perm
    assert perm.imaj() == perm.inverse().maj()
