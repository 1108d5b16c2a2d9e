import json
from collections import Counter

import pytest

from qtab.bivar import ONE, BivarPoly
from qtab.stats import t_count
from qtab.tableau import (
    Partition,
    SkewShape,
    Tableau,
    enumerate_syt,
    f_poly,
    f_poly_enum,
    f_poly_hook,
    maj_tally,
    partitions,
    partitions_inside,
    skew_syt_count,
    syt_count,
)

EXAMPLE = Tableau.from_rows([[1, 2, 4, 7], [3, 5, 6], [8, 9]])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of(1, 2)
    with pytest.raises(ValueError):
        Partition.of(2, 0)
    assert Partition.parse("").parts == ()
    assert Partition.parse(" 3, 1 ") == Partition.parse("3 1") == Partition.of(3, 1)
    for text in ("3,,1", ",", "3,1,"):
        with pytest.raises(ValueError, match="cannot parse partition"):
            Partition.parse(text)


def _partitions_recursive(remaining, cap):
    # the recursive generator the iterative one replaced
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _partitions_recursive(remaining - first, first):
            yield (first,) + rest


def test_partitions_match_recursive_order_through_30():
    for n in range(31):
        assert [p.parts for p in partitions(n)] == list(_partitions_recursive(n, n)), n


def test_partitions_past_the_recursion_limit():
    # the recursive generator raised RecursionError near n = 1000
    first = [p.parts for p, _ in zip(partitions(3000), range(3))]
    assert first == [(3000,), (2999, 1), (2998, 2)]
    with pytest.raises(ValueError):
        next(partitions(-1))


def test_enumerate_partitions_of_4():
    found = [p.parts for p in partitions(4)]
    assert found == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions(0)] == [()]


def test_conjugate():
    assert Partition.of(4, 3, 1).conjugate() == Partition.of(3, 2, 2, 1)
    for n in range(7):
        for shape in partitions(n):
            assert shape.conjugate().conjugate() == shape


def test_hooks():
    assert sorted(Partition.of(2, 1).hook_lengths()) == [1, 1, 3]
    assert syt_count(Partition.of(2, 1)) == 2
    assert syt_count(Partition(())) == 1


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau.from_rows([[2, 1], [3]])  # row not increasing
    with pytest.raises(ValueError):
        Tableau.from_rows([[1, 3], [2, 2]])  # repeated entry
    with pytest.raises(ValueError):
        Tableau.from_rows([[1, 2], [4], [3]])  # column not increasing after swap
    with pytest.raises(ValueError):
        Tableau.from_rows([[2, 3], [1]])  # column 1 decreasing


def test_skew_tableau_column_check():
    # (2,2)/(1): cells (1,2),(2,1),(2,2); column 2 holds (1,2) then (2,2)
    tab = Tableau(SkewShape.parse("2,2/1"), ((2,), (1, 3)))
    assert tab.entries() == {(1, 2): 2, (2, 1): 1, (2, 2): 3}
    with pytest.raises(ValueError):
        Tableau(SkewShape.parse("2,2/1"), ((1,), (3, 2)))


def test_descents_worked_example():
    assert EXAMPLE.descents() == frozenset({2, 4, 7})
    assert EXAMPLE.maj() == 13


def test_descents_edges():
    single_row = Tableau.from_rows([[1, 2, 3, 4]])
    assert single_row.descents() == frozenset()
    column = Tableau.from_rows([[1], [2], [3], [4]])
    assert column.maj() == 6  # n(n-1)/2 with every position a descent


def test_restrictions_worked_example():
    low = EXAMPLE.restrict_low(5)
    assert low.rows == ((1, 2, 4), (3, 5))
    assert low.shape == SkewShape.parse("3,2")
    high = EXAMPLE.restrict_high(5)
    assert high.shape == SkewShape.parse("4,3,2/3,2")
    assert high.rows == ((2,), (1,), (3, 4))


def test_restriction_edges():
    assert EXAMPLE.restrict_low(9) == EXAMPLE
    empty_high = EXAMPLE.restrict_high(9)
    assert empty_high.size == 0
    low0 = EXAMPLE.restrict_low(0)
    assert low0.size == 0 and low0.shape.outer.parts == ()
    assert EXAMPLE.restrict_high(0).rows == EXAMPLE.rows


@pytest.mark.parametrize("n", range(1, 7))
def test_restriction_roundtrip(n):
    # a tableau is recoverable from its two restrictions at any cut
    for shape in partitions(n):
        for tab in enumerate_syt(SkewShape.straight(shape)):
            for k in range(n + 1):
                low, high = tab.restrict_low(k), tab.restrict_high(k)
                merged = dict(low.entries())
                for cell, value in high.entries().items():
                    merged[cell] = value + k
                assert merged == tab.entries()


def test_enumerate_syt_counts():
    assert len(list(enumerate_syt(SkewShape.parse("2,1")))) == 2
    assert len(list(enumerate_syt(SkewShape.parse("5")))) == 1
    assert len(list(enumerate_syt(SkewShape.parse("")))) == 1  # empty shape


def test_enumerate_syt_skew_contains_example_restriction():
    high = EXAMPLE.restrict_high(5)
    found = list(enumerate_syt(SkewShape.parse("4,3,2/3,2")))
    assert high in found
    assert len(found) == len(set(found))


@pytest.mark.parametrize("n", range(0, 8))
def test_enumeration_matches_hook_counts(n):
    for shape in partitions(n):
        tabs = list(enumerate_syt(SkewShape.straight(shape)))
        assert len(tabs) == syt_count(shape)


def test_f_poly_examples():
    assert f_poly(SkewShape.parse("2,1")) == BivarPoly({(0, 1): 1, (0, 2): 1})
    assert f_poly(SkewShape.parse("4")) == ONE
    assert f_poly_hook(Partition.of(2, 1)) == f_poly(SkewShape.parse("2,1"))


def test_f_poly_single_column():
    n = 5
    shape = Partition(tuple([1] * n))
    assert f_poly_hook(shape) == BivarPoly.monomial(0, n * (n - 1) // 2)


@pytest.mark.parametrize("n", range(0, 9))
def test_hook_polynomial_equals_enumeration(n):
    # exhaustive firewall before the hook path is trusted at larger sizes
    for shape in partitions(n):
        assert f_poly_hook(shape) == f_poly_enum(SkewShape.straight(shape)), shape


def _enumerate_syt_recursive(shape):
    # the recursive generator the row walk replaced, frozen here as its order oracle
    outer, inner = shape.outer, shape.inner
    nrows, n = outer.length, shape.size
    widths = [outer.part(r) - inner.part(r) for r in range(1, nrows + 1)]
    rows = [[] for _ in range(nrows)]

    def placeable(r):
        if len(rows[r]) >= widths[r]:
            return False
        col = inner.part(r + 1) + len(rows[r]) + 1
        if r == 0:
            return True
        return col <= inner.part(r) or col <= inner.part(r) + len(rows[r - 1])

    def fill(value):
        if value > n:
            yield Tableau(shape, tuple(tuple(row) for row in rows))
            return
        for r in range(nrows):
            if placeable(r):
                rows[r].append(value)
                yield from fill(value + 1)
                rows[r].pop()

    if n == 0:
        yield Tableau(shape, tuple(() for _ in range(nrows)))
        return
    yield from fill(1)


@pytest.mark.parametrize("n", range(0, 9))
def test_skew_polynomial_and_count_equal_enumeration(n):
    # every pair mu inside lam with |lam| = n: 862 pairs for n <= 8.  The row walk
    # gives the recursive generator's tableaux in its order, and the maj tallied
    # from row words is the maj of each built tableau.
    for lam in partitions(n):
        for size in range(n + 1):
            for mu in partitions_inside(size, lam):
                shape = SkewShape(lam, mu)
                tabs = list(enumerate_syt(shape))
                assert tabs == list(_enumerate_syt_recursive(shape)), shape
                assert f_poly_enum(shape) == BivarPoly(((0, t.maj()), 1) for t in tabs), shape
                assert maj_tally(shape) == sorted(Counter(t.maj() for t in tabs).items()), shape
                assert f_poly(shape) == f_poly_enum(shape), shape
                assert skew_syt_count(shape) == len(tabs), shape


def test_skew_determinant_beyond_enumeration():
    # 8,653,502 fillings; the count is Aitken's determinant at q = 1
    shape = SkewShape.parse("7,6,5,4/3,2,1")
    poly = f_poly(shape)
    assert skew_syt_count(shape) == poly.evaluate(1, 1) == 8653502
    assert all(c > 0 for _, c in poly.sorted_terms())


@pytest.mark.parametrize("n", range(0, 8))
def test_f_poly_at_one_counts_and_involution_total(n):
    total = 0
    for shape in partitions(n):
        straight = SkewShape.straight(shape)
        count = f_poly(straight).evaluate(1, 1)
        assert count == skew_syt_count(straight)
        total += count
    assert total == t_count(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_maj_conjugation_complement(n):
    # maj of a tableau and its transpose sum to n(n-1)/2
    full = n * (n - 1) // 2
    for shape in partitions(n):
        for tab in enumerate_syt(SkewShape.straight(shape)):
            assert tab.maj() + tab.conjugate().maj() == full


def test_json_roundtrip():
    high = EXAMPLE.restrict_high(5)
    data = high.to_json()
    assert data["outer"] == [4, 3, 2]
    assert data["inner"] == [3, 2]
    assert data["rows"][0] == [None, None, None, 2]
    assert Tableau.from_json(json.dumps(data)) == high
    assert Tableau.from_json(EXAMPLE.to_json()) == EXAMPLE


def test_skew_equality_keeps_anchor():
    # same filling pattern, different inner shapes: not equal
    a = Tableau(SkewShape.parse("2,1/1"), ((1,), (2,)))
    b = Tableau(SkewShape.parse("1,1"), ((1,), (2,)))
    assert a != b


def test_straight_shape_rejects_skew_tableaux():
    assert EXAMPLE.straight_shape() == Partition.of(4, 3, 2)
    with pytest.raises(ValueError):
        EXAMPLE.restrict_high(5).straight_shape()


def test_skew_one_row_strip():
    # a single skew row has exactly one filling with no descents
    assert f_poly(SkewShape.parse("3/1")) == ONE
    assert skew_syt_count(SkewShape.parse("3/1")) == 1
