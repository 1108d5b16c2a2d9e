import itertools
import math

import pytest

from oracle.jsets import is_j_set, is_overpartition, j2_extend_ok, j_extend_ok, j_sets_of
from oracle.permutation import identity
from qtab.jcriteria import (
    delta,
    delta_bar,
    format_entries,
    format_int_set,
    is_j2_set,
    j2_series,
    j_profile,
    parse_int_set,
    psi,
    psi2,
)
from qtab.jsets import (
    _j2_memo,
    _j2_set_words,
    _j2_word_sets,
    j2_count,
    j2_counts,
    j2_set,
    j2_sets_of,
    j_set,
)
from qtab.permutation import Permutation, permutations, word_low, word_std

WORKED_SET = {0, 1, 2, 3, 5, 6, 9, 13, 17, 18, 19, 20, 22}
WORKED_SET_2 = {0, 1, 3, 6, 7, 8, 12, 13, 14, 15, 17}


# Oracles: the j-set and j2-set from validated Permutation objects, one per
# cut, with standardization by counting smaller letters (no word kernel).
def _prefix_oracle(perm, j):
    head = perm.word[:j]
    return Permutation(tuple(sum(u <= v for u in head) for v in head))


def _j_set_oracle(perm):
    return frozenset(
        j
        for j in range(perm.size + 1)
        if _prefix_oracle(perm, j) == _prefix_oracle(perm, j).inverse()
    )


def _j2_set_oracle(sigma, tau):
    top = min(sigma.size, tau.size)
    return frozenset(
        j
        for j in range(top + 1)
        if _prefix_oracle(sigma, j) == Permutation(tuple(v for v in tau.word if v <= j))
    )


def test_j_set_matches_oracle_through_7():
    for n in range(8):
        for perm in permutations(n):
            assert j_set(perm) == _j_set_oracle(perm), perm


def test_j2_set_matches_oracle_through_5():
    perms = [perm for n in range(6) for perm in permutations(n)]
    for sigma in perms:
        for tau in perms:
            assert j2_set(sigma, tau) == _j2_set_oracle(sigma, tau), (sigma, tau)


def test_brute_set_lists_match_oracle():
    for n in range(7):
        perms = list(permutations(n))
        assert j_sets_of(n) == {_j_set_oracle(perm) for perm in perms}
        assert j2_sets_of(n) == {_j2_set_oracle(perm, perm) for perm in perms}


def _j2_set_per_cut(sigma, tau):
    # the per-cut comparison the decremental walk replaced: rebuild both sides at every cut
    top = min(len(sigma), len(tau))
    return frozenset(j for j in range(top + 1) if word_std(sigma[:j]) == word_low(tau, j))


def test_j2_sets_of_matches_per_cut_reference_through_8():
    for n in range(9):
        words = itertools.permutations(range(1, n + 1))
        assert j2_sets_of(n) == {_j2_set_per_cut(w, w) for w in words}, n
    assert [j2_count(n) for n in range(9)] == j2_series(8)


def test_j2_walk_matches_full_walk_per_word_through_8():
    for n in range(9):
        walked = dict(_j2_word_sets(n))
        assert len(walked) == math.factorial(n)
        assert all(type(w) is bytes for w in walked)
        for w, cuts in walked.items():
            assert cuts == _j2_set_words(w, w), w


def test_j2_set_below_a_kept_cut_is_that_of_the_prefix_through_7():
    for n in range(8):
        for w in itertools.permutations(range(1, n + 1)):
            cuts = _j2_set_words(w, w)
            for j in cuts:
                u = word_std(w[:j])
                assert u == word_low(w, j)
                assert {i for i in cuts if i <= j} == _j2_set_words(u, u), (w, j)


def test_j2_memo_shares_one_object_per_distinct_set():
    for j in range(8):
        memo = _j2_memo(j)
        assert len(memo) == math.factorial(j)
        assert len({id(cuts) for cuts in memo.values()}) == j2_count(j), j


def test_j2_counts_walk_each_size_once_through_8():
    for n in range(9):
        j2_sets_of.cache_clear()
        _j2_memo.cache_clear()
        counts = j2_counts(n)
        # the top size is walked without a memo, every smaller size once into one
        assert _j2_memo.cache_info().currsize == n
        assert j2_sets_of.cache_info().currsize == 1
        assert counts == [j2_count(k) for k in range(n + 1)] == j2_series(n), n
    with pytest.raises(ValueError):
        j2_counts(-1)


def test_delta_worked_example():
    assert delta(WORKED_SET) == (2, 1, 1, 1, 4, 4, 3, 1, 2, 1, 1, 1)


def test_delta_bar_worked_example():
    merged = delta_bar(WORKED_SET)
    assert format_entries(merged) == "2,2',5',4,3,3',2',1"


def test_psi_worked_example():
    blocks = psi(WORKED_SET)
    assert [format_entries(b) for b in blocks] == ["2,2'", "5',4,3,3',2'", "1"]


def test_psi2_worked_example():
    assert delta(WORKED_SET_2) == (2, 1, 1, 1, 4, 1, 1, 3, 2, 1)
    assert psi2(WORKED_SET_2) == ((2, 1), (1,), (1,), (4, 1), (1,), (3, 2, 1))


def test_psi2_rejects_dangling_suffix():
    with pytest.raises(ValueError):
        psi2({0, 2})
    assert psi2({0}) == ()


def test_profile_bundle():
    profile = j_profile(WORKED_SET_2)
    assert profile.delta == (2, 1, 1, 1, 4, 1, 1, 3, 2, 1)
    assert profile.psi2_blocks == psi2(WORKED_SET_2)
    assert j_profile({0, 2}).psi2_blocks is None


def test_is_overpartition():
    assert is_overpartition([(2, False), (2, True)])
    assert is_overpartition([(5, True), (4, False), (3, False), (3, True), (2, True)])
    assert not is_overpartition([(3, True), (3, False)])  # overline not on last
    assert not is_overpartition([(2, False), (3, False)])  # increasing
    assert not is_overpartition([(2, True), (0, False)])  # non-positive
    assert is_overpartition([])


def test_worked_sets_classified():
    assert is_j_set(WORKED_SET)
    assert is_j2_set(WORKED_SET_2)
    assert is_j_set({0})
    assert not is_j_set({0, 2})
    assert is_j2_set({0, 1, 3})
    assert not is_j_set({0, 1, 3})
    assert not is_j2_set({1, 2})  # missing 0
    assert not is_j_set({1})  # missing 0


def test_j_set_examples():
    assert j_set(identity(4)) == frozenset({0, 1, 2, 3, 4})
    assert j_set(Permutation.parse("312")) == frozenset({0, 1, 2})
    assert 0 in j_set(Permutation(()))


@pytest.mark.parametrize("n", range(0, 6))
def test_j_set_is_pair_set_with_inverse(n):
    for perm in permutations(n):
        assert j_set(perm) == j2_set(perm, perm.inverse())


def test_j2_set_examples():
    p312 = Permutation.parse("312")
    assert j2_set(p312, p312) == frozenset({0, 1, 3})
    assert j2_set(Permutation(()), Permutation(())) == frozenset({0})


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_one_always_in_j2_set(a, b):
    for sigma in permutations(a):
        for tau in permutations(b):
            values = j2_set(sigma, tau)
            assert 0 in values and 1 in values


def test_j2_restriction_closure():
    # truncating a j2-set below any bound leaves a j2-set
    for sigma in permutations(4):
        for tau in permutations(4):
            values = j2_set(sigma, tau)
            for k in range(5):
                assert is_j2_set({v for v in values if v <= k})


def _brute_j_sets(max_n):
    universe = set()
    for n in range(max_n + 1):
        universe |= set(j_sets_of(n))
    return universe


def _brute_j2_sets(max_n):
    universe = set()
    for n in range(max_n + 1):
        universe |= set(j2_sets_of(n))
    return universe


def test_j_set_criterion_exhaustive_small():
    universe = _brute_j_sets(5)
    for r in range(6):
        for rest in itertools.combinations(range(1, 6), r):
            values = frozenset((0,) + rest)
            assert is_j_set(values) == (values in universe), sorted(values)


def test_j2_set_criterion_exhaustive_small():
    universe = _brute_j2_sets(6)
    for r in range(7):
        for rest in itertools.combinations(range(1, 7), r):
            values = frozenset((0,) + rest)
            assert is_j2_set(values) == (values in universe), sorted(values)


def test_every_j_set_is_j2_set():
    for values in _brute_j_sets(6):
        assert is_j2_set(values), sorted(values)


def test_j2_realized_by_single_permutation():
    # every j2-set with maximum n arises from a diagonal pair on [n]
    for n in range(7):
        by_pairs = set()
        perms = list(permutations(n))
        for sigma in perms:
            for tau in perms:
                values = j2_set(sigma, tau)
                if values and max(values) == n:
                    by_pairs.add(values)
        assert by_pairs == set(j2_sets_of(n))


def test_j_extend_examples():
    assert j_extend_ok({0, 1, 2}, 3)  # consecutive extension
    assert j_extend_ok({0, 1, 2}, 5) == is_j_set({0, 1, 2, 5})
    with pytest.raises(ValueError):
        j_extend_ok({0, 1, 3}, 5)  # not a j-set
    with pytest.raises(ValueError):
        j_extend_ok({0, 1}, 3)  # largest element below 2
    with pytest.raises(ValueError):
        j_extend_ok({0, 1, 2}, 2)  # not an extension


def test_j_extend_agrees_with_criterion():
    for values in sorted(_brute_j_sets(6), key=sorted):
        if values and max(values) >= 2:
            for n in range(max(values) + 1, 11):
                assert j_extend_ok(values, n) == is_j_set(values | {n}), (
                    sorted(values),
                    n,
                )


def test_j2_extend_examples():
    assert not j2_extend_ok({0, 1, 4}, 2)
    assert j2_extend_ok({0, 1, 4}, 3)
    assert j2_extend_ok({0, 1, 4}, 1)  # m = 1 always extends
    with pytest.raises(ValueError):
        j2_extend_ok({0, 2}, 1)
    with pytest.raises(ValueError):
        j2_extend_ok({0}, 1)


def test_j2_extend_agrees_with_criterion():
    for values in sorted(_brute_j2_sets(7), key=sorted):
        if len(values) >= 2:
            for m in range(1, 6):
                assert j2_extend_ok(values, m) == is_j2_set(
                    values | {max(values) + m}
                ), (sorted(values), m)


def test_series_worked_values():
    assert j2_series(15) == [
        1, 1, 1, 2, 4, 8, 15, 29, 55, 105, 200, 381, 725, 1381, 2629, 5005,
    ]


@pytest.mark.parametrize("n", range(0, 7))
def test_series_matches_brute_count(n):
    assert j2_series(n)[n] == j2_count(n)


def test_j2_count_base():
    assert j2_count(0) == 1  # the set {0} alone


def test_set_formats():
    assert parse_int_set("0,1,3,6") == frozenset({0, 1, 3, 6})
    assert format_int_set({3, 0, 1}) == "0,1,3"
    assert parse_int_set("") == frozenset()

