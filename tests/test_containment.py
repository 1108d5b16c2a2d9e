import itertools
import math
from fractions import Fraction

import pytest

from qtab import containment
from qtab.containment import (
    conjecture_probe,
    contains,
    enum_inv_containing,
    enum_pair_containing,
    enum_perm_containing,
    enum_tab_containing,
    involution_weight_sum,
    m2_1_weight,
    pair_contains,
    pair_cut_sum,
    pair_weight_sum,
    permcont1_buckets,
    permcont1_report,
    permcont2_buckets,
    permcont2_report,
    permtotab_pair_reports,
    permtotab_reports,
    perms_with_insertion_tableau,
    perms_with_recording_tableau,
    qlim1_weight,
    tab_contains,
    verify_majgen,
    verify_majgen1,
    verify_permcont1,
    verify_permcont2,
    verify_permtotab,
    verify_permtotab_pair,
)
from qtab.limits import m3_1_lhs, m3_lhs
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
from qtab.polynomial import ZERO, BivarPoly, qfactorial
from qtab.stats import t_count
from qtab.tableau import (
    Partition,
    SkewShape,
    Tableau,
    enumerate_syt,
    f_poly_enum,
    partitions,
    skew_syt_count,
)

EXAMPLE = Permutation.parse("513697428")
EXAMPLE_TAB = Tableau.from_rows([[1, 2, 4, 7], [3, 5, 6], [8, 9]])


def test_contains_worked_example():
    assert contains(EXAMPLE, Permutation.parse("1342"))
    assert not contains(EXAMPLE, Permutation.parse("3142"))
    assert contains(EXAMPLE, Permutation(()))
    assert not contains(Permutation.parse("12"), EXAMPLE)


def test_tab_contains_own_restriction():
    assert tab_contains(EXAMPLE_TAB, EXAMPLE_TAB.restrict_low(5))
    assert pair_contains(
        EXAMPLE_TAB, EXAMPLE_TAB, EXAMPLE_TAB.restrict_low(5), EXAMPLE_TAB.restrict_low(3)
    )


def test_enum_inv_containing_empty_pattern():
    assert len(enum_inv_containing(Permutation(()), 4)) == t_count(4) == 10


def test_enum_perm_containing_empty_patterns():
    empty = Permutation(())
    assert len(enum_perm_containing(empty, empty, 4)) == 24


def test_enum_containment_sizes_consistent():
    sigma = Permutation.parse("21")
    found = enum_inv_containing(sigma, 5)
    assert all(p.is_involution() and p.restrict_low(2) == sigma for p in found)


@pytest.mark.parametrize("n", range(1, 7))
def test_rs_bijection_single(n):
    # tableau containment counts match involution containment counts classwise
    for size in range(1, 4):
        for shape in partitions(size):
            for a_tab in enumerate_syt(SkewShape.straight(shape)):
                lhs = len(enum_tab_containing(a_tab, n))
                rhs = sum(
                    len(enum_inv_containing(sigma, n))
                    for sigma in perms_with_insertion_tableau(a_tab)
                )
                assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 7))
def test_rs_bijection_pair(n):
    small_tabs = [
        tab
        for size in range(1, 3)
        for shape in partitions(size)
        for tab in enumerate_syt(SkewShape.straight(shape))
    ]
    for a_tab in small_tabs:
        for b_tab in small_tabs:
            lhs = len(enum_pair_containing(a_tab, b_tab, n))
            rhs = sum(
                len(enum_perm_containing(sigma, tau, n))
                for sigma in perms_with_insertion_tableau(a_tab)
                for tau in perms_with_recording_tableau(b_tab)
            )
            assert lhs == rhs


def test_containment_transport():
    # a tableau contains the pattern exactly when its involution contains a
    # permutation from the pattern's insertion class
    from qtab.rsk import rs_involution

    pattern = Tableau.from_rows([[1, 2], [3]])
    cls = perms_with_insertion_tableau(pattern)
    for n in range(3, 6):
        for pi in involutions(n):
            tab = rs_involution(pi)
            direct = tab_contains(tab, pattern)
            via_perm = any(contains(pi, sigma) for sigma in cls)
            assert direct == via_perm


@pytest.mark.parametrize("m,n", [(m, n) for m in range(0, 4) for n in range(0, 6 - m)])
def test_permcont1_small_grid(m, n):
    report = verify_permcont1(m, n)
    assert report.passed, report.to_json()


@pytest.mark.parametrize(
    "a,b,total", [(1, 1, 4), (2, 1, 4), (2, 2, 5), (3, 2, 5), (0, 0, 4)]
)
def test_permcont2_small_grid(a, b, total):
    report = verify_permcont2(a, b, total)
    assert report.passed, report.to_json()


def _tally(buckets, key, stat):
    bucket = buckets.setdefault(key, {})
    bucket[stat] = bucket.get(stat, 0) + 1


def test_permcont1_buckets_equal_per_word_statistics():
    # reference: every statistic from the word kernel, one size m at a time
    for total in range(9):
        sizes = range(min(3, total) + 1)
        swept = permcont1_buckets(total, sizes)
        for m in sizes:
            expected = {}
            for w in involution_words(total):
                _tally(expected, word_low(w, m), word_maj(w[m:]))
            assert swept[m] == expected, (m, total)


def test_involution_low_restriction_is_a_function_of_the_raw_prefix_through_9():
    # permcont1_buckets keys its low restrictions on w[:m]: in an involution the
    # values 1..m sit at the positions w[:m]
    for n in range(10):
        for m in range(n + 1):
            low_by_prefix = {}
            for w in involution_words(n):
                low = low_by_prefix.setdefault(w[:m], word_low(w, m))
                assert low == word_low(w, m), (w, m)


def test_permcont2_buckets_equal_per_word_statistics():
    for total in range(7):
        pairs = [(a, b) for a in range(min(3, total) + 1) for b in range(min(3, total) + 1)]
        swept = permcont2_buckets(total, pairs)
        for a, b in pairs:
            expected = {}
            for w in itertools.permutations(range(1, total + 1)):
                stat = (word_imaj(word_high(w, a)), word_maj(w[b:]))
                _tally(expected, (word_low(w, a), word_std(w[:b])), stat)
            assert swept[a, b] == expected, (a, b, total)


def test_shared_sweeps_give_the_one_instance_reports():
    for total in range(9):
        sizes = range(min(3, total) + 1)
        swept = permcont1_buckets(total, sizes)
        for m in sizes:
            report = permcont1_report(m, total - m, swept[m])
            assert report == verify_permcont1(m, total - m) and report.passed
    for total in range(7):
        pairs = [(a, b) for a in range(min(3, total) + 1) for b in range(min(3, total) + 1)]
        swept = permcont2_buckets(total, pairs)
        for a, b in pairs:
            report = permcont2_report(a, b, total, swept[a, b])
            assert report == verify_permcont2(a, b, total) and report.passed


def test_sweeps_reject_patterns_larger_than_the_ambient_size():
    with pytest.raises(ValueError):
        permcont1_buckets(2, [3])
    with pytest.raises(ValueError):
        verify_permcont1(2, -1)
    with pytest.raises(ValueError):
        permcont2_buckets(3, [(1, 1), (4, 0)])
    with pytest.raises(ValueError):
        verify_permcont2(3, 1, 2)


@pytest.mark.parametrize("m", range(0, 6))
def test_qlim1_weights_sum_to_the_involution_weight_sum(m):
    # W(j) = t_j C(m, j) [m-j]_q! is the weight summed over every pattern of size m
    totals = {}
    for sigma in permutations(m):
        for j, w in qlim1_weight(sigma).items():
            totals[j] = totals.get(j, ZERO) + w
    expected = {j: t_count(j) * math.comb(m, j) * qfactorial(m - j) for j in range(m + 1)}
    assert totals == expected == involution_weight_sum(m)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(0, 4) for b in range(0, 4)])
def test_m2_1_weights_sum_to_the_pair_weight_sum(a, b):
    # W(j) = j! C(a, j) C(b, j) [b-j]_p! [a-j]_q! over every pair of patterns
    totals = {}
    for sigma in permutations(a):
        for tau in permutations(b):
            for j, w in m2_1_weight(sigma, tau).items():
                totals[j] = totals.get(j, ZERO) + w
    expected = {
        j: math.factorial(j)
        * math.comb(a, j)
        * math.comb(b, j)
        * qfactorial(b - j).swap_variables()
        * qfactorial(a - j)
        for j in range(min(a, b) + 1)
    }
    assert totals == expected == pair_weight_sum(a, b)


def test_pattern_weights_are_cached_read_only_mappings():
    sigma, tau = Permutation.parse("2143"), Permutation.parse("312")
    for weight, again in (
        (qlim1_weight(sigma), qlim1_weight(Permutation.parse("2143"))),
        (m2_1_weight(sigma, tau), m2_1_weight(Permutation.parse("2143"), Permutation.parse("312"))),
    ):
        assert weight is again
        with pytest.raises(TypeError):
            weight[0] = ZERO


def test_pair_cut_sum_rejects_inconsistent_sizes():
    with pytest.raises(ValueError):
        pair_cut_sum(pair_weight_sum(1, 1), 1, 1, 2, 3)


def test_permtotab_single_examples():
    row3 = Tableau.from_rows([[1, 2, 3]])
    report = verify_permtotab(row3, 1)
    assert report.passed
    for size in range(1, 4):
        for shape in partitions(size):
            for tab in enumerate_syt(SkewShape.straight(shape)):
                for j in range(size + 1):
                    assert verify_permtotab(tab, j).passed


def test_permtotab_pair_examples():
    a_tab = Tableau.from_rows([[1, 2], [3]])
    b_tab = Tableau.from_rows([[1, 3], [2]])
    for j in range(4):
        assert verify_permtotab_pair(a_tab, b_tab, j).passed


def _tableaux(max_size):
    return [
        tab
        for size in range(1, max_size + 1)
        for shape in partitions(size)
        for tab in enumerate_syt(SkewShape.straight(shape))
    ]


def test_permtotab_reports_take_one_set_per_permutation(monkeypatch):
    calls = {"j_set": 0, "j2_set": 0}

    def counted(name):
        inner = getattr(containment, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    tabs = _tableaux(3)
    single = [verify_permtotab(tab, j) for tab in tabs for j in range(-1, tab.size + 2)]
    pair = [
        verify_permtotab_pair(a_tab, b_tab, j)
        for a_tab in tabs
        for b_tab in tabs
        for j in range(min(a_tab.size, b_tab.size) + 2)
    ]
    for name in calls:
        monkeypatch.setattr(containment, name, counted(name))
    grouped = [
        report for tab in tabs for report in permtotab_reports(tab, range(-1, tab.size + 2))
    ]
    grouped_pair = [
        report
        for a_tab in tabs
        for b_tab in tabs
        for report in permtotab_pair_reports(a_tab, b_tab, range(min(a_tab.size, b_tab.size) + 2))
    ]
    assert [r.to_json() for r in grouped] == [r.to_json() for r in single]
    assert [r.to_json() for r in grouped_pair] == [r.to_json() for r in pair]
    assert all(r.passed and r.checked == 1 for r in grouped + grouped_pair)
    class_sizes = [len(perms_with_insertion_tableau(tab)) for tab in tabs]
    assert calls["j_set"] == sum(class_sizes)
    assert calls["j2_set"] == sum(class_sizes) ** 2


def test_permtotab_statistics_match_the_permutation_methods():
    # the pair reports read maj of sigma's suffix and imaj of tau's high
    # restriction off one suffix-maj pass over sigma and over tau's inverse
    for n in range(6):
        for perm in permutations(n):
            majs = containment._suffix_majs(perm.word)
            imajs = containment._suffix_majs(perm.inverse().word)
            for j in range(n + 1):
                assert majs[j] == perm.suffix(j).maj()
                assert imajs[j] == perm.restrict_high(j).imaj()


@pytest.mark.parametrize("n", range(0, 5))
def test_majgen_small(n):
    for size in range(0, 4):
        for alpha in partitions(size):
            assert verify_majgen(alpha, n).passed


def test_majgen1_small():
    shapes = [p for size in range(0, 4) for p in partitions(size)]
    for alpha in shapes:
        for beta in shapes:
            for m in range(0, 4):
                n = m + alpha.size - beta.size
                if 0 <= n <= 3:
                    assert verify_majgen1(alpha, beta, m, n).passed


def test_outer_majs_are_the_outer_shapes_maj_terms():
    for size in range(5):
        for base in partitions(size):
            for added in range(6):
                majs = containment._outer_majs(base, added)
                assert tuple(majs) == containment._outer_shapes(base, added)
                for lam, terms in majs.items():
                    poly = BivarPoly({(0, maj): c for maj, c in terms})
                    assert poly == f_poly_enum(SkewShape(lam, base)), (lam, base)
                    assert [maj for maj, _ in terms] == sorted({maj for maj, _ in terms})


def test_report_failure_shape():
    report = verify_permcont1(1, 2)
    data = report.to_json()
    assert data["theorem"] == "permcont1"
    assert data["failures"] == []
    assert data["checked"] == report.checked


def test_conjecture_probe_reductions():
    one_cell = Tableau.from_rows([[1]])
    # k = 1 reduces to plain containment frequency
    for n in range(2, 7):
        expected = Fraction(
            len(enum_tab_containing(one_cell, n)),
            sum(skew_syt_count(SkewShape.straight(lam)) for lam in partitions(n)),
        )
        assert conjecture_probe([one_cell], n) == expected
    # k = 2 reduces to the pair enumerator
    a_tab = Tableau.from_rows([[1, 2]])
    for n in range(2, 6):
        pairs = enum_pair_containing(one_cell, a_tab, n)
        total = sum(
            skew_syt_count(SkewShape.straight(lam)) ** 2 for lam in partitions(n)
        )
        assert conjecture_probe([one_cell, a_tab], n) == Fraction(len(pairs), total)


PROBE_PATTERNS = [
    [Tableau.from_rows([[1]])],
    [Tableau.from_rows([[1, 2]]), Tableau.from_rows([[1], [2]])],
    [Tableau.from_rows([[1, 3], [2]]), Tableau.from_rows([[1, 2]])],
    [Tableau.from_rows([[1]]), Tableau.from_rows([[1], [2]]), Tableau.from_rows([[1, 2], [3]])],
]


@pytest.mark.parametrize("n", range(0, 9))
def test_conjecture_probe_equals_enumeration_counts(n):
    # the probe's skew counts, replaced by counting every standard filling
    def count(lam, alpha):
        return len(list(enumerate_syt(SkewShape(lam, alpha))))

    for patterns in PROBE_PATTERNS:
        numerator = denominator = 0
        for lam in partitions(n):
            denominator += count(lam, Partition(())) ** len(patterns)
            term = 1
            for pattern in patterns:
                alpha = pattern.shape.outer
                term *= count(lam, alpha) if lam.contains(alpha) else 0
            numerator += term
        assert conjecture_probe(patterns, n) == Fraction(numerator, denominator)


PROBE_PAIRS = [
    (Tableau.from_rows([[1]]), Tableau.from_rows([[1, 2]])),
    (Tableau.from_rows([[1, 2]]), Tableau.from_rows([[1, 2], [3]])),
    (Tableau.from_rows([[1], [2]]), Tableau.from_rows([[1, 3], [2]])),
    (Tableau.from_rows([[1, 2], [3]]), Tableau.from_rows([[1, 2, 3]])),
]


@pytest.mark.parametrize("n", [3, 6, 9])
def test_conjecture_probe_at_one_equals_the_m3_kernels(n):
    # partition sums of skew counts against the cut-sum kernel of the limit theorems
    for a_tab, b_tab in PROBE_PAIRS:
        assert conjecture_probe([a_tab], n) == m3_lhs(a_tab, Fraction(1), n), a_tab
        pair = m3_1_lhs(a_tab, b_tab, Fraction(1), Fraction(1), n)
        assert conjecture_probe([a_tab, b_tab], n) == pair, (a_tab, b_tab)


def test_conjecture_probe_rejects_skew_patterns():
    skew = Tableau.from_rows([[1, 2], [3]]).restrict_high(1)
    with pytest.raises(ValueError):
        conjecture_probe([Tableau.from_rows([[1]]), skew], 4)


def test_conjecture_probe_triple_runs():
    # every nonempty tableau contains the one-cell pattern, so the ratio is 1
    one_cell = Tableau.from_rows([[1]])
    for n in (6, 7, 8):
        assert conjecture_probe([one_cell] * 3, n) == 1
    # a genuine pattern gives a ratio strictly inside (0, 1)
    column = Tableau.from_rows([[1], [2]])
    value = conjecture_probe([one_cell, column, column], 6)
    assert isinstance(value, Fraction)
    assert 0 < value < 1
