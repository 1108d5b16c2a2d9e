import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from oracle.permutation import (
    contains,
    enum_inv_containing,
    enum_perm_containing,
    is_involution,
    restrict_low,
    verify_permcont1,
    verify_permcont2,
)
from oracle.tableau import (
    enum_pair_containing,
    enum_tab_containing,
    pair_contains,
    restrict_high as tab_restrict_high,
    restrict_low as tab_restrict_low,
    rs_involution,
    tab_contains,
    verify_permtotab,
    verify_permtotab_pair,
)
from polys import add, mul, swap
from qtab import containment, majgen, permcont, permtotab
from qtab.bivar import qbinomial, qfactorial, text
from qtab.limits import m3_1_lhs, m3_lhs
from qtab.majgen import verify_majgen, verify_majgen1
from qtab.permcont import (
    permcont1_buckets,
    permcont1_report,
    permcont2_buckets,
    permcont2_report,
)
from qtab.permtotab import (
    permtotab_pair_reports,
    permtotab_reports,
    perms_with_insertion_tableau,
    perms_with_recording_tableau,
)
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
from qtab.jsets import j2_set, j_set
from qtab.polynomial import packed_width
from qtab.stats import a_poly, t_count, t_poly
from qtab.tableau import (
    Partition,
    SkewShape,
    Tableau,
    conjecture_probe,
    enumerate_syt,
    f_poly,
    f_poly_enum,
    maj_tally,
    partitions,
    partitions_inside,
    skew_syt_count,
)
from qtab.weights import (
    evaluate,
    involution_weight_sum,
    m2_1_weight,
    pair_weight_sum,
    qlim1_weight,
)

EXAMPLE = Permutation.parse("513697428")
EXAMPLE_TAB = Tableau.from_rows([[1, 2, 4, 7], [3, 5, 6], [8, 9]])


def test_contains_worked_example():
    assert contains(EXAMPLE, Permutation.parse("1342"))
    assert not contains(EXAMPLE, Permutation.parse("3142"))
    assert contains(EXAMPLE, Permutation(()))
    assert not contains(Permutation.parse("12"), EXAMPLE)


def test_tab_contains_own_restriction():
    assert tab_contains(EXAMPLE_TAB, tab_restrict_low(EXAMPLE_TAB, 5))
    assert pair_contains(
        EXAMPLE_TAB,
        EXAMPLE_TAB,
        tab_restrict_low(EXAMPLE_TAB, 5),
        tab_restrict_low(EXAMPLE_TAB, 3),
    )


def test_enum_inv_containing_empty_pattern():
    assert len(enum_inv_containing(Permutation(()), 4)) == t_count(4) == 10


def test_enum_perm_containing_empty_patterns():
    empty = Permutation(())
    assert len(enum_perm_containing(empty, empty, 4)) == 24


def test_enum_containment_sizes_consistent():
    sigma = Permutation.parse("21")
    found = enum_inv_containing(sigma, 5)
    assert all(is_involution(p) and restrict_low(p, 2) == sigma for p in found)


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
    # reference: every statistic from the word kernel, one size m at a time,
    # through the oracle's ambient size 10; the sweep counts one key per
    # involution and fills the buckets after, for sizes in any order
    for total in range(11):
        square = range(min(3, total) + 1)
        sparse = [3, 1] if total >= 3 else []
        for sizes in (square, sparse):
            swept = permcont1_buckets(total, sizes)
            assert list(swept) == list(sizes)
            for m in sizes:
                expected = {}
                for w in involution_words(total):
                    _tally(expected, word_low(w, m), (0, word_maj(w[m:])))
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
        square = [(a, b) for a in range(min(3, total) + 1) for b in range(min(3, total) + 1)]
        # sizes neither contiguous nor all paired with each other
        sparse = [(3, 0), (1, 2), (3, 2), (0, 3)] if total >= 3 else []
        for pairs in (square, sparse):
            swept = permcont2_buckets(total, pairs)
            assert list(swept) == pairs
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
            totals[j] = add(totals.get(j, {}), w)
    expected = {j: mul(t_count(j) * math.comb(m, j), qfactorial(m - j)) for j in range(m + 1)}
    assert totals == expected == involution_weight_sum(m)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(0, 4) for b in range(0, 4)])
def test_m2_1_weights_sum_to_the_pair_weight_sum(a, b):
    # W(j) = j! C(a, j) C(b, j) [b-j]_p! [a-j]_q! over every pair of patterns
    totals = {}
    for sigma in permutations(a):
        for tau in permutations(b):
            for j, w in m2_1_weight(sigma, tau).items():
                totals[j] = add(totals.get(j, {}), w)
    expected = {
        j: mul(
            math.factorial(j) * math.comb(a, j) * math.comb(b, j),
            swap(qfactorial(b - j)),
            qfactorial(a - j),
        )
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
            weight[0] = {}
        with pytest.raises(TypeError):
            weight[0][0, 0] = 1


# The weights as they were defined as polynomials, before they became
# coefficient tables: each table must hold exactly that polynomial's nonzero
# coefficients, on every pattern of size <= 4 and every shape of size <= 5.
_PATTERNS = [sigma for size in range(5) for sigma in permutations(size)]
_SHAPES = [alpha for size in range(6) for alpha in partitions(size)]


def _tables(weight):
    return {j: dict(w) for j, w in weight.items()}


def test_qlim1_and_m2_1_tables_are_their_monomials():
    for sigma in _PATTERNS:
        expected = {j: {(0, sigma.suffix(j).maj()): 1} for j in j_set(sigma)}
        assert _tables(qlim1_weight(sigma)) == expected, sigma
        for tau in _PATTERNS:
            expected = {
                j: {(tau.restrict_high(j).imaj(), sigma.suffix(j).maj()): 1}
                for j in j2_set(sigma, tau)
            }
            assert _tables(m2_1_weight(sigma, tau)) == expected, (sigma, tau)


def test_m3_and_m3_1_tables_are_the_skew_polynomial_sums():
    from qtab.weights import m3_1_weight, m3_weight

    for alpha in _SHAPES:
        expected = {
            j: add(*(f_poly(SkewShape(alpha, mu)) for mu in partitions_inside(j, alpha)))
            for j in range(alpha.size + 1)
        }
        assert _tables(m3_weight(alpha)) == expected, alpha
        for beta in _SHAPES:
            expected = {
                j: add(
                    *(
                        mul(swap(f_poly(SkewShape(beta, mu))), f_poly(SkewShape(alpha, mu)))
                        for mu in partitions_inside(j, alpha)
                        if beta.contains(mu)
                    )
                )
                for j in range(min(alpha.size, beta.size) + 1)
            }
            assert _tables(m3_1_weight(alpha, beta)) == expected, (alpha, beta)


def test_weight_sum_tables_are_the_q_factorial_products():
    for a in range(6):
        expected = {
            j: mul(t_count(j) * math.comb(a, j), qfactorial(a - j)) for j in range(a + 1)
        }
        assert _tables(involution_weight_sum(a)) == expected, a
        for b in range(6):
            expected = {
                j: mul(
                    math.factorial(j) * math.comb(a, j) * math.comb(b, j),
                    swap(qfactorial(b - j)),
                    qfactorial(a - j),
                )
                for j in range(min(a, b) + 1)
            }
            assert _tables(pair_weight_sum(a, b)) == expected, (a, b)


def test_majgen1_with_inconsistent_sizes_checks_zero_twice():
    # m + |alpha| != n + |beta|: no outer shape has both sizes, and both the
    # packed check and the p = q = 1 count read 0 = 0
    report = verify_majgen1(Partition((1,)), Partition((1,)), 2, 3)
    assert report.passed and report.checked == 2


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
    # the reports import the j-set functions when they run, so the counters
    # go on their home module
    from qtab import jsets

    calls = {"j_set": 0, "j2_set": 0}

    def counted(name):
        inner = getattr(jsets, name)

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
        monkeypatch.setattr(jsets, name, counted(name))
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


# sha256 of the "{theorem} {instance}" lines, one per check, of each sweep in
# the order the checks run, recorded before the single and pair identities
# were put on one check path
SWEEP_LABELS = {
    ("permcont1", 3, 6): (
        116, "ad9789b9f311026b68cab2ca70e30430b3242c4eb2816add542a5c16ee558cd7"
    ),
    ("permcont2", 2, 4): (
        138, "b8624ce2bb0388931f00239e6e25ded425e1f21f414371eeb0aa331d85d67ff1"
    ),
    ("permtotab", 3): (174, "7748e9c0cccd0d0449bd226b0baf92d0252e820a2ee306307f484c9d3543a50b"),
    ("majgen", 3, 3): (56, "9a558a89c023c3d0a3d98d9475e3d30fd65f8a5321a78d28a91123cfc75452a4"),
    ("majgen1", 2, 3): (
        100, "903b573407f980cbc96e7ac428a2d712fd4a8195d3af7bc657c5b01f4967a051"
    ),
}


@pytest.mark.parametrize("sweep", list(SWEEP_LABELS), ids=lambda sweep: sweep[0])
def test_sweep_check_labels_are_pinned(sweep, monkeypatch):
    labels = []
    record = containment.IdentityReport.record

    def spy(report, instance, *args):
        labels.append(f"{report.theorem} {instance}")
        return record(report, instance, *args)

    monkeypatch.setattr(containment.IdentityReport, "record", spy)
    containment.sweep_reports(*sweep)
    digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
    assert (len(labels), digest) == SWEEP_LABELS[sweep]


# the sweeps of the benchmark's oracle workload, as sweep_reports arguments
ORACLE_SWEEPS = [
    ("permcont1", 3, 10), ("permcont2", 3, 7), ("permtotab", 4), ("majgen", 5, 5),
    ("majgen1", 4, 5),
]


@pytest.mark.parametrize("sweep", ORACLE_SWEEPS, ids=lambda sweep: sweep[0])
def test_report_params_print_as_json_dumps(sweep):
    # a report line prints its params with a small formatter, not json, which
    # must give json.dumps(params, sort_keys=True) byte for byte
    reports = containment.sweep_reports(*sweep)
    assert reports
    for report in reports:
        text = json.dumps(report.params, sort_keys=True)
        assert containment._json_text(report.params) == text
        assert str(report).startswith(f"{report.theorem} {text} checked="), str(report)


def test_report_params_with_nulls_print_as_json_dumps():
    # the rows of a skew tableau lead with one null per inner cell
    skew = Tableau(SkewShape.parse("2,1/1"), ((2,), (1,)))
    [report] = permtotab_reports(skew, [1])
    assert report.params["tableau"] == [[None, 2], [1]]
    assert containment._json_text(report.params) == json.dumps(report.params, sort_keys=True)


def test_outer_majs_are_the_outer_shapes_maj_terms():
    # one entry per partition of the outer size, empty where it does not contain the base
    for size in range(5):
        for base in partitions(size):
            for added in range(6):
                majs = majgen._outer_majs(base, added)
                shapes = list(partitions(size + added))
                assert len(majs) == len(shapes)
                for lam, terms in zip(shapes, majs):
                    if not lam.contains(base):
                        assert terms == (), (lam, base)
                        continue
                    poly = {(0, maj): c for maj, c in terms}
                    assert poly == f_poly_enum(SkewShape(lam, base)), (lam, base)
                    assert [maj for maj, _ in terms] == sorted({maj for maj, _ in terms})
                for width in (0, 8, 24):
                    packed = majgen._outer_packed(base, added, width)
                    assert packed == tuple(
                        evaluate(f_poly_enum(SkewShape(lam, base)), 1, 2**width)
                        if lam.contains(base)
                        else 0
                        for lam in shapes
                    )


def test_chain_walk_tallies_are_the_enumerated_maj_tallies():
    # one walk from each base up to 5 added cells tallies every outer shape's
    # fillings by maj as enumerating the fillings of that skew shape does
    for size in range(6):
        for base in partitions(size):
            walked = majgen._chain_walk(base, 5)
            assert len(walked) == 6
            for added, majs in enumerate(walked):
                assert majs == tuple(
                    tuple(maj_tally(SkewShape(lam, base))) if lam.contains(base) else ()
                    for lam in partitions(size + added)
                ), (base, added)
            # a shallower read comes off the deepest walk made from the base
            assert majgen._outer_majs(base, 5) == walked[5]
            assert [majgen._outer_majs(base, added) for added in range(6)] == list(walked)


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
    skew = tab_restrict_high(Tableau.from_rows([[1, 2], [3]]), 1)
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


# -- the packed checks against the dict-polynomial sides -----------------------------
#
# Each identity check packs its two sides into one integer each.  The tests
# below rebuild both sides as dict polynomials, the way the checks were
# written before packing: the left side from the buckets and enumerations,
# the right side by table arithmetic from the weights, Gaussian binomials,
# t_k and A_k.


def _involution_rhs(weight, m, n):
    return add(
        *(
            mul(w, qbinomial(n, k), t_poly(k))
            for j, w in weight.items()
            if (k := n - m + j) >= 0
        )
    )


def _pair_rhs(weight, a, b, m, n):
    return add(
        *(
            mul(w, swap(qbinomial(m, k)), qbinomial(n, k), a_poly(k))
            for j, w in weight.items()
            if (k := n - a + j) >= 0
        )
    )


def _permcont1_lhs(m, n, sigma=None):
    by_low = permcont1_buckets(m + n, [m])[m]
    tallies = by_low.values() if sigma is None else [by_low.get(sigma.word, {})]
    return add(*tallies)


def _permcont2_lhs(a, b, total, sigma=None, tau=None):
    by_key = permcont2_buckets(total, [(a, b)])[a, b]
    tallies = by_key.values() if sigma is None else [by_key.get((sigma.word, tau.word), {})]
    return add(*tallies)


def _permtotab_lhs(tab, j):
    return add(
        *(
            {(0, sigma.suffix(j).maj()): 1}
            for sigma in perms_with_insertion_tableau(tab)
            if j in j_set(sigma)
        )
    )


def _permtotab_pair_lhs(a_tab, b_tab, j):
    return add(
        *(
            {(tau.restrict_high(j).imaj(), sigma.suffix(j).maj()): 1}
            for sigma in perms_with_insertion_tableau(a_tab)
            for tau in perms_with_recording_tableau(b_tab)
            if j in j2_set(sigma, tau)
        )
    )


def _majgen_lhs(alpha, n):
    return add(
        *(
            f_poly_enum(SkewShape(lam, alpha))
            for lam in partitions(alpha.size + n)
            if lam.contains(alpha)
        )
    )


def _majgen1_lhs(alpha, beta, m, n):
    return add(
        *(
            mul(swap(f_poly_enum(SkewShape(lam, alpha))), f_poly_enum(SkewShape(lam, beta)))
            for lam in partitions(alpha.size + m)
            if lam.contains(alpha) and lam.contains(beta)
        )
    )


def _unpacked(side):
    """A side's polynomial, read off the digits of a packing injective on it alone."""
    pack, degree = side
    width, stride = packed_width(pack(0, 0)), max(degree, 0) + 1
    return containment._unpack(pack(width, stride), width, stride)


@pytest.fixture
def packed_checks(monkeypatch):
    """Every packed check run while the test runs, as (instance, lhs, rhs) unpacked."""
    seen = []
    check = containment._check

    def spy(report, instance, lhs, rhs):
        seen.append((instance, _unpacked(lhs), _unpacked(rhs)))
        return check(report, instance, lhs, rhs)

    monkeypatch.setattr(containment, "_check", spy)
    return seen


def test_permcont1_packed_sides_are_the_dict_sides(packed_checks):
    for m in range(4):
        for n in range(6 - m):
            packed_checks.clear()
            assert verify_permcont1(m, n).passed
            patterns = [None, *permutations(m)]
            assert [instance for instance, _, _ in packed_checks] == [
                "all involutions",
                *(f"sigma={sigma.compact()}" for sigma in patterns[1:]),
            ]
            for sigma, (_, lhs, rhs) in zip(patterns, packed_checks):
                weight = involution_weight_sum(m) if sigma is None else qlim1_weight(sigma)
                assert lhs == _permcont1_lhs(m, n, sigma), (m, n, sigma)
                assert rhs == _involution_rhs(weight, m, n) == lhs, (m, n, sigma)


@pytest.mark.parametrize("a,b,total", [(1, 1, 4), (2, 1, 4), (2, 2, 5), (3, 2, 5), (0, 0, 4)])
def test_permcont2_packed_sides_are_the_dict_sides(a, b, total, packed_checks):
    assert verify_permcont2(a, b, total).passed
    m, n = total - a, total - b
    pairs = [(None, None)] + [(s, t) for s in permutations(a) for t in permutations(b)]
    assert len(packed_checks) == len(pairs)
    for (sigma, tau), (_, lhs, rhs) in zip(pairs, packed_checks):
        weight = pair_weight_sum(a, b) if sigma is None else m2_1_weight(sigma, tau)
        assert lhs == _permcont2_lhs(a, b, total, sigma, tau), (sigma, tau)
        assert rhs == _pair_rhs(weight, a, b, m, n) == lhs, (sigma, tau)


def test_permtotab_sides_are_the_dict_polynomials(packed_checks, monkeypatch):
    # permtotab compares its sides as coefficient tables and packs neither
    from qtab.weights import m3_1_weight, m3_weight

    recorded = []
    record = containment.IdentityReport.record

    def spy(report, instance, lhs, rhs, show=str):
        recorded.append((lhs, rhs))
        return record(report, instance, lhs, rhs, show)

    monkeypatch.setattr(containment.IdentityReport, "record", spy)
    tabs = _tableaux(3)
    for tab in tabs:
        recorded.clear()
        permtotab_reports(tab, range(tab.size + 1))
        assert len(recorded) == tab.size + 1
        for j, (lhs, rhs) in enumerate(recorded):
            expected = m3_weight(tab.shape.outer)[j]
            assert add(lhs) == _permtotab_lhs(tab, j) == add(rhs) == expected
    for a_tab in tabs:
        for b_tab in tabs:
            recorded.clear()
            cuts = range(min(a_tab.size, b_tab.size) + 1)
            permtotab_pair_reports(a_tab, b_tab, cuts)
            assert len(recorded) == len(cuts)
            weight = m3_1_weight(a_tab.shape.outer, b_tab.shape.outer)
            for j, (lhs, rhs) in enumerate(recorded):
                lhs, rhs = add(lhs), add(rhs)
                assert lhs == _permtotab_pair_lhs(a_tab, b_tab, j) == rhs == weight[j]
    assert packed_checks == []


def test_majgen_packed_sides_are_the_dict_sides(packed_checks):
    from qtab.weights import m3_weight

    for size in range(4):
        for alpha in partitions(size):
            for n in range(5):
                packed_checks.clear()
                assert verify_majgen(alpha, n).passed
                [(_, lhs, rhs)] = packed_checks
                assert lhs == _majgen_lhs(alpha, n), (alpha, n)
                assert rhs == _involution_rhs(m3_weight(alpha), size, n) == lhs, (alpha, n)


def test_majgen1_packed_sides_are_the_dict_sides(packed_checks):
    from qtab.weights import m3_1_weight

    shapes = [p for size in range(4) for p in partitions(size)]
    for alpha in shapes:
        for beta in shapes:
            for m in range(4):
                n = m + alpha.size - beta.size
                if 0 <= n <= 3:
                    packed_checks.clear()
                    assert verify_majgen1(alpha, beta, m, n).passed
                    [(_, lhs, rhs)] = packed_checks
                    weight = m3_1_weight(alpha, beta)
                    assert lhs == _majgen1_lhs(alpha, beta, m, n), (alpha, beta, m, n)
                    expected = _pair_rhs(weight, alpha.size, beta.size, m, n)
                    assert rhs == expected == lhs, (alpha, beta, m, n)


# -- planted failures -------------------------------------------------------------------
#
# Each case plants a fault in one weight of one family, at the cut j = 0,
# where the fault reaches the named instances only.  "plus_one" adds 1 to
# the weight; "moved" moves its last term c p^i q^r to c p^(i-1) q^(r+S)
# (c q^(r+S) when i = 0), S the stride a packing of the left side alone
# would take.  That is the aliasing edge: at stride S the moved term packs
# to the place it left, so only a stride above both sides' degrees tells the
# sides apart.

_SHAPE = Partition((2, 1))
_TAB_A = Tableau.from_rows([[1, 2], [3]])
_TAB_B = Tableau.from_rows([[1, 3], [2]])


def _failing_sides(theorem, params):
    """The dict-polynomial sides of the one planted check of a report."""
    if theorem == "permcont1":
        sigma = Permutation.parse("21")
        m, n = params["m"], params["n"]
        return _permcont1_lhs(m, n, sigma), _involution_rhs(permcont.qlim1_weight(sigma), m, n)
    if theorem == "permcont2":
        sigma = tau = Permutation.parse("21")
        a, b, total = params["a"], params["b"], params["total"]
        weight = permcont.m2_1_weight(sigma, tau)
        return (
            _permcont2_lhs(a, b, total, sigma, tau),
            _pair_rhs(weight, a, b, total - a, total - b),
        )
    if theorem == "permtotab":
        tab = Tableau.from_rows(params["tableau"])
        return _permtotab_lhs(tab, params["j"]), permtotab.m3_weight(_SHAPE)[params["j"]]
    if theorem == "permtotab-pair":
        a_tab = Tableau.from_rows(params["tableau_a"])
        lhs = _permtotab_pair_lhs(a_tab, Tableau.from_rows(params["tableau_b"]), params["j"])
        return lhs, permtotab.m3_1_weight(_SHAPE, _SHAPE)[params["j"]]
    if theorem == "majgen":
        n = params["n"]
        return _majgen_lhs(_SHAPE, n), _involution_rhs(majgen.m3_weight(_SHAPE), 3, n)
    m, n = params["m"], params["n"]
    weight = majgen.m3_1_weight(_SHAPE, _SHAPE)
    return _majgen1_lhs(_SHAPE, _SHAPE, m, n), _pair_rhs(weight, 3, 3, m, n)


# family: (argv, weight name, planted pattern, the edge instance's left side,
# the params of every report the fault reaches)
PLANTED = {
    "permcont1": (
        ["verify", "permcont1", "--max-size", "2", "--max-total", "4"],
        "qlim1_weight",
        (Permutation.parse("21"),),
        lambda: _permcont1_lhs(2, 2, Permutation.parse("21")),
        [{"m": 2, "n": 2}],
    ),
    "permcont2": (
        ["verify", "permcont2", "--max-size", "2", "--max-total", "4"],
        "m2_1_weight",
        (Permutation.parse("21"), Permutation.parse("21")),
        lambda: _permcont2_lhs(2, 2, 4, Permutation.parse("21"), Permutation.parse("21")),
        [{"a": 2, "b": 2, "total": 4}],
    ),
    "permtotab": (
        ["verify", "permtotab", "--max-size", "3"],
        "m3_weight",
        (_SHAPE,),
        lambda: _permtotab_lhs(_TAB_A, 0),
        [{"tableau": rows, "j": 0} for rows in ([[1, 2], [3]], [[1, 3], [2]])],
    ),
    "permtotab-pair": (
        ["verify", "permtotab", "--max-size", "3"],
        "m3_1_weight",
        (_SHAPE, _SHAPE),
        lambda: _permtotab_pair_lhs(_TAB_A, _TAB_B, 0),
        [
            {"tableau_a": a_rows, "tableau_b": b_rows, "j": 0}
            for a_rows in ([[1, 2], [3]], [[1, 3], [2]])
            for b_rows in ([[1, 2], [3]], [[1, 3], [2]])
        ],
    ),
    "majgen": (
        ["verify", "majgen", "--max-size", "3", "--max-total", "3"],
        "m3_weight",
        (_SHAPE,),
        lambda: _majgen_lhs(_SHAPE, 3),
        [{"alpha": "2,1", "n": 3}],
    ),
    "majgen1": (
        ["verify", "majgen1", "--max-size", "3", "--max-total", "3"],
        "m3_1_weight",
        (_SHAPE, _SHAPE),
        lambda: _majgen1_lhs(_SHAPE, _SHAPE, 3, 3),
        [{"alpha": "2,1", "beta": "2,1", "m": 3, "n": 3}],
    ),
}


# the module each verify kind reads its weights in
FAMILY = {
    "permcont1": permcont, "permcont2": permcont, "permtotab": permtotab, "majgen": majgen,
    "majgen1": majgen,
}


def _plus_one(poly, stride):
    return add(poly, 1)


def _moved(poly, stride):
    (i, r), c = sorted(poly.items())[-1]
    target = (i - 1, r + stride) if i else (0, r + stride)
    return add(poly, {(i, r): -c}, {target: c})


@pytest.mark.parametrize("fault", [_plus_one, _moved], ids=["plus_one", "moved"])
@pytest.mark.parametrize("family", PLANTED)
def test_planted_fault_fails_with_the_dict_sides(family, fault, monkeypatch, capsys):
    from qtab.cli import run

    argv, name, pattern, edge_lhs, reached = PLANTED[family]
    stride = 1 << max(k for _, k in edge_lhs()).bit_length()  # the left side's alone
    home = FAMILY[argv[1]]
    weight_of = getattr(home, name)

    def planted(*args):
        weight = weight_of(*args)
        if args != pattern:
            return weight
        return {**weight, 0: fault(weight[0], stride)}

    monkeypatch.setattr(home, name, planted)
    assert run(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith(" FAIL") for line in lines[:-1]) == len(reached)
    assert lines[-1].endswith(f" failures={len(reached)}")
    assert run([*argv, "--json"]) == 1
    failed = [(r, f) for r in json.loads(capsys.readouterr().out) for f in r["failures"]]
    assert [r["range"] for r, _ in failed] == reached
    for report, failure in failed:
        lhs, rhs = _failing_sides(report["theorem"], report["range"])
        assert lhs != rhs
        assert (failure["lhs"], failure["rhs"]) == (text(lhs), text(rhs))


def test_planted_series_fault_fails_permcont2(monkeypatch, capsys):
    # the pair cut terms read A_k off the permutation series the pair limits
    # evaluate, so a fault planted in that series at n = 2 fails verify
    from qtab import stats
    from qtab.cli import run

    series = stats._series

    def planted(n, *params):
        value = series(n, *params)
        return value + 1 if n == 2 and len(params) == 2 else value

    monkeypatch.setattr(stats, "_series", planted)
    containment._cut_term.cache_clear()  # drop the terms earlier tests packed
    try:
        assert run(["verify", "permcont2", "--max-size", "2", "--max-total", "4"]) == 1
    finally:
        containment._cut_term.cache_clear()  # and the planted ones
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith(" FAIL") for line in lines[:-1]) > 0
    assert lines[-1].endswith(" failures=25")
