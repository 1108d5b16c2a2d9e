"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Identity suites must pass with zero failing
instances; convergence checks compare exact rationals against their stated
tolerances.

Criterion 11b checks the partition sum at size 40 against its limit product at
1e-6.  The sum is the t^n coefficient of Littlewood's product, whose factor
(1 - t^2 q)^-1 puts simple poles at t = +-q^(-1/2); the next singularities lie
at |t| = 1/q.  So the gap to the limit decays like C q^(n/2) + O(n q^n): at
q = 1/2 it is 6.2513e-5 at n = 40 (C is about 65.5 for even n) and first drops
below 1e-6 at n = 52.  No correct program meets 1e-6 on the raw gap at n = 40,
so 11b asserts that the approach is from below and that the extrapolation
which removes exactly the q^(n/2) term lands within 1e-6 of the certified
product.  Both partition sums are first pinned to an independent evaluation.
"""

import itertools
import math
from fractions import Fraction

from qtab import (
    Permutation,
    SkewShape,
    Tableau,
    a_poly,
    a_poly_enum,
    a_ratio,
    conjecture_probe,
    enumerate_syt,
    eq8_check,
    involutions,
    is_j2_set,
    j2_count,
    j2_series,
    m2_1_lhs,
    m2_1_rhs,
    m3_1_rhs,
    m3_rhs,
    partitions,
    permutations,
    qbinomial,
    qlim1_lhs,
    qlim1_rhs,
    rs,
    rs_inverse,
    skew_syt_count,
    t_count,
    t_poly,
    t_poly_enum,
    t_ratio,
    verify_majgen,
    verify_majgen1,
    xi_partial,
    xi_product_with_tail,
)
from oracle.blocks import binary_words, shuffle
from oracle.bounds import check_bound
from oracle.jsets import is_j_set, j_sets_of
from oracle.permutation import (
    is_involution,
    prefix,
    restrict_low,
    verify_permcont1,
    verify_permcont2,
)
from oracle.tableau import verify_permtotab, verify_permtotab_pair
from polys import add, mul
from qtab.jcriteria import delta, delta_bar, format_entries, psi, psi2
from qtab.jsets import j2_sets_of
from qtab.polynomial import format_decimal

HALF = Fraction(1, 2)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _all_tableaux(max_size: int) -> list[Tableau]:
    return [
        tab
        for size in range(1, max_size + 1)
        for shape in partitions(size)
        for tab in enumerate_syt(SkewShape.straight(shape))
    ]


def test_criterion_01_involution_containment_identities():
    failures = 0
    checked = 0
    for m in range(4):
        for n in range(0, 8 - m + 1):
            report = verify_permcont1(m, n)
            checked += report.checked
            failures += len(report.failures)
    _report(
        "1",
        failures == 0,
        f"involution containment identities, pattern size <= 3, total <= 8 "
        f"(checked {checked} instances, {failures} failures)",
    )


def test_criterion_02_pair_containment_identities():
    failures = 0
    checked = 0
    for a in range(4):
        for b in range(4):
            for total in range(max(a, b), 7):
                report = verify_permcont2(a, b, total)
                checked += report.checked
                failures += len(report.failures)
    spot = verify_permcont2(2, 2, 7)
    checked += spot.checked
    failures += len(spot.failures)
    _report(
        "2",
        failures == 0,
        f"pair containment identities, pattern sizes <= 3, total <= 6, spot total 7 "
        f"(checked {checked} instances, {failures} failures)",
    )


def test_criterion_03_shuffle_identity():
    bad = 0
    checked = 0
    for a in range(4):
        for b in range(4):
            for sigma in permutations(a):
                for tau in permutations(b):
                    total = {}
                    for word in binary_words(a + b, b):
                        total = add(total, {(0, shuffle(sigma, tau, word).maj()): 1})
                    expected = mul({(0, sigma.maj() + tau.maj()): 1}, qbinomial(a + b, b))
                    checked += 1
                    if total != expected:
                        bad += 1
    _report(
        "3",
        bad == 0,
        f"shuffle maj identity for all pattern pairs up to size 3 "
        f"({checked} pairs, {bad} failures)",
    )


def test_criterion_04_insertion_class_transport():
    tabs = _all_tableaux(4)
    failures = 0
    checked = 0
    for tab in tabs:
        for j in range(tab.size + 1):
            report = verify_permtotab(tab, j)
            checked += report.checked
            failures += len(report.failures)
    for a_tab in tabs:
        for b_tab in tabs:
            for j in range(min(a_tab.size, b_tab.size) + 1):
                report = verify_permtotab_pair(a_tab, b_tab, j)
                checked += report.checked
                failures += len(report.failures)
    _report(
        "4",
        failures == 0,
        f"insertion-class transport identities, tableaux size <= 4, all cuts "
        f"(checked {checked} instances, {failures} failures)",
    )


def test_criterion_05_skew_generating_identities():
    shapes = [shape for size in range(5) for shape in partitions(size)]
    failures = 0
    checked = 0
    for alpha in shapes:
        for n in range(6):
            report = verify_majgen(alpha, n)
            checked += report.checked
            failures += len(report.failures)
    for alpha in shapes:
        for beta in shapes:
            for m in range(6):
                n = m + alpha.size - beta.size
                if 0 <= n <= 5:
                    report = verify_majgen1(alpha, beta, m, n)
                    checked += report.checked
                    failures += len(report.failures)
    _report(
        "5",
        failures == 0,
        f"skew generating identities with classical count specializations "
        f"(checked {checked} instances, {failures} failures)",
    )


EXPECTED_SERIES = [
    1, 1, 1, 2, 4, 8, 15, 29, 55, 105, 200, 381, 725, 1381, 2629, 5005,
]


def test_criterion_06a_series_coefficients():
    series = j2_series(15)
    _report("6a", series == EXPECTED_SERIES, f"series coefficients {series}")


def test_criterion_06b_brute_counts_match_series():
    series = j2_series(8)
    mismatches = [n for n in range(9) if j2_count(n) != series[n]]
    _report(
        "6b",
        not mismatches,
        f"brute-force j2 counts match series for n <= 8 (mismatches: {mismatches})",
    )


def test_criterion_06c_j2_criterion_exhaustive():
    universe = set()
    for n in range(9):
        universe |= set(j2_sets_of(n))
    mismatches = 0
    total = 0
    for r in range(9):
        for rest in itertools.combinations(range(1, 9), r):
            values = frozenset((0,) + rest)
            total += 1
            if is_j2_set(values) != (values in universe):
                mismatches += 1
    _report(
        "6c",
        mismatches == 0,
        f"j2 criterion agrees with brute force on all {total} subsets of "
        f"{{0..8}} containing 0 ({mismatches} mismatches)",
    )


def test_criterion_06d_profile_worked_examples():
    s1 = {0, 1, 2, 3, 5, 6, 9, 13, 17, 18, 19, 20, 22}
    s2 = {0, 1, 3, 6, 7, 8, 12, 13, 14, 15, 17}
    ok = (
        delta(s1) == (2, 1, 1, 1, 4, 4, 3, 1, 2, 1, 1, 1)
        and format_entries(delta_bar(s1)) == "2,2',5',4,3,3',2',1"
        and [format_entries(b) for b in psi(s1)] == ["2,2'", "5',4,3,3',2'", "1"]
        and delta(s2) == (2, 1, 1, 1, 4, 1, 1, 3, 2, 1)
        and psi2(s2) == ((2, 1), (1,), (1,), (4, 1), (1,), (3, 2, 1))
    )
    _report("6d", ok, "difference-sequence profiles reproduce the worked examples")


def test_criterion_06e_j_criterion_exhaustive():
    universe = set()
    for n in range(8):
        universe |= set(j_sets_of(n))
    mismatches = 0
    total = 0
    for r in range(8):
        for rest in itertools.combinations(range(1, 8), r):
            values = frozenset((0,) + rest)
            total += 1
            if is_j_set(values) != (values in universe):
                mismatches += 1
    _report(
        "6e",
        mismatches == 0,
        f"j-set criterion agrees with brute force on all {total} subsets of "
        f"{{0..7}} containing 0 ({mismatches} mismatches)",
    )


def test_criterion_07_insertion_correspondence_suite():
    problems = []
    for pi in permutations(6):
        p_tab, q_tab = rs(pi)
        if rs_inverse(p_tab, q_tab) != pi:
            problems.append(f"roundtrip {pi}")
        if q_tab.descents() != pi.descents():
            problems.append(f"descents {pi}")
        if p_tab.descents() != pi.inverse().descents():
            problems.append(f"inverse descents {pi}")
        if (p_tab == q_tab) != is_involution(pi):
            problems.append(f"involution {pi}")
    # class cardinalities: tableau containment counts equal permutation ones
    from qtab.permtotab import perms_with_insertion_tableau, perms_with_recording_tableau

    patterns = _all_tableaux(3)
    for n in range(1, 7):
        inv_buckets: dict[tuple, int] = {}
        for pi in involutions(n):
            for a in range(min(3, n) + 1):
                key = (a, restrict_low(pi, a).word)
                inv_buckets[key] = inv_buckets.get(key, 0) + 1
        for a_tab in patterns:
            if a_tab.size > n:
                continue
            lhs = sum(
                skew_syt_count(SkewShape(lam, a_tab.shape.outer))
                for lam in partitions(n)
                if lam.contains(a_tab.shape.outer)
            )
            rhs = sum(
                inv_buckets.get((a_tab.size, sigma.word), 0)
                for sigma in perms_with_insertion_tableau(a_tab)
            )
            if lhs != rhs:
                problems.append(f"single-class count {a_tab.shape.outer} n={n}")
        pair_buckets: dict[tuple, int] = {}
        for pi in permutations(n):
            for a in range(min(3, n) + 1):
                low = restrict_low(pi, a).word
                for b in range(min(3, n) + 1):
                    key = (a, low, b, prefix(pi, b).word)
                    pair_buckets[key] = pair_buckets.get(key, 0) + 1
        for a_tab in patterns:
            for b_tab in patterns:
                if a_tab.size > n or b_tab.size > n:
                    continue
                alpha, beta = a_tab.shape.outer, b_tab.shape.outer
                lhs = sum(
                    skew_syt_count(SkewShape(lam, alpha))
                    * skew_syt_count(SkewShape(lam, beta))
                    for lam in partitions(n)
                    if lam.contains(alpha) and lam.contains(beta)
                )
                rhs = sum(
                    pair_buckets.get(
                        (a_tab.size, sigma.word, b_tab.size, tau.word), 0
                    )
                    for sigma in perms_with_insertion_tableau(a_tab)
                    for tau in perms_with_recording_tableau(b_tab)
                )
                if lhs != rhs:
                    problems.append(f"pair-class count {alpha};{beta} n={n}")
    _report(
        "7",
        not problems,
        f"insertion correspondence suite on all of size 6 plus class "
        f"cardinalities to size 6 ({len(problems)} problems: {problems[:3]})",
    )


def test_criterion_08_fast_path_cross_checks():
    problems = []
    for n in range(9):
        if t_poly(n) != t_poly_enum(n):
            problems.append(f"t {n}")
    for n in range(7):
        if a_poly(n) != a_poly_enum(n):
            problems.append(f"a {n}")
    for n in range(11):
        if t_count(n) != sum(1 for _ in involutions(n)):
            problems.append(f"count {n}")
    _report(
        "8",
        not problems,
        f"hook-formula paths equal enumeration on the full cross-check band "
        f"({len(problems)} problems)",
    )


def test_criterion_09_scaled_ratio_convergence():
    tol = Fraction(1, 10**6)
    gap_t = abs(t_ratio(HALF, 40) - HALF)
    gap_a = abs(a_ratio(HALF, HALF, 30) - Fraction(1, 4))
    exact_t = t_ratio(Fraction(2), 40) == t_ratio(HALF, 40)
    exact_a = a_ratio(Fraction(2), Fraction(2), 30) == a_ratio(HALF, HALF, 30)
    ok = gap_t < tol and gap_a < tol and exact_t and exact_a
    _report(
        "9",
        ok,
        f"scaled ratios: t-gap={format_decimal(gap_t, 3)} a-gap="
        f"{format_decimal(gap_a, 3)} (tol 1e-6), reciprocal equalities "
        f"{exact_t and exact_a}",
    )


def test_criterion_10_limit_theorem_convergence():
    tol = Fraction(1, 10**4)
    sigma = Permutation.parse("21")
    gap_q = abs(qlim1_lhs(sigma, HALF, 40) - qlim1_rhs(sigma, HALF))
    gaps_m = []
    for word in ("12", "21"):
        pat = Permutation.parse(word)
        gaps_m.append(abs(m2_1_lhs(pat, pat, HALF, HALF, 30) - m2_1_rhs(pat, pat, HALF, HALF)))
    one = Fraction(1)
    exact = []
    for m in range(4):
        for pat in permutations(m):
            exact.append(qlim1_rhs(pat, one) == Fraction(1, math.factorial(m)))
    for m in range(4):
        for pat_a in permutations(m):
            for pat_b in permutations(m):
                exact.append(
                    m2_1_rhs(pat_a, pat_b, one, one)
                    == Fraction(1, math.factorial(m) ** 2)
                )
    for a_tab in _all_tableaux(3):
        alpha = a_tab.shape.outer
        f_alpha = skew_syt_count(a_tab.shape)
        exact.append(
            m3_rhs(a_tab, one)
            == Fraction(f_alpha, math.factorial(alpha.size))
        )
        for b_tab in _all_tableaux(2):
            beta = b_tab.shape.outer
            exact.append(
                m3_1_rhs(a_tab, b_tab, one, one)
                == Fraction(
                    f_alpha * skew_syt_count(b_tab.shape),
                    math.factorial(alpha.size) * math.factorial(beta.size),
                )
            )
    ok = gap_q < tol and all(g < tol for g in gaps_m) and all(exact)
    _report(
        "10",
        ok,
        f"limit theorems: qlim1-gap={format_decimal(gap_q, 3)} "
        f"m2-1-gaps={[format_decimal(g, 3) for g in gaps_m]} (tol 1e-4), "
        f"unit-parameter limits exact={all(exact)}",
    )


def test_criterion_11a_log_product_bound():
    margins = {}
    ok = True
    for num, den in ((1, 10), (1, 2), (9, 10)):
        report = check_bound(Fraction(num, den))
        margins[f"{num}/{den}"] = format_decimal(report.margin, 4)
        ok = ok and report.holds
    _report("11a", ok, f"log-product bound holds with margins {margins}")


def _littlewood_coefficients(q: Fraction, n: int) -> list[Fraction]:
    """[t^m] prod_i (1-t q^i)^-1 prod_{i<j} (1-t^2 q^(i+j))^-1 for m <= n.

    Independent of the partition sum: exponentiates the closed-form
    logarithm of the product with m b_m = sum_k k a_k b_(m-k).
    """
    a = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        a[k] = 1 / (k * (1 - q**k))
        if k % 2 == 0:
            h = k // 2
            a[k] += q**h / (h * (1 - q**h) * (1 - q**k))
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(sum(k * a[k] * b[m - k] for k in range(1, m + 1)) / m)
    return b


def test_criterion_11b_partition_sum_vs_product():
    # The gap decays like q^(n/2), so at n=40 it is ~6.3e-5 and the raw gap
    # cannot meet 1e-6.  For even n, sum_n = P - C q^(n/2) + O(n q^n), and
    # (sum_40 - q sum_38) / (1 - q) cancels the C term exactly; what is left,
    # O(n q^n) ~ 2e-9, must sit within 1e-6 of the certified product.
    tol = Fraction(1, 10**6)
    product, tail = xi_product_with_tail(HALF, tol)
    sum_38, sum_40 = xi_partial(HALF, 38), xi_partial(HALF, 40)
    reference = _littlewood_coefficients(HALF, 40)
    pinned = sum_38 == reference[38] and sum_40 == reference[40]
    gap = product - sum_40
    from_below = sum_38 < sum_40 < product + tail and gap > 0
    off = (sum_40 - HALF * sum_38) / (1 - HALF) - product
    _report(
        "11b",
        pinned and from_below and abs(off) + tail < tol,
        f"partition sum at 40 vs certified product: gap={format_decimal(gap, 4)} "
        f"rate-corrected off={format_decimal(off, 3)} tail<={format_decimal(tail, 3)} "
        f"(tol 1e-6) gap40/gap38={format_decimal(gap / (product - sum_38), 4)} "
        f"pinned to Littlewood series={pinned} monotone from below={from_below}",
    )


def test_partition_sum_gap_decays_like_q_to_half_n():
    # The C q^(n/2) term that 11b cancels, observed directly: far enough out
    # the O(n q^n) remainder is ~1e-34, so successive even-n gaps shrink by q
    # and gap(n) / q^(n/2) settles on C.
    product, _ = xi_product_with_tail(HALF, Fraction(1, 10**45))
    gap_118 = product - xi_partial(HALF, 118)
    gap_120 = product - xi_partial(HALF, 120)
    assert abs(gap_120 / gap_118 - HALF) < Fraction(1, 10**10)
    assert abs(gap_120 / HALF**60 - Fraction("65.5508032361")) < Fraction(1, 10**6)


def test_criterion_11c_involution_ratio_trend():
    report = eq8_check(1, 2000)
    gap_end = abs(report.ratio_offset - 1)
    gaps = [abs(eq8_check(1, n).ratio_offset - 1) for n in (100, 500, 1000, 2000)]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = (
        gap_end < Fraction(3, 100)
        and abs(report.ratio_stride - 1) < Fraction(3, 100)
        and decreasing
    )
    _report(
        "11c",
        ok,
        f"involution number ratios at 2000: offset-gap={format_decimal(gap_end, 3)} "
        f"stride-gap={format_decimal(abs(report.ratio_stride - 1), 3)} "
        f"decreasing over 100..2000={decreasing}",
    )


def test_criterion_12_conjecture_probe():
    one_cell = Tableau.from_rows([[1]])
    values = {n: conjecture_probe([one_cell] * 3, n) for n in (6, 7, 8)}
    ok = all(isinstance(v, Fraction) for v in values.values())
    _report(
        "12",
        ok,
        "triple one-cell containment ratios: "
        + ", ".join(f"n={n}: {v}" for n, v in sorted(values.items())),
    )
