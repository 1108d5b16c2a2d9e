import itertools
import math
from fractions import Fraction

import pytest

from oracle.bounds import check_bound
from oracle.permutation import prefix, restrict_low
from oracle.tableau import restrict_high as tab_restrict_high, tab_contains
from qtab.bounds import eq8_check
from qtab.limits import (
    ConvergenceReport,
    a_ratio,
    contraction,
    default_grid,
    m2_1_lhs,
    m2_1_rhs,
    m3_1_lhs,
    m3_1_rhs,
    m3_lhs,
    m3_rhs,
    qlim1_lhs,
    qlim1_rhs,
    t_ratio,
    xi_partial,
    xi_product_with_tail,
)
from qtab.permutation import Permutation, involutions, permutations
from qtab.stats import q_factorial_value, t_count
from qtab.tableau import SkewShape, Tableau, enumerate_syt, partitions, skew_syt_count
from qtab.weights import evaluate, m2_1_weight, m3_1_weight, pair_weight_sum

HALF = Fraction(1, 2)


def _syts(size):
    return [
        tab
        for shape in partitions(size)
        for tab in enumerate_syt(SkewShape.straight(shape))
    ]


# The band on which both kernels are pinned to enumeration: patterns of sizes
# 1-3 (pairs 1-2), at every n up to 7 (pairs 6), on both sides of 1 and at 1.
WORDS_1_3 = ["".join(map(str, perm.word)) for k in (1, 2, 3) for perm in permutations(k)]
PERMS_1_2 = [perm for k in (1, 2) for perm in permutations(k)]
# plus two pairs with a size-3 pattern, which tells imaj from maj and a from b
PAIRS_M2_1 = list(itertools.product(PERMS_1_2, repeat=2)) + [
    (Permutation.parse(s), Permutation.parse(t)) for s, t in (("21", "231"), ("231", "312"))
]
SYTS_1_3 = [tab for k in (1, 2, 3) for tab in _syts(k)]
SYTS_1_2 = [tab for k in (1, 2) for tab in _syts(k)]
# plus a pair with a size-3 tableau, the case this test was first written for
TAB_PAIRS_M3_1 = list(itertools.product(SYTS_1_2, repeat=2)) + [
    (Tableau.from_rows([[1, 2], [3]]), Tableau.from_rows([[1], [2]]))
]
PQ_M2_1 = [(Fraction(2, 5), Fraction(1, 3)), (Fraction(3), HALF), (Fraction(1), Fraction(2, 3))]
# the last pair has p and q on opposite sides of 1
PQ_M3_1 = [
    (HALF, Fraction(2, 3)),
    (Fraction(2), Fraction(3, 2)),
    (Fraction(1), Fraction(1, 3)),
    (HALF, Fraction(3)),
]


def test_real_param():
    assert contraction(Fraction(3)) == Fraction(1, 3)
    assert contraction(HALF) == HALF
    assert contraction(Fraction(1)) == 1
    with pytest.raises(ValueError):
        contraction(Fraction(0))


def test_t_ratio_base():
    assert t_ratio(HALF, 0) == 1  # both scaled values are 1
    assert t_ratio(Fraction(7, 3), 0) == 1


def test_t_ratio_reciprocal_invariance():
    for n in (3, 8, 12):
        assert t_ratio(HALF, n) == t_ratio(Fraction(2), n)
        assert t_ratio(Fraction(3, 7), n) == t_ratio(Fraction(7, 3), n)


def test_a_ratio_simultaneous_invariance():
    for n in (3, 6, 9):
        assert a_ratio(HALF, Fraction(1, 3), n) == a_ratio(Fraction(2), Fraction(3), n)


def test_ratio_converges_toward_contraction():
    gap_small = abs(t_ratio(HALF, 12) - HALF)
    gap_large = abs(t_ratio(HALF, 24) - HALF)
    assert gap_large < gap_small < Fraction(1, 10)


def test_a_ratio_degenerate_p_one():
    # with p = 1 the limit factor (1 - min(p,1/p)) vanishes
    values = [a_ratio(Fraction(1), HALF, n) * 1 for n in (6, 10, 14)]
    assert values[0] > values[1] > values[2]
    assert values[2] < Fraction(1, 8)


# -- finite-size evaluators against raw enumeration -----------------------------


def brute_qlim1(sigma, q, n):
    m = sigma.size
    num = Fraction(0)
    den = Fraction(0)
    for pi in involutions(n):
        w = q ** pi.suffix(m).maj()
        den += w
        if restrict_low(pi, m) == sigma:
            num += w
    return num / den


@pytest.mark.parametrize("word", WORDS_1_3)
def test_qlim1_lhs_matches_enumeration(word):
    sigma = Permutation.parse(word)
    for q in (Fraction(2, 3), Fraction(3, 2), Fraction(1)):
        for n in range(sigma.size, 8):
            assert qlim1_lhs(sigma, q, n) == brute_qlim1(sigma, q, n), (q, n)


def test_qlim1_empty_pattern():
    empty = Permutation(())
    assert qlim1_rhs(empty, HALF) == 1
    assert qlim1_lhs(empty, HALF, 6) == 1


def test_qlim1_rhs_q1_is_reciprocal_factorial():
    for sigma in (perm for k in (1, 2, 3, 4) for perm in permutations(k)):
        assert qlim1_rhs(sigma, Fraction(1)) == Fraction(
            1, math.factorial(sigma.size)
        ), sigma


def brute_m2_1(sigma, tau, p, q, n):
    a, b = sigma.size, tau.size
    num = Fraction(0)
    den = Fraction(0)
    for pi in permutations(n):
        w = p ** pi.restrict_high(a).imaj() * q ** pi.suffix(b).maj()
        den += w
        if restrict_low(pi, a) == sigma and prefix(pi, b) == tau:
            num += w
    return num / den


def test_m2_1_lhs_matches_enumeration():
    for sigma, tau in PAIRS_M2_1:
        for p, q in PQ_M2_1:
            for n in range(max(sigma.size, tau.size), 7):
                expected = brute_m2_1(sigma, tau, p, q, n)
                assert m2_1_lhs(sigma, tau, p, q, n) == expected, (sigma, tau, p, q, n)


def test_m2_1_unequal_sizes_converges_to_rhs():
    sigma, tau = Permutation.parse("21"), Permutation.parse("231")
    for p, q in ((Fraction(1, 3), HALF), (Fraction(3), Fraction(2))):
        gap = abs(m2_1_lhs(sigma, tau, p, q, 30) - m2_1_rhs(sigma, tau, p, q))
        assert gap < Fraction(1, 10**4), (p, q)


def test_m2_1_rhs_specializations():
    sigma = Permutation.parse("21")
    tau = Permutation.parse("312")
    a, b = sigma.size, tau.size
    one = Fraction(1)
    assert m2_1_rhs(sigma, tau, one, one) == Fraction(
        1, math.factorial(a) * math.factorial(b)
    )
    q = Fraction(1, 3)
    assert m2_1_rhs(sigma, tau, one, q) == q ** sigma.maj() / (
        math.factorial(b) * q_factorial_value(a, q)
    )
    assert m2_1_rhs(Permutation(()), Permutation(()), one, one) == 1
    band = [perm for k in (1, 2, 3) for perm in permutations(k)]
    for sigma, tau in itertools.product(band, repeat=2):
        assert m2_1_rhs(sigma, tau, one, one) == Fraction(
            1, math.factorial(sigma.size) * math.factorial(tau.size)
        ), (sigma, tau)


def brute_m3(a_tab, q, n):
    m = a_tab.size
    num = Fraction(0)
    den = Fraction(0)
    for lam in partitions(n):
        for tab in enumerate_syt(SkewShape.straight(lam)):
            w = q ** tab_restrict_high(tab, m).maj()
            den += w
            if tab_contains(tab, a_tab):
                num += w
    return num / den


def test_m3_lhs_matches_enumeration():
    for a_tab in SYTS_1_3:
        for q in (Fraction(3, 4), Fraction(4, 3), Fraction(1)):
            for n in range(a_tab.size, 8):
                assert m3_lhs(a_tab, q, n) == brute_m3(a_tab, q, n), (a_tab.rows, q, n)


def test_m3_rhs_q1():
    for a_tab in (tab for k in (1, 2, 3, 4) for tab in _syts(k)):
        assert m3_rhs(a_tab, Fraction(1)) == Fraction(
            skew_syt_count(a_tab.shape), math.factorial(a_tab.size)
        )


def brute_m3_1(a_tab, b_tab, p, q, n):
    num = Fraction(0)
    den = Fraction(0)
    for lam in partitions(n):
        tabs = list(enumerate_syt(SkewShape.straight(lam)))
        for p_tab in tabs:
            wp = p ** tab_restrict_high(p_tab, a_tab.size).maj()
            for q_tab in tabs:
                w = wp * q ** tab_restrict_high(q_tab, b_tab.size).maj()
                den += w
                if tab_contains(p_tab, a_tab) and tab_contains(q_tab, b_tab):
                    num += w
    return num / den


def test_m3_1_lhs_matches_enumeration():
    for a_tab, b_tab in TAB_PAIRS_M3_1:
        for p, q in PQ_M3_1:
            for n in range(max(a_tab.size, b_tab.size), 7):
                expected = brute_m3_1(a_tab, b_tab, p, q, n)
                assert m3_1_lhs(a_tab, b_tab, p, q, n) == expected, (a_tab.rows, p, q, n)


def test_m3_1_rhs_specializations():
    a_tab = Tableau.from_rows([[1, 2], [3]])
    b_tab = Tableau.from_rows([[1], [2]])
    one = Fraction(1)
    alpha, beta = a_tab.shape.outer, b_tab.shape.outer
    expected = Fraction(
        skew_syt_count(a_tab.shape) * skew_syt_count(b_tab.shape),
        math.factorial(alpha.size) * math.factorial(beta.size),
    )
    assert m3_1_rhs(a_tab, b_tab, one, one) == expected
    one_cell = Tableau.from_rows([[1]])
    assert m3_1_rhs(one_cell, one_cell, one, one) == 1
    for a_tab, b_tab in itertools.product(SYTS_1_3, repeat=2):
        alpha, beta = a_tab.shape.outer, b_tab.shape.outer
        assert m3_1_rhs(a_tab, b_tab, one, one) == Fraction(
            skew_syt_count(a_tab.shape) * skew_syt_count(b_tab.shape),
            math.factorial(alpha.size) * math.factorial(beta.size),
        ), (a_tab.rows, b_tab.rows)
    q = Fraction(1, 4)
    from qtab.tableau import f_poly

    f_alpha_q = evaluate(f_poly(SkewShape.straight(alpha)), 1, q)
    assert m3_1_rhs(a_tab, b_tab, one, q) == skew_syt_count(b_tab.shape) * f_alpha_q / (
        math.factorial(beta.size) * q_factorial_value(alpha.size, q)
    )


def test_rhs_pinned_off_the_unit_parameter():
    # exact limits with both parameters below 1, both above 1 and, for the pair
    # theorems, p and q on opposite sides of 1 in both orders, where only the
    # cut j = 0 survives (test_opposite_sides_limit_is_the_first_cut)
    sigma, tau = Permutation.parse("21"), Permutation.parse("312")
    a_tab = Tableau.from_rows([[1, 2], [3]])
    b_tab = Tableau.from_rows([[1], [2]])
    pattern = Permutation.parse("132")
    for q, qlim1, m3 in (
        (HALF, Fraction(107, 756), Fraction(79, 252)),
        (Fraction(3), Fraction(397, 1924), Fraction(731, 2405)),
    ):
        assert qlim1_rhs(pattern, q) == qlim1, q
        assert m3_rhs(a_tab, q) == m3, q
    for p, q, m2_1, m3_1 in (
        (HALF, Fraction(2, 3), Fraction(59, 1365), Fraction(205, 1482)),
        (Fraction(3), Fraction(3, 2), Fraction(1899, 18460), Fraction(1565, 8094)),
        (HALF, Fraction(3), Fraction(1, 14), Fraction(1, 13)),
        (Fraction(3), HALF, Fraction(3, 52), Fraction(3, 14)),
    ):
        assert m2_1_rhs(sigma, tau, p, q) == m2_1, (p, q)
        assert m3_1_rhs(a_tab, b_tab, p, q) == m3_1, (p, q)


def test_weight_evaluation_is_the_polynomial_evaluation():
    # weights.evaluate, the one table evaluator, which the limit kernel reads,
    # is a table's term-by-term sum, exactly, with the parameters on either
    # side of 1
    from qtab.weights import involution_weight_sum, m3_weight, qlim1_weight

    patterns = [sigma for size in range(4) for sigma in permutations(size)]
    shapes = [alpha for size in range(5) for alpha in partitions(size)]
    weights = [qlim1_weight(sigma) for sigma in patterns]
    weights += [m2_1_weight(sigma, tau) for sigma in patterns for tau in patterns]
    weights += [m3_weight(alpha) for alpha in shapes]
    weights += [m3_1_weight(alpha, beta) for alpha in shapes for beta in shapes]
    weights += [involution_weight_sum(a) for a in range(5)]
    weights += [pair_weight_sum(a, b) for a in range(5) for b in range(5)]
    tables = [table for weight in weights for table in weight.values()]
    assert {} in tables  # a cut no inner shape fits evaluates to 0
    points = [
        (1, HALF), (1, Fraction(3)), (HALF, Fraction(2, 3)), (Fraction(3), Fraction(3, 2)),
        (HALF, Fraction(3)), (Fraction(5, 2), Fraction(1, 3)),
    ]
    for table in tables:
        for p, q in points:
            value = sum((c * Fraction(p) ** i * q**k for (i, k), c in table.items()), Fraction(0))
            assert evaluate(table, Fraction(p), q) == value, table


def test_opposite_sides_limit_is_the_first_cut():
    # the pair rate a_limit is 0 with p and q on opposite sides of 1, so each
    # pair limit is w(0)/W(0), and every finite ratio closes in on its limit
    sigma, tau = Permutation.parse("21"), Permutation.parse("312")
    a_tab = Tableau.from_rows([[1, 2], [3]])
    b_tab = Tableau.from_rows([[1], [2]])
    m2_1_first = m2_1_weight(sigma, tau)[0]
    m3_1_first = m3_1_weight(a_tab.shape.outer, b_tab.shape.outer)[0]
    for p, q in ((HALF, Fraction(3)), (Fraction(3), HALF)):
        total = evaluate(pair_weight_sum(sigma.size, tau.size)[0], p, q)
        assert m2_1_rhs(sigma, tau, p, q) == evaluate(m2_1_first, p, q) / total, (p, q)
        total = evaluate(pair_weight_sum(a_tab.size, b_tab.size)[0], p, q)
        assert m3_1_rhs(a_tab, b_tab, p, q) == evaluate(m3_1_first, p, q) / total, (p, q)
    pattern = Permutation.parse("132")
    cases = [(qlim1_lhs, qlim1_rhs, (pattern, q)) for q in (HALF, Fraction(3))]
    cases += [(m3_lhs, m3_rhs, (a_tab, q)) for q in (HALF, Fraction(3))]
    for p, q in ((HALF, Fraction(2, 3)), (Fraction(3), Fraction(3, 2)), (HALF, Fraction(3))):
        cases += [
            (m2_1_lhs, m2_1_rhs, (sigma, tau, p, q)),
            (m3_1_lhs, m3_1_rhs, (a_tab, b_tab, p, q)),
        ]
    for lhs, rhs, args in cases:
        limit = rhs(*args)
        gaps = [abs(lhs(*args, n) - limit) for n in (10, 20, 40)]
        assert gaps[0] > gaps[1] > gaps[2], (lhs.__name__, args[-2:])


_TAB_21 = Tableau.from_rows([[1, 2], [3]])
_TAB_11 = Tableau.from_rows([[1], [2]])
_SIZES_1_3 = range(1, 4)


# weight sum: (the sizes it is planted at, the verify command that checks it,
# the limits that divide by it)
WEIGHT_SUM_PLANTS = {
    "involution_weight_sum": (
        [(m,) for m in _SIZES_1_3],
        ["verify", "permcont1", "--max-size", "2", "--max-total", "4"],
        lambda: (qlim1_lhs(Permutation.parse("132"), HALF, 8), m3_rhs(_TAB_21, HALF)),
    ),
    "pair_weight_sum": (
        list(itertools.product(_SIZES_1_3, repeat=2)),
        ["verify", "permcont2", "--max-size", "2", "--max-total", "4"],
        lambda: (
            m2_1_lhs(Permutation.parse("21"), Permutation.parse("312"), HALF, Fraction(2, 3), 8),
            m3_1_rhs(_TAB_21, _TAB_11, HALF, Fraction(2, 3)),
        ),
    ),
}


@pytest.mark.parametrize("name", WEIGHT_SUM_PLANTS)
def test_limits_divide_by_the_weight_sums_verify_checks(name, monkeypatch, capsys):
    # a fault planted in the cached weight sums W(j), +q at the cut j = 0,
    # fails the verify kind that checks them and moves every limit that
    # divides by them: the kernel has no denominator of its own
    from qtab import weights
    from qtab.cli import run

    sizes, argv, limits_of = WEIGHT_SUM_PLANTS[name]
    weight_sum, frozen = getattr(weights, name), weights._frozen
    before = limits_of()

    def plus_q(tables):
        tables[0][0, 1] = tables[0].get((0, 1), 0) + 1
        return frozen(tables)

    weight_sum.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(weights, "_frozen", plus_q)
            for size in sizes:
                weight_sum(*size)
        after = limits_of()
        assert run(argv) == 1
    finally:
        weight_sum.cache_clear()  # drop the planted tables
    assert all(x != y for x, y in zip(before, after)), (before, after)
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith(" FAIL") for line in lines[:-1])
    assert limits_of() == before


@pytest.mark.parametrize("q", [HALF, Fraction(3)])
def test_involution_probabilities_sum_to_one(q):
    for m in (1, 2, 3):
        perms, tabs = list(permutations(m)), _syts(m)
        assert sum(qlim1_lhs(sigma, q, 8) for sigma in perms) == 1, m
        assert sum(m3_lhs(a_tab, q, 8) for a_tab in tabs) == 1, m
        assert sum(qlim1_rhs(sigma, q) for sigma in perms) == 1, m
        assert sum(m3_rhs(a_tab, q) for a_tab in tabs) == 1, m


@pytest.mark.parametrize(
    "p, q", [(HALF, Fraction(2, 3)), (Fraction(3), Fraction(3, 2)), (HALF, Fraction(3))]
)
def test_pair_probabilities_sum_to_one(p, q):
    for a, b in ((1, 2), (2, 2), (2, 3)):
        perms = list(itertools.product(permutations(a), permutations(b)))
        tabs = list(itertools.product(_syts(a), _syts(b)))
        assert sum(m2_1_lhs(sigma, tau, p, q, 7) for sigma, tau in perms) == 1, (a, b)
        assert sum(m3_1_lhs(a_tab, b_tab, p, q, 7) for a_tab, b_tab in tabs) == 1, (a, b)
        assert sum(m2_1_rhs(sigma, tau, p, q) for sigma, tau in perms) == 1, (a, b)
        assert sum(m3_1_rhs(a_tab, b_tab, p, q) for a_tab, b_tab in tabs) == 1, (a, b)


# -- bound, products, ratios ------------------------------------------------------


def test_check_bound_holds():
    for q in (Fraction(1, 10), HALF, Fraction(9, 10)):
        report = check_bound(q)
        assert report.holds
        assert report.margin > 0


def test_check_bound_tiny_q_near_limits():
    report = check_bound(Fraction(1, 1000))
    assert report.lhs_upper < Fraction(1, 100)
    assert report.rhs_lower > 1


def test_check_bound_rejects_bad_q():
    with pytest.raises(ValueError):
        check_bound(Fraction(3, 2))


def test_xi_partial_base():
    assert xi_partial(HALF, 0) == 1
    assert xi_partial(HALF, 1) == 2


def test_xi_partial_increasing():
    values = [xi_partial(HALF, n) for n in range(0, 12)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_xi_product_certified_tail():
    precision = Fraction(1, 10**6)
    value, tail = xi_product_with_tail(HALF, precision)
    assert 0 < tail <= precision / 10
    # partial sums stay below the product and approach it
    assert xi_partial(HALF, 12) < value
    assert value - xi_partial(HALF, 20) < Fraction(1, 10)


def test_eq8_values():
    report = eq8_check(0, 50)
    assert report.ratio_offset == 1 and report.ratio_stride == 1
    report = eq8_check(1, 100)
    assert abs(report.ratio_offset - 1) < Fraction(1, 5)
    gaps = [abs(eq8_check(1, n).ratio_offset - 1) for n in (100, 400, 1600)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_eq8_identity_with_recurrence():
    # n * t(n-1) / t(n+1) = 1 - t(n)/t(n+1) via the recurrence
    for n in (10, 25, 60):
        report = eq8_check(1, n)
        assert report.ratio_offset == 1 - Fraction(t_count(n), t_count(n + 1))


def test_convergence_report_csv():
    report = ConvergenceReport("demo", Fraction(0), [(n, Fraction(1, n)) for n in (1, 2, 4)])
    text = report.to_csv(6)
    lines = text.splitlines()
    assert lines[0] == "n,value,limit,gap"
    assert lines[1] == "1,1,0,1"
    assert lines[3] == "4,0.25,0,0.25"


def test_default_grid():
    grid = default_grid(2, 30, 8)
    assert grid[0] == 2 and grid[-1] == 30
    assert grid == sorted(set(grid))
    assert default_grid(5, 5) == [5]


def test_m2_1_convergence_example_312():
    # size-3 diagonal pattern at enumeration size 30 sits within 1e-4
    pat = Permutation.parse("312")
    p = q = HALF
    gap = abs(m2_1_lhs(pat, pat, p, q, 30) - m2_1_rhs(pat, pat, p, q))
    assert gap < Fraction(1, 10**4)


def test_gap_sequence_eventually_decreasing():
    from qtab.limits import default_grid

    q = HALF
    grid = default_grid(2, 20, 8)
    sigma = Permutation.parse("21")
    for finite, limit in [
        (lambda n: t_ratio(q, n), 1 - q),
        (lambda n: qlim1_lhs(sigma, q, n), qlim1_rhs(sigma, q)),
    ]:
        report = ConvergenceReport("trend", limit, [(n, finite(n)) for n in grid])
        gaps = [gap for _, gap in report.gaps()]
        tail = gaps[-4:]
        assert all(a > b for a, b in zip(tail, tail[1:])), gaps


def test_t_ratio_unit_parameter_trend():
    # at q = 1 the scaled ratio decays slowly toward the degenerate limit 0
    values = [t_ratio(Fraction(1), n) for n in (10, 40, 160, 640)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 10)
