from fractions import Fraction

import pytest

from polys import add, mul, swap
from qtab.bivar import qfactorial, unpack
from qtab.limits import xi_partial
from qtab.permutation import involutions
from qtab.polynomial import packed_width
from qtab.stats import (
    a_poly,
    a_poly_enum,
    a_scaled_value,
    a_value,
    q_factorial_value,
    q_integer_value,
    t_count,
    t_poly,
    t_poly_enum,
    t_scaled_value,
    t_value,
)
from qtab.tableau import SkewShape, f_poly_enum, hook_packed, partitions
from qtab.weights import evaluate

ONE = {(0, 0): 1}


def test_t_poly_enum_small():
    assert t_poly_enum(0) == ONE
    # involutions of [2]: identity (maj 0) and the swap (maj 1)
    assert t_poly_enum(2) == {(0, 0): 1, (0, 1): 1}
    # involutions of [3]: maj values 0, 1, 2, 3
    assert t_poly_enum(3) == {(0, m): 1 for m in range(4)}


@pytest.mark.parametrize("n", range(0, 9))
def test_t_poly_matches_enumeration(n):
    assert t_poly(n) == t_poly_enum(n)


def test_t_poly_degree_and_positivity():
    for n in range(1, 9):
        poly = t_poly(n)
        assert max(k for _, k in poly) == n * (n - 1) // 2
        assert all(c > 0 for c in poly.values())


@pytest.mark.parametrize("n", range(0, 11))
def test_t_poly_palindromic_under_conjugation(n):
    # q -> 1/q, rescaled by the top degree, fixes the polynomial
    poly = t_poly(n)
    top = n * (n - 1) // 2
    reversed_terms = {(0, top - j): c for (_, j), c in poly.items()}
    assert reversed_terms == poly


def test_a_poly_enum_small():
    assert a_poly_enum(1) == ONE
    assert a_poly_enum(2) == {(0, 0): 1, (1, 1): 1}


@pytest.mark.parametrize("n", range(0, 7))
def test_a_poly_matches_enumeration(n):
    assert a_poly(n) == a_poly_enum(n)


@pytest.mark.parametrize("n", range(0, 10))
def test_a_poly_matches_product_sum(n):
    # the sum over shapes of f_lam(p) f_lam(q), with f_lam by enumeration
    total = {}
    for shape in partitions(n):
        fq = f_poly_enum(SkewShape.straight(shape))
        total = add(total, mul(swap(fq), fq))
    assert a_poly(n) == total


def test_a_poly_16_marginals():
    import math

    poly = a_poly(16)
    assert evaluate(poly, 1, 1) == math.factorial(16)
    q_marginal = add(*({(0, j): c} for (_, j), c in poly.items()))
    p_marginal = add(*({(i, 0): c} for (i, _), c in poly.items()))
    assert q_marginal == qfactorial(16)
    assert p_marginal == swap(qfactorial(16))


@pytest.mark.parametrize("n", range(0, 7))
def test_a_poly_specializations(n):
    import math

    poly = a_poly(n)
    assert evaluate(poly, 1, 1) == math.factorial(n)
    assert swap(poly) == poly
    # p = 1 slice collapses to the maj distribution over all permutations
    third = Fraction(1, 3)
    assert evaluate(poly, 1, third) == evaluate(qfactorial(n), 1, third)


@pytest.mark.parametrize("n", range(0, 7))
def test_a_poly_inversion_symmetry(n):
    # (p,q) -> (1/p,1/q) fixes the polynomial after rescaling by (pq)^(n(n-1)/2)
    poly = a_poly(n)
    top = n * (n - 1) // 2
    flipped = {(top - i, top - j): c for (i, j), c in poly.items()}
    assert flipped == poly


def test_t_count_values():
    assert [t_count(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]


@pytest.mark.parametrize("n", range(0, 11))
def test_t_count_matches_enumeration(n):
    assert t_count(n) == sum(1 for _ in involutions(n))


def test_q_values_against_polynomials():
    q = Fraction(2, 7)
    for h in range(6):
        assert q_integer_value(h, q) == evaluate({(0, d): 1 for d in range(h)}, 1, q)
    for n in range(6):
        assert q_factorial_value(n, q) == evaluate(qfactorial(n), 1, q)
    assert q_integer_value(5, Fraction(1)) == 5


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2), Fraction(1), Fraction(2, 3)])
def test_q_factorial_prefix_matches_the_direct_product(q, monkeypatch):
    from qtab import stats

    # an empty cache, grown out of order: the largest n first, then the rest
    monkeypatch.setattr(stats, "_Q_FACTORIALS", {})
    order = [30, 7, 0, 15, *range(31)]
    for n in order:
        direct = Fraction(1)
        for i in range(1, n + 1):
            direct *= q_integer_value(i, q)
        assert q_factorial_value(n, q) == direct
    assert len(stats._Q_FACTORIALS[q]) == 31
    with pytest.raises(ValueError):
        q_factorial_value(-1, q)


@pytest.mark.parametrize("n", range(0, 8))
def test_rational_evaluators_match_enumeration(n):
    q = Fraction(1, 3)
    p = Fraction(3, 5)
    assert t_value(n, q) == evaluate(t_poly_enum(n), 1, q)
    assert t_scaled_value(n, q) == t_value(n, q) / q_factorial_value(n, q)
    if n <= 6:
        assert a_value(n, p, q) == evaluate(a_poly_enum(n), p, q)


def test_scaled_values_invariant_under_reciprocal():
    # the single-variable flip is exact for the involution statistic, and the
    # simultaneous flip for the two-variable one
    for n in range(8):
        assert t_scaled_value(n, Fraction(1, 2)) == t_scaled_value(n, Fraction(2))
        assert a_scaled_value(n, Fraction(2, 3), Fraction(1, 5)) == a_scaled_value(
            n, Fraction(3, 2), Fraction(5)
        )
        # flipping only one variable exchanges the two mixed evaluations
        assert a_scaled_value(n, Fraction(2, 3), Fraction(5)) == a_scaled_value(
            n, Fraction(3, 2), Fraction(1, 5)
        )


def test_single_flip_is_not_an_invariance():
    # conjugation reverses one factor but not the other, so flipping just one
    # variable genuinely changes the two-variable evaluation
    assert a_scaled_value(2, Fraction(2, 3), Fraction(1, 5)) != a_scaled_value(
        2, Fraction(2, 3), Fraction(5)
    )


# -- the series evaluators against the partition/hook-length sum ---------------


def _hook_sum(n, *params):
    """Reference for the scaled values: the sum over partitions of n of
    prod over the parameters x of x^(sum_i (i-1) lambda_i) / prod_h [h]_x.

    Each term is accumulated as a bare numerator and denominator, so that a
    partition costs one rational normalization."""
    tables = [(x, [q_integer_value(h, x) for h in range(n + 1)]) for x in params]
    total = Fraction(0)
    for shape in partitions(n):
        shift = sum(i * part for i, part in enumerate(shape.parts))
        hooks = shape.hook_lengths()
        num = den = 1
        for x, q_integers in tables:
            num *= x.numerator**shift
            den *= x.denominator**shift
            for h in hooks:
                num *= q_integers[h].denominator
                den *= q_integers[h].numerator
        total += Fraction(num, den)
    return total


@pytest.mark.parametrize(
    "q", [Fraction(1, 2), Fraction(2), Fraction(1), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3)]
)
def test_t_scaled_value_matches_hook_sum(q):
    for n in range(26):
        assert t_scaled_value(n, q) == _hook_sum(n, q), n


@pytest.mark.parametrize(
    "p, q",
    [
        (Fraction(1, 2), Fraction(2, 3)),
        (Fraction(2), Fraction(3, 2)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(2)),
        (Fraction(2, 3), Fraction(5)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1), Fraction(1)),
    ],
)
def test_a_scaled_value_matches_hook_sum(p, q):
    for n in range(19):
        assert a_scaled_value(n, p, q) == _hook_sum(n, p, q), n


def test_xi_partial_matches_hook_sum_at_40():
    # criterion 11b pins xi_partial to the test's own log-exp Littlewood
    # series; the partition sum is a check at its size independent of both
    q = Fraction(1, 2)
    assert xi_partial(q, 40) == _hook_sum(40, q) / (1 - q) ** 40


# -- the integer series behind t_poly, t_value and a_value ---------------------


def _packed_hook_sum(n):
    """t_n as the sum over partitions of n of the packed hook polynomials."""
    width = packed_width(t_count(n))
    return unpack(width, sum(hook_packed(shape, width) for shape in partitions(n)))


@pytest.mark.parametrize("n", [*range(25), 30])
def test_t_poly_matches_packed_hook_sum(n):
    assert t_poly(n) == _packed_hook_sum(n)


def test_t_poly_40_against_its_values():
    poly = t_poly(40)
    assert evaluate(poly, 1, 1) == t_count(40)
    for q in (Fraction(1, 2), Fraction(3)):
        assert evaluate(poly, 1, q) == t_value(40, q)


def test_series_at_one_is_the_counting_recurrence():
    # at q = 1 every weight past k = 2 (k = 1 for permutations) vanishes
    import math

    for n in range(80):
        assert t_value(n, 1) == t_count(n)
    for n in range(30):
        assert a_value(n, 1, 1) == math.factorial(n)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(-1, 2), Fraction(-3)])
def test_t_value_off_the_positive_axis(q):
    for n in range(9):
        assert t_value(n, q) == evaluate(t_poly_enum(n), 1, q), n
