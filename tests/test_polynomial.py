from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from qtab.bivar import ONE, P, Q, ZERO, BivarPoly, q_integer, qbinomial, qfactorial, unpack
from qtab.polynomial import divide_packed, format_decimal, packed_width, times_q_integer


def poly_strategy():
    term = st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-9, 9),
    )
    return st.lists(term, max_size=6).map(BivarPoly)


def test_hand_expanded_product():
    # (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3, expanded by hand
    assert q_integer(2) * q_integer(3) == BivarPoly(
        {(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1}
    )


def test_multiplicative_identity_and_inverse():
    poly = 3 * P * Q**2 + Q - 7
    assert poly * ONE == poly
    assert poly + (-poly) == ZERO


def test_eval_substitution():
    # 1 + p*q at p = q = 1/2
    poly = ONE + P * Q
    assert poly.evaluate(Fraction(1, 2), Fraction(1, 2)) == Fraction(5, 4)
    assert ZERO.evaluate(Fraction(3, 7), Fraction(22, 5)) == 0


def test_eval_at_one_sums_coefficients():
    poly = 2 * P**2 + 3 * Q + 5
    assert poly.evaluate(1, 1) == 10


def test_qfactorial_values():
    assert qfactorial(0) == ONE
    assert qfactorial(1) == ONE
    # hand expansion of (1+q)(1+q+q^2)
    assert qfactorial(3) == BivarPoly({(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1})
    assert qfactorial(2).evaluate(1, 1) == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_qfactorial_recurrence(n):
    assert qfactorial(n) == qfactorial(n - 1) * q_integer(n)


def test_qfactorial_equals_product_of_q_integers():
    product = ONE
    for n in range(1, 31):
        product = product * q_integer(n)
        assert qfactorial(n) == product, n


@lru_cache(maxsize=None)
def _qbinomial_pascal(n: int, k: int) -> BivarPoly:
    # independent oracle: the q-Pascal recurrence
    if k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    return _qbinomial_pascal(n - 1, k - 1) + Q**k * _qbinomial_pascal(n - 1, k)


def test_qbinomial_4_2_frozen():
    # computed with the Pascal-recurrence oracle
    assert _qbinomial_pascal(4, 2) == BivarPoly(
        {(0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 1, (0, 4): 1}
    )
    assert qbinomial(4, 2) == _qbinomial_pascal(4, 2)


@pytest.mark.parametrize("n", range(0, 25))
def test_qbinomial_against_pascal_oracle(n):
    for k in range(n + 1):
        assert qbinomial(n, k) == _qbinomial_pascal(n, k)


@pytest.mark.parametrize("n", range(0, 8))
def test_qbinomial_symmetry_degree_positivity(n):
    import math

    for k in range(n + 1):
        poly = qbinomial(n, k)
        assert poly == qbinomial(n, n - k)
        assert poly.degree_q() == k * (n - k)
        assert all(c > 0 for _, c in poly.sorted_terms())
        assert poly.evaluate(1, 1) == math.comb(n, k)


def test_qbinomial_rejects_bad_args():
    with pytest.raises(ValueError):
        qbinomial(3, -1)
    with pytest.raises(ValueError):
        qbinomial(3, 4)


def test_divide_packed_detects_remainder():
    width = packed_width(6)
    with pytest.raises(ValueError):
        divide_packed(times_q_integer(1, 3, width), times_q_integer(1, 2, width))
    with pytest.raises(ZeroDivisionError):
        divide_packed(1, 0)


@pytest.mark.parametrize("width", [0, 8, 16])
def test_times_q_integer_is_the_packed_product(width):
    for h in range(40):
        for value in (0, 1, 5, 2**20 + 3):
            expected = value * (q_integer(h).evaluate(1, 2**width))
            assert times_q_integer(value, h, width) == expected, (value, h)


def test_packed_width_and_unpack():
    assert unpack(8, 1 + 2**8 + 2**16) == q_integer(3)
    # rows are the p-degrees
    assert unpack(8, 2, 2**8) == 2 + P * Q
    assert packed_width(127) == 8 and packed_width(128) == 16


@given(poly_strategy(), poly_strategy())
def test_ring_commutativity(f, g):
    assert f + g == g + f
    assert f * g == g * f


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(
    poly_strategy(),
    poly_strategy(),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
)
def test_eval_is_ring_homomorphism(f, g, pv, qv):
    assert (f + g).evaluate(pv, qv) == f.evaluate(pv, qv) + g.evaluate(pv, qv)
    assert (f * g).evaluate(pv, qv) == f.evaluate(pv, qv) * g.evaluate(pv, qv)


def term_by_term(poly, pv, qv):
    """The evaluation as one Fraction power and product per term."""
    pv, qv = Fraction(pv), Fraction(qv)
    return sum((c * pv**i * qv**j for (i, j), c in poly.sorted_terms()), Fraction(0))


# points below 1, at 1, above 1, at 0 and negative
POINTS = st.sampled_from([Fraction(1, 2), 1, Fraction(5, 2), 0, -1, Fraction(-2, 3)]) | (
    st.fractions(min_value=-4, max_value=4, max_denominator=12)
)


@given(poly_strategy(), POINTS, POINTS)
@example(ZERO, 0, 0)
@example(BivarPoly({(0, 0): 3, (2, 5): -1}), 0, Fraction(-1, 3))
def test_evaluate_matches_term_by_term_sum(poly, pv, qv):
    value = poly.evaluate(pv, qv)
    assert type(value) is Fraction and value == term_by_term(poly, pv, qv)


@given(st.lists(st.integers(0, 300), max_size=8))
def test_exact_division_roundtrip(coeffs):
    # pack f * [3] at q = 2^width, divide [3] out exactly and decode f again
    f = BivarPoly({(0, d): c for d, c in enumerate(coeffs)})
    width = packed_width(sum(coeffs))
    packed = (f * q_integer(3)).evaluate(1, 2**width)
    assert packed.denominator == 1
    assert unpack(width, divide_packed(packed.numerator, times_q_integer(1, 3, width))) == f


def test_swap_variables():
    poly = 2 * P**2 * Q + 3 * Q**4
    assert poly.swap_variables() == 2 * Q**2 * P + 3 * P**4
    assert poly.swap_variables().swap_variables() == poly


def test_canonical_text_rendering():
    assert str(qfactorial(3)) == "1 + 2*q + 2*q^2 + q^3"
    assert str(ZERO) == "0"
    assert str(ONE - Q) == "1 - q"
    assert str(P * Q + P**2) == "p*q + p^2"


def test_json_terms_roundtrip():
    poly = 5 * P**2 * Q**3 - 4 * Q + 1
    triples = poly.to_json_terms()
    assert triples == [[0, 0, "1"], [0, 1, "-4"], [2, 3, "5"]]
    assert BivarPoly.from_json_terms(triples) == poly


def test_format_decimal():
    assert format_decimal(Fraction(1, 2)) == "0.5"
    assert format_decimal(Fraction(0)) == "0"
    assert format_decimal(Fraction(-22, 7), 6) == "-3.14286"
    assert format_decimal(Fraction(1, 3), 4) == "0.3333"
    assert format_decimal(Fraction(123456789), 4) == "123500000"
    assert format_decimal(Fraction(1, 10**8), 3) == "0.00000001"
    assert format_decimal(Fraction(99995, 10), 4) == "10000"
    # more integer digits than significant ones: round, then pad with zeros
    assert format_decimal(Fraction(12), 1) == "10"
    assert format_decimal(Fraction(-12), 1) == "-10"
    assert format_decimal(Fraction(1049), 2) == "1000"
    assert format_decimal(Fraction(123456789012301)) == "123456789012000"


def _at_least_power_of_ten(num: int, den: int, e: int) -> bool:
    """num/den >= 10^e for positive num and den, compared as integers."""
    return num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0)


def _decimal_reference(value: Fraction, digits: int) -> str:
    """Half-up rounding to significant digits in integer arithmetic only."""
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    e = len(str(num)) - len(str(den))
    while not _at_least_power_of_ten(num, den, e):
        e -= 1
    while _at_least_power_of_ten(num, den, e + 1):
        e += 1
    # |value| * 10^shift rounded half up has `digits` digits, or is 10^digits
    shift = digits - 1 - e
    top, bottom = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    kept, rest = divmod(top, bottom)
    kept += 2 * rest >= bottom
    if shift <= 0:
        return f"{sign}{kept}{'0' * -shift}"
    text = str(kept).rjust(shift + 1, "0")
    text = f"{text[:-shift]}.{text[-shift:]}".rstrip("0").rstrip(".")
    return sign + text


_BOUND = 10**40


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-_BOUND, _BOUND),
    st.integers(-_BOUND, _BOUND).filter(bool),
    st.integers(1, 15),
)
@example(12, 1, 1)
@example(-12, 1, 1)
@example(25, 10, 1)
@example(-15, 100, 1)
@example(99995, 10, 4)
@example(999999, 1, 3)
@example(1, 3 * 10**30, 15)
def test_format_decimal_matches_integer_reference(num, den, digits):
    value = Fraction(num, den)
    assert format_decimal(value, digits) == _decimal_reference(value, digits)
