"""The logarithmic bound check: a lemma the tests prove at rational points.

``check_bound`` bounds each side of the log-product inequality by one-sided
rationals (truncated series plus closed-form geometric tails), so a positive
margin is a proof that it holds.
"""

from __future__ import annotations

from fractions import Fraction

from qtab.values import Value


def _log_recip_lower(x: Fraction, terms: int) -> Fraction:
    """Rational lower bound on log(1/(1-x)) for 0 < x < 1 (truncated series)."""
    total = Fraction(0)
    power = Fraction(1)
    for j in range(1, terms + 1):
        power *= x
        total += power / j
    return total


def _log_recip_upper(x: Fraction, tolerance: Fraction) -> Fraction:
    """Rational upper bound on log(1/(1-x)), within tolerance of the truth."""
    total = Fraction(0)
    power = Fraction(1)
    j = 0
    while True:
        j += 1
        power *= x
        total += power / j
        # geometric remainder: sum_{i>j} x^i / i <= x^{j+1} / ((j+1)(1-x))
        tail = power * x / ((j + 1) * (1 - x))
        if tail <= tolerance:
            return total + tail


class BoundReport(Value):
    """One-sided rational verification of the log-product inequality.  An
    immutable value."""

    __slots__ = ("q", "lhs_upper", "rhs_lower")

    def __init__(self, q: Fraction, lhs_upper: Fraction, rhs_lower: Fraction):
        Value.__init__(self, q, lhs_upper, rhs_lower)

    @property
    def margin(self) -> Fraction:
        return self.rhs_lower - self.lhs_upper

    @property
    def holds(self) -> bool:
        return self.margin > 0


def check_bound(q: Fraction, slack: Fraction = Fraction(1, 10**6)) -> BoundReport:
    """Verify sum_i i*log(1/(1-q^i)) < (1 + q/(1-q)^2)(1 + log(1/(1-q))).

    The left side is bounded above by a truncated double series plus closed
    geometric tails; the right side below by a truncated series.  A positive
    margin is therefore a proof, up to integer arithmetic, that the
    inequality holds at q.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    # outer truncation: sum_{i>I} i log(1/(1-q^i)) <= sum_{i>I} i q^i / (1-q^{I+1})
    depth = 1
    while True:
        head = q ** (depth + 1) * ((depth + 1) - depth * q) / (1 - q) ** 2
        outer_tail = head / (1 - q ** (depth + 1))
        if outer_tail <= slack / 2:
            break
        depth += 1
    per_term = slack / (2 * depth)
    lhs_upper = outer_tail
    for i in range(1, depth + 1):
        lhs_upper += i * _log_recip_upper(q**i, per_term / i)
    rhs_lower = (1 + q / (1 - q) ** 2) * (1 + _log_recip_lower(q, 80))
    return BoundReport(q, lhs_upper, rhs_lower)
