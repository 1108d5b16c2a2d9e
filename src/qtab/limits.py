"""Finite-size evaluation and limit values for the containment ratios.

Everything here is exact rational arithmetic: finite-n ratios come from the
closed-form identities (never from raw enumeration, which could not reach the
sizes involved), limit values from the corresponding limit formulas, and gaps
are differences of exact fractions.  Decimal output is presentation only.

The four limit theorems share one assembly.  Each theorem is a weight w(j)
on cut sizes j, read off the pattern's j-set (qlim1), its j2-set (m2-1) or
the skew maj sums inside its shape (m3, m3-1).  The weight feeds one kernel,
which runs on the parameter tuple as the series of :mod:`qtab.stats` does:
(q,) for the involution theorems (qlim1, m3) and (p, q) for the permutation
pair theorems (m2-1, m3-1).  It returns sum_j w(j) T(j) / sum_j W(j) T(j) at
finite n or in the limit, where W(j) is the weight summed over all patterns
of the sizes.  Both are the coefficient tables :mod:`qtab.weights` defines
and ``qtab verify`` checks, evaluated exactly by ``weights.evaluate``, so no
limit kind loads the polynomial type.
``cmd_limit``, the handler of ``qtab limit``, prints a
:class:`ConvergenceReport` of its rows as text, CSV or JSON.

Every limit is driven by the rate r of the factorial-scaled series, the
limit of its consecutive ratio: ``t_limit`` for involutions, ``a_limit`` for
permutations, which is 0 when p and q lie on opposite sides of 1.  The kernel
reads its rate from them and nowhere else.  The scaled involution values are
unchanged under q -> 1/q, and the scaled permutation values under the
simultaneous flip (p, q) -> (1/p, 1/q), which the test suite checks as exact
equalities; flipping one variable of a pair alone changes them.

The infinite products are handled with one-sided rational bounds: truncated
series plus closed-form geometric tail estimates, so a reported gap is
rigorous, not numerically hopeful.  The logarithmic bound check and the eq8
involution-number ratios live in :mod:`qtab.bounds`, which only
``qtab limit eq8`` loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .polynomial import format_decimal
from .stats import a_scaled_value, q_factorial_value, t_count, t_scaled_value
from .values import Value

# The pattern theorems import their weights from :mod:`qtab.weights` when they
# run, so that tlim, alim, xi and eq8 do not load it.
if TYPE_CHECKING:
    from .permutation import Permutation
    from .tableau import Tableau
    from .weights import Table

__all__ = [
    "contraction",
    "t_ratio",
    "a_ratio",
    "t_limit",
    "a_limit",
    "qlim1_lhs",
    "qlim1_rhs",
    "m2_1_lhs",
    "m2_1_rhs",
    "m3_lhs",
    "m3_rhs",
    "m3_1_lhs",
    "m3_1_rhs",
    "xi_partial",
    "xi_product_with_tail",
    "ConvergenceReport",
    "default_grid",
]


def contraction(value: Fraction) -> Fraction:
    """min(r, 1/r) for a positive rational r."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("parameter must be positive")
    return min(value, 1 / value)


# -- scaled ratios ------------------------------------------------------------


def t_ratio(q: Fraction, n: int) -> Fraction:
    """Consecutive ratio of the factorial-scaled involution maj values.

    Tends to 1 - min(q, 1/q) for q != 1; invariant under q -> 1/q.  At q = 1
    the scaled values are plain involution counts over factorials, so the
    ratio comes straight from the counting recurrence (and sinks slowly to
    the degenerate limit 0).
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("q must be positive")
    if q == 1:
        return Fraction(t_count(n + 1), (n + 1) * t_count(n))
    return t_scaled_value(n + 1, q) / t_scaled_value(n, q)


def a_ratio(p: Fraction, q: Fraction, n: int) -> Fraction:
    """Two-variable analog; tends to (1 - min(p,1/p)) (1 - min(q,1/q)).

    That limit requires p and q on the same side of 1: conjugation symmetry
    reduces such parameters to the unit box, where the product of the two
    principal-specialization sums converges.  With p and q on opposite sides
    only one factor can be reduced, the relevant generating function becomes
    entire, and the ratio drops to 0 instead.
    """
    p, q = Fraction(p), Fraction(q)
    if p <= 0 or q <= 0:
        raise ValueError("parameters must be positive")
    return a_scaled_value(n + 1, p, q) / a_scaled_value(n, p, q)


def t_limit(q: Fraction) -> Fraction:
    """Limit of t_ratio: 1 - min(q, 1/q)."""
    return 1 - contraction(q)


def a_limit(p: Fraction, q: Fraction) -> Fraction:
    """Limit of a_ratio: (1 - min(p,1/p)) (1 - min(q,1/q)) with p and q on the
    same side of 1, and 0 with them on opposite sides (see a_ratio)."""
    if (Fraction(p) - 1) * (Fraction(q) - 1) < 0:
        return Fraction(0)
    return t_limit(p) * t_limit(q)


# -- limit theorem evaluators ---------------------------------------------------
#
# The family kernel (see the module docstring).  It evaluates at finite n, or
# in the limit when n is None; each term T(j) serves both of its sums.


def _family(
    weight: Mapping[int, Table], a: int, b: int, params: tuple[Fraction, ...], n: int | None
) -> Fraction:
    """Kernel of the containment theorems for patterns of sizes a and b.

    One parameter (q,) is the involution case (qlim1, m3), with a = b the
    pattern size and W(j) = t_j C(a, j) [a-j]_q! (``involution_weight_sum``).
    Two parameters (p, q) are the pair case (m2-1, m3-1), with
    W(j) = j! C(a, j) C(b, j) [b-j]_p! [a-j]_q! (``pair_weight_sum``).  The
    term of cut j is T(j) = g(j) / prod_v [l_v - j]_v! with l_p = b and
    l_q = a.  At finite n, g(j) is the scaled series of the parameters
    (``t_scaled_value`` or ``a_scaled_value``) at k = n - a - b + j, and
    T(j) = 0 when k < 0; this is prod_v [n - a - b + l_v choose k]_v x_k up
    to a factor common to every cut.  In the limit, g(j) = r^j, where r is the
    scaled series' rate (``t_limit`` or ``a_limit``), so with p and q on
    opposite sides of 1 only the cut j = 0 remains.
    """
    from .weights import evaluate, involution_weight_sum, pair_weight_sum

    params = tuple(Fraction(v) for v in params)
    if len(params) == 1:
        scaled, rate, point, total = t_scaled_value, t_limit, (1, *params), involution_weight_sum(a)
    else:
        scaled, rate, point, total = a_scaled_value, a_limit, params, pair_weight_sum(a, b)
    if n is None:
        r = rate(*params)
    elif n < max(a, b):
        raise ValueError("n must be at least each pattern size")
    numerator = denominator = Fraction(0)
    for j in range(min(a, b) + 1):
        if n is not None and (k := n - a - b + j) < 0:
            continue
        series = r**j if n is None else scaled(k, *params)
        term = series / math.prod(q_factorial_value(l - j, v) for v, l in zip(params, (b, a)))
        if j in weight:
            numerator += evaluate(weight[j], *point) * term
        denominator += evaluate(total[j], *point) * term
    return numerator / denominator


def qlim1_lhs(sigma: Permutation, q: Fraction, n: int) -> Fraction:
    """Finite-n containment ratio for involutions, from the exact identities.

    Ratio of the suffix-maj sum over involutions of [n] containing sigma to
    the sum over all involutions of [n]; both sides assembled from Gaussian
    binomials and involution maj values rather than enumeration.
    """
    from .weights import qlim1_weight

    return _family(qlim1_weight(sigma), sigma.size, sigma.size, (q,), n)


def qlim1_rhs(sigma: Permutation, q: Fraction) -> Fraction:
    """Limit of the involution containment ratio."""
    from .weights import qlim1_weight

    return _family(qlim1_weight(sigma), sigma.size, sigma.size, (q,), None)


def m2_1_lhs(
    sigma: Permutation, tau: Permutation, p: Fraction, q: Fraction, n: int
) -> Fraction:
    """Finite-n pair containment ratio over permutations of [n]."""
    from .weights import m2_1_weight

    return _family(m2_1_weight(sigma, tau), sigma.size, tau.size, (p, q), n)


def m2_1_rhs(sigma: Permutation, tau: Permutation, p: Fraction, q: Fraction) -> Fraction:
    """Limit of the pair containment ratio."""
    from .weights import m2_1_weight

    return _family(m2_1_weight(sigma, tau), sigma.size, tau.size, (p, q), None)


def m3_lhs(a_tab: Tableau, q: Fraction, n: int) -> Fraction:
    """Finite-n tableau containment ratio, via the transport to involutions.

    The numerator assembles the suffix-maj sum over tableaux of size n
    containing the pattern from Gaussian binomials, involution maj values,
    and inner skew sums of the pattern's shape.
    """
    from .weights import m3_weight

    return _family(m3_weight(a_tab.straight_shape()), a_tab.size, a_tab.size, (q,), n)


def m3_rhs(a_tab: Tableau, q: Fraction) -> Fraction:
    """Limit of the tableau containment ratio."""
    from .weights import m3_weight

    return _family(m3_weight(a_tab.straight_shape()), a_tab.size, a_tab.size, (q,), None)


def m3_1_lhs(
    a_tab: Tableau, b_tab: Tableau, p: Fraction, q: Fraction, n: int
) -> Fraction:
    """Finite-n same-shape pair containment ratio for tableaux."""
    from .weights import m3_1_weight

    weight = m3_1_weight(a_tab.straight_shape(), b_tab.straight_shape())
    return _family(weight, a_tab.size, b_tab.size, (p, q), n)


def m3_1_rhs(a_tab: Tableau, b_tab: Tableau, p: Fraction, q: Fraction) -> Fraction:
    """Limit of the same-shape pair containment ratio."""
    from .weights import m3_1_weight

    weight = m3_1_weight(a_tab.straight_shape(), b_tab.straight_shape())
    return _family(weight, a_tab.size, b_tab.size, (p, q), None)


# -- partition-sum limits and products -----------------------------------------------


def xi_partial(q: Fraction, n: int) -> Fraction:
    """Principal-specialization sum over partitions of n, exactly.

    Equals the factorial-scaled involution maj value divided by (1-q)^n;
    increases with n toward the infinite product.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    return t_scaled_value(n, q) / (1 - q) ** n


def xi_product_with_tail(q: Fraction, precision: Fraction) -> tuple[Fraction, Fraction]:
    """Truncated limit product and a certified additive tail bound.

    The limit is prod_{s>=1} (1-q^s)^(-e_s) with e_s = 1 + ceil(s/2).  The
    truncation depth is grown until the dropped factors can shift the value
    by at most precision/10; the bound is computed from geometric sums, not
    assumed.
    """
    q, precision = Fraction(q), Fraction(precision)
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if precision <= 0:
        raise ValueError("precision must be positive")
    target = precision / 10
    value = Fraction(1)
    s = 0
    while True:
        s += 1
        exponent = 1 + (s + 1) // 2
        value /= (1 - q**s) ** exponent
        # log of dropped factors: sum_{t>s} e_t log(1/(1-q^t))
        #   <= (1/(1-q^{s+1})) sum_{t>s} (t+3)/2 q^t, in closed form
        geo = q ** (s + 1)
        sum_t = geo * ((s + 1) - s * q) / (1 - q) ** 2
        sum_1 = geo / (1 - q)
        log_tail = (sum_t + 3 * sum_1) / (2 * (1 - q ** (s + 1)))
        if log_tail <= Fraction(1, 2):
            tail = value * 2 * log_tail  # e^x - 1 <= 2x for 0 <= x <= 1/2
            if tail <= target:
                return value, tail


# -- convergence reports ---------------------------------------------------------------


class ConvergenceReport(Value):
    """Finite-size values against a limit, with exact gaps.

    ``notes`` are further exact values as (key, caption, value) triples: text
    output ends with a line ``caption: value`` for each, and JSON output
    carries each value under its key as an exact fraction string.  Reports
    with equal fields are equal.  No field can be assigned, but ``rows`` and
    ``notes`` are lists, so a report is not hashable.
    """

    __slots__ = ("label", "limit", "rows", "notes")

    def __init__(
        self,
        label: str,
        limit: Fraction,
        rows: list[tuple[int, Fraction]],
        notes: list[tuple[str, str, Fraction]] | None = None,
    ):
        Value.__init__(self, label, limit, rows, [] if notes is None else notes)

    def gaps(self) -> list[tuple[int, Fraction]]:
        return [(n, abs(value - self.limit)) for n, value in self.rows]

    def _decimal_rows(self, digits: int) -> list[tuple[int, str, str, str]]:
        """(n, value, limit, gap) per row, as decimals of the given significant digits."""
        limit = format_decimal(self.limit, digits)
        return [
            (n, format_decimal(value, digits), limit, format_decimal(gap, digits))
            for (n, value), (_, gap) in zip(self.rows, self.gaps())
        ]

    def to_text(self, significant_digits: int = 12) -> str:
        lines = [self.label]
        for n, value, limit, gap in self._decimal_rows(significant_digits):
            lines.append(f"n={n} value={value} limit={limit} gap={gap}")
        for _, caption, value in self.notes:
            lines.append(f"{caption}: {format_decimal(value, significant_digits)}")
        return "\n".join(lines)

    def to_csv(self, significant_digits: int = 12) -> str:
        rows = self._decimal_rows(significant_digits)
        return "\n".join(["n,value,limit,gap", *(",".join(map(str, row)) for row in rows)])

    def to_json(self) -> dict:
        payload = {
            "label": self.label,
            "limit": str(self.limit),
            "rows": [
                {"n": n, "value": str(value), "gap": str(gap)}
                for (n, value), (_, gap) in zip(self.rows, self.gaps())
            ],
        }
        payload.update((key, str(value)) for key, _, value in self.notes)
        return payload


def default_grid(lo: int, hi: int, points: int = 8) -> list[int]:
    """Deterministic increasing grid from lo to hi inclusive."""
    if hi < lo:
        raise ValueError("empty grid")
    if points < 2 or hi == lo:
        return [hi]
    step = max(1, (hi - lo) // (points - 1))
    grid = list(range(lo, hi, step)) + [hi]
    return sorted(set(grid))


# -- the handler of ``qtab limit`` ----------------------------------------------------


def _limit_report(args) -> ConvergenceReport:
    """The ConvergenceReport of a limit command, from the evaluators that
    ``cli._LIMIT_KINDS`` names for its kind.  They are looked up in the module
    globals on each call, so a wrapper installed on the module is the one called."""
    from .cli import _LIMIT_KINDS, UsageError, _parse_tableau

    which = args.which
    # options only some reports read: passing one that this report ignores is an error
    for name, default, read in (
        ("precision", Fraction(1, 10**7), which == "xi"),
        ("a", 1, which == "eq8"),
        ("digits", 12, args.csv or not args.json),
    ):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not read:
            where = " under --json" if name == "digits" else ""
            raise UsageError(f"limit {which} does not read --{name}{where}")
    pattern_options, parameter_options, finite_name, limit_name = _LIMIT_KINDS[which]
    options = (*pattern_options, *parameter_options)
    for name in ("sigma", "tau", "tableau", "tableau2", "p", "q"):
        if name not in options and getattr(args, name) is not None:
            raise UsageError(f"limit {which} does not read --{name}")
    for name in options:
        if getattr(args, name) is None:
            raise UsageError(f"limit {which} requires --{name}")
    if "sigma" in pattern_options:
        from .permutation import Permutation
    patterns = [
        _parse_tableau(getattr(args, name))
        if name.startswith("tableau")
        else Permutation.parse(getattr(args, name))
        for name in pattern_options
    ]
    parameters = [getattr(args, name) for name in parameter_options]
    # tableau JSON or file references stay out of the label
    shown = [name for name in options if not name.startswith("tableau")]
    label = " ".join([which, *(f"{name}={getattr(args, name)}" for name in shown)])
    lo = max((pattern.size for pattern in patterns), default=1)
    finite = lambda n: globals()[finite_name](*patterns, *parameters, n)
    notes = []
    if which == "xi":
        limit, tail = xi_product_with_tail(args.q, args.precision)
        notes.append(("tail_bound", "product tail bound", tail))
    elif which == "eq8":
        from .bounds import eq8_check

        limit, lo = Fraction(1), max(args.a, 1)
        finite = lambda n: eq8_check(args.a, n).ratio_offset
    else:
        limit = globals()[limit_name](*patterns, *parameters)
    grid = default_grid(lo, args.n, 8) if args.csv else [args.n]
    report = ConvergenceReport(label, limit, [(n, finite(n)) for n in grid], notes)
    # after the grid, so an empty --csv grid is reported before a bad --a
    if which == "eq8":
        stride = eq8_check(args.a, args.n).ratio_stride
        report.notes.append(("stride_ratio", f"stride ratio at n={args.n}", stride))
    return report


def cmd_limit(args) -> int:
    report = _limit_report(args)
    # rendered in full before printing, so a bad --digits prints nothing
    if args.csv:
        text = report.to_csv(args.digits)
    elif args.json:
        import json

        text = json.dumps(report.to_json(), sort_keys=True)
    else:
        text = report.to_text(args.digits)
    print(text)
    return 0
