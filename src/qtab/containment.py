"""The check kernel of ``qtab verify``: machine verification of the identities.

Each check pits a brute-force enumeration of one side of an identity
against an independently assembled closed form and records the outcome in a
structured report, so a failing instance is a reproducible fixture rather
than a bare assertion.  Each identity family is a module of its own:

* :mod:`qtab.permcont` -- ``permcont1``, maj generating functions over
  involutions with a given low restriction, against binomial/involution-
  polynomial sums indexed by the pattern's j-set (plus the unrestricted
  companion identity), and ``permcont2``, the two-variable analog over all
  permutations with given low restriction and standardized prefix, indexed
  by the j2-set;
* :mod:`qtab.permtotab` -- ``permtotab``, transport of the j-set sums to
  skew tableau polynomials (single and pair versions);
* :mod:`qtab.majgen` -- ``majgen`` and ``majgen1``, skew-shape maj sums over
  all outer shapes against inner skew sums (single and pair versions), whose
  q = 1 specializations are the classical skew enumeration identities.

This module holds what they share: ``IdentityReport``, the packed checks
(``_check``, ``_cut_side``, ``_cut_check``), the suffix majs of a word, the
report loops of ``qtab verify`` (``sweep_reports``), which import only the
family of the kind they run, and ``cmd_verify``, its handler, at the end of
the module.  ``qtab.cli`` imports it only for ``verify``, and the handler
imports ``qtab.cli`` only when it runs.  The families' names are imported
from the family modules, where they are defined.

Each identity is a sum over cut sizes j of a weight w(j) times a cut term
T(j), and so is each limit theorem, which is the ratio of two such sums.  The
weights, a coefficient table {(i, k): c} of a polynomial in p and q per j,
are defined once in :mod:`qtab.weights`: the pattern weights
``qlim1_weight``, ``m2_1_weight``, ``m3_weight`` and ``m3_1_weight``, and the
weight sums W(j) over all patterns of a size (``involution_weight_sum``,
``pair_weight_sum``).  The cut terms read t_k and A_k from the integer series
that :mod:`qtab.limits` evaluates at rational points (``t_value``,
``a_value``), here at the packing point, and import :mod:`qtab.stats` only
when they run.

Single and pair versions share one path per kind of check, with a pair flag
where they differ, as the limit kernel's families do.  ``_cut_check`` checks
a left side against a cut sum, and for the pattern and majgen identities
also the q = 1 (p = q = 1) count row, in plain integers.  A cut sum check,
whose right side is a sum of products, packs each side into one integer,
the side at q = 2^w and p = 2^(w * D) for a width w and stride D that make
packing injective on both sides (see ``_check``), and compares the
integers.  No check builds a polynomial: a failing one unpacks its sides
into tables and prints them through :mod:`qtab.bivar` (``_show``), which a
passing sweep never loads.  Report lines print their params with
``_json_text``, so a text report loads no ``json``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .polynomial import packed_qbinomial, packed_width

if TYPE_CHECKING:
    from .weights import Table

__all__ = ["IdentityReport", "sweep_reports"]


class IdentityReport:
    """Outcome of checking one identity over a grid of instances.  Reports
    with equal fields are equal; being mutable, they are not hashable."""

    def __init__(
        self, theorem: str, params: dict, checked: int = 0, failures: list[dict] | None = None
    ):
        self.theorem = theorem
        self.params = params
        self.checked = checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"IdentityReport(theorem={self.theorem!r}, params={self.params!r}, "
            f"checked={self.checked!r}, failures={self.failures!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance: object, lhs, rhs, show: Callable[[object], str] = str) -> None:
        """Count one check of lhs = rhs; a failure keeps the instance's text and both
        sides as ``show`` prints them."""
        self.checked += 1
        if lhs != rhs:
            self.failures.append({"instance": str(instance), "lhs": show(lhs), "rhs": show(rhs)})

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "range": self.params,
            "checked": self.checked,
            "failures": self.failures,
        }

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.theorem} {_json_text(self.params)} "
            f"checked={self.checked} failures={len(self.failures)} {status}"
        )


def _json_text(params: dict) -> str:
    """``json.dumps(params, sort_keys=True)`` for what report params hold: ints,
    strings with no character JSON escapes, and lists of ints and nulls (a
    skew tableau's rows) or of such lists, which print as JSON does once each
    None reads null."""
    return "{" + ", ".join(
        f'"{k}": "{v}"' if isinstance(v, str) else f'"{k}": {v!r}'.replace("None", "null")
        for k, v in sorted(params.items())
    ) + "}"


def _show(table: Table) -> str:
    """A coefficient table as its polynomial prints, for a failing check."""
    from .bivar import text

    return text(table)


# -- packed identity checks ------------------------------------------------------

# A side of an identity as (pack, degree): pack(width, stride) is its
# polynomial at q = 2^width, p = 2^(width * stride), and degree, a bound on
# its q-degree (-1 for the zero polynomial), comes from the side's own pieces.
Side = tuple[Callable[[int, int], int], int]


def _pack(terms: Iterable[tuple[tuple[int, int], int]], width: int, stride: int) -> int:
    """The terms ((i, j), c), read as c p^i q^j, at q = 2^width, p = 2^(width * stride)."""
    total = 0
    for (i, j), c in terms:
        total += c << width * (stride * i + j)
    return total


def _unpack(value: int, width: int, stride: int) -> dict[tuple[int, int], int]:
    """The coefficient table ``_pack`` gave value at (width, stride): digit i,
    read balanced in [-2^(width-1), 2^(width-1)), is the coefficient of
    p^(i // stride) q^(i % stride).  ``packed_width`` puts 2^(width-1) above
    every coefficient of a real side; a negative one, which only a broken
    weight gives, reads back too."""
    half, terms, i = 1 << width - 1, {}, 0
    while value:
        digit = ((value + half) & (2 * half - 1)) - half
        if digit:
            terms[divmod(i, stride)] = digit
        value = (value - digit) >> width
        i += 1
    return terms


def _check(report: IdentityReport, instance: str, lhs: Side, rhs: Side) -> int:
    """Record whether two sides agree, compared as one packed integer each, and
    return the left side's value at p = q = 1.

    Packing is evaluation, a ring homomorphism, so a side packs by summing
    the products of its packed pieces.  At width 0 every piece, so the side,
    packs to its value at p = q = 1, and the values are read that way.

    The comparison is exact.  Every piece of either side (a brute-force tally,
    a skew maj polynomial, a weight, a Gaussian binomial, t_k or A_k) has
    nonnegative coefficients, so each side does, and none of its coefficients
    exceeds its value at p = q = 1, their sum.  The width is ``packed_width``
    of the larger of the two values, so no coefficient reaches 2^width; the
    stride is the least power of two above the larger of the two degree
    bounds, so every term c p^i q^j of either side has j < stride (a power of
    two lets checks share their packed pieces).  Each value and each bound
    comes from that side's own pieces, never from the identity.  A term
    c p^i q^j packs to the digit c at place stride * i + j in base 2^width,
    distinct terms to distinct places, and no digit carries: the base-2^width
    digits of a packed side are its coefficients.  Two sides that pack to one
    integer are one polynomial, and a failure prints the sides unpacked.
    """
    (pack_lhs, degree_lhs), (pack_rhs, degree_rhs) = lhs, rhs
    value = pack_lhs(0, 0)
    width = packed_width(max(value, pack_rhs(0, 0)))
    stride = 1 << max(degree_lhs, degree_rhs, 0).bit_length()
    report.record(
        instance,
        pack_lhs(width, stride),
        pack_rhs(width, stride),
        lambda packed: _show(_unpack(packed, width, stride)),
    )
    return value


@lru_cache(maxsize=None)
def _cut_term(pair: bool, m: int, n: int, k: int, width: int, stride: int) -> int:
    """The cut term at q = 2^width, p = 2^(width * stride), t_k and A_k from the limits'
    series: [m choose k]_p [n choose k]_q A_k(p, q) for pairs, else [n choose k]_q t_k(q)."""
    from .stats import _series

    term, q, p = packed_qbinomial(n, k, width), 1 << width, 1 << width * stride
    if pair:
        return term * packed_qbinomial(m, k, width * stride) * _series(k, p, q)
    return term * _series(k, q)


def _cut_side(weight: Mapping[int, Table], pair: bool, m: int, n: int, offset: int) -> Side:
    """sum_j w(j) T(k), k = j + offset, over the cuts with k >= 0; T is ``_cut_term``, of
    q-degree at most k(n - k) + C(k, 2), as no word of length k has maj above C(k, 2)."""
    cuts = [
        (sorted(w.items()), max([d for _, d in w], default=-1), k)
        for j, w in weight.items()
        if (k := j + offset) >= 0
    ]

    def pack(width: int, stride: int) -> int:
        return sum(
            _pack(terms, width, stride) * _cut_term(pair, m, n, k, width, stride)
            for terms, _, k in cuts
        )

    degree = max((d + k * (n - k) + k * (k - 1) // 2 for _, d, k in cuts), default=-1)
    return pack, degree


def _cut_check(
    report: IdentityReport, instance: str, lhs: Side, weight: Mapping[int, Table],
    pair: bool, m: int, n: int, offset: int, counts: Mapping[int, int] | None = None,
) -> None:
    """Check lhs = sum_j w(j) T(j + offset) packed (``_cut_side``), then, unless
    counts is None, the same sum at q = 1 (p = q = 1 for pairs) in plain
    integers: sum_j counts[j] C(n, k) (C(m, k) k! for pairs, else t_k(1)) over
    k = j + offset >= 0, against the left side's value there."""
    value = _check(report, instance, lhs, _cut_side(weight, pair, m, n, offset))
    if counts is not None:
        from .stats import t_count

        count = sum(
            c * math.comb(n, k) * (math.comb(m, k) * math.factorial(k) if pair else t_count(k))
            for j, c in counts.items()
            if (k := j + offset) >= 0
        )
        report.record(f"{instance} {'p=q=1' if pair else 'q=1'} count", value, count)


# -- shared by the sweeps ---------------------------------------------------------


def _suffix_majs(word: Sequence[int]) -> list[int]:
    """maj(word[c:]) for every cut c, in one pass: each cut adds the descents past it."""
    majs, acc, past = [0] * (len(word) + 1), 0, 0
    for c in range(len(word) - 2, -1, -1):
        past += word[c] > word[c + 1]
        acc += past
        majs[c] = acc
    return majs


# -- the sweeps of ``qtab verify`` --------------------------------------------------

# the family module of each verify kind, imported when the kind runs
_FAMILIES = {
    "permcont1": "permcont",
    "permcont2": "permcont",
    "permtotab": "permtotab",
    "majgen": "majgen",
    "majgen1": "majgen",
}


def sweep_reports(which: str, max_size: int, cap: int | None = None) -> list[IdentityReport]:
    """The reports of ``qtab verify <which>`` over pattern sizes up to max_size,
    from the ``sweep`` of the kind's family.

    cap bounds the ambient total for permcont1/permcont2 and the added size n
    for majgen/majgen1; permtotab reads only max_size.
    """
    family = _FAMILIES.get(which)
    if family is None:
        raise ValueError(f"no verify sweep named {which!r}")
    return import_module(f"{__package__}.{family}").sweep(which, max_size, cap)


# -- the handler of ``qtab verify`` -------------------------------------------------

# the --max-total default of each kind, and what the size under QTAB_MAX_N counts
_VERIFY_CAPS = {
    "permcont1": (8, "involution enumeration"),
    "permcont2": (6, "permutation enumeration"),
    "majgen": (5, "tableau enumeration"),
    "majgen1": (5, "tableau enumeration"),
}


def _verify_reports(args) -> list[IdentityReport]:
    from .cli import UsageError, _check_enum_size

    which, k = args.which, args.max_size
    for flag, value in (("--max-size", k), ("--max-total", args.max_total)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative, got {value}")
    if which == "permtotab":
        if args.max_total is not None:
            raise UsageError("verify permtotab does not read --max-total")
        cap = None
        _check_enum_size(k, "permutation enumeration")
    else:
        default, what = _VERIFY_CAPS[which]
        cap = args.max_total if args.max_total is not None else default
        _check_enum_size(cap, what)
    return sweep_reports(which, k, cap)


def cmd_verify(args) -> int:
    reports = _verify_reports(args)
    failures = sum(len(r.failures) for r in reports)
    checked = sum(r.checked for r in reports)
    if args.json:
        import json

        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    else:
        for report in reports:
            print(report)
        print(f"total: reports={len(reports)} checked={checked} failures={failures}")
    return 0 if failures == 0 else 1
