"""Batch command-line interface.

Subcommands cover statistics (``stat``), the insertion correspondence
(``rs``), polynomial computations (``qpoly``), j-set and j2-set queries
(``jset``, ``j2set``, ``j2``), exact identity verification (``verify``),
convergence evaluation (``limit``), and the exploratory tuple-containment
probe (``probe``).

Exit codes: 0 on success or all checks passing, 1 on a verification failure,
2 on a usage error.  Rational parameters are accepted only as fractions
(``1/2``), never decimals, so exactness survives the command line.  The
environment variable ``QTAB_MAX_N`` caps brute-force enumeration sizes as a
safety rail.  Identical invocations produce byte-identical output.

Each handler imports the ``qtab`` modules its computation reads when it runs
(``qpoly factorial`` loads only ``polynomial``), and ``json`` only for
``--json`` output, so a process compiles and runs only what it uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "." in text:
        raise UsageError(f"{text!r}: decimals are not accepted; write a fraction like 1/2")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from exc


def _parse_tableau(text: str):
    """A Tableau from inline JSON, a bare path to a JSON file, or an @path reference."""
    from .tableau import Tableau

    if text.startswith("@") or (not text.lstrip().startswith("{") and os.path.isfile(text)):
        with open(text.removeprefix("@")) as handle:
            text = handle.read()
    try:
        return Tableau.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse tableau: {exc}") from exc


def _enum_cap() -> int | None:
    raw = os.environ.get("QTAB_MAX_N")
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"QTAB_MAX_N={raw!r} is not an integer") from exc


def _check_enum_size(n: int, what: str) -> None:
    cap = _enum_cap()
    if cap is not None and n > cap:
        raise UsageError(f"{what} size {n} exceeds QTAB_MAX_N={cap}")


def _emit(args, text_lines: list[str], payload) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _format_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


# -- stat ---------------------------------------------------------------------


def _cmd_stat(args) -> int:
    if args.kind == "perm":
        from .permutation import Permutation

        perm = Permutation.parse(args.object)
        _emit(
            args,
            [f"D={_format_set(perm.descents())} maj={perm.maj()} imaj={perm.imaj()}"],
            {
                "descents": sorted(perm.descents()),
                "maj": perm.maj(),
                "imaj": perm.imaj(),
            },
        )
    else:
        tab = _parse_tableau(args.object)
        _emit(
            args,
            [f"D={_format_set(tab.descents())} maj={tab.maj()}"],
            {"descents": sorted(tab.descents()), "maj": tab.maj()},
        )
    return 0


# -- rs -----------------------------------------------------------------------


def _cmd_rs(args) -> int:
    from .permutation import Permutation
    from .rsk import rs, rs_inverse

    if args.inverse:
        if len(args.operands) != 2:
            raise UsageError("rs --inverse needs two tableau operands")
        p_tab = _parse_tableau(args.operands[0])
        q_tab = _parse_tableau(args.operands[1])
        perm = rs_inverse(p_tab, q_tab)
        _emit(args, [str(perm)], {"permutation": list(perm.word)})
        return 0
    if len(args.operands) != 1:
        raise UsageError("rs needs one permutation operand")
    perm = Permutation.parse(args.operands[0])
    p_tab, q_tab = rs(perm)
    _emit(
        args,
        ["P:", p_tab.pretty(), "Q:", q_tab.pretty()],
        {"P": p_tab.to_json(), "Q": q_tab.to_json()},
    )
    return 0


# -- qpoly ----------------------------------------------------------------------


def _poly_payload(poly, **extra) -> dict:
    return {"terms": poly.to_json_terms(), **extra}


def _cmd_qpoly(args) -> int:
    from .polynomial import qbinomial, qfactorial

    which = args.which
    arity = 2 if which == "binomial" else 1
    if len(args.args) != arity:
        raise UsageError(f"qpoly {which} needs {arity} operand(s), got {len(args.args)}")
    if args.method and which in ("factorial", "binomial"):
        raise UsageError(f"qpoly {which} does not read --method")
    if which == "factorial":
        poly = qfactorial(int(args.args[0]))
        _emit(args, [str(poly)], _poly_payload(poly))
    elif which == "binomial":
        n, k = (int(x) for x in args.args)
        try:
            poly = qbinomial(n, k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _emit(args, [str(poly)], _poly_payload(poly))
    elif which in ("tn", "an"):
        from . import stats

        n = int(args.args[0])
        if n < 0:
            raise UsageError(f"n must be nonnegative, got {n}")
        method = args.method
        if method == "enum":
            kind = "involution" if which == "tn" else "permutation"
            _check_enum_size(n, f"{kind} enumeration")
            poly = stats.t_poly_enum(n) if which == "tn" else stats.a_poly_enum(n)
        elif which == "tn":
            method, poly = "series", stats.t_poly(n)
        else:
            method, poly = "hook", stats.a_poly(n)
        _emit(args, [f"method={method}", str(poly)], _poly_payload(poly, method=method))
    else:  # fshape
        from .tableau import SkewShape, f_poly, f_poly_enum

        shape = SkewShape.parse(args.args[0])
        method = args.method or ("hook" if shape.is_straight else "determinant")
        if method == "enum":
            _check_enum_size(shape.size, "tableau enumeration")
        poly = f_poly_enum(shape) if method == "enum" else f_poly(shape)
        _emit(args, [f"method={method}", str(poly)], _poly_payload(poly, method=method))
    return 0


# -- j-sets ----------------------------------------------------------------------


def _cmd_jset(args) -> int:
    from . import jsets
    from .permutation import Permutation

    perm = Permutation.parse(args.perm)
    values = jsets.j_set(perm)
    _emit(args, [jsets.format_int_set(values)], {"jset": sorted(values)})
    return 0


def _cmd_j2set(args) -> int:
    from . import jsets
    from .permutation import Permutation

    if args.first == "check":
        if args.second is None:
            raise UsageError("j2set check needs a set operand")
        values = jsets.parse_int_set(args.second)
        verdict = jsets.is_j2_set(values)
        lines = [f"{jsets.format_int_set(values)} j2-set: {'yes' if verdict else 'no'}"]
        payload = {"set": sorted(values), "is_j2_set": verdict}
        if values:
            profile = jsets.j_profile(values)
            payload["profile"] = profile.to_json()
            lines.append(f"delta: {','.join(str(a) for a in profile.delta)}")
            lines.append(f"delta_bar: {jsets.format_entries(profile.delta_bar)}")
        _emit(args, lines, payload)
        return 0
    if args.second is None:
        raise UsageError("j2set needs two permutation operands")
    sigma = Permutation.parse(args.first)
    tau = Permutation.parse(args.second)
    values = jsets.j2_set(sigma, tau)
    _emit(args, [jsets.format_int_set(values)], {"j2set": sorted(values)})
    return 0


def _cmd_j2(args) -> int:
    from . import jsets

    n_max = args.max
    if n_max < 0:
        raise UsageError(f"--max must be nonnegative, got {n_max}")
    if args.method == "brute":
        _check_enum_size(n_max, "permutation enumeration")
        counts = jsets.j2_counts(n_max)
    else:
        counts = jsets.j2_series(n_max)
    _emit(
        args,
        [",".join(str(c) for c in counts)],
        {"method": args.method, "counts": counts},
    )
    return 0


# -- verify ------------------------------------------------------------------------


def _verify_reports(args) -> list:
    from . import containment
    from .tableau import SkewShape, enumerate_syt, partitions

    which = args.which
    k = args.max_size
    for flag, value in (("--max-size", k), ("--max-total", args.max_total)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative, got {value}")
    reports = []
    # permcont1/2: one sweep per ambient size, whose buckets go before the
    # next sweep; the reports are then put in pattern-size order
    if which == "permcont1":
        total_cap = args.max_total if args.max_total is not None else 8
        _check_enum_size(total_cap, "involution enumeration")
        for total in range(total_cap + 1):
            sizes = range(min(k, total) + 1)
            swept = containment.permcont1_buckets(total, sizes)
            reports += [containment.permcont1_report(m, total - m, swept.pop(m)) for m in sizes]
        return sorted(reports, key=lambda r: (r.params["m"], r.params["n"]))
    if which == "permcont2":
        total_cap = args.max_total if args.max_total is not None else 6
        _check_enum_size(total_cap, "permutation enumeration")
        for total in range(total_cap + 1):
            pairs = [(a, b) for a in range(min(k, total) + 1) for b in range(min(k, total) + 1)]
            swept = containment.permcont2_buckets(total, pairs)
            reports += [containment.permcont2_report(*ab, total, swept.pop(ab)) for ab in pairs]
        return sorted(reports, key=lambda r: (r.params["a"], r.params["b"], r.params["total"]))
    if which == "permtotab":
        if args.max_total is not None:
            raise UsageError("verify permtotab does not read --max-total")
        _check_enum_size(k, "permutation enumeration")
        tabs = [
            tab
            for size in range(1, k + 1)
            for shape in partitions(size)
            for tab in enumerate_syt(SkewShape.straight(shape))
        ]
        for tab in tabs:
            reports += containment.permtotab_reports(tab, range(tab.size + 1))
        for a_tab in tabs:
            for b_tab in tabs:
                cuts = range(min(a_tab.size, b_tab.size) + 1)
                reports += containment.permtotab_pair_reports(a_tab, b_tab, cuts)
    elif which == "majgen":
        n_cap = args.max_total if args.max_total is not None else 5
        _check_enum_size(n_cap, "tableau enumeration")
        shapes = [shape for size in range(k + 1) for shape in partitions(size)]
        for alpha in shapes:
            for n in range(n_cap + 1):
                reports.append(containment.verify_majgen(alpha, n))
    else:  # majgen1
        n_cap = args.max_total if args.max_total is not None else 5
        _check_enum_size(n_cap, "tableau enumeration")
        shapes = [shape for size in range(k + 1) for shape in partitions(size)]
        for alpha in shapes:
            for beta in shapes:
                for m in range(n_cap + 1):
                    n = m + alpha.size - beta.size
                    if 0 <= n <= n_cap:
                        reports.append(containment.verify_majgen1(alpha, beta, m, n))
    return reports


def _cmd_verify(args) -> int:
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


# -- limit -------------------------------------------------------------------------

# kind -> (pattern options, parameter options, finite evaluator, limit evaluator).
# Evaluators are names in ``limits``, looked up when a report is built, so a
# wrapper installed on the module later is the one called.  The finite one
# takes (*patterns, *parameters, n), the limit one (*patterns, *parameters).
# xi and eq8 build their limits and notes in _limit_report.
_LIMIT_KINDS = {
    "qlim1": (("sigma",), ("q",), "qlim1_lhs", "qlim1_rhs"),
    "m2-1": (("sigma", "tau"), ("p", "q"), "m2_1_lhs", "m2_1_rhs"),
    "m3": (("tableau",), ("q",), "m3_lhs", "m3_rhs"),
    "m3-1": (("tableau", "tableau2"), ("p", "q"), "m3_1_lhs", "m3_1_rhs"),
    "tlim": ((), ("q",), "t_ratio", "t_limit"),
    "alim": ((), ("p", "q"), "a_ratio", "a_limit"),
    "xi": ((), ("q",), "xi_partial", None),
    "eq8": ((), ("a",), None, None),
}


def _limit_report(args):
    """The ConvergenceReport of a limit command."""
    from . import limits

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
    finite = lambda n: getattr(limits, finite_name)(*patterns, *parameters, n)
    notes = []
    if which == "xi":
        limit, tail = limits.xi_product_with_tail(args.q, args.precision)
        notes.append(("tail_bound", "product tail bound", tail))
    elif which == "eq8":
        limit, lo = Fraction(1), max(args.a, 1)
        finite = lambda n: limits.eq8_check(args.a, n).ratio_offset
    else:
        limit = getattr(limits, limit_name)(*patterns, *parameters)
    grid = limits.default_grid(lo, args.n, 8) if args.csv else [args.n]
    report = limits.ConvergenceReport(label, limit, [(n, finite(n)) for n in grid], notes)
    # after the grid, so an empty --csv grid is reported before a bad --a
    if which == "eq8":
        stride = limits.eq8_check(args.a, args.n).ratio_stride
        report.notes.append(("stride_ratio", f"stride ratio at n={args.n}", stride))
    return report


def _cmd_limit(args) -> int:
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


# -- probe --------------------------------------------------------------------------


def _cmd_probe(args) -> int:
    from .polynomial import format_decimal
    from .tableau import conjecture_probe

    _check_enum_size(args.n, "conjecture probe")
    tabs = [_parse_tableau(text) for text in args.tableaux]
    ratio = conjecture_probe(tabs, args.n)
    _emit(
        args,
        [f"ratio = {ratio} (~{format_decimal(ratio)})"],
        {"numerator": ratio.numerator, "denominator": ratio.denominator},
    )
    return 0


# -- parser ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtab",
        description="Exact q-analog statistics for tableau and permutation containment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="descent set, maj, imaj of an object")
    p_stat.add_argument("kind", choices=["perm", "tab"])
    p_stat.add_argument("object", help="permutation word, or tableau JSON / @file")
    p_stat.add_argument("--json", action="store_true")
    p_stat.set_defaults(func=_cmd_stat)

    p_rs = sub.add_parser("rs", help="insertion correspondence and its inverse")
    p_rs.add_argument("operands", nargs="+")
    p_rs.add_argument("--inverse", action="store_true")
    p_rs.add_argument("--json", action="store_true")
    p_rs.set_defaults(func=_cmd_rs)

    p_qpoly = sub.add_parser("qpoly", help="exact q-polynomials")
    p_qpoly.add_argument(
        "which", choices=["factorial", "binomial", "tn", "an", "fshape"]
    )
    p_qpoly.add_argument("args", nargs="+")
    p_qpoly.add_argument(
        "--method", choices=["enum"], help="enumerate instead of the closed form (tn, an, fshape)"
    )
    p_qpoly.add_argument("--json", action="store_true")
    p_qpoly.set_defaults(func=_cmd_qpoly)

    p_jset = sub.add_parser("jset", help="j-set of a permutation")
    p_jset.add_argument("perm")
    p_jset.add_argument("--json", action="store_true")
    p_jset.set_defaults(func=_cmd_jset)

    p_j2set = sub.add_parser("j2set", help="j2-set of a pair, or membership check")
    p_j2set.add_argument("first", help="sigma, or the word 'check'")
    p_j2set.add_argument("second", nargs="?", help="tau, or the set to check")
    p_j2set.add_argument("--json", action="store_true")
    p_j2set.set_defaults(func=_cmd_j2set)

    p_j2 = sub.add_parser("j2", help="count j2-sets by largest element")
    p_j2.add_argument("action", choices=["count"])
    p_j2.add_argument("--max", type=int, required=True)
    p_j2.add_argument("--method", choices=["gf", "brute"], default="gf")
    p_j2.add_argument("--json", action="store_true")
    p_j2.set_defaults(func=_cmd_j2)

    p_verify = sub.add_parser("verify", help="machine-check the exact identities")
    p_verify.add_argument(
        "which",
        choices=["permcont1", "permcont2", "permtotab", "majgen", "majgen1"],
    )
    p_verify.add_argument("--max-size", type=int, required=True)
    p_verify.add_argument(
        "--max-total",
        type=int,
        default=None,
        help="cap on the ambient enumeration size (theorem-specific default)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_limit = sub.add_parser("limit", help="finite-size values against limit formulas")
    p_limit.add_argument("which", choices=list(_LIMIT_KINDS))
    p_limit.add_argument("--q", type=_parse_rational)
    p_limit.add_argument("--p", type=_parse_rational)
    p_limit.add_argument("--n", type=int, required=True)
    p_limit.add_argument("--sigma")
    p_limit.add_argument("--tau")
    p_limit.add_argument("--tableau", help="tableau JSON or @file")
    p_limit.add_argument("--tableau2", help="tableau JSON or @file")
    p_limit.add_argument("--a", type=int, help="offset for eq8 (default 1)")
    p_limit.add_argument(
        "--precision", type=_parse_rational, help="product tail bound for xi (default 1/10^7)"
    )
    p_limit.add_argument("--csv", action="store_true")
    p_limit.add_argument(
        "--digits", type=int, help="significant digits in text and --csv output (default 12)"
    )
    p_limit.add_argument("--json", action="store_true")
    p_limit.set_defaults(func=_cmd_limit)

    p_probe = sub.add_parser("probe", help="exploratory tuple containment ratio")
    p_probe.add_argument("what", choices=["conjecture"])
    p_probe.add_argument("--tableaux", nargs="+", required=True)
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--json", action="store_true")
    p_probe.set_defaults(func=_cmd_probe)

    return parser


def run(argv: list[str] | None = None) -> int:
    # exact values and integer tokens may be far longer than the 4,300 digits
    # CPython 3.11 converts to and from str by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
