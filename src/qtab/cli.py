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

This module holds the parser, the shared option parsers and the ``limit``
handler; the handlers of the other commands are in :mod:`qtab.commands`,
which ``run`` imports only for them.  Each handler imports the ``qtab``
modules its computation reads when it runs (``qpoly factorial`` loads only
``polynomial``), and ``json`` only for ``--json`` output, so a process
compiles and runs only what it uses.
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


def _emit(args, text_lines: list[str], payload) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    finite = lambda n: getattr(limits, finite_name)(*patterns, *parameters, n)
    notes = []
    if which == "xi":
        limit, tail = limits.xi_product_with_tail(args.q, args.precision)
        notes.append(("tail_bound", "product tail bound", tail))
    elif which == "eq8":
        from .bounds import eq8_check

        limit, lo = Fraction(1), max(args.a, 1)
        finite = lambda n: eq8_check(args.a, n).ratio_offset
    else:
        limit = getattr(limits, limit_name)(*patterns, *parameters)
    grid = limits.default_grid(lo, args.n, 8) if args.csv else [args.n]
    report = limits.ConvergenceReport(label, limit, [(n, finite(n)) for n in grid], notes)
    # after the grid, so an empty --csv grid is reported before a bad --a
    if which == "eq8":
        stride = eq8_check(args.a, args.n).ratio_stride
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

    p_rs = sub.add_parser("rs", help="insertion correspondence and its inverse")
    p_rs.add_argument("operands", nargs="+")
    p_rs.add_argument("--inverse", action="store_true")
    p_rs.add_argument("--json", action="store_true")

    p_qpoly = sub.add_parser("qpoly", help="exact q-polynomials")
    p_qpoly.add_argument(
        "which", choices=["factorial", "binomial", "tn", "an", "fshape"]
    )
    p_qpoly.add_argument("args", nargs="+")
    p_qpoly.add_argument(
        "--method", choices=["enum"], help="enumerate instead of the closed form (tn, an, fshape)"
    )
    p_qpoly.add_argument("--json", action="store_true")

    p_jset = sub.add_parser("jset", help="j-set of a permutation")
    p_jset.add_argument("perm")
    p_jset.add_argument("--json", action="store_true")

    p_j2set = sub.add_parser("j2set", help="j2-set of a pair, or membership check")
    p_j2set.add_argument("first", help="sigma, or the word 'check'")
    p_j2set.add_argument("second", nargs="?", help="tau, or the set to check")
    p_j2set.add_argument("--json", action="store_true")

    p_j2 = sub.add_parser("j2", help="count j2-sets by largest element")
    p_j2.add_argument("action", choices=["count"])
    p_j2.add_argument("--max", type=int, required=True)
    p_j2.add_argument("--method", choices=["gf", "brute"], default="gf")
    p_j2.add_argument("--json", action="store_true")

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

    p_probe = sub.add_parser("probe", help="exploratory tuple containment ratio")
    p_probe.add_argument("what", choices=["conjecture"])
    p_probe.add_argument("--tableaux", nargs="+", required=True)
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--json", action="store_true")

    return parser


def run(argv: list[str] | None = None) -> int:
    # exact values and integer tokens may be far longer than the 4,300 digits
    # CPython 3.11 converts to and from str by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "limit":
            return _cmd_limit(args)
        from .commands import HANDLERS

        return HANDLERS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
