"""The handler of ``qtab limit``.

``qtab.cli`` imports this module only for ``limit``, so the other
commands do not compile it, just as a ``limit`` process does not compile
:mod:`qtab.commands`.  The report calls the ``limits`` evaluators that
``cli._LIMIT_KINDS`` names for its kind, and imports the pattern modules
only for the kinds that take patterns.
"""

from __future__ import annotations

from fractions import Fraction

from .cli import _LIMIT_KINDS, UsageError, _parse_tableau


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
