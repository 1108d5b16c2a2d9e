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

This module holds the command-line grammar, one table that both the
parser and ``-h`` read, the shared option parsers and the ``QTAB_MAX_N``
check (``_check_enum_size``).  The ``limit`` handler is at the end of
:mod:`qtab.limits` and the ``verify`` handler at the end of
:mod:`qtab.containment`, each beside the code it calls, and the handlers of
the other commands are in :mod:`qtab.commands`; ``run`` imports the one the
command needs, and :mod:`qtab.usage` only for ``-h``.  Each handler imports
the ``qtab`` modules its computation reads when it runs (``qpoly factorial``
loads only ``polynomial`` and ``bivar``), and ``json`` only for ``--json``
output, so a process compiles and runs only what it uses.  No process loads
``argparse``.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# only the commands that read a rational option load `fractions`, and with
# it `decimal`, whose import is a large share of a short command's start-up
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    from fractions import Fraction

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


def _check_enum_size(n: int, what: str) -> None:
    """Refuse a brute-force size n over the cap QTAB_MAX_N, where it is set."""
    raw = os.environ.get("QTAB_MAX_N", "")
    if not raw.strip():
        return
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"QTAB_MAX_N={raw!r} is not an integer") from exc
    if n > cap:
        raise UsageError(f"{what} size {n} exceeds QTAB_MAX_N={cap}")


def _emit(args, text_lines: list[str], payload) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- limit kinds -------------------------------------------------------------------

# kind -> (pattern options, parameter options, finite evaluator, limit evaluator).
# Evaluators are names in ``limits``, looked up when a report is built, so a
# wrapper installed on the module later is the one called.  The finite one
# takes (*patterns, *parameters, n), the limit one (*patterns, *parameters).
# xi and eq8 build their limits and notes in the limit handler, limits.cmd_limit.
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


# -- command line grammar ---------------------------------------------------------

# command -> (summary, operands, options, defaults).  An operand is (name,
# convert, default) and an option maps "--name" to its convert: a function
# of the token, a tuple of the values allowed, bool for a flag (no value,
# default False) or list for one or more tokens.  Options default to None
# unless defaults says otherwise, and default ... makes an argument
# required.  Every command also takes --json; see _parse_args for the rules.
_GRAMMAR = {
    "stat": (
        "descent set, maj, imaj of a permutation word, or of tableau JSON / @file",
        [("kind", ("perm", "tab"), ...), ("object", str, ...)],
        {},
        {},
    ),
    "rs": (
        "insertion correspondence and its inverse",
        [("operands", list, ...)],
        {"--inverse": bool},
        {},
    ),
    "qpoly": (
        "exact q-polynomials; --method enum enumerates instead of the closed form (tn, an, fshape)",
        [("which", ("factorial", "binomial", "tn", "an", "fshape"), ...), ("args", list, ...)],
        {"--method": ("enum",)},
        {},
    ),
    "jset": ("j-set of a permutation", [("perm", str, ...)], {}, {}),
    "j2set": (
        "j2-set of a pair (SIGMA TAU), or membership check (check SET)",
        [("first", str, ...), ("second", str, None)],
        {},
        {},
    ),
    "j2": (
        "count j2-sets by largest element",
        [("action", ("count",), ...)],
        {"--max": int, "--method": ("gf", "brute")},
        {"--max": ..., "--method": "gf"},
    ),
    "verify": (
        "machine-check the exact identities; --max-total caps the ambient enumeration size"
        " (theorem-specific default)",
        [("which", ("permcont1", "permcont2", "permtotab", "majgen", "majgen1"), ...)],
        {"--max-size": int, "--max-total": int},
        {"--max-size": ...},
    ),
    "limit": (
        "finite-size values against limit formulas; --tableau and --tableau2 take JSON or"
        " @file, --a is the offset of eq8 (default 1), --precision the product tail bound of"
        " xi (default 1/10^7), --digits the significant digits of text and --csv output"
        " (default 12)",
        [("which", tuple(_LIMIT_KINDS), ...)],
        {
            "--q": _parse_rational,
            "--p": _parse_rational,
            "--n": int,
            "--sigma": str,
            "--tau": str,
            "--tableau": str,
            "--tableau2": str,
            "--a": int,
            "--precision": _parse_rational,
            "--csv": bool,
            "--digits": int,
        },
        {"--n": ...},
    ),
    "probe": (
        "exploratory tuple containment ratio",
        [("what", ("conjecture",), ...)],
        {"--tableaux": list, "--n": int},
        {"--tableaux": ..., "--n": ...},
    ),
}


def _fail(prog: str, message: str):
    print(f"error: {prog}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command: str | None):
    """Print the -h text of the program (command None) or of a command, and exit 0."""
    from .usage import print_usage

    print_usage(command)
    raise SystemExit(0)


def _convert(prog: str, name: str, convert, tokens: list[str]):
    """The value of an argument read from its tokens (one, unless it is a list)."""
    if convert is list:
        return tokens
    try:
        if type(convert) is not tuple:
            return convert(tokens[0])
        if tokens[0] in convert:
            return tokens[0]
    except ValueError:
        pass
    choices = f" (choose from {', '.join(convert)})" if type(convert) is tuple else ""
    _fail(prog, f"{name}: invalid value {tokens[0]!r}{choices}")


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command line, read by the grammar table.

    A token that starts with "-" is an option unless it is "-", a negative
    number or has a space in it.  Each option is read with the tokens up to
    the next option: it takes its value from --name=VALUE or else from
    those tokens (a list option all of them), and the rest fill the operands
    still open, in order; a list operand takes all of them, and an optional
    operand the next one or else its default.  The last of a repeated option
    wins.  A grammar error prints one error line and raises SystemExit(2);
    -h prints the usage and raises SystemExit(0).
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in _GRAMMAR:
        given = f"unknown command {command!r}" if argv else "no command"
        _fail("qtab", f"{given}; the commands are {', '.join(_GRAMMAR)}")
    prog, tokens = f"qtab {command}", argv[1:]
    _, operands, options, defaults = _GRAMMAR[command]
    options = {**options, "--json": bool}
    values = {name: default for name, _, default in operands}
    for name, convert in options.items():
        values[name] = defaults.get(name, False if convert is bool else None)
    options["-h"] = options["--help"] = None

    def option(token):
        """(name, explicit value) of an option, name None if unknown; None for an operand."""
        name, eq, value = token.partition("=")
        if token in options:
            return token, None
        if eq and name in options:
            return name, value
        if token[:1] == "-" != token and " " not in token:
            return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) else (None, None)

    # each pass reads one option (or, first, none) with the operands after it
    extras, i, k = [], 0, 0
    while i < len(tokens):
        found = option(tokens[i])
        j = start = i + (found is not None)
        while j < len(tokens) and option(tokens[j]) is None:
            j += 1
        run = tokens[start:j]
        if found and found[0] is None:
            extras.append(tokens[i])
        elif found:
            name, explicit = found
            convert = options[name]
            if convert in (bool, None):
                if explicit is not None:
                    _fail(prog, f"{name} takes no value")
                if convert is None:
                    _help(command)
                values[name] = True
            elif explicit is not None:
                values[name] = _convert(prog, name, convert, [explicit])
            elif not run:
                _fail(prog, f"{name} expects a value")
            else:
                take = len(run) if convert is list else 1
                values[name], run = _convert(prog, name, convert, run[:take]), run[take:]
        for name, convert, default in operands[k:]:
            take = len(run) if convert is list else min(len(run), 1)
            if not take and default is ...:
                break
            values[name] = _convert(prog, name, convert, run[:take]) if take else default
            run, k = run[take:], k + 1
        extras += run
        i = j
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        _fail(prog, f"missing {', '.join(missing)}")
    if extras:
        _fail(prog, f"unrecognized arguments: {' '.join(extras)}")
    values = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **values)


def run(argv: list[str] | None = None) -> int:
    # exact values and integer tokens may be far longer than the 4,300 digits
    # CPython 3.11 converts to and from str by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.command == "limit":
            from .limits import cmd_limit

            return cmd_limit(args)
        if args.command == "verify":
            from .containment import cmd_verify

            return cmd_verify(args)
        from .commands import HANDLERS

        return HANDLERS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    # `python -m qtab.cli` runs this file as `__main__`, a second copy of the
    # module whose UsageError the handlers, which import `qtab.cli`, never
    # raise; so the imported module runs the command
    from qtab.cli import main

    main()
