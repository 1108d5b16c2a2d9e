"""The ``-h`` text of ``qtab`` and of each command, rendered from the grammar table.

:mod:`qtab.cli` imports this module only when ``-h`` or ``--help`` is given,
so no other process compiles it.
"""

from __future__ import annotations

import textwrap

from .cli import _GRAMMAR, _parse_rational

_KINDS = {int: "an integer", _parse_rational: "a fraction like 1/2", str: "a string"}


def _describe(convert, default) -> str:
    """What an argument takes, as the -h text's second column."""
    if convert is bool:
        return "a flag"
    if convert is list:
        text = "one or more strings"
    elif type(convert) is tuple:
        text = "one of " + ", ".join(convert)
    else:
        text = _KINDS[convert]
    if default is ...:
        return text + ", required"
    return text if default is None else f"{text}, default {default}"


def print_usage(command: str | None) -> None:
    """Print the usage of the program (command None) or of one command."""
    if command is None:
        print("usage: qtab COMMAND ARGUMENTS\n")
        print("Exact q-analog statistics for tableau and permutation containment.\n")
        for name, (summary, *_) in _GRAMMAR.items():
            print(f"  {name:7} {summary.split(';')[0]}")
        print("\n'qtab COMMAND -h' lists the arguments of a command.")
        return
    summary, operands, options, defaults = _GRAMMAR[command]
    options = {**options, "--json": bool}
    rows = [(name.upper(), _describe(convert, default)) for name, convert, default in operands]
    rows += [(name, _describe(convert, defaults.get(name))) for name, convert in options.items()]
    # the usage line: the operands, then the options that must be given
    words = [
        name.upper() + "..." * (convert is list) if default is ... else f"[{name.upper()}]"
        for name, convert, default in operands
    ]
    words += [
        f"{name} {name[2:].upper()}" + "..." * (options[name] is list)
        for name in options
        if defaults.get(name) is ...
    ]
    print(f"usage: qtab {command} {' '.join(words)} [OPTIONS]\n")
    print(textwrap.fill(summary, 79), end="\n\n")
    width = max(len(name) for name, _ in rows)
    for name, text in rows:
        print(f"  {name:{width}}  {text}")
