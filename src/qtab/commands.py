"""Handlers of every ``qtab`` command but ``limit`` and ``verify``.

``qtab.cli`` parses the command line and imports this module only for
these commands, :mod:`qtab.limits`, which holds the ``limit`` handler, only
for ``limit``, and :mod:`qtab.containment`, which holds the ``verify``
handler, only for ``verify``, so none compiles another's handlers.  Each
handler imports the ``qtab`` modules its computation reads when it runs
(``qpoly factorial`` loads only ``polynomial`` and ``bivar``, which reads
and prints the coefficient tables every polynomial is held as).
"""

from __future__ import annotations

from .cli import UsageError, _check_enum_size, _emit, _parse_tableau


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


def _size_operand(which: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(
            f"qpoly {which}: cannot parse operand {text!r}: expected an integer, like 5"
        ) from None


def _cmd_qpoly(args) -> int:
    from .bivar import json_terms, qbinomial, qfactorial, text

    which, method = args.which, args.method
    arity = 2 if which == "binomial" else 1
    if len(args.args) != arity:
        raise UsageError(f"qpoly {which} needs {arity} operand(s), got {len(args.args)}")
    if method and which in ("factorial", "binomial"):
        raise UsageError(f"qpoly {which} does not read --method")
    if which in ("factorial", "binomial"):
        sizes = [_size_operand(which, x) for x in args.args]
        poly = qfactorial(*sizes) if which == "factorial" else qbinomial(*sizes)
    elif which in ("tn", "an"):
        from . import stats

        n = _size_operand(which, args.args[0])
        if n < 0:
            raise UsageError(f"n must be nonnegative, got {n}")
        if method == "enum":
            kind = "involution" if which == "tn" else "permutation"
            _check_enum_size(n, f"{kind} enumeration")
            poly = stats.t_poly_enum(n) if which == "tn" else stats.a_poly_enum(n)
        elif which == "tn":
            method, poly = "series", stats.t_poly(n)
        else:
            method, poly = "hook", stats.a_poly(n)
    else:  # fshape
        from .tableau import SkewShape, f_poly, f_poly_enum

        shape = SkewShape.parse(args.args[0])
        method = method or ("hook" if shape.is_straight else "determinant")
        if method == "enum":
            _check_enum_size(shape.size, "tableau enumeration")
        poly = f_poly_enum(shape) if method == "enum" else f_poly(shape)
    payload = {"terms": json_terms(poly)}
    if method is None:  # factorial and binomial have one path
        _emit(args, [text(poly)], payload)
    else:
        _emit(args, [f"method={method}", text(poly)], {**payload, "method": method})
    return 0


# -- j-sets ----------------------------------------------------------------------


def _cmd_jset(args) -> int:
    from . import jcriteria, jsets
    from .permutation import Permutation

    perm = Permutation.parse(args.perm)
    values = jsets.j_set(perm)
    _emit(args, [jcriteria.format_int_set(values)], {"jset": sorted(values)})
    return 0


def _cmd_j2set(args) -> int:
    from . import jcriteria

    if args.first == "check":
        if args.second is None:
            raise UsageError("j2set check needs a set operand")
        values = jcriteria.parse_int_set(args.second)
        verdict = jcriteria.is_j2_set(values)
        lines = [f"{jcriteria.format_int_set(values)} j2-set: {'yes' if verdict else 'no'}"]
        payload = {"set": sorted(values), "is_j2_set": verdict}
        if values:
            profile = jcriteria.j_profile(values)
            payload["profile"] = profile.to_json()
            lines.append(f"delta: {','.join(str(a) for a in profile.delta)}")
            lines.append(f"delta_bar: {jcriteria.format_entries(profile.delta_bar)}")
        _emit(args, lines, payload)
        return 0
    if args.second is None:
        raise UsageError("j2set needs two permutation operands")
    from .jsets import j2_set
    from .permutation import Permutation

    sigma = Permutation.parse(args.first)
    tau = Permutation.parse(args.second)
    values = j2_set(sigma, tau)
    _emit(args, [jcriteria.format_int_set(values)], {"j2set": sorted(values)})
    return 0


def _cmd_j2(args) -> int:
    n_max = args.max
    if n_max < 0:
        raise UsageError(f"--max must be nonnegative, got {n_max}")
    if args.method == "brute":
        from .jsets import j2_counts

        _check_enum_size(n_max, "permutation enumeration")
        counts = j2_counts(n_max)
    else:
        from .jcriteria import j2_series

        counts = j2_series(n_max)
    _emit(
        args,
        [",".join(str(c) for c in counts)],
        {"method": args.method, "counts": counts},
    )
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


HANDLERS = {
    "stat": _cmd_stat,
    "rs": _cmd_rs,
    "qpoly": _cmd_qpoly,
    "jset": _cmd_jset,
    "j2set": _cmd_j2set,
    "j2": _cmd_j2,
    "probe": _cmd_probe,
}
