"""What a process loads: the lazy package surface and the modules each command imports.

The module sets are read in fresh interpreters, since an import made by any
earlier test in this process would hide a top-level import added later.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtab

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the package exported when it imported every module eagerly, less
# those since deleted
EXPORTED = [
    "IdentityReport", "conjecture_probe", "contains", "enum_inv_containing",
    "enum_pair_containing", "enum_perm_containing", "enum_tab_containing", "pair_contains",
    "tab_contains", "verify_majgen", "verify_majgen1", "verify_permcont1", "verify_permcont2",
    "verify_permtotab", "verify_permtotab_pair", "JProfile", "delta", "delta_bar",
    "is_j2_set", "is_j_set", "j2_count", "j2_extend_ok", "j2_series", "j2_set",
    "j_extend_ok", "j_profile", "j_set", "psi", "psi2", "BoundReport", "ConvergenceReport",
    "Eq8Report", "a_ratio", "check_bound", "contraction", "eq8_check", "m2_1_lhs",
    "m2_1_rhs", "m3_1_lhs", "m3_1_rhs", "m3_lhs", "m3_rhs", "qlim1_lhs", "qlim1_rhs",
    "t_ratio", "xi_partial", "xi_product_with_tail", "BinaryWord", "Permutation",
    "PhiImage", "ZeroOneMatrix", "involutions", "matrix_of", "permutations", "phi",
    "phi_inverse", "shuffle", "standardize", "BivarPoly", "format_decimal", "q_integer",
    "qbinomial", "qfactorial", "rs", "rs_inverse", "rs_involution", "rs_involution_inverse",
    "a_poly", "a_poly_enum", "a_value", "q_factorial_value", "t_count",
    "t_poly", "t_poly_enum", "t_value", "Partition", "SkewShape", "Tableau",
    "enumerate_syt", "f_poly", "f_poly_enum", "f_poly_hook", "partitions",
    "skew_syt_count", "syt_count",
]


def modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running code (read before
    the probe itself imports json)."""
    probe = f"import sys\n{code}\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set[str]:
    """The qtab submodules a fresh interpreter holds after running code."""
    return {m[5:] for m in modules_after(code) if m.startswith("qtab.")}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """What the interpreter holds before any qtab code runs (site hooks included)."""
    return modules_after("pass")


def test_all_lists_the_eager_exports():
    assert len(EXPORTED) == len(set(EXPORTED)) == 85
    assert sorted(qtab.__all__) == sorted(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_its_home_modules_object(name):
    obj = getattr(qtab, name)
    home = obj.__module__
    assert home.startswith("qtab.") and home != "qtab.cli"
    assert getattr(importlib.import_module(home), name) is obj
    assert name in dir(qtab)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qtab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(EXPORTED)
    assert all(namespace[name] is getattr(qtab, name) for name in EXPORTED)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qtab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from qtab import no_such_name", {})


def test_conjecture_probe_has_one_definition():
    from qtab import containment, tableau

    assert qtab.conjecture_probe is containment.conjecture_probe is tableau.conjecture_probe


def test_import_qtab_loads_no_submodule():
    assert loaded_after("import qtab") == set()


_TAB_1 = json.dumps({"outer": [1], "rows": [[1]]})
# tlim, alim, xi and eq8 need only `limits`, which holds their handler, and
# the series (eq8 adds its ratios); the pattern theorems add the weights and
# what the weights read: the j-sets of permutation patterns, or the skew
# polynomials of tableau shapes, never the oracle modules, the j-set criteria
# or the handlers of the other commands.  No limit kind loads the formal
# polynomials of `bivar`: the weights are coefficient tables.  Every command
# that builds a value class (a permutation, shape, tableau, j-profile or
# report) loads their base, `values`.
_LIMIT_KERNEL = {"cli", "limits", "polynomial", "stats", "values"}
_PERMUTATION_LIMIT = _LIMIT_KERNEL | {"weights", "permutation", "jsets"}
_TABLEAU_LIMIT = _LIMIT_KERNEL | {"weights", "tableau"}
_COMMANDS = {"cli", "commands"}
# verify loads `containment`, which holds its handler, and no `commands`; each
# kind adds only what its identity reads: the permutation sweeps no tableau
# code (their cut terms read t_k and A_k off the series), the tableau
# sweeps the tableaux and insertion, and the skew maj sweeps no permutation
# or j-set code; none loads `bivar`, which only a failing check's printing reads
_VERIFY_KERNEL = {"cli", "containment", "polynomial", "stats", "values", "weights"}
_PERMCONT1 = _VERIFY_KERNEL | {"permutation", "jsets"}
_PERMTOTAB = _PERMCONT1 | {"tableau", "rsk"}
_MAJGEN = _VERIFY_KERNEL | {"tableau"}


COMMAND_MODULES = [
    (["stat", "perm", "21"], _COMMANDS | {"permutation", "values"}),
    (["stat", "tab", _TAB_1], _COMMANDS | {"polynomial", "tableau", "values"}),
    (["qpoly", "factorial", "5"], _COMMANDS | {"bivar", "polynomial"}),
    (["qpoly", "binomial", "6", "2"], _COMMANDS | {"bivar", "polynomial"}),
    (["qpoly", "fshape", "3,2/1"], _COMMANDS | {"bivar", "polynomial", "tableau", "values"}),
    (["qpoly", "tn", "6"], _COMMANDS | {"bivar", "polynomial", "stats"}),
    (["qpoly", "an", "5"], _COMMANDS | {"bivar", "polynomial", "stats", "tableau", "values"}),
    (
        ["probe", "conjecture", "--tableaux", _TAB_1, "--n", "4"],
        _COMMANDS | {"polynomial", "tableau", "values"},
    ),
    (["jset", "21"], _COMMANDS | {"jcriteria", "jsets", "permutation", "values"}),
    (["j2set", "21", "12"], _COMMANDS | {"jcriteria", "jsets", "permutation", "values"}),
    (["j2set", "check", "0,1,3"], _COMMANDS | {"jcriteria", "values"}),
    (["j2", "count", "--max", "3", "--method", "gf"], _COMMANDS | {"jcriteria", "values"}),
    (
        ["j2", "count", "--method", "brute", "--max", "3"],
        _COMMANDS | {"jsets", "permutation", "values"},
    ),
    (["rs", "21"], _COMMANDS | {"permutation", "polynomial", "rsk", "tableau", "values"}),
    (["limit", "tlim", "--q", "1/2", "--n", "4"], _LIMIT_KERNEL),
    (["limit", "alim", "--p", "1/2", "--q", "2/3", "--n", "4"], _LIMIT_KERNEL),
    (["limit", "xi", "--q", "1/2", "--n", "4"], _LIMIT_KERNEL),
    (["limit", "eq8", "--n", "4"], _LIMIT_KERNEL | {"bounds"}),
    (["limit", "qlim1", "--sigma", "21", "--q", "1/2", "--n", "4"], _PERMUTATION_LIMIT),
    (
        ["limit", "m2-1", "--sigma", "21", "--tau", "12", "--p", "1/2", "--q", "2/3", "--n", "4"],
        _PERMUTATION_LIMIT,
    ),
    (["limit", "m3", "--tableau", _TAB_1, "--q", "1/2", "--n", "4"], _TABLEAU_LIMIT),
    (
        ["limit", "m3-1", "--tableau", _TAB_1, "--tableau2", _TAB_1, "--p", "1/2", "--q", "2/3",
         "--n", "4"],
        _TABLEAU_LIMIT,
    ),
    (["verify", "majgen", "--max-size", "1", "--max-total", "2"], _MAJGEN),
    (["verify", "majgen1", "--max-size", "1", "--max-total", "2"], _MAJGEN),
    (["verify", "permcont1", "--max-size", "1", "--max-total", "2"], _PERMCONT1),
    (["verify", "permcont2", "--max-size", "1", "--max-total", "2"], _PERMCONT1),
    (["verify", "permtotab", "--max-size", "2"], _PERMTOTAB),
]


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[" ".join(argv[:3]) for argv, _ in COMMAND_MODULES]
)
def test_command_loads_only_its_modules(argv, modules, bare_modules):
    code = f"import qtab.cli\nassert qtab.cli.run({argv!r}) == 0"
    loaded = modules_after(code)
    assert {m[5:] for m in loaded if m.startswith("qtab.")} == modules
    # dataclasses alone costs a fresh process more than the limit commands' work
    assert "dataclasses" not in loaded - bare_modules
    # nor does any command parse its arguments with argparse, which loads
    # gettext, and locale when a parser is built
    assert not {"argparse", "gettext", "locale"} & (loaded - bare_modules)
    # and a command that neither reads a rational nor loads a module computing
    # with them does not load `fractions`, which imports `decimal`
    if not modules & {"polynomial", "bivar", "stats", "tableau", "limits"}:
        assert not {"fractions", "decimal"} & (loaded - bare_modules)
    # nor does a command load `json` unless it reads a tableau operand or
    # prints --json: text `verify` and `qpoly an|fshape` load none
    if "--json" not in argv and not any(arg.startswith("{") for arg in argv):
        assert "json" not in loaded - bare_modules


def test_no_two_modules_load_for_the_same_commands():
    # two modules that every command loads together or not at all are one
    # module split in two; modules no command of the table loads (`usage`,
    # read for -h, and `blocks`) are not compared
    commands_of = {}
    for i, (_, modules) in enumerate(COMMAND_MODULES):
        for module in modules:
            commands_of.setdefault(module, set()).add(i)
    twins = [
        (a, b)
        for a in sorted(commands_of)
        for b in sorted(commands_of)
        if a < b and commands_of[a] == commands_of[b]
    ]
    assert twins == []


def test_importing_limits_loads_no_polynomial_type_or_command_code():
    assert loaded_after("import qtab.limits") == {"limits", "stats", "polynomial", "values"}


def test_importing_containment_loads_no_family_or_command_code():
    kernel = {"containment", "weights", "stats", "polynomial"}
    assert loaded_after("import qtab.containment") == kernel
    # the re-exported probe loads the tableau code on first use
    probe = "from qtab.containment import conjecture_probe"
    assert loaded_after(probe) == kernel | {"tableau", "values"}


# Where no bytecode cache is written, a process compiles every module it
# imports.  These ceilings are above the AST node counts of the qtab modules
# each limit kind loads (the package included), which are 9,291 for
# qlim1|m2-1, 10,888 for m3|m3-1, 6,435 for tlim|alim|xi and 7,027 for eq8,
# by about 700 nodes; they fail a change that puts code no limit kind runs
# back on their path, such as the formal polynomials of `bivar` (1,539 nodes)
# or, for tlim|alim|xi|eq8, the weights (940).
_LIMIT_COMPILE_CEILING = {
    "qlim1": 10_000,
    "m2-1": 10_000,
    "m3": 11_600,
    "m3-1": 11_600,
    "tlim": 7_100,
    "alim": 7_100,
    "xi": 7_100,
    "eq8": 7_700,
}
_LIMIT_ROWS = [argv for argv, _ in COMMAND_MODULES if argv[0] == "limit"]


def _ast_nodes(module: str) -> int:
    name = "__init__" if module == "qtab" else module.removeprefix("qtab.")
    return sum(1 for _ in ast.walk(ast.parse((SRC / "qtab" / f"{name}.py").read_text())))


def _assert_compiles_at_most(argv, ceiling):
    code = f"import qtab.cli\nassert qtab.cli.run({argv!r}) == 0"
    nodes = {
        m: _ast_nodes(m) for m in modules_after(code) if m == "qtab" or m.startswith("qtab.")
    }
    total, largest = sum(nodes.values()), max(nodes, key=nodes.get)
    assert total <= ceiling, (
        f"{' '.join(argv[:2])} compiles {total} AST nodes, over its ceiling {ceiling}; "
        f"the largest module is {largest} ({nodes[largest]} nodes)"
    )


@pytest.mark.parametrize("argv", _LIMIT_ROWS, ids=[argv[1] for argv in _LIMIT_ROWS])
def test_limit_compiles_at_most_its_ceiling(argv):
    _assert_compiles_at_most(argv, _LIMIT_COMPILE_CEILING[argv[1]])


# The benchmark's set-up probe and the lightest handler command compile
# 4,647 and 5,375 nodes.  These ceilings, about 12% and 13% above, fail a
# change that puts the verify handler and report loops (about 800 nodes) back
# in `commands`.
_HANDLER_COMPILE_CEILING = {("stat", "perm", "1"): 5_200, ("qpoly", "factorial", "5"): 6_100}


@pytest.mark.parametrize("argv", list(_HANDLER_COMPILE_CEILING), ids=" ".join)
def test_handler_command_compiles_at_most_its_ceiling(argv):
    _assert_compiles_at_most(list(argv), _HANDLER_COMPILE_CEILING[argv])


# Each verify kind compiles 12,244 (permcont1, permcont2), 16,219 (permtotab)
# or 13,841 (majgen, majgen1) nodes.  These ceilings, about 6% above, fail a
# change that puts another kind's code, such as a top-level import of every
# family in `containment`, the tableau code of the A_k hook sum on the
# permutation sweeps, the formal polynomials of `bivar` or the other
# commands' handlers back on a kind's path.
_VERIFY_COMPILE_CEILING = {
    "permcont1": 13_000,
    "permcont2": 13_000,
    "permtotab": 17_300,
    "majgen": 14_700,
    "majgen1": 14_700,
}
_VERIFY_ROWS = [argv for argv, _ in COMMAND_MODULES if argv[0] == "verify"]


@pytest.mark.parametrize("argv", _VERIFY_ROWS, ids=[argv[1] for argv in _VERIFY_ROWS])
def test_verify_compiles_at_most_its_ceiling(argv):
    _assert_compiles_at_most(argv, _VERIFY_COMPILE_CEILING[argv[1]])


def test_every_verify_kind_has_its_module_set_pinned():
    from qtab import cli

    (_, kinds, _), = cli._GRAMMAR["verify"][1]
    pinned = {argv[1] for argv in _VERIFY_ROWS}
    assert pinned == set(kinds) == set(_VERIFY_COMPILE_CEILING)


def test_every_limit_kind_has_its_module_set_pinned():
    from qtab import cli

    pinned = {argv[1] for argv, _ in COMMAND_MODULES if argv[0] == "limit"}
    assert pinned == set(cli._LIMIT_KINDS) == set(_LIMIT_COMPILE_CEILING)


WEIGHTS = [
    "qlim1_weight", "m2_1_weight", "m3_weight", "m3_1_weight",
    "involution_weight_sum", "pair_weight_sum",
]


@pytest.mark.parametrize("name", WEIGHTS)
def test_containment_reexports_each_weight(name):
    from qtab import containment, weights

    assert name in weights.__all__ and name in containment.__all__
    assert getattr(containment, name) is getattr(weights, name)
