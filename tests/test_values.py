"""The value semantics of the package's record classes.

Each class keeps the semantics it had as a dataclass: equality on the class
and the field tuple, a hash of the field tuple for the immutable ones (whose
fields cannot be assigned), no hash for the mutable reports, and the
``Name(field=value, ...)`` repr.  The immutable ones take all four from
``qtab.values.Value``, and the last two tests keep it the only copy.  A
``ConvergenceReport`` is a ``Value`` whose fields cannot be assigned, but two
of them are lists, so it has no hash either.
"""

import ast
import importlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from oracle.blocks import BinaryWord, ZeroOneMatrix, phi
from oracle.bounds import BoundReport
from oracle.tableau import restrict_high
from qtab.bounds import Eq8Report
from qtab.containment import IdentityReport
from qtab.jcriteria import JProfile, parse_int_set
from qtab.limits import ConvergenceReport
from qtab.permutation import Permutation
from qtab.tableau import Partition, SkewShape, Tableau
from qtab.values import Value, parse_ints

SRC = Path(__file__).resolve().parent.parent / "src" / "qtab"

# (build, repr of the built value, field to assign, or None for a mutable report);
# build() makes a new, equal value on each call
VALUES = [
    (lambda: Permutation((2, 1, 3)), "Permutation(word=(2, 1, 3))", "word"),
    (lambda: BinaryWord((0, 1)), "BinaryWord(bits=(0, 1))", "bits"),
    (
        lambda: ZeroOneMatrix(((0, 1), (1, 0))),
        "ZeroOneMatrix(entries=((0, 1), (1, 0)))",
        "entries",
    ),
    (
        lambda: phi(Permutation((2, 1, 3)), 1, 2),
        "PhiImage(p11=Permutation(word=(1,)), p12=Permutation(word=(1,)), "
        "p21=Permutation(word=()), p22=Permutation(word=(1,)), c1=BinaryWord(bits=(0,)), "
        "r1=BinaryWord(bits=(1, 0)), c2=BinaryWord(bits=(0, 1)), r2=BinaryWord(bits=(1,)), "
        "a=1, b=2)",
        "a",
    ),
    (lambda: Partition((2, 1)), "Partition(parts=(2, 1))", "parts"),
    (
        lambda: SkewShape(Partition((2, 1)), Partition((1,))),
        "SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,)))",
        "inner",
    ),
    (
        lambda: restrict_high(Tableau.from_rows([[1, 3], [2]]), 1),
        "Tableau(shape=SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,))), "
        "rows=((2,), (1,)))",
        "rows",
    ),
    (
        lambda: JProfile((2, 1), ((2, False), (1, False)), (((2, False), (1, False)),), ((2, 1),)),
        "JProfile(delta=(2, 1), delta_bar=((2, False), (1, False)), "
        "psi_blocks=(((2, False), (1, False)),), psi2_blocks=((2, 1),))",
        "psi2_blocks",
    ),
    (
        lambda: BoundReport(Fraction(1, 2), Fraction(3), Fraction(4)),
        "BoundReport(q=Fraction(1, 2), lhs_upper=Fraction(3, 1), rhs_lower=Fraction(4, 1))",
        "q",
    ),
    (
        lambda: Eq8Report(1, 3, Fraction(3, 5), Fraction(6, 13)),
        "Eq8Report(a=1, n=3, ratio_offset=Fraction(3, 5), ratio_stride=Fraction(6, 13))",
        "n",
    ),
    (
        lambda: ConvergenceReport("x", Fraction(1, 2), [(1, Fraction(1, 3))]),
        "ConvergenceReport(label='x', limit=Fraction(1, 2), rows=[(1, Fraction(1, 3))], "
        "notes=[])",
        "label",
    ),
    (
        lambda: IdentityReport("permcont1", {"m": 1, "n": 2}, 3),
        "IdentityReport(theorem='permcont1', params={'m': 1, 'n': 2}, checked=3, failures=[])",
        None,
    ),
]
IDS = [text[: text.index("(")] for _, text, _ in VALUES]
# value classes with list fields: no field can be assigned, but none has a hash
UNHASHABLE = {ConvergenceReport}


@pytest.mark.parametrize("build, text, field", VALUES, ids=IDS)
def test_value_semantics(build, text, field):
    value, twin = build(), build()
    assert value is not twin and value == twin and not value != twin
    assert repr(value) == text
    if field is None or type(value) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    if field is None:
        return
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before and value == twin


def test_values_of_two_classes_never_compare_equal():
    # the one-field classes on the one field tuple ((1,),) included
    values = [build() for build, _, _ in VALUES]
    values += [Permutation((1,)), BinaryWord((1,)), Partition((1,)), ZeroOneMatrix(((1,),))]
    for x, y in itertools.combinations(values, 2):
        if type(x) is not type(y):
            assert x != y and y != x and not x == y


def test_mutable_reports_compare_their_current_fields():
    report = IdentityReport("t", {})
    twin = IdentityReport("t", {})
    report.record("i", 1, 2)
    assert report != twin and report.failures and report.checked == 1
    twin.record("i", 1, 2)
    assert report == twin
    notes = ConvergenceReport("x", Fraction(0), [])
    assert notes.notes == [] and notes.notes is not ConvergenceReport("x", Fraction(0), []).notes


def test_every_value_class_is_built_by_a_row():
    for path in SRC.glob("*.py"):
        importlib.import_module("qtab" if path.stem == "__init__" else f"qtab.{path.stem}")
    built = {type(build()) for build, _, field in VALUES if field is not None}
    assert set(Value.__subclasses__()) == built
    for cls in built:
        assert not {"__setattr__", "__eq__", "__hash__", "__repr__", "_fields"} & set(vars(cls))


def test_only_the_value_base_and_bivarpoly_define_setattr_or_hash():
    owners = {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and {"__setattr__", "__hash__"}
        & {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    }
    assert owners == {("values", "Value")}


@pytest.mark.parametrize(
    "text, ints",
    [
        ("3 2 1", [3, 2, 1]), ("3,2,1", [3, 2, 1]), (" 3, 2  1 ", [3, 2, 1]), ("3\t2\n1", [3, 2, 1]),
        ("", []), ("  ", []),
    ],
)
def test_integer_lists_are_read_by_one_rule(text, ints):
    # commas, spaces or both separate entries, and blank text is the empty list
    assert parse_ints(text) == ints
    assert parse_int_set(text) == frozenset(ints)
    assert Permutation.parse(text) == Permutation(tuple(ints))
    assert Partition.parse(text) == Partition(tuple(ints))


@pytest.mark.parametrize("text", ["3,,1", ",", "3,1,", " ,3", "3 x", "3;1"])
def test_malformed_integer_lists_are_refused_by_every_reader(text):
    with pytest.raises(ValueError):
        parse_ints(text)
    readers = {"set": parse_int_set, "permutation": Permutation.parse, "partition": Partition.parse}
    for what, read in readers.items():
        with pytest.raises(ValueError, match=f"cannot parse {what}"):
            read(text)

