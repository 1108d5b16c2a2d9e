import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qtab.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip()


def test_stat_perm(capsys):
    assert run(["stat", "perm", "513697428"]) == 0
    assert out_of(capsys).startswith("D={1,5,6,7} maj=19")


def test_stat_perm_json(capsys):
    assert run(["stat", "perm", "321", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data == {"descents": [1, 2], "maj": 3, "imaj": 3}


def test_stat_tab_inline_json(capsys):
    payload = json.dumps(
        {"outer": [2, 1], "inner": [], "rows": [[1, 2], [3]]}
    )
    assert run(["stat", "tab", payload]) == 0
    assert out_of(capsys) == "D={2} maj=2"


def test_stat_tab_file(tmp_path, capsys):
    path = tmp_path / "tab.json"
    path.write_text(
        json.dumps({"outer": [4, 3, 2], "inner": [3, 2], "rows": [[2], [1], [3, 4]]})
    )
    assert run(["stat", "tab", f"@{path}"]) == 0
    assert "maj=" in out_of(capsys)


def test_rs_roundtrip_via_files(tmp_path, capsys):
    assert run(["rs", "53214", "--json"]) == 0
    data = json.loads(out_of(capsys))
    p_path = tmp_path / "P.json"
    q_path = tmp_path / "Q.json"
    p_path.write_text(json.dumps(data["P"]))
    q_path.write_text(json.dumps(data["Q"]))
    assert run(["rs", "--inverse", f"@{p_path}", f"@{q_path}"]) == 0
    assert out_of(capsys) == "5 3 2 1 4"


def test_qpoly_factorial(capsys):
    assert run(["qpoly", "factorial", "3"]) == 0
    assert out_of(capsys) == "1 + 2*q + 2*q^2 + q^3"


def test_qpoly_binomial_json(capsys):
    assert run(["qpoly", "binomial", "4", "2", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["terms"] == [
        [0, 0, "1"],
        [0, 1, "1"],
        [0, 2, "2"],
        [0, 3, "1"],
        [0, 4, "1"],
    ]


def test_qpoly_binomial_rejects(capsys):
    assert run(["qpoly", "binomial", "3", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["qpoly", "factorial", "x"],
        ["qpoly", "tn", "x"],
        ["qpoly", "an", "2.5"],
        ["qpoly", "binomial", "5", "x"],
        ["qpoly", "binomial", "x", "2"],
    ],
)
def test_qpoly_non_integer_operand_is_named(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(tok for tok in argv[2:] if not tok.isdigit())
    assert captured.err == (
        f"error: qpoly {argv[1]}: cannot parse operand {bad!r}: expected an integer, like 5\n"
    )


def test_qpoly_tn_methods_agree(capsys):
    assert run(["qpoly", "tn", "6", "--method", "enum"]) == 0
    enum_out = out_of(capsys).splitlines()[-1]
    assert run(["qpoly", "tn", "6"]) == 0
    series_out = out_of(capsys).splitlines()[-1]
    assert enum_out == series_out


def test_qpoly_fshape_skew(capsys):
    assert run(["qpoly", "fshape", "2,1"]) == 0
    assert out_of(capsys).splitlines()[-1] == "q + q^2"


def test_qpoly_fshape_labels_its_path(capsys):
    assert run(["qpoly", "fshape", "3,2/1"]) == 0
    assert out_of(capsys).splitlines() == ["method=determinant", "q + 2*q^2 + q^3 + q^4"]
    assert run(["qpoly", "fshape", "3,2/1", "--method", "enum"]) == 0
    assert out_of(capsys).splitlines() == ["method=enum", "q + 2*q^2 + q^3 + q^4"]
    assert run(["qpoly", "fshape", "3,2"]) == 0
    assert out_of(capsys).splitlines()[0] == "method=hook"
    assert run(["qpoly", "fshape", "3,2", "--method", "enum"]) == 0
    assert out_of(capsys).splitlines()[0] == "method=enum"
    # enum is the only --method: the closed form is the default, worked out from the shape
    with pytest.raises(SystemExit) as exc:
        run(["qpoly", "fshape", "3,2/1", "--method", "hook"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


def test_qpoly_tn_and_an_label_their_paths(capsys):
    # t_n has no hook sum left: its closed form is the series
    assert run(["qpoly", "tn", "3"]) == 0
    assert out_of(capsys).splitlines() == ["method=series", "1 + q + q^2 + q^3"]
    assert run(["qpoly", "tn", "3", "--json"]) == 0
    assert json.loads(out_of(capsys))["method"] == "series"
    assert run(["qpoly", "tn", "3", "--method", "enum"]) == 0
    assert out_of(capsys).splitlines()[0] == "method=enum"
    for extra, method in (([], "hook"), (["--method", "enum"], "enum")):
        assert run(["qpoly", "an", "3", *extra]) == 0
        assert out_of(capsys).splitlines()[0] == f"method={method}"


def test_jset_and_j2set(capsys):
    assert run(["jset", "312"]) == 0
    assert out_of(capsys) == "0,1,2"
    assert run(["j2set", "312", "312"]) == 0
    assert out_of(capsys) == "0,1,3"


def test_j2set_check(capsys):
    assert run(["j2set", "check", "0,1,3"]) == 0
    text = out_of(capsys)
    assert "j2-set: yes" in text
    # a set is read as every integer list is: commas, spaces or both
    for spaced in ("0 1 3", "0, 1 3"):
        assert run(["j2set", "check", spaced]) == 0
        assert out_of(capsys) == text
    assert run(["j2set", "check", "0,2"]) == 0
    assert "j2-set: no" in out_of(capsys)


@pytest.mark.parametrize("text", ["{0,1,3}", "0,,1", "a", "0,1,"])
def test_j2set_check_malformed_set_is_a_usage_error(text, capsys):
    assert run(["j2set", "check", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "0,1,3" in captured.err
    assert "invalid literal" not in captured.err


_LIMIT_TAIL = ["--q", "1/2", "--n", "4"]


@pytest.mark.parametrize(
    "argv, named",
    [
        # tableau JSON holds integers only: no booleans, floats or other types
        (["limit", "m3", "--tableau", '{"outer":[true,true],"rows":[[1],[2.0]]}', *_LIMIT_TAIL],
         "'outer'"),
        (["stat", "tab", '{"outer":[1],"rows":[[true]]}'], "'rows'"),
        (["stat", "tab", '{"outer":[1],"rows":[[1.0]]}'], "'rows'"),
        (["stat", "tab", '{"outer":[1],"rows":"1"}'], "'rows'"),
        (["stat", "tab", '{"outer":[1],"inner":null,"rows":[[1]]}'], "'inner'"),
        (["stat", "tab", '{"outer":[2,1],"inner":[true],"rows":[[null,1],[2]]}'], "'inner'"),
        (["stat", "tab", '{"outer":"x","rows":[[1]]}'], "'outer'"),
        (["stat", "tab", "null"], "'outer'"),
        # an empty entry between commas is refused, as j2set check refuses it
        (["stat", "perm", "2,,1"], "'2,,1'"),
        (["jset", ","], "','"),
        (["j2set", "21", "1,2,"], "'1,2,'"),
        (["qpoly", "fshape", "3,,1"], "'3,,1'"),
        (["limit", "qlim1", "--sigma", "1,,2", *_LIMIT_TAIL], "'1,,2'"),
        # a null stands only for an inner cell, at the head of its row
        (["stat", "tab", '{"outer":[2],"rows":[[1,null,2,null]]}'], "'rows'"),
        (["stat", "tab", '{"outer":[2,1],"inner":[1],"rows":[[1,null],[2]]}'], "'rows'"),
        # rows that do not fill the shape, or entries that are not 1..n
        (["stat", "tab", '{"outer":[2],"rows":[[1]]}'], "wrong length"),
        (["stat", "tab", '{"outer":[2],"rows":[[1,2],[3]]}'], "row count"),
        (["stat", "tab", '{"outer":[2],"rows":[[1,3]]}'], "not a permutation"),
        # a missing operand
        (["j2set", "check"], "needs a set operand"),
        (["j2set", "21"], "needs two permutation operands"),
        # a parameter outside the theorem's range
        (["limit", "xi", "--q", "3/2", "--n", "4"], "strictly between 0 and 1"),
        (["limit", "qlim1", "--sigma", "21", "--q", "1/2", "--n", "1"], "at least each pattern"),
    ],
)
def test_malformed_operands_are_usage_errors(argv, named, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


def test_j2_count_gf(capsys):
    assert run(["j2", "count", "--max", "15", "--method", "gf"]) == 0
    assert out_of(capsys) == "1,1,1,2,4,8,15,29,55,105,200,381,725,1381,2629,5005"


def test_j2_count_brute_matches_gf(capsys):
    assert run(["j2", "count", "--max", "6", "--method", "brute"]) == 0
    brute = out_of(capsys)
    assert run(["j2", "count", "--max", "6", "--method", "gf"]) == 0
    assert brute == out_of(capsys)


def test_verify_exit_code_and_json(capsys):
    assert run(["verify", "permcont1", "--max-size", "1", "--max-total", "4"]) == 0
    out_of(capsys)  # drain the text output
    assert run(
        ["verify", "permcont1", "--max-size", "1", "--max-total", "4", "--json"]
    ) == 0
    reports = json.loads(out_of(capsys))
    assert all(r["failures"] == [] for r in reports)
    assert {r["theorem"] for r in reports} == {"permcont1"}


def test_verify_failure_exits_one(monkeypatch, capsys):
    # a broken right-hand side must surface as FAIL lines and exit 1
    from qtab import containment

    zero_side = ((lambda width, stride: 0), -1)  # the zero polynomial as a packed side
    monkeypatch.setattr(containment, "_cut_side", lambda *args: zero_side)
    argv = ["verify", "permcont1", "--max-size", "1", "--max-total", "2"]
    assert run(argv) == 1
    lines = out_of(capsys).splitlines()
    assert any(line.endswith(" FAIL") for line in lines[:-1])
    total = dict(field.split("=") for field in lines[-1].split()[1:])
    assert lines[-1].startswith("total: ") and int(total["failures"]) > 0
    assert run([*argv, "--json"]) == 1
    failures = [f for r in json.loads(out_of(capsys)) for f in r["failures"]]
    assert failures
    for failure in failures:
        assert sorted(failure) == ["instance", "lhs", "rhs"]
        assert all(isinstance(text, str) for text in failure.values())


_NEGATIVE_PLANT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qtab import containment
from qtab.bivar import BivarPoly
weight_of = containment.m3_weight
def planted(alpha):
    return {
        j: dict((BivarPoly(w) - BivarPoly.monomial(0, 1)).sorted_terms())
        for j, w in weight_of(alpha).items()
    }
containment.m3_weight = planted
from qtab.cli import run
sys.exit(run(["verify", "majgen", "--max-size", "1", "--max-total", "1", "--json"]))
"""


def test_verify_failure_with_a_negative_coefficient_prints_it():
    # a weight planted minus q packs a side below zero; its failure must print
    # the planted polynomial, not loop on the sign (hence the child's time and
    # memory limits)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_PLANT],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1 and done.stderr == "", done.stderr[-500:]
    failures = [f for r in json.loads(done.stdout) for f in r["failures"]]
    assert [(f["instance"], f["lhs"], f["rhs"]) for f in failures] == [
        ("alpha= n=0", "1", "1 - q"),
        ("alpha= n=1", "1", "1 - q"),
        ("alpha=1 n=0", "1", "1 - q"),
        ("alpha=1 n=1", "2", "2 - 2*q"),
    ]


def test_verify_permtotab_failure_prints_both_polynomials(monkeypatch, capsys):
    # a weight off by one fails every check it is the right side of, and the
    # failure prints the tally and the planted weight as polynomials
    from qtab import containment
    from qtab.bivar import BivarPoly
    from qtab.tableau import Tableau

    m3_weight, m3_1_weight = containment.m3_weight, containment.m3_1_weight
    plus_one = lambda weight: {j: dict((BivarPoly(w) + 1).sorted_terms()) for j, w in weight.items()}
    monkeypatch.setattr(containment, "m3_weight", lambda *shapes: plus_one(m3_weight(*shapes)))
    monkeypatch.setattr(containment, "m3_1_weight", lambda *shapes: plus_one(m3_1_weight(*shapes)))
    argv = ["verify", "permtotab", "--max-size", "2"]
    assert run(argv) == 1
    *lines, total = out_of(capsys).splitlines()
    assert all(line.endswith(" FAIL") for line in lines)
    count = len(lines)
    assert total == f"total: reports={count} checked={count} failures={count}"
    assert run([*argv, "--json"]) == 1
    reports = json.loads(out_of(capsys))
    assert len(reports) == count
    for report in reports:
        params = report["range"]
        if report["theorem"] == "permtotab":
            weight = m3_weight(Tableau.from_rows(params["tableau"]).shape.outer)
        else:
            a_tab, b_tab = (Tableau.from_rows(params[key]) for key in ("tableau_a", "tableau_b"))
            weight = m3_1_weight(a_tab.shape.outer, b_tab.shape.outer)
        [failure] = report["failures"]
        right = BivarPoly(weight[params["j"]])
        assert (failure["lhs"], failure["rhs"]) == (str(right), str(right + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "permcont1", "--max-size", "-1"],
        ["verify", "majgen", "--max-size", "-2"],
        ["verify", "permcont2", "--max-size", "1", "--max-total", "-1"],
        ["j2", "count", "--max", "-1", "--method", "brute"],
        ["j2", "count", "--max", "-1", "--method", "gf"],
    ],
)
def test_negative_sizes_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


_SIZES = st.integers(-3, 4)


def _operand():
    """A permutation of a size in [-3, 4] (a bare number when negative), or
    an arbitrary comma list of such sizes."""
    perm = _SIZES.flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda w: "".join(map(str, w)))
        if n >= 0
        else st.just(str(n))
    )
    return perm | st.lists(_SIZES, max_size=4).map(lambda xs: ",".join(map(str, xs)))


_ORACLE_ARGV = st.one_of(
    st.tuples(
        st.just("verify"),
        st.sampled_from(["permcont1", "permcont2", "permtotab", "majgen", "majgen1"]),
        st.just("--max-size"),
        _SIZES.map(str),
    ).flatmap(
        lambda head: st.just(list(head))
        | _SIZES.map(lambda t: [*head, "--max-total", str(t)])
    ),
    st.tuples(_SIZES, st.sampled_from(["gf", "brute"])).map(
        lambda a: ["j2", "count", "--max", str(a[0]), "--method", a[1]]
    ),
    _operand().map(lambda w: ["jset", w]),
    st.tuples(st.just("check") | _operand(), _operand()).map(lambda a: ["j2set", *a]),
)


@settings(max_examples=60, deadline=None)
@given(_ORACLE_ARGV, st.booleans())
@example(["verify", "permtotab", "--max-size", "1", "--max-total", "3"], False)
def test_oracle_commands_keep_exit_code_contract(argv, as_json):
    argv = argv + ["--json"] if as_json else argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # grammar errors, e.g. "-1,2"
            code = exc.code
    assert code in (0, 1, 2), argv
    if any(tok[:1] == "-" and tok[1:2].isdigit() for tok in argv):
        assert code == 2, argv  # a negative size or letter is a usage error
    if argv[:2] == ["verify", "permtotab"] and "--max-total" in argv:
        assert code == 2, argv  # permtotab reads no --max-total
        assert err.getvalue().startswith("error: "), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert "Traceback" not in err.getvalue(), argv


# sha256 of the default stdout of the oracle commands, recorded before the
# one-sweep-per-total and decremental-walk kernels replaced the per-instance ones
ORACLE_STDOUT_SHA256 = {
    "verify permcont1 --max-size 3 --max-total 10":
        "dc053f364a80944df2315ea3831479277bc0798b3795fa0cd05d734f6cb6946f",
    "verify permcont2 --max-size 3 --max-total 7":
        "49c5b45324583a461d90b41e099dbf3381810173ecd5f5a616ee4b33fa916551",
    "verify permtotab --max-size 4":
        "988514567ec2355e8765857c36e34b8bfab6fe609c949366faef8ba64b8d2ae9",
    "verify majgen --max-size 5":
        "c645b37cd7b45694ac8593252816f741fbd789d25646e1514da0495c34faa037",
    "verify majgen1 --max-size 4":
        "3b525c7c2ce8167cca417ab5349909087df59fe4381f62b59605c72ae617bedf",
    "j2 count --max 8 --method brute":
        "f2abbadf521db305f6baac0c2581c715e8c5fbcbb552a1c0b96976fb8c15e60a",
}


@pytest.mark.parametrize("command", list(ORACLE_STDOUT_SHA256))
def test_oracle_stdout_is_pinned(command, capsys):
    assert run(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == ORACLE_STDOUT_SHA256[command]


# sha256 of the --json stdout of the oracle verify commands, recorded before
# the single and pair identities were put on one check path
ORACLE_JSON_SHA256 = {
    "verify permcont1 --max-size 3 --max-total 10":
        "93f8af9964cc2508fd3e57e21ca1c933b99ae4c7ccf815bbbe074291b1fef811",
    "verify permcont2 --max-size 3 --max-total 7":
        "bdb6686cbfb425d8a6436f0dc483acde8cb657d82992e63473c0c2184722589e",
    "verify permtotab --max-size 4":
        "7e57e4aaba035357713a3cf5fe267bc869b08778d186cdab5515d9e2f55d3c59",
    "verify majgen --max-size 5":
        "60af58654f3157a8c3f9bc628c01691e5e3eee0fc3298a5644efb37c65931dcb",
    "verify majgen1 --max-size 4":
        "fec14eee2c61d9cdef1b2b6e26c1416b0455f5f6867e9dbd3e6a35dd08c821be",
}


@pytest.mark.parametrize("command", list(ORACLE_JSON_SHA256))
def test_oracle_json_is_pinned(command, capsys):
    assert run([*command.split(), "--json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == ORACLE_JSON_SHA256[command]


def test_threads_flag_is_a_usage_error(capsys):
    for argv in (
        ["verify", "majgen", "--max-size", "2", "--max-total", "2", "--threads", "4"],
        ["limit", "tlim", "--q", "1/2", "--n", "8", "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_limit_tlim(capsys):
    assert run(["limit", "tlim", "--q", "1/2", "--n", "8"]) == 0
    text = out_of(capsys)
    assert "limit=0.5" in text and "n=8" in text


def test_limit_alim_opposite_sides_tends_to_zero(capsys):
    # with p and q on opposite sides of 1 the ratio sinks to 0, not to the
    # product (1 - 1/2)(1 - 1/2) that the same-side formula would give
    assert run(["limit", "alim", "--p", "1/2", "--q", "2", "--n", "12"]) == 0
    assert " limit=0 " in out_of(capsys)
    assert run(["limit", "alim", "--p", "2", "--q", "2", "--n", "12"]) == 0
    assert " limit=0.25 " in out_of(capsys)


def test_limit_csv_grid(capsys):
    assert run(["limit", "tlim", "--q", "1/2", "--n", "9", "--csv"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "n,value,limit,gap"
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("9,")


def test_limit_qlim1(capsys):
    assert run(["limit", "qlim1", "--sigma", "21", "--q", "1/2", "--n", "10"]) == 0
    assert "limit=0.433333333333" in out_of(capsys)


def test_limit_rejects_decimal(capsys):
    assert run(["limit", "tlim", "--q", "0.5", "--n", "8"]) == 2


def test_limit_missing_flag(capsys):
    assert run(["limit", "qlim1", "--q", "1/2", "--n", "8"]) == 2


def test_limit_xi(capsys):
    assert run(["limit", "xi", "--q", "1/2", "--n", "10"]) == 0
    assert "product tail bound" in out_of(capsys)


def test_limit_eq8(capsys):
    assert run(["limit", "eq8", "--n", "100", "--a", "1"]) == 0
    assert "stride ratio" in out_of(capsys)


def test_limit_json_carries_xi_tail_and_eq8_stride(capsys):
    # the values text mode prints on its trailing lines, as exact fractions
    from qtab.bounds import eq8_check
    from qtab.limits import xi_product_with_tail

    assert run(["limit", "xi", "--q", "1/2", "--n", "10", "--precision", "1/1000", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    _, tail = xi_product_with_tail(Fraction(1, 2), Fraction(1, 1000))
    assert Fraction(payload["tail_bound"]) == tail
    assert run(["limit", "eq8", "--n", "20", "--a", "2", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert Fraction(payload["stride_ratio"]) == eq8_check(2, 20).ratio_stride
    # the other kinds carry no extra fields
    assert run(["limit", "tlim", "--q", "1/2", "--n", "5", "--json"]) == 0
    assert sorted(json.loads(out_of(capsys))) == ["label", "limit", "rows"]


def test_limit_json_prints_exact_values_past_the_str_digit_cap(capsys):
    # the limit's numerator has about 37,000 digits, past CPython's default
    # 4,300-digit cap on int-to-str conversion
    from qtab.limits import xi_product_with_tail

    assert run(["limit", "xi", "--q", "2/3", "--n", "10", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    limit, _ = xi_product_with_tail(Fraction(2, 3), Fraction(1, 10**7))
    assert Fraction(payload["limit"]) == limit


def test_limit_digits_round_values_past_their_integer_digits(capsys):
    # the limit 20 (19.99...) and the gap 11.2 (14.9 at n = 1) to one digit
    argv = ["limit", "xi", "--q", "1/2", "--n", "3", "--digits", "1"]
    assert run(argv) == 0
    assert "n=3 value=6 limit=20 gap=10" in out_of(capsys).splitlines()
    assert run([*argv, "--csv"]) == 0
    assert out_of(capsys).splitlines()[1] == "1,2,20,10"


@pytest.mark.parametrize(
    "argv, digits, note, default",
    [
        (
            ["limit", "xi", "--q", "1/2", "--n", "6"],
            "5",
            "product tail bound: 0.0000000051752",
            "product tail bound: 0.00000000517524486779",
        ),
        (
            ["limit", "eq8", "--n", "8"],
            "4",
            "stride ratio at n=8: 0.6436",
            "stride ratio at n=8: 0.643639427127",
        ),
    ],
    ids=["xi", "eq8"],
)
def test_limit_notes_honour_digits(argv, digits, note, default, capsys):
    assert run([*argv, "--digits", digits]) == 0
    assert out_of(capsys).splitlines()[-1] == note
    assert run(argv) == 0  # 12 digits by default
    assert out_of(capsys).splitlines()[-1] == default


def test_limit_deterministic_output(capsys):
    argv = ["limit", "m2-1", "--sigma", "21", "--tau", "12", "--p", "1/3", "--q", "1/2", "--n", "8"]
    assert run(argv) == 0
    first = out_of(capsys)
    assert run(argv) == 0
    assert out_of(capsys) == first


def test_limit_pairs_on_opposite_sides_print_the_first_cut(capsys):
    # with p and q on opposite sides of 1 the pair limits keep only the cut
    # j = 0; the finite values are unchanged, so only limit and gap depend on it
    argv = ["limit", "m2-1", "--sigma", "21", "--tau", "312", "--p", "1/2", "--q", "3", "--n", "40"]
    assert run(argv) == 0
    assert out_of(capsys).splitlines()[1] == (
        "n=40 value=0.0713671951458 limit=0.0714285714286 gap=0.0000613762828177"
    )
    assert run([*argv, "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["limit"] == "1/14"
    (row,) = payload["rows"]
    assert Fraction(row["gap"]) == abs(Fraction(row["value"]) - Fraction(1, 14))
    tab_11 = json.dumps({"outer": [1, 1], "inner": [], "rows": [[1], [2]]})
    argv = ["limit", "m3-1", "--tableau", _TAB_21, "--tableau2", tab_11, "--p", "3", "--q", "1/2"]
    argv += ["--n", "40"]
    assert run(argv) == 0
    assert out_of(capsys).splitlines()[1] == (
        "n=40 value=0.214101958588 limit=0.214285714286 gap=0.000183755697582"
    )
    assert run([*argv, "--json"]) == 0
    assert json.loads(out_of(capsys))["limit"] == "3/14"


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_limit_stdout_matches_recorded_reference(capsys):
    # default stdout is a contract: every recorded limit command must print
    # exactly the text recorded in the benchmark's reference file
    recorded = [
        (json.loads(key), stdout)
        for key, stdout in json.loads(REFERENCE.read_text()).items()
    ]
    limit_runs = [(argv, stdout) for argv, stdout in recorded if argv[0] == "limit"]
    assert len(limit_runs) == 29
    for argv, stdout in limit_runs:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv


# sha256 of the --json stdout, which carries the exact limit and finite value,
# of the pattern limits on both sides of 1 and at 1, with p and q on opposite
# sides, and with patterns of unequal sizes; recorded before the kernel's
# denominator was read from the weight sums that verify checks
LIMIT_JSON_SHA256 = {
    'limit qlim1 --sigma 132 --q 1/2 --n 12':
        "418b8b3ddbd22f15067c08ec4225296c406f9a9ae247148a85a199e9db18dbff",
    'limit qlim1 --sigma 132 --q 3/2 --n 12':
        "32235f27f8382945cb118927563b73ac8fc83f444f45f4c082dee64f7617f2e7",
    'limit qlim1 --sigma 132 --q 1 --n 12':
        "efdcf588049f478a88c1d31b9798f2b835b5dd04ee5d916bd6a2de7a65dda541",
    'limit qlim1 --sigma 2413 --q 1/2 --n 12':
        "66fac942d9ec4b225a06b77bbdf47ad19b66bc0f21ec303aaa44029ef2c45892",
    'limit qlim1 --sigma 2413 --q 3/2 --n 12':
        "10539ac8505407e50a81ebf628d70174476802a393837e9314f0f9de594189df",
    'limit qlim1 --sigma 2413 --q 1 --n 12':
        "b7a7063c9dc428a605eb43d821ac8c86b393b76ba612ced8f1fa251f4363c1e2",
    'limit m3 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --q 1/2 --n 12':
        "37492a281801a96b177ab4f718448d1e14be54e5de8ae10276f45c16db4fd912",
    'limit m3 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --q 3/2 --n 12':
        "d3b8a3ae4d47b4df16fdd8f2dd876617cf44e90ec0ab6e9463de9399997d90c7",
    'limit m3 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --q 1 --n 12':
        "92ffe18a9062a08f2f54584196a8e323e963dc3e433e2e66a6e04c4386ba638c",
    'limit m3 --tableau {"outer":[2,2],"rows":[[1,3],[2,4]]} --q 1/2 --n 12':
        "331870274fda22c1706105b36d1c1a8ce7b18e5669e273520295d96af31b8eac",
    'limit m3 --tableau {"outer":[2,2],"rows":[[1,3],[2,4]]} --q 3/2 --n 12':
        "8d56b5102f549e827897b3980b444b7be389225918ca0fbf531fac33d15d44d0",
    'limit m3 --tableau {"outer":[2,2],"rows":[[1,3],[2,4]]} --q 1 --n 12':
        "622e5b425980decaba0fcc471353154753754819dd07dbf30d7c982ebb0ec13b",
    'limit m2-1 --sigma 132 --tau 213 --p 1/2 --q 2/3 --n 10':
        "66aae953a5dbdb99f794c639a17df7018772f1fbe0383deb2aa04b6139d5a8ea",
    'limit m2-1 --sigma 132 --tau 213 --p 3 --q 3/2 --n 10':
        "f30d7cd1bec6be02a15f64a7ceac499978d2e27b92f81cd899cb74d5c5d3537a",
    'limit m2-1 --sigma 132 --tau 213 --p 1/2 --q 3 --n 10':
        "9666d9d5d5a88c3d6bf8a1b05e0a202eed0b4dc39041bde6d4aab67d1103a007",
    'limit m2-1 --sigma 132 --tau 213 --p 1 --q 1 --n 10':
        "f6a99467abef293afcfe481461d387e4fd9ccf44a30554f84892537be5a410f9",
    'limit m2-1 --sigma 21 --tau 312 --p 1/2 --q 2/3 --n 10':
        "bd2630735ef7c431322a89495146b1dd34066405112843ef6e50370363f865b8",
    'limit m2-1 --sigma 21 --tau 312 --p 3 --q 3/2 --n 10':
        "b4cda175eeb580bb90c8263c274e72c7763272f639f6caba3237920ca7e16ade",
    'limit m2-1 --sigma 21 --tau 312 --p 1/2 --q 3 --n 10':
        "334a5b81eb7e42146f92bf28aef542f58d335162e3ff9fdb26062d821a7b3890",
    'limit m2-1 --sigma 21 --tau 312 --p 1 --q 1 --n 10':
        "f38cf82ad3add0c4eb6309b0dff55ec548e814ad0532e54635f9d9fa1c2d28e8",
    'limit m2-1 --sigma 2413 --tau 231 --p 1/2 --q 2/3 --n 10':
        "c2e262d0912227cec3cabdd568b6258ce2aa988c1d58d0d0d344a54ef7166f9c",
    'limit m2-1 --sigma 2413 --tau 231 --p 3 --q 3/2 --n 10':
        "5742b6d08c1faeefa164bd27602cdb69af2a3776e1d0f01dbfa62d7bc31ef2fc",
    'limit m2-1 --sigma 2413 --tau 231 --p 1/2 --q 3 --n 10':
        "d4dc2ce15eb26bd78f592f0602c91c9250653b09d755007283db1b5effa084eb",
    'limit m2-1 --sigma 2413 --tau 231 --p 1 --q 1 --n 10':
        "3e0479131a7d4bcf4c0e20644cd17df0bc36c8935ee4e3d3bfc3c76db005ccee",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[2,1],"rows":[[1,3],[2]]} --p 1/2 --q 2/3 --n 10':
        "01f9215d0287b1c17b16378944e07120c512f060b7517ee7d0380f6f348981a4",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[2,1],"rows":[[1,3],[2]]} --p 3 --q 3/2 --n 10':
        "2ac418c8d8c31f52bf917ab4401724d3a93ad9fff9996713199d0684b4785275",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[2,1],"rows":[[1,3],[2]]} --p 1/2 --q 3 --n 10':
        "45cf91e3862ece0f26244dd44e37bea5961459795ef7b6083e24c1f5f91d7679",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[2,1],"rows":[[1,3],[2]]} --p 1 --q 1 --n 10':
        "7a2a17eb33dbe4ad62f6b8c274f28ac1abeebc967f3d077829f983ed84d3c233",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[1,1],"rows":[[1],[2]]} --p 1/2 --q 2/3 --n 10':
        "ddc8755262027bbd54b5d9e3e03887be4022c9ae58d709c98ad1885341295ec8",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[1,1],"rows":[[1],[2]]} --p 3 --q 3/2 --n 10':
        "b322b5efbe32a71731692b845aa290c58d52ce383deda96b3282b416bdb09799",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[1,1],"rows":[[1],[2]]} --p 1/2 --q 3 --n 10':
        "0235c290ad7993a76de46bbd5f9cc1736a386489b1bb723b7a70b6d088556c47",
    'limit m3-1 --tableau {"outer":[2,1],"rows":[[1,2],[3]]} --tableau2 {"outer":[1,1],"rows":[[1],[2]]} --p 1 --q 1 --n 10':
        "886985f976d54952f18802a8bc39910c9d2b7701054df9a6c9f48661609cff0b",
    'limit m3-1 --tableau {"outer":[1,1],"rows":[[1],[2]]} --tableau2 {"outer":[2,2],"rows":[[1,3],[2,4]]} --p 1/2 --q 2/3 --n 10':
        "99dcf8ae939f86d06228f58e0a9b9650e22398518a33be6290879ac0c5dfc898",
    'limit m3-1 --tableau {"outer":[1,1],"rows":[[1],[2]]} --tableau2 {"outer":[2,2],"rows":[[1,3],[2,4]]} --p 3 --q 3/2 --n 10':
        "9321bf845dd956c38c98f24f5edbd5a62b9b1739b52b54bdde1f22139f5d0d3c",
    'limit m3-1 --tableau {"outer":[1,1],"rows":[[1],[2]]} --tableau2 {"outer":[2,2],"rows":[[1,3],[2,4]]} --p 1/2 --q 3 --n 10':
        "e9455e1854edd36b2f9fc6f396166775b69f80037e069619bb3970a607df7348",
    'limit m3-1 --tableau {"outer":[1,1],"rows":[[1],[2]]} --tableau2 {"outer":[2,2],"rows":[[1,3],[2,4]]} --p 1 --q 1 --n 10':
        "377d8d4aa0c522ac2884de22e453e20c32a97b6b306c41fdd38a36bf8f484a68",
}


@pytest.mark.parametrize("command", list(LIMIT_JSON_SHA256))
def test_limit_json_is_pinned(command, capsys):
    assert run([*command.split(), "--json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == LIMIT_JSON_SHA256[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "xi", "--q", "1/2", "--n", "5", "--precision", "0"],
        ["limit", "xi", "--q", "1/2", "--n", "5", "--precision=-1/2"],
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--digits", "0"],
    ],
)
def test_limit_bad_precision_or_digits_prints_nothing(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--precision", "0"],
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--precision", "1/100"],
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--json", "--digits", "0"],
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--json", "--digits", "5"],
        ["limit", "qlim1", "--sigma", "21", "--q", "1/2", "--n", "5", "--a", "2"],
        ["limit", "xi", "--q", "1/2", "--n", "5", "--a", "1"],
        ["limit", "eq8", "--n", "20", "--precision", "1/10"],
        ["limit", "qlim1", "--sigma", "21", "--tau", "12", "--q", "1/2", "--n", "5"],
        ["limit", "tlim", "--q", "1/2", "--p", "1/2", "--n", "5"],
        ["limit", "tlim", "--q", "1/2", "--n", "5", "--tableau", "x"],
        ["limit", "alim", "--p", "1/2", "--q", "1/2", "--n", "5", "--sigma", "12"],
        ["limit", "eq8", "--q", "1/2", "--n", "5"],
        ["limit", "m3", "--tableau", '{"outer":[1],"rows":[[1]]}', "--q", "1/2", "--n", "5"]
        + ["--sigma", "21"],
        ["limit", "m2-1", "--sigma", "21", "--tau", "12", "--p", "1/2", "--q", "1/2", "--n", "5"]
        + ["--tableau2", '{"outer":[1],"rows":[[1]]}'],
    ],
)
def test_limit_rejects_options_its_kind_ignores(argv, capsys):
    # --precision is read only by xi, --a only by eq8, --digits not under --json,
    # and each pattern or parameter option only by the kinds that list it
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: limit {argv[1]} does not read --")
    assert captured.err.split()[6] in argv  # the option named is one that was passed


def test_limit_options_apply_where_read(capsys):
    assert run(["limit", "xi", "--q", "1/2", "--n", "5", "--precision", "1/1000"]) == 0
    assert "product tail bound" in out_of(capsys)
    assert run(["limit", "eq8", "--n", "20", "--a", "2"]) == 0
    assert out_of(capsys).startswith("eq8 a=2")
    assert run(["limit", "eq8", "--n", "20"]) == 0
    assert out_of(capsys).startswith("eq8 a=1")
    csv_digits = ["--csv", "--json", "--digits", "3"]  # --csv output reads --digits
    assert run(["limit", "tlim", "--q", "1/2", "--n", "3", *csv_digits]) == 0
    assert out_of(capsys).splitlines()[-1] == "3,0.689,0.5,0.189"


_TAB_1 = json.dumps({"outer": [1], "inner": [], "rows": [[1]]})
_TAB_21 = json.dumps({"outer": [2, 1], "inner": [], "rows": [[1, 2], [3]]})
_TAB_SKEW = json.dumps({"outer": [2, 1], "inner": [1], "rows": [[None, 1], [2]]})
_RATIONALS = st.sampled_from(["1/2", "2", "1", "0"])
_LIMIT_OPTIONS = {
    "--q": _RATIONALS,
    "--p": _RATIONALS,
    "--n": st.integers(-2, 6).map(str),
    "--sigma": st.sampled_from(["1", "21", "312"]),
    "--tau": st.sampled_from(["1", "12", "231"]),
    "--tableau": st.sampled_from([_TAB_1, _TAB_21, _TAB_SKEW]),
    "--tableau2": st.sampled_from([_TAB_1, _TAB_21, _TAB_SKEW]),
    "--a": st.integers(-1, 3).map(str),
    "--digits": st.integers(-1, 3).map(str),
    "--precision": st.sampled_from(["1/10", "1/1000", "0"]),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["qlim1", "m2-1", "m3", "m3-1", "tlim", "alim", "xi", "eq8"]),
    st.fixed_dictionaries(_LIMIT_OPTIONS),
    st.sets(st.sampled_from(list(_LIMIT_OPTIONS)), max_size=3),
    st.sampled_from([[], ["--csv"], ["--json"]]),
)
def test_limit_commands_keep_exit_code_contract(which, options, dropped, output):
    kept = [tok for name, value in options.items() if name not in dropped for tok in (name, value)]
    argv = ["limit", which, *kept, *output]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # grammar errors, e.g. no --n
            code = exc.code
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "m3", "--tableau", _TAB_SKEW, "--q", "1/2", "--n", "6"],
        ["limit", "m3-1", "--tableau", _TAB_21, "--tableau2", _TAB_SKEW]
        + ["--p", "1/2", "--q", "1/2", "--n", "6"],
        ["probe", "conjecture", "--tableaux", _TAB_1, _TAB_SKEW, "--n", "6"],
    ],
)
def test_skew_patterns_are_usage_errors(argv, capsys):
    # a skew pattern has no containment ratio here; its outer shape used to stand in
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _shape_text():
    """A shape argument: a part list in [-1, 4], optionally over another,
    so straight, skew and malformed shapes (zero or negative parts,
    increasing parts, inner not inside outer) all occur."""
    parts = st.lists(st.integers(-1, 4), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    return parts | st.tuples(parts, parts).map("/".join) | st.sampled_from(["x", "2/1/1"])


_QPOLY_SIZES = st.integers(-3, 8).map(str)
_QPOLY_ARITY = {"factorial": 1, "binomial": 2, "tn": 1, "an": 1, "fshape": 1}
_QPOLY_ARGV = st.one_of(
    _QPOLY_SIZES.map(lambda n: ["qpoly", "factorial", n]),
    st.tuples(_QPOLY_SIZES, _QPOLY_SIZES).map(lambda a: ["qpoly", "binomial", *a]),
    st.tuples(st.sampled_from(["tn", "an"]), _QPOLY_SIZES).map(lambda a: ["qpoly", *a]),
    _shape_text().map(lambda shape: ["qpoly", "fshape", shape]),
    # any operand count, mostly the wrong one
    st.tuples(
        st.sampled_from(list(_QPOLY_ARITY)),
        st.lists(st.sampled_from(["2", "3", "2,1"]), max_size=3),
    ).map(lambda a: ["qpoly", a[0], *a[1]]),
).flatmap(
    lambda argv: st.sampled_from([[], ["--method", "hook"], ["--method", "enum"]]).map(
        lambda method: argv + method
    )
)
_PROBE_ARGV = st.tuples(
    st.lists(st.sampled_from([_TAB_1, _TAB_21, _TAB_SKEW, "not-json"]), min_size=1, max_size=3),
    _QPOLY_SIZES,
).map(lambda a: ["probe", "conjecture", "--tableaux", *a[0], "--n", a[1]])


@settings(max_examples=100, deadline=None)
@given(_QPOLY_ARGV | _PROBE_ARGV, st.booleans())
@example(["qpoly", "factorial", "4", "--method", "enum"], False)
@example(["qpoly", "binomial", "4", "2", "--method", "enum"], True)
@example(["qpoly", "tn", "3", "--method", "hook"], False)
def test_qpoly_and_probe_keep_exit_code_contract(argv, as_json):
    argv = argv + ["--json"] if as_json else argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # grammar errors
            code = exc.code
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv
    if any(tok[:1] == "-" and tok[1:2].isdigit() for tok in argv[2:4]):
        assert code == 2, argv  # a negative size is a usage error
    if argv[0] == "qpoly":
        operands = list(itertools.takewhile(lambda tok: not tok.startswith("--"), argv[2:]))
        if len(operands) != _QPOLY_ARITY[argv[1]]:
            assert code == 2, argv  # a wrong operand count is a usage error
        if "hook" in argv:
            assert code == 2, argv  # enum is the only --method
        if "--method" in argv and argv[1] in ("factorial", "binomial"):
            assert code == 2, argv  # they have one path, so they read no --method
            assert out.getvalue() == "" and "error: " in err.getvalue(), argv


_WORDS = st.one_of(
    st.integers(0, 5).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda w: "".join(map(str, w)))
    ),
    st.lists(st.integers(-2, 6), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["112", "0", "x1", "1 2", "-1", "2,,1", "1,"]),
)
_TABLEAUX = st.sampled_from(
    [
        _TAB_1,
        _TAB_21,
        _TAB_SKEW,
        json.dumps({"outer": [2, 1], "inner": [], "rows": [[1, 3], [2]]}),
        json.dumps({"outer": [2], "inner": [], "rows": [[2, 1]]}),  # not standard
        json.dumps({"outer": [2], "inner": [], "rows": [[1]]}),  # too few cells
        json.dumps({"outer": [1, 2], "rows": [[1], [2, 3]]}),  # not a partition
        json.dumps({"outer": 3, "rows": [[1]]}),
        json.dumps({"outer": [1], "rows": [["a"]]}),
        json.dumps({"outer": [True], "rows": [[1.0]]}),
        "null",
        json.dumps({"rows": [[1]]}),
        "[]",
        "7",
        "not-json",
    ]
)
_STAT_RS_ARGV = st.one_of(
    _WORDS.map(lambda w: ["stat", "perm", w]),
    _TABLEAUX.map(lambda t: ["stat", "tab", t]),
    st.lists(_WORDS, min_size=1, max_size=2).map(lambda ws: ["rs", *ws]),
    st.lists(_TABLEAUX, min_size=1, max_size=3).map(lambda ts: ["rs", "--inverse", *ts]),
)


@settings(max_examples=100, deadline=None)
@given(_STAT_RS_ARGV, st.booleans())
def test_stat_and_rs_keep_exit_code_contract(argv, as_json):
    argv = argv + ["--json"] if as_json else argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # grammar errors, e.g. "-1"
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv


def test_probe_conjecture(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"outer": [1], "inner": [], "rows": [[1]]}))
    assert run(
        ["probe", "conjecture", "--tableaux", f"@{path}", f"@{path}", "--n", "5"]
    ) == 0
    assert out_of(capsys).startswith("ratio = 1")


def test_enum_cap(monkeypatch, capsys):
    monkeypatch.setenv("QTAB_MAX_N", "4")
    assert run(["qpoly", "tn", "9", "--method", "enum"]) == 2
    assert run(["qpoly", "tn", "4", "--method", "enum"]) == 0
    assert run(["qpoly", "fshape", "3,2/1", "--method", "enum"]) == 0
    assert run(["qpoly", "fshape", "3,2", "--method", "enum"]) == 2
    assert run(["qpoly", "fshape", "3,2"]) == 0  # the hook path enumerates nothing
    monkeypatch.setenv("QTAB_MAX_N", "")
    assert run(["qpoly", "tn", "6", "--method", "enum"]) == 0


@pytest.mark.parametrize("which", ["majgen", "majgen1"])
def test_enum_cap_covers_skew_fillings(which, monkeypatch, capsys):
    # majgen enumerates the skew fillings of every size up to --max-total
    monkeypatch.setenv("QTAB_MAX_N", "3")
    assert run(["verify", which, "--max-size", "1", "--max-total", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert run(["verify", which, "--max-size", "1", "--max-total", "3"]) == 0


def _python_m(module, argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("module", ["qtab", "qtab.cli"])
@pytest.mark.parametrize(
    "argv", [["stat", "perm", "21"], ["verify", "permcont1", "--max-size", "1", "--max-total", "2"]]
)
def test_python_m_runs_the_command(module, argv, capsys):
    done = _python_m(module, argv)
    assert run(argv) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")


@pytest.mark.parametrize("module", ["qtab", "qtab.cli"])
def test_python_m_usage_error_exits_two(module):
    # `python -m qtab.cli` runs the module as `__main__`; the handlers raise
    # `qtab.cli`'s UsageError, which must still print one error line
    done = _python_m(module, ["limit", "tlim", "--q", "1/2", "--n", "3", "--precision", "1"])
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        run(["stat"])
    assert exc.value.code == 2


def test_stat_tab_bad_json(capsys):
    assert run(["stat", "tab", "not-json"]) == 2


def test_rs_inverse_shape_mismatch(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    q_path = tmp_path / "Q.json"
    p_path.write_text(json.dumps({"outer": [2, 1], "inner": [], "rows": [[1, 2], [3]]}))
    q_path.write_text(json.dumps({"outer": [3], "inner": [], "rows": [[1, 2, 3]]}))
    assert run(["rs", "--inverse", f"@{p_path}", f"@{q_path}"]) == 2


def test_probe_requires_tableaux(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as exc:
        run(["probe", "conjecture", "--n", "5"])
    assert exc.value.code == 2


def test_tableau_bare_file_path(tmp_path, capsys):
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"outer": [2, 1], "inner": [], "rows": [[1, 2], [3]]}))
    assert run(["stat", "tab", str(path)]) == 0
    assert out_of(capsys) == "D={2} maj=2"
    assert run(["probe", "conjecture", "--tableaux", str(path), "--n", "5"]) == 0
    assert out_of(capsys).startswith("ratio =")


# -- the grammar table against the argparse parser it replaced ----------------------


def _reference_parser():
    """The argparse parser qtab built before the grammar table, kept as the reference."""
    import argparse

    from qtab.cli import _LIMIT_KINDS, _parse_rational

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


def _outcome(parse, argv):
    """What a parser makes of argv: ("ok", namespace dict), ("exit", code) or
    ("usage", message) for a UsageError its converters raise; and its stdout
    and stderr."""
    from qtab.cli import UsageError

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("ok", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except UsageError as exc:
            result = ("usage", str(exc))
    return result, out.getvalue(), err.getvalue()


def _assert_parsed_as_reference(argv):
    from qtab.cli import _parse_args

    expected, _, _ = _outcome(_reference_parser().parse_args, argv)
    got, out, err = _outcome(_parse_args, argv)
    assert got == expected, argv
    if got[0] == "exit" and got[1] == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# every command, every option, the = form, options before and between
# operands, repeated options and each nargs
VALID_ARGV = [
    ["stat", "perm", "21"],
    ["stat", "--json", "tab", '{"outer":[1],"rows":[[1]]}'],
    ["stat", "perm", "--json", "-1"],
    ["rs", "53214"],
    ["rs", "--inverse", "@P.json", "@Q.json", "--json"],
    ["rs", "--json", "1", "2", "3", "--json"],
    ["qpoly", "factorial", "5"],
    ["qpoly", "binomial", "4", "2", "--method", "enum", "--json"],
    ["qpoly", "--method=enum", "tn", "3"],
    ["qpoly", "an", "--json", "5"],
    ["qpoly", "fshape", "3,2/1", "--method", "enum", "--method", "enum"],
    ["jset", "312"],
    ["jset", "--json", "-1"],
    ["j2set", "312", "312"],
    ["j2set", "check"],
    ["j2set", "--json", "check", "0,1,3"],
    ["j2", "count", "--max", "5"],
    ["j2", "--method", "brute", "count", "--max=3", "--max", "4"],
    ["j2", "count", "--max", "-1", "--method=gf", "--json"],
    ["verify", "permcont1", "--max-size", "2"],
    ["verify", "--max-total=7", "majgen", "--max-size", "1", "--json"],
    ["verify", "permtotab", "--max-size", "3", "--max-size", "-2", "--max-total", "1"],
    ["limit", "tlim", "--q", "1/2", "--n", "40"],
    ["limit", "--n=8", "qlim1", "--sigma", "21", "--q", "2/3", "--q", "1/2"],
    ["limit", "m2-1", "--sigma", "21", "--tau", "12", "--p", "-1", "--q", "3", "--n", "30"],
    ["limit", "m3-1", "--tableau", "@A.json", "--tableau2=@B.json", "--p", "1/2", "--q=1/2"]
    + ["--n", "5"],
    ["limit", "xi", "--q", "1/2", "--n", "5", "--precision=-1/2", "--digits", "3", "--csv"],
    ["limit", "eq8", "--a", "2", "--n", "20", "--json", "--digits", "-1"],
    ["probe", "conjecture", "--tableaux", "@A.json", "@B.json", "--n", "5"],
    ["probe", "--n", "3", "--tableaux=@A.json", "conjecture"],
    ["probe", "--tableaux", "a", "--n", "2", "--tableaux", "b", "c", "--json", "conjecture"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_grammar_reads_valid_argv_as_the_reference(argv):
    from qtab.cli import _parse_args

    expected = vars(_reference_parser().parse_args(argv))
    assert vars(_parse_args(argv)) == expected


def test_valid_corpus_covers_every_command_and_option():
    from qtab.cli import _GRAMMAR

    for command, (_, _, options, _) in _GRAMMAR.items():
        used = {tok.partition("=")[0] for argv in VALID_ARGV if argv[0] == command for tok in argv}
        assert {*options, "--json"} <= used, command
    assert sum(tok.startswith("--") and "=" in tok for argv in VALID_ARGV for tok in argv) >= 5


# argv the reference rejects with its own usage error; abbreviations are not
# here, since the grammar refuses what the reference accepts
REJECTED_ARGV = [
    [],
    ["nosuch"],
    ["--json", "stat", "perm", "1"],
    ["stat"],
    ["stat", "perm"],
    ["stat", "cat", "21"],
    ["stat", "perm", "21", "12"],
    ["stat", "perm", "21", "--json=yes"],
    ["rs"],
    ["rs", "21", "--json", "12"],
    ["rs", "--inverse=1", "a"],
    ["qpoly", "binomial", "4", "--json", "2"],
    ["qpoly", "tn", "3", "--method", "hook"],
    ["qpoly", "tn", "3", "--method"],
    ["qpoly", "factorial"],
    ["jset", "-1,2"],
    ["jset", "--bogus", "21"],
    ["jset", "-x", "21"],
    ["j2set", "21", "--json", "12"],
    ["j2set", "a", "b", "c"],
    ["j2", "count"],
    ["j2", "count", "--max", "x"],
    ["j2", "count", "--max", "-1,2"],
    ["j2", "count", "--max=", "--json"],
    ["j2", "count", "--max", "3", "--method", "fast"],
    ["j2", "sum", "--max", "3"],
    ["verify", "permcont1"],
    ["verify", "permcont1", "--max-size", "-1,2"],
    ["verify", "permcont1", "--max-size", "1.5"],
    ["verify", "majgen", "--max-size", "1", "--max-total"],
    ["limit", "tlim", "--q", "1/2"],
    ["limit", "tlim", "--n", "3", "--threads", "2"],
    ["limit", "nosuch", "--n", "3"],
    ["limit", "tlim", "--n", "3", "--q", "-1/2"],
    ["limit", "tlim", "--n", "3", "--csv=1"],
    ["probe", "conjecture", "--n", "5"],
    ["probe", "conjecture", "--tableaux", "--n", "5"],
    ["probe", "conjecture", "--tableaux=a", "b", "--n", "5"],
    ["probe", "--tableaux", "a", "conjecture", "--n", "5"],
]


@pytest.mark.parametrize("argv", REJECTED_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_grammar_rejects_what_the_reference_rejects(argv):
    expected, _, _ = _outcome(_reference_parser().parse_args, argv)
    assert expected == ("exit", 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            run(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    _ORACLE_ARGV
    | _QPOLY_ARGV
    | _PROBE_ARGV
    | _STAT_RS_ARGV
    | st.fixed_dictionaries(_LIMIT_OPTIONS).map(
        lambda options: ["limit", "m3-1", *(tok for item in options.items() for tok in item)]
    ),
    st.booleans(),
)
def test_existing_strategies_parse_as_the_reference(argv, as_json):
    _assert_parsed_as_reference(argv + ["--json"] if as_json else argv)


def _grammar_argv():
    """A command and up to 8 tokens: its own options (alone or with =value),
    two unknown options, -h, and operands, among them negative numbers,
    spaced words and dash words."""
    from qtab.cli import _GRAMMAR

    values = st.sampled_from(
        ["1", "21", "-1", "-1,2", "1/2", "0.5", "-1/2", "x", "", "a b", "-a b", "-.5", "-1.",
         "-", "perm", "tab", "count", "gf", "brute", "enum", "hook", "conjecture", "factorial",
         "binomial", "tlim", "qlim1", "permcont1", "check", "0,1,3"]
    )

    def tokens(command):
        names = st.sampled_from([*_GRAMMAR[command][2], "--json", "--bogus", "-x"])
        option = names | st.tuples(names, values).map("=".join)
        return st.lists(option | values | st.sampled_from(["-h", "--help"]), max_size=8)

    return st.sampled_from(list(_GRAMMAR)).flatmap(
        lambda command: tokens(command).map(lambda rest: [command, *rest])
    )


@settings(max_examples=400, deadline=None)
@given(_grammar_argv())
def test_grammar_parses_random_argv_as_the_reference(argv):
    # same namespace, the same UsageError, or the same exit code
    _assert_parsed_as_reference(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["j2", "count", "--ma", "3"],
        ["limit", "xi", "--q", "1/2", "--n", "5", "--prec", "1/10"],
        ["probe", "conjecture", "--tableau", "a", "--n", "2"],
    ],
)
def test_abbreviated_options_are_refused(argv, capsys):
    # the reference (argparse's allow_abbrev) read these as --max, --precision, --tableaux
    assert _outcome(_reference_parser().parse_args, argv)[0][0] != "exit"
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_double_dash_is_an_unknown_option(capsys):
    # argparse read "--" as the end of the options; no qtab operand needs it,
    # since a negative number is an operand anyway
    with pytest.raises(SystemExit) as exc:
        run(["stat", "perm", "--", "21"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


# -- help and the command itself ----------------------------------------------------


def test_help_names_every_command(capsys):
    from qtab.cli import _GRAMMAR

    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            run([flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: qtab ") and captured.err == ""
        listed = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")]
        assert listed == list(_GRAMMAR)


@pytest.mark.parametrize(
    "command", ["stat", "rs", "qpoly", "jset", "j2set", "j2", "verify", "limit", "probe"]
)
def test_command_help_names_every_argument(command, capsys):
    from qtab.cli import _GRAMMAR

    # -h wins wherever it stands, as long as nothing before it fails
    for argv in ([command, "-h"], [command, "--json", "--help", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: qtab {command} ") and captured.err == ""
        named = {line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")}
        _, operands, options, _ = _GRAMMAR[command]
        assert named == {name.upper() for name, _, _ in operands} | {*options, "--json"}


def test_limit_help_names_every_limit_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["limit", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in ("--q", "--p", "--n", "--sigma", "--tau", "--tableau", "--tableau2", "--a",
                   "--precision", "--csv", "--digits", "--json"):
        assert f"\n  {option} " in out
    for kind in ("qlim1", "m2-1", "m3", "m3-1", "tlim", "alim", "xi", "eq8"):
        assert kind in out


@pytest.mark.parametrize("argv", [[], ["nosuch"]], ids=["no command", "unknown command"])
def test_missing_or_unknown_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "limit" in captured.err  # the commands are listed
