"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

import run
import workloads

# Per traced command, the layer self times (startup and tracer bookkeeping
# included) must add up to the wall time the runner measured, up to the
# interpreter start and exit the launcher cannot see.
SELF_TIME_TOLERANCE = (0.10, 0.25)  # share of wall, plus seconds


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _invocation(stdout: str, returncode: int = 0, stderr: str = "") -> run.Invocation:
    return run.Invocation(
        argv=("x",),
        returncode=returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=0.1,
        cpu_s=0.1,
        peak_rss_mb=10.0,
        timed_out=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("limit", "m2-1", "--sigma", "21", "--tau", "21", "--p", "1/2", "--q", "1/2", "--n", "12", "--csv"),
        ("verify", "permcont2", "--max-size", "2", "--max-total", "5"),
        ("qpoly", "fshape", "4,3,2/2"),
        ("probe", "conjecture", "--tableaux", '{"outer":[2],"inner":[],"rows":[[1,2]]}', "--n", "8"),
    ],
)
def test_self_times_sum_to_traced_wall(argv, workdir):
    inv = run.invoke(argv, workdir, traced=True)
    assert inv.returncode == 0 and inv.trace is not None
    times = run.layer_self_times(inv.trace)
    assert min(times.values()) > -1e-6
    share, seconds = SELF_TIME_TOLERANCE
    assert abs(sum(times.values()) - inv.wall_s) <= share * inv.wall_s + seconds


def test_traced_and_untraced_stdout_agree(workdir):
    argv = ("qpoly", "tn", "9")
    assert run.invoke(argv, workdir, traced=True).stdout == run.invoke(argv, workdir).stdout


def test_planted_wrong_digit_fails():
    reference = workloads.load_reference()
    command = next(c for c in workloads.pool("convergence") if c.key in reference)
    stdout = reference[command.key]
    assert run.failure(_invocation(stdout), command, reference) is None
    position = next(i for i in range(len(stdout) - 1, -1, -1) if stdout[i].isdigit())
    digit = "1" if stdout[position] != "1" else "2"
    planted = stdout[:position] + digit + stdout[position + 1 :]
    assert run.failure(_invocation(planted), command, reference)


def test_planted_wrong_count_fails():
    verify = workloads.Command(("verify", "x"), "verify", 12)
    assert run.failure(_invocation("a\ntotal: reports=3 checked=12 failures=0\n"), verify, {}) is None
    assert run.failure(_invocation("a\ntotal: reports=3 checked=0 failures=0\n"), verify, {})
    assert run.failure(_invocation("a\ntotal: reports=3 checked=12 failures=1\n"), verify, {})
    qpoly = workloads.Command(("qpoly", "factorial", "3"), "qpoly", 6)
    assert run.failure(_invocation("1 + 2*q + 2*q^2 + q^3\n"), qpoly, {}) is None
    assert run.failure(_invocation("1 + 2*q + 3*q^2 + q^3\n"), qpoly, {})


def test_empty_stdout_with_exit_zero_fails():
    command = workloads.generate("oracle", 0)[0]
    assert run.failure(_invocation(""), command, {}) == "empty stdout"
    assert run.failure(_invocation("\n"), None, {}) == "empty stdout"


def test_traceback_and_exit_code_fail():
    assert run.failure(_invocation(run.SETUP_STDOUT), None, {}) is None
    assert run.failure(_invocation(run.SETUP_STDOUT, returncode=1), None, {})
    stderr = "Traceback (most recent call last):\n  ...\nRecursionError\n"
    assert run.failure(_invocation(run.SETUP_STDOUT, stderr=stderr), None, {})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    first = [c.argv for c in workloads.generate(name, 7)]
    assert first == [c.argv for c in workloads.generate(name, 7)]
    pool = {c.argv for c in workloads.pool(name)}
    assert set(first) <= pool


def test_seeds_vary_inputs():
    lists = {tuple(c.argv for c in workloads.generate("convergence", seed)) for seed in range(5)}
    assert len(lists) > 1
    assert len({tuple(c.argv for c in workloads.generate("oracle", seed)) for seed in range(5)}) == 1


def test_every_pool_command_has_a_reference():
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for command in workloads.pool(name):
            if command.check == "reference":
                assert reference.get(command.key, "").strip(), command.argv


def test_expected_counts():
    assert workloads.poly_value_at_one("1 + 2*q + 2*q^2 + q^3") == 6
    assert workloads.poly_value_at_one("-p^2*q + 3 - q") == 1
    assert workloads.skew_syt_count((2, 1), ()) == 2
    assert workloads.skew_syt_count((3, 3), (1,)) == 5
    assert [workloads.involution_count(n) for n in range(6)] == [1, 1, 2, 4, 10, 26]


def test_missing_sources_exit_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
