"""qtab benchmark: seeded workloads of real qtab command lines.

    python3 bench/run.py --workload convergence --seed 1 --seconds 30 --trace 0

Closed loop, one client: the runner starts one fresh qtab process at a time
(``bench/launch.py``, which runs ``qtab.cli.main`` from ``src/``) and waits
for it.  A pass runs the workload's command list once; the first pass's
wall time sets how many passes fill ``--seconds`` (at least one; no pass is
started that would end after ``RUN_DEADLINE_S``).
Every output is checked (see ``workloads.check``).

With ``--trace 0`` the metrics are end to end: wall and CPU time of a pass
(median over passes), the largest per-invocation peak RSS of a pass, and the
set-up time, the median over fresh processes that do no work
(``qtab stat perm 1``).

Times are scaled to a reference machine speed.  On a shared 2-vCPU host the
same code can run up to half again slower for tens of seconds at a time,
which no number of repeats inside a 30-second run averages out.  So the
runner times a fixed pure-Python kernel (exact rational arithmetic, tuples
and dicts, as qtab does; no qtab code) before the first command and after
every command, and scales each invocation's times by ``CAL_REF_S`` over the
mean of the two kernel times around it.  The unscaled times are printed to
stderr next to the scaled ones.

With ``--trace 1`` one untraced pass is followed by one pass under the
boundary tracer (``bench/tracer.py``), and the metrics are per layer.  The
last line of stdout is one JSON object; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS, STARTUP, TRACE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"

SETUP_ARGV = ("stat", "perm", "1")
SETUP_STDOUT = "D={} maj=0 imaj=0\n"
SETUP_REPEATS = 9
# one invocation, and the whole run: no pass starts that would end after the
# run deadline at the slowest pace seen so far, so only a command far slower
# than its earlier passes (or hung) is killed, and the run still ends in time
TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
# the calibration kernel's time at the reference speed (a quiet 2-vCPU Intel
# Xeon host, CPython 3.11); scaled times are seconds at that speed
CAL_REF_S = 0.2
CAL_ROUNDS = 16000


def calibration_kernel() -> Fraction:
    """Fixed work shaped like qtab's: big rationals, small tuples, a dict."""
    q = Fraction(2, 3)
    total = Fraction(0)
    seen: dict[tuple[int, ...], int] = {}
    for h in range(1, CAL_ROUNDS):
        parts = tuple(range(h % 9, 0, -1))
        total += q ** (h % 40) / (1 + q ** (h % 7))
        seen[parts] = seen.get(parts, 0) + len(parts)
    return total


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


@dataclass
class Invocation:
    """One finished qtab process, with its own resource usage from wait4."""

    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    trace: dict | None = None
    error: str | None = None
    # reference speed over the speed measured around this invocation
    scale: float = 1.0


@dataclass
class Pass:
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def scaled_wall_s(self) -> float:
        return sum(inv.wall_s * inv.scale for inv in self.invocations)

    @property
    def scaled_cpu_s(self) -> float:
        return sum(inv.cpu_s * inv.scale for inv in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.peak_rss_mb for inv in self.invocations)


def child_env() -> dict[str, str]:
    """The runner's environment without qtab settings: qtab gets only argv."""
    return {key: value for key, value in os.environ.items() if not key.startswith("QTAB_")}


def invoke(
    argv: tuple[str, ...], workdir: Path, traced: bool = False, timeout: float = TIMEOUT_S
) -> Invocation:
    """Run one qtab command in a fresh process and wait for it (killed after timeout)."""
    trace_path = workdir / "trace.json"
    command = [sys.executable, str(LAUNCH)]
    if traced:
        command += ["--trace", str(trace_path)]
    command += ["--", *argv]
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        fired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env()
        )

        def kill() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # the child's own rusage; RUSAGE_CHILDREN would keep a high-water
            # mark over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    trace = None
    if traced and trace_path.is_file():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    return Invocation(
        argv=tuple(argv),
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        timed_out=fired.is_set(),
        trace=trace,
    )


def failure(inv: Invocation, command: workloads.Command | None, reference: dict[str, str]) -> str | None:
    """Why an invocation failed, or None when it succeeded."""
    if inv.timed_out:
        return "timed out"
    if "Traceback (most recent call last)" in inv.stderr:
        return "traceback on stderr"
    if inv.returncode != 0:
        return f"exit code {inv.returncode}"
    if not inv.stdout.strip():
        return "empty stdout"
    if command is None:
        return None if inv.stdout == SETUP_STDOUT else "wrong set-up output"
    return workloads.check(command, inv.stdout, reference)


def run_pass(
    commands: list[workloads.Command],
    workdir: Path,
    reference: dict[str, str],
    deadline: float,
    traced: bool = False,
) -> Pass:
    result = Pass()
    before = calibrate()
    for command in commands:
        timeout = min(TIMEOUT_S, deadline - time.perf_counter())
        inv = invoke(command.argv, workdir, traced, max(timeout, 0.0))
        after = calibrate()
        inv.scale = CAL_REF_S / ((before + after) / 2)
        before = after
        inv.error = failure(inv, command, reference)
        if traced and inv.trace is None and not inv.error:
            inv.error = "no trace written"
        result.invocations.append(inv)
    return result


# -- per-layer metrics ------------------------------------------------------------------


def layer_self_times(trace: dict) -> dict[str, float]:
    """Self time per layer, pseudo-layers included; sums to the traced wall."""
    times = {layer: 0.0 for layer in (*LAYERS, STARTUP, TRACE)}
    for span in trace["spans"]:
        times[span["callee"]] = times.get(span["callee"], 0.0) + span["self_s"]
    times[STARTUP] += trace["startup_self_s"]
    times[TRACE] += trace["trace_self_s"]
    return times


def per_layer_metrics(untraced: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    traces = [inv.trace for inv in traced.invocations if inv.trace is not None]
    self_s = {layer: 0.0 for layer in (*LAYERS, STARTUP)}
    calls = {layer: 0 for layer in LAYERS}
    yields: dict[tuple[str, str], int] = {}
    format_decimal_s = 0.0
    cuts_tested = 0
    counters: dict[str, int] = {}
    repeats = {"stats": 0, "tableau": 0}
    keyed = {"stats": 0, "tableau": 0}
    for trace in traces:
        for layer, seconds in layer_self_times(trace).items():
            if layer in self_s:
                self_s[layer] += seconds
        for span in trace["spans"]:
            if span["callee"] in calls:
                calls[span["callee"]] += span["calls"]
            key = (span["callee"], span["function"])
            yields[key] = yields.get(key, 0) + span["yields"]
            if key == ("polynomial", "format_decimal"):
                format_decimal_s += span["total_s"]
            if span["caller"] == "jsets" and key == ("permutation", "Permutation.prefix"):
                # j_set and j2_set take one prefix per cut they test
                cuts_tested += span["calls"]
        for name, value in trace["counters"].items():
            old = counters.get(name, 0)
            counters[name] = max(old, value) if name.endswith("_max") else old + value
        for layer in repeats:
            repeats[layer] += trace["repeats"].get(layer, 0)
            keyed[layer] += trace["keyed"].get(layer, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics[f"{STARTUP}.self_s"] = (self_s[STARTUP], "s")
    metrics["stats.partitions_summed"] = (counters.get("stats.partitions_summed", 0), "count")
    metrics["stats.result_bits_max"] = (counters.get("stats.result_bits_max", 0), "bits")
    metrics["stats.repeat_ratio"] = (ratio(repeats["stats"], keyed["stats"]), "ratio")
    metrics["tableau.partitions_yielded"] = (yields.get(("tableau", "partitions"), 0), "count")
    metrics["tableau.syt_yielded"] = (yields.get(("tableau", "enumerate_syt"), 0), "count")
    metrics["tableau.repeat_ratio"] = (ratio(repeats["tableau"], keyed["tableau"]), "ratio")
    metrics["polynomial.terms_max"] = (counters.get("polynomial.terms_max", 0), "count")
    metrics["polynomial.format_decimal_s"] = (format_decimal_s, "s")
    metrics["permutation.perms_yielded"] = (
        yields.get(("permutation", "permutations"), 0) + yields.get(("permutation", "involutions"), 0),
        "count",
    )
    metrics["jsets.hit_ratio"] = (
        ratio(counters.get("jsets.cuts_kept", 0), cuts_tested),
        "ratio",
    )
    metrics["containment.checked"] = (counters.get("containment.checked", 0), "count")
    metrics["containment.failures"] = (counters.get("containment.failures", 0), "count")
    metrics["limits.result_bits_max"] = (counters.get("limits.result_bits_max", 0), "bits")
    metrics["trace.overhead_ratio"] = (ratio(traced.scaled_wall_s, untraced.scaled_wall_s), "ratio")
    return metrics


# -- reporting ----------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def source_commit() -> str:
    """The commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtab" / "cli.py").is_file():
        print(f"bench: no qtab sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    reference = workloads.load_reference()
    commands = workloads.generate(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        before = calibrate()
        setup = [invoke(SETUP_ARGV, workdir) for _ in range(SETUP_REPEATS)]
        setup_scale = CAL_REF_S / ((before + calibrate()) / 2)
        for inv in setup:
            inv.error = failure(inv, None, reference)
            inv.scale = setup_scale
        started = time.perf_counter()
        passes = [run_pass(commands, workdir, reference, deadline)]
        slowest = time.perf_counter() - started
        if args.trace:
            passes.append(run_pass(commands, workdir, reference, deadline, traced=True))
        else:
            # as many passes as fill --seconds at the first pass's pace
            planned = max(1, round(args.seconds / slowest))
            while len(passes) < planned and time.perf_counter() + slowest < deadline:
                started = time.perf_counter()
                passes.append(run_pass(commands, workdir, reference, deadline))
                slowest = max(slowest, time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    invocations = setup + [inv for p in passes for inv in p.invocations]
    failed = [inv for inv in invocations if inv.error]
    log = sys.stderr
    print(
        f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} commit={source_commit()}",
        file=log,
    )
    for command in commands:
        print("  qtab " + " ".join(command.argv), file=log)
    for inv in failed:
        print(f"  FAILED qtab {' '.join(inv.argv)}: {inv.error}", file=log)
    print(
        f"  error_rate={len(failed) / len(invocations):.4f} ({len(failed)}/{len(invocations)} invocations)",
        file=log,
    )

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = per_layer_metrics(passes[0], passes[1])
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value} {unit}", file=log)
        gaps = [
            abs(sum(layer_self_times(inv.trace).values()) - inv.wall_s)
            for inv in passes[1].invocations
            if inv.trace is not None
        ]
        print(f"  largest |sum of layer self times - wall| of a command: {max(gaps, default=0.0):.4f} s", file=log)
    else:
        samples = {
            "wall_s": ([p.scaled_wall_s for p in passes], "s"),
            "cpu_s": ([p.scaled_cpu_s for p in passes], "s"),
            "peak_rss_mb": ([p.peak_rss_mb for p in passes], "MB"),
            "setup_s": ([inv.wall_s * inv.scale for inv in setup], "s"),
        }
        raw = {
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "setup_s": [inv.wall_s for inv in setup],
        }
        for name, (values, unit) in samples.items():
            metrics[name] = (statistics.median(values), unit)
            q1, median, q3 = quartiles(values)
            line = f"  {name}: median={median:.4f} q1={q1:.4f} q3={q3:.4f} n={len(values)} {unit}"
            if name in raw:
                q1, median, q3 = quartiles(raw[name])
                line += f" (unscaled: median={median:.4f} q1={q1:.4f} q3={q3:.4f})"
            print(line, file=log)
        print(f"  speed scale (reference/measured): {statistics.median(inv.scale for inv in invocations):.4f}", file=log)
    result = {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
