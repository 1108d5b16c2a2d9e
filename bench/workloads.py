"""Seeded workloads of qtab command lines, and the checks on their outputs.

Every workload is a fixed list of slots.  A slot holds alternative commands
that cost about the same amount of work (q against 1/q, a pattern against
another with the same j-set size, a skew shape against its 180-degree
rotation).  The seed picks one alternative per slot and the order
of the commands, so different seeds give different inputs while a pass over
the list stays the same size.  ``pool`` lists every command any seed can
produce; ``reference.json`` holds their recorded stdout where a check needs it.

Closed loop, one client: the runner starts one qtab process at a time.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# j2-set counts by largest element, as README lists them.
J2_SERIES = (1, 1, 1, 2, 4, 8, 15, 29, 55, 105)


@dataclass(frozen=True)
class Command:
    """One qtab invocation and how to check its output.

    ``check`` names the rule in :func:`check`; ``expect`` is its expected
    value (a ``checked=`` total, a count at q=1, or a limit), or None.
    """

    argv: tuple[str, ...]
    check: str
    expect: object = None

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))


# -- helpers -------------------------------------------------------------------------


def _tableau(rows) -> str:
    shape = [len(row) for row in rows]
    return json.dumps({"outer": shape, "inner": [], "rows": rows}, separators=(",", ":"))


# standard fillings used as patterns, by shape
SYT_1 = ([[1]],)
SYT_2 = ([[1, 2]], [[1], [2]])  # the two shapes of size 2 are conjugate
SYT_21 = ([[1, 2], [3]], [[1, 3], [2]])


def _sides(low: Fraction) -> tuple[Fraction, Fraction]:
    """A parameter below 1 and its reciprocal: same cost, other side of 1."""
    return low, 1 / low


def _skew_variants(outer: tuple[int, ...], inner: tuple[int, ...]) -> list[str]:
    """A skew shape and its 180-degree rotation in the bounding box.

    Both have the same number of standard fillings and of rows, so the same
    enumeration cost.  (The conjugate has as many fillings but more rows,
    which costs more.)
    """
    rows, width = len(outer), outer[0]
    inner = inner + (0,) * (rows - len(inner))
    rot_outer = tuple(width - inner[rows - 1 - i] for i in range(rows))
    rot_inner = tuple(width - outer[rows - 1 - i] for i in range(rows))
    return [
        ",".join(map(str, out)) + ("/" + ",".join(map(str, inn)) if inn else "")
        for out, inn in ((outer, tuple(p for p in inner if p)), (rot_outer, tuple(p for p in rot_inner if p)))
    ]


def _parse_shape(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    outer, _, inner = text.partition("/")
    return (
        tuple(int(x) for x in outer.split(",")),
        tuple(int(x) for x in inner.split(",")) if inner else (),
    )


@lru_cache(maxsize=None)
def skew_syt_count(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """Standard fillings of outer/inner: ways to remove corners down to inner."""
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for r, part in enumerate(outer):
        below = outer[r + 1] if r + 1 < len(outer) else 0
        floor = inner[r] if r < len(inner) else 0
        if part > below and part > floor:
            smaller = tuple(p for p in outer[:r] + (part - 1,) + outer[r + 1 :] if p)
            total += skew_syt_count(smaller, inner)
    return total


def involution_count(n: int) -> int:
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else 1


# -- slots ---------------------------------------------------------------------------

# groups of alternative commands for one position of a pass
Slot = list[list[Command]]


def _limit(which: str, params: dict, n: int, csv: bool, expect=None) -> Command:
    argv = ["limit", which]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    argv += ["--n", str(n)] + (["--csv"] if csv else [])
    return Command(tuple(argv), "reference", expect)


def _convergence_slots() -> list[Slot]:
    """The seven limit theorems at the acceptance sizes, three as --csv grids.

    One-parameter theorems run at n=40, two-parameter ones at n=30.  qlim1
    and m3 both sum over the partitions of 34 to 37 eight times, so a pass
    holds one of them (the seed picks which) and two passes fit in a run.
    tlim, in every pass, sums over the partitions of 40 and 41 and so sets
    the peak RSS of a pass.  Heights are mixed (2, 3 and 2x3 across the
    slots) and each slot picks a side of 1; the two parameters of a pair stay
    on one side, where the printed limit is the product of the one-parameter
    limits.
    """
    heavy = [
        # size-3 patterns whose j-set has four elements, so the same number of terms
        [
            _limit("qlim1", {"sigma": sigma, "q": q}, 40, False)
            for sigma in ("123", "132", "213", "321")
            for q in _sides(Fraction(1, 2))
        ],
        [
            _limit("m3", {"tableau": _tableau(rows), "q": q}, 40, False)
            for rows in SYT_21
            for q in _sides(Fraction(1, 2))
        ],
    ]
    return [
        [[_limit("tlim", {"q": q}, 40, False, 1 - min(q, 1 / q)) for q in _sides(Fraction(2, 3))]],
        heavy,
        [[_limit("xi", {"q": Fraction(1, 3)}, 40, False)]],
        [
            [
                _limit("alim", {"p": p, "q": q}, 30, True, (1 - min(p, 1 / p)) * (1 - min(q, 1 / q)))
                for p, q in zip(_sides(Fraction(1, 2)), _sides(Fraction(2, 3)))
            ]
        ],
        [
            [
                _limit("m2-1", {"sigma": sigma, "tau": sigma, "p": p, "q": q}, 30, True)
                for sigma in ("12", "21")
                for p, q in zip(_sides(Fraction(1, 3)), _sides(Fraction(1, 2)))
            ]
        ],
        [
            [
                _limit("m3-1", {"tableau": _tableau(a), "tableau2": _tableau(b), "p": p, "q": q}, 30, True)
                for a in SYT_21
                for b in SYT_21
                for p, q in zip(_sides(Fraction(1, 2)), _sides(Fraction(1, 2)))
            ]
        ],
    ]


def _oracle_slots() -> list[Slot]:
    """Brute-force identity sweeps at fixed sizes; expect = recorded checked= total."""
    sweeps = [
        (("verify", "permcont1", "--max-size", "3", "--max-total", "10"), 212),
        (("verify", "permcont2", "--max-size", "3", "--max-total", "7"), 1136),
        (("verify", "permtotab", "--max-size", "4"), 1204),
        (("verify", "majgen", "--max-size", "5"), 228),
        (("verify", "majgen1", "--max-size", "4"), 1336),
    ]
    slots = [[[Command(argv, "verify", checked)]] for argv, checked in sweeps]
    slots.append([[Command(("j2", "count", "--max", "8", "--method", "brute"), "j2", J2_SERIES[:9])]])
    return slots


def _qpoly(which: str, args: tuple, expect: int) -> Command:
    return Command(("qpoly", which, *map(str, args)), "qpoly", expect)


def _probe(patterns: tuple, n: int) -> Command:
    return Command(
        ("probe", "conjecture", "--tableaux", *(_tableau(rows) for rows in patterns), "--n", str(n)),
        "reference",
    )


def _poly_skew_slots() -> list[Slot]:
    """Polynomial kernel and tableau enumeration: hook-path polynomials, skew
    shapes of size 11-12 and tuple containment probes."""
    slots = [
        [[_qpoly("tn", (20,), involution_count(20))]],
        [[_qpoly("an", (16,), math.factorial(16))]],
        [[_qpoly("binomial", (40, k), math.comb(40, k)) for k in (15, 25)]],
        [[_qpoly("factorial", (40,), math.factorial(40))]],
    ]
    for outer, inner in (((5, 4, 3, 2), (2, 1)), ((6, 5, 3), (2,))):
        slots.append(
            [
                [
                    _qpoly("fshape", (text,), skew_syt_count(*_parse_shape(text)))
                    for text in _skew_variants(outer, inner)
                ]
            ]
        )
    # patterns of distinct sizes, so the probe always enumerates the same skew shapes
    slots.append([[_probe((two, three), 12) for two in SYT_2 for three in SYT_21]])
    slots.append([[_probe((SYT_1[0], two, three), 11) for two in SYT_2 for three in SYT_21]])
    return slots


WORKLOADS = {
    "convergence": _convergence_slots,
    "oracle": _oracle_slots,
    "poly_skew": _poly_skew_slots,
}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of one pass, in seeded order.

    Each slot is a list of groups of alternatives; the seed picks a group,
    then a command in it.  The oracle workload has one alternative per slot
    and a fixed order, so it ignores the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    commands = [rng.choice(rng.choice(groups)) for groups in WORKLOADS[workload]()]
    if workload != "oracle":
        rng.shuffle(commands)
    return commands


def pool(workload: str) -> list[Command]:
    """Every command any seed can generate for the workload."""
    return [command for groups in WORKLOADS[workload]() for group in groups for command in group]


# -- checks --------------------------------------------------------------------------


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def poly_value_at_one(text: str) -> int:
    """Value of a printed polynomial at p = q = 1, i.e. its coefficient sum."""
    total, sign = 0, 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        head = token.split("*")[0]
        total += sign * (int(head) if head.isdigit() else 1)
        sign = 1
    return total


_LIMIT_FIELD = re.compile(r"\blimit=(\S+)")


def _printed_limits(stdout: str) -> list[Fraction]:
    found = [Fraction(match) for match in _LIMIT_FIELD.findall(stdout)]
    lines = stdout.splitlines()
    if lines and lines[0] == "n,value,limit,gap":
        found += [Fraction(line.split(",")[2]) for line in lines[1:] if line]
    return found


def check(command: Command, stdout: str, reference: dict[str, str]) -> str | None:
    """Why the stdout of a successful (rc 0) invocation is wrong, or None."""
    if command.check == "reference":
        expected = reference.get(command.key)
        if expected is None:
            return "no reference output recorded for this command"
        if stdout != expected:
            return "stdout differs from the recorded reference"
        if command.expect is not None:
            limit = Fraction(command.expect)
            printed = _printed_limits(stdout)
            # 12 significant digits: within half a unit in the last place
            if not printed or any(abs(value - limit) > limit * Fraction(1, 10**11) for value in printed):
                return f"printed limit is not {limit}"
        return None
    if command.check == "verify":
        lines = stdout.strip().splitlines()
        match = re.fullmatch(r"total: reports=\d+ checked=(\d+) failures=(\d+)", lines[-1] if lines else "")
        if match is None:
            return "no verify total line"
        if int(match.group(2)) != 0:
            return f"{match.group(2)} identity failures"
        if int(match.group(1)) != command.expect:
            return f"checked={match.group(1)}, expected {command.expect}"
        return None
    if command.check == "j2":
        expected = ",".join(map(str, command.expect))
        return None if stdout.strip() == expected else f"j2 counts are not {expected}"
    if command.check == "qpoly":
        lines = stdout.strip().splitlines()
        value = poly_value_at_one(lines[-1]) if lines else None
        return None if value == command.expect else f"value at q=1 is {value}, expected {command.expect}"
    raise ValueError(f"unknown check {command.check!r}")
