"""Record the stdout of every command whose check compares against a reference.

    python3 bench/record_reference.py

Writes ``bench/reference.json``.  Default CLI stdout must stay byte-identical
across changes unless a change fixes a wrong number, so the file is recorded
once and re-recorded only by a change that says which numbers it fixed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, invoke


def main() -> int:
    commands = {
        command.key: command
        for name in workloads.WORKLOADS
        for command in workloads.pool(name)
        if command.check == "reference"
    }
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    recorded = {}
    try:
        for key, command in sorted(commands.items()):
            inv = invoke(command.argv, workdir)
            # an empty reference would turn every check into a stdout match
            if inv.timed_out or inv.returncode or not inv.stdout.strip() or "Traceback" in inv.stderr:
                print(f"record: qtab {' '.join(command.argv)} failed", file=sys.stderr)
                return 1
            recorded[key] = inv.stdout
            print(f"{inv.wall_s:7.2f} s  qtab {' '.join(command.argv)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
