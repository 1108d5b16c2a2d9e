"""Run one qtab command in a fresh process from the checkout's source tree.

    python3 bench/launch.py [--trace FILE] -- <qtab arguments...>

``qtab`` is not assumed to be installed, and ``python -m qtab.cli`` does not
run the CLI, so this imports ``qtab.cli`` from ``src/`` and calls its
``main``.  With ``--trace FILE`` every layer is wrapped by the boundary tracer
first and the aggregated spans are written to FILE when ``main`` returns.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not (SRC / "qtab" / "cli.py").is_file():
        print(f"launch: no qtab sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer(STARTED)
        tracer.install()
    import qtab.cli

    sys.argv = ["qtab", *argv]
    try:
        qtab.cli.main()
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
