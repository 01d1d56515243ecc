"""Traced stand-in for ``python -m tbmc``.

    python bench/cli_entry.py SPANS_JSON ARGS...

Runs ``tbmc.cli.main(ARGS)`` with the benchmark's wrappers installed and
exits with its code, so stdout and the exit status are those of
``python -m tbmc ARGS``.  The import time of ``tbmc.cli``, the span totals
and the spans themselves go to SPANS_JSON.
"""

import sys
from time import perf_counter_ns

_start = perf_counter_ns()
import tbmc.cli  # noqa: E402  (timed: this import is the program's set-up)

_import_ns = perf_counter_ns() - _start

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    code = 1
    try:
        code = tracer.wrap("cli.main", tbmc.cli.main)(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(out, {"import_ns": _import_ns, **tracer.snapshot()})
    return code


if __name__ == "__main__":
    sys.exit(main())
