"""Traced CLI process: `python3 benchmarks/cli_child.py <vermakit args>`.

Times the import of vermakit.cli, installs the layer tracer, runs
`vermakit.cli.main` with stdout captured, and prints one JSON line with the
captured stdout, the exit code, both times and the span totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

t0 = perf_counter()
import vermakit.cli  # noqa: E402

import_s = perf_counter() - t0

import tracer as tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    buf = io.StringIO()
    t1 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = vermakit.cli.main(sys.argv[1:])
    main_s = perf_counter() - t1
    tracer.uninstall()
    print(json.dumps({"exit": code, "stdout": buf.getvalue(), "import_s": import_s,
                      "main_s": main_s, "trace": tracer.raw()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
