"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/child.py SRC_DIR [TRACE ARG...]

Imports ``rauzylab`` from SRC_DIR and, when CLI arguments follow, calls
``rauzylab.cli.main(ARGS)`` with stdout captured; TRACE is 1 to record
per-layer spans.  The last line of stdout is one JSON object: the moment
the import finished (CLOCK_MONOTONIC, comparable with the parent's clock),
and for a CLI call its exit code, captured stdout, wall seconds and spans.
"""

import sys
import time

src = sys.argv[1]
sys.path.insert(0, src)

import rauzylab  # noqa: E402  (timed: the import is what set-up measures)

imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

if os.path.dirname(os.path.abspath(rauzylab.__file__)) != os.path.join(os.path.abspath(src), "rauzylab"):
    sys.exit(f"imported {rauzylab.__file__}, not the package under {src}")

result = {"imported": imported}
if len(sys.argv) > 2:
    from rauzylab import cli

    argv = sys.argv[3:]
    call, rec = cli.main, None
    if sys.argv[2] == "1":
        import spans

        rec = spans.install()

        def call(argv):
            return rec.span(spans.ROOT, "cli.main", cli.main, (argv,), {})

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        run_s = time.perf_counter() - start
    result.update(code=code, stdout=captured.getvalue(), run_s=run_s)
    if rec is not None:
        result["spans"] = rec.metrics()
        result["functions"] = {name: [rec.calls[name], rec.total[name]] for name in sorted(rec.calls)}
print(json.dumps(result))
