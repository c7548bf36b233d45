"""Record how deep ``rauzylab verify`` certifies the random Fibonacci tower on this host.

Usage: python3 tools/deep_record.py

Runs ``verify --rule fib --max-n N`` for N = 20, 21, ..., each in a fresh
interpreter that imports ``rauzylab`` from this checkout's ``src/``.  For
each N it records the exit code, the stdout sha256 and last line, the wall
seconds around the child and its peak RSS (``ru_maxrss`` from
``os.wait4``).  Before each N past the first two it projects the wall time
and the peak RSS from the last two runs (each grows by the ratio of the
last two), and it stops before an N whose projected wall time passes 60 s
or whose projected peak RSS passes 6 GB; it also stops after a run that
itself passes either limit or fails.  At the deepest N that passed within
both limits, one more fresh child prints the ``complexity`` and
``cohomology`` JSON rows, which go into ``DEEP.json`` at the repository
root beside the runs.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
START = 20
WALL_LIMIT_S = 60.0
RSS_LIMIT_MB = 6 * 1024.0

VERIFY = "import sys; from rauzylab.cli import main; sys.exit(main(sys.argv[1:]))"
#: prints the complexity rows, then the cohomology rows, of one --max-n as one JSON line
ROWS = """
import contextlib, io, json, sys
from rauzylab.cli import main
rows = {}
for command in ("complexity", "cohomology"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--rule", "fib", "--max-n", sys.argv[1], "--format", "json"]) == 0
    rows[command] = json.loads(out.getvalue())["rows"]
print(json.dumps(rows))
"""


def child(script: str, *args: str) -> tuple[int, bytes, float, float]:
    """(exit code, stdout, wall seconds, peak RSS in MB) of one fresh interpreter running ``script``."""
    env = {k: v for k, v in os.environ.items() if k != "RAUZYLAB_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", script, *args], stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # so that Popen does not wait for it again
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def projected(runs: list[dict], key: str) -> float | None:
    """The next run's ``key``, grown from the last run by the ratio of the last two; None before two runs."""
    if len(runs) < 2:
        return None
    return runs[-1][key] * runs[-1][key] / runs[-2][key]


def main() -> int:
    runs: list[dict] = []
    stopped = None
    n = START
    while True:
        wall, rss = projected(runs, "wall_s"), projected(runs, "peak_rss_mb")
        if wall is not None and (wall > WALL_LIMIT_S or rss > RSS_LIMIT_MB):
            stopped = {"n": n, "reason": f"projected {wall:.1f} s and {rss:.0f} MB, past {WALL_LIMIT_S:.0f} s or 6 GB"}
            break
        code, out, wall, rss = child(VERIFY, "verify", "--rule", "fib", "--max-n", str(n))
        lines = out.decode().splitlines()
        runs.append({
            "n": n,
            "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "last_line": lines[-1] if lines else "",
            "wall_s": round(wall, 2),
            "peak_rss_mb": round(rss, 1),
        })
        print(json.dumps(runs[-1]), file=sys.stderr)
        if code != 0 or wall > WALL_LIMIT_S or rss > RSS_LIMIT_MB:
            stopped = {"n": n + 1, "reason": f"--max-n {n} exited {code} in {wall:.1f} s at {rss:.0f} MB"}
            break
        n += 1
    within = [run for run in runs if run["wall_s"] <= WALL_LIMIT_S and run["peak_rss_mb"] <= RSS_LIMIT_MB]
    passed = [run for run in within if run["exit"] == 0]
    record = {
        "command": "verify --rule fib --max-n N, each N in a fresh interpreter",
        "host": f"{os.cpu_count()} cores, Python {platform.python_version()}",
        "limits": {"wall_s": WALL_LIMIT_S, "peak_rss_mb": RSS_LIMIT_MB},
        "runs": runs,
        "stopped_before": stopped,
        "deepest": passed[-1]["n"] if passed else None,
    }
    if passed:
        code, out, _, _ = child(ROWS, str(record["deepest"]))
        if code != 0:
            raise SystemExit(f"the rows child exited {code}")
        record.update(json.loads(out))
    (ROOT / "DEEP.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"deepest N = {record['deepest']}; wrote DEEP.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
