"""The benchmark's tracer still finds every per-layer metric in the package.

``perfbench/spans.py`` wraps package functions by name and leaves out the
metrics of a name it cannot find, so deleting a wrapped name silently
shrinks a traced benchmark run.  This runs one traced sample the way the
benchmark does and checks that no declared metric is missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: computed by perfbench/run.py from paired samples, not by the tracer
NOT_TRACED = {"trace_overhead_s"}


def test_traced_sample_records_every_per_layer_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAUZYLAB_OUT")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"), "1",
         "verify", "--rule", "fib", "--max-n", "3"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert declared - NOT_TRACED <= set(result["spans"]), sorted(declared - NOT_TRACED - set(result["spans"]))
