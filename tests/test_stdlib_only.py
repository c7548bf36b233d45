"""The package needs nothing beyond the standard library.

Each check runs in a fresh interpreter, so the numpy that the test
environment may have installed is never already imported.
"""

import json
import os
import subprocess
import sys

import rauzylab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rauzylab.__file__)))

_SCRIPT = r"""
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, sys.argv[1])
from rauzylab import RationalMatrix
from rauzylab.cli import main

runs = {}
for argv in (["verify", "--max-n", "6"], ["cohomology", "--max-n", "5"], ["sample", "--k", "8", "--seed", "1"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    runs[argv[0]] = [code, out.getvalue()]
m = RationalMatrix([[1, 2], [2, 4]])
runs["rank"] = m.rank()
runs["product"] = [list(row) for row in (m @ m).entries]
print(json.dumps(runs))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300)


def test_import_loads_no_numpy():
    script = "import sys; sys.path.insert(0, sys.argv[1]); import rauzylab, rauzylab.cli; print('numpy' in sys.modules)"
    proc = _run("-c", script, SRC)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_with_numpy_blocked():
    runs = {}
    for mode in ("blocked", "open"):
        proc = _run("-c", _SCRIPT, SRC, mode)
        assert proc.returncode == 0, f"{mode}:\n{proc.stderr}"
        runs[mode] = json.loads(proc.stdout)
    blocked = runs["blocked"]
    assert blocked["verify"][0] == 0 and blocked["verify"][1].endswith("OK: 0 failing check(s) out of 57\n")
    assert blocked["cohomology"][0] == 0
    assert blocked["verify"] == runs["open"]["verify"]
    assert blocked["cohomology"] == runs["open"]["cohomology"]
    code, word = blocked["sample"]
    assert code == 0 and len(word.strip()) == 34 and set(word.strip()) == {"a", "b"}
    assert blocked["rank"] == 1
    assert blocked["product"] == [[5, 10], [10, 20]]
