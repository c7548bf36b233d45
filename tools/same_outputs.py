"""Check that two source trees give the same CLI outputs, byte for byte.

Usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository; its ``src/`` is put on
PYTHONPATH.  The commands are the matrix of ``BENCH_one_drop.json``
(``outputs_identical.commands``).  Each one runs in a fresh temporary
directory that holds ``rules/thue-morse.json``, ``rules/period-doubling.json``,
``rules/three-letter.json`` and ``rules/det-fib.json``, the rules of
``tests/conftest.py``, for the ``--rule-file`` commands.  A trailing
``[NAME=VALUE]`` sets that environment variable for the command; otherwise
RAUZYLAB_OUT is unset.  The exit code, stdout, stderr and every file left in
the directory are compared.  One line is printed per command that differs,
then a summary; the exit status is 1 if any command differs.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

MATRIX = Path(__file__).resolve().parent.parent / "BENCH_one_drop.json"

#: the rules of tests/conftest.py, in the format of ``--rule-file``
RULES = {
    "thue-morse": {"alphabet": ["a", "b"], "rules": {"a": [["a", "b"]], "b": [["b", "a"]]}},
    "period-doubling": {"alphabet": ["a", "b"], "rules": {"a": [["a", "b"]], "b": [["a", "a"]]}},
    "three-letter": {
        "alphabet": ["a", "b", "c"],
        "rules": {"a": [["a", "b", "c"], ["c", "b", "a"]], "b": [["a", "c"]], "c": [["b"]]},
    },
    "det-fib": {"alphabet": ["a", "b"], "rules": {"a": [["a", "b"]], "b": [["a"]]}},
}

MAIN = "import sys; from rauzylab.cli import main; sys.exit(main(sys.argv[1:]))"


def parse(command: str) -> tuple[list[str], dict[str, str]]:
    """The CLI arguments of one matrix entry and the environment it sets."""
    env = {}
    if command.endswith("]"):
        command, _, setting = command[:-1].rpartition(" [")
        name, _, value = setting.partition("=")
        env[name] = value
    return shlex.split(command), env


def run(tree: Path, argv: list[str], extra_env: dict[str, str]) -> tuple:
    """(exit code, stdout, stderr, {path: bytes} of every file left) of one command in a fresh directory."""
    env = {k: v for k, v in os.environ.items() if k != "RAUZYLAB_OUT"}
    env["PYTHONPATH"] = str(tree / "src")
    env.update(extra_env)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "rules").mkdir()
        for name, spec in RULES.items():
            (work / "rules" / f"{name}.json").write_text(json.dumps(spec))
        done = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=work, env=env, capture_output=True)
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def main(args: list[str]) -> int:
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    commands = json.loads(MATRIX.read_text())["outputs_identical"]["commands"]
    differing = 0
    for command in commands:
        argv, env = parse(command)
        old, new = run(parent, argv, env), run(change, argv, env)
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr", "files"), old, new) if a != b]
        if parts:
            differing += 1
            print(f"DIFFERS ({', '.join(parts)}): {command}")
    print(f"{len(commands) - differing} of {len(commands)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
