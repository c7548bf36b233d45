"""End-to-end benchmark of the rauzylab CLI, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-fib --seed 1 --seconds 30 --trace 0

Every sample starts a fresh interpreter (perfbench/child.py), because the
package's module-level caches would turn a second call in one process into
cache hits.  The child imports ``rauzylab`` from ``src/`` and calls
``rauzylab.cli.main(argv)`` with stdout captured; this parent checks its exit
code and output digests against perfbench/golden.json.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
as medians over its samples.  With ``--trace 1`` it alternates traced and
untraced samples and reports the per-layer metrics.  The seed becomes the
children's PYTHONHASHSEED, so set iteration order, and nothing else, varies
between seeds; the golden check shows that the output does not depend on it.
Human-readable figures go to stderr; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"

#: CLI arguments of each workload; why each was chosen is in perfbench/README.md
WORKLOADS = {
    "verify-fib": ["verify", "--rule", "fib", "--max-n", "10"],
    "census-fib": ["complexity", "--rule", "fib", "--max-n", "12"],
    "report-noble": ["report", "--rule", "noble:2", "--max-n", "10", "--out", "report"],
}
#: directory, relative to the child's working directory, that a workload writes
OUTPUT_DIR = {"report-noble": "report"}
#: required last line of stdout, beyond the golden digest
LAST_LINE = {"verify-fib": "OK: 0 failing check(s) out of 97"}

#: environment variables that change what the child imports, how the CLI behaves or how fast it starts
STRIPPED_ENV = ("RAUZYLAB_OUT", "RAUZYLAB_KERNELS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")

SETUP_SHARE = 0.2  # share of an untraced run spent on import-only interpreters, spread between CLI samples
MIN_SAMPLES = 3  # timed CLI samples per run, even past --seconds
MIN_TRACED = 2  # traced samples per traced run, so repeated counts can be compared
CHILD_TIMEOUT = 120.0  # keeps a run with one hung child under three minutes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    """What the figures depend on besides the code: never compare across these."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


class Sampler:
    """Spawns child interpreters for one workload in a private work directory."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.cwd = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def __enter__(self) -> "Sampler":
        shutil.rmtree(self.cwd, ignore_errors=True)
        self.cwd.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def spawn(self, args: list[str]) -> dict | None:
        """Run one child; its result, or None if it printed none."""
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC), *args], stdout=subprocess.PIPE, cwd=self.cwd, env=self.env
        )
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not out.strip():
            print(f"child exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(out.decode().splitlines()[-1])
        result["setup_s"] = result["imported"] - spawned
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        return result

    def cli(self, trace: bool) -> tuple[dict | None, dict[str, str]]:
        """One CLI sample, and the digests of the files it wrote."""
        result = self.spawn(["1" if trace else "0", *WORKLOADS[self.workload]])
        files = {}
        out_dir = OUTPUT_DIR.get(self.workload)
        if out_dir:
            path = self.cwd / out_dir
            if path.is_dir():
                files = {p.name: sha256(p.read_bytes()) for p in sorted(path.iterdir())}
            shutil.rmtree(path, ignore_errors=True)
        return result, files


def golden_problems(workload: str, golden: dict, result: dict | None, files: dict[str, str]) -> list[str]:
    """Why a sample's output differs from the golden record; empty if it does not."""
    if result is None:
        return ["the child crashed"]
    problems = []
    if result["code"] != golden["code"]:
        problems.append(f"exit code {result['code']} != {golden['code']}")
    if sha256(result["stdout"].encode()) != golden["stdout_sha256"]:
        problems.append("stdout digest differs")
    if files != golden["files"]:
        problems.append("written files differ")
    last = LAST_LINE.get(workload)
    if last and result["stdout"].rstrip("\n").rsplit("\n", 1)[-1] != last:
        problems.append(f"last line is not {last!r}")
    if result.get("spans", {}).get("oracle.calls") == 0:
        problems.append("traced run recorded no oracle call")
    return problems


def measure(sampler: Sampler, golden: dict, seconds: float, trace: bool) -> tuple[dict, int, int, bool]:
    """Samples for about ``seconds``; returns medians, attempted, failed, and whether counts repeat."""
    start = time.monotonic()
    sampler.spawn([])  # fills the bytecode caches; not measured
    setups, setup_time = [], 0.0
    timed, traced = [], []
    attempted = failed = 0
    while True:
        want_traced = trace and len(traced) <= len(timed)
        sample_start = time.monotonic()
        # import-only interpreters between CLI samples, so that set-up is timed under the whole run's host load
        while not trace and setup_time < SETUP_SHARE * (time.monotonic() - start):
            spawned = time.monotonic()
            setups.append(sampler.spawn([]))
            setup_time += time.monotonic() - spawned
        result, files = sampler.cli(want_traced)
        attempted += 1
        problems = golden_problems(sampler.workload, golden, result, files)
        for problem in problems:
            print(f"{sampler.workload}: sample {attempted} failed: {problem}", file=sys.stderr)
        failed += bool(problems)
        if result is not None:
            (traced if want_traced else timed).append(result)
        now = time.monotonic()
        enough = len(timed) >= (1 if trace else MIN_SAMPLES) and len(traced) >= (MIN_TRACED if trace else 0)
        # stop once another sample like the last would end past the budget
        if now + (now - sample_start) - start > seconds and (enough or result is None):
            break
    setup = [r["setup_s"] for r in setups + timed + traced if r is not None]
    print(f"  {len(setup)} set-up samples, {len(timed)} untraced and {len(traced)} traced CLI samples", file=sys.stderr)
    if not trace:
        metrics = {name: statistics.median(r[name] for r in timed) for name in ("run_s", "cpu_s", "peak_rss_mb") if timed}
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        return metrics, attempted, failed, True
    from spans import DETERMINISTIC

    repeat = True
    layer = [r["spans"] for r in traced]
    metrics = {}
    for name in sorted(set().union(*layer)):
        values = [spans[name] for spans in layer if name in spans]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if name in DETERMINISTIC and len(set(values)) > 1:
            print(f"count {name} differs between traced samples: {values}", file=sys.stderr)
            repeat = False
    if timed and traced:
        metrics["trace_overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in timed
        )
    for name in sorted(set().union(*(r["functions"] for r in traced))):
        rows = [r["functions"][name] for r in traced if name in r["functions"]]
        print(f"  {name:<45} {rows[0][0]:>8} calls {statistics.median(s for _, s in rows):9.4f} s", file=sys.stderr)
    return metrics, attempted, failed, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rauzylab" / "__init__.py").is_file():
        print(f"no rauzylab package under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{args.workload} seed {args.seed} trace {args.trace} on {json.dumps(environment())}", file=sys.stderr)
    golden = json.loads(GOLDEN.read_text())[args.workload]
    with Sampler(args.workload, args.seed) as sampler:
        measured, attempted, failed, repeat = measure(sampler, golden, args.seconds, bool(args.trace))
    metrics = {}
    for metric in wanted:
        if metric["name"] in measured:
            metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
            print(f"  {metric['name']:<32} {measured[metric['name']]:>14.6g} {metric['unit']}", file=sys.stderr)
        else:
            print(f"  {metric['name']:<32} absent", file=sys.stderr)
    if not metrics:
        print("no sample produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
