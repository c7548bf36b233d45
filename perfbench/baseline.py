"""Run every workload on several seeds and summarise the run-to-run spread.

Usage (from the repository root):

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...]

Runs perfbench/run.py once per seed and workload with tracing off, then once
per workload with tracing on.  Prints every metric by name and unit with its
median, quartiles and spread (the distance between the quartiles as a share of
the median), and writes them, with the environment they were measured on, to
perfbench/baseline.json.  Figures from machines with a different environment
record are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, environment


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workload or list(WORKLOADS):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run_once(workload, 1, seconds, 1)
        ok &= all(r["correct"] for r in runs + [traced])
        entry = {
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: {args.seeds} runs, {entry['failed']} of {entry['attempted']} samples failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = dict(stats, unit=metric["unit"], bound=metric["bound"])
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  (spread above a third of the bound)"
            print(
                f"  {name:<12} median {stats['median']:10.4f} {metric['unit']:<3} "
                f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} spread {stats['spread']:.3f} "
                f"bound {metric['bound']}{flag}"
            )
        for name, metric in traced["metrics"].items():
            print(f"  {name:<30} {metric['value']:14.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
