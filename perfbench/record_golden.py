"""Record the outputs that perfbench/run.py checks every sample against.

Usage (from the repository root): python3 perfbench/record_golden.py

Run it only at a commit whose CLI output is known to be right, and commit
perfbench/golden.json with the change that alters the output on purpose.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, WORKLOADS, Sampler, sha256


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        with Sampler(workload, seed=0) as sampler:
            result, files = sampler.cli(trace=False)
        if result is None:
            print(f"{workload}: the child crashed", file=sys.stderr)
            return 1
        golden[workload] = {"code": result["code"], "stdout_sha256": sha256(result["stdout"].encode()), "files": files}
        print(f"{workload}: exit {result['code']}, {len(files)} file(s)", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
