#!/usr/bin/env python3
"""Run every workload, one after another, and print each one's metrics.

    python3 perfbench/report.py                # end-to-end metrics per workload
    python3 perfbench/report.py --trace 1      # the per-layer tables

Each workload runs in its own ``run.py`` process, so that peak memory and
set-up stay per workload.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode:
            sys.stderr.write(done.stderr)
            status = done.returncode
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
