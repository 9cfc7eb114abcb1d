#!/usr/bin/env python3
"""The anchored lockstep ratios and the ``src/`` line counts of every
benchmark record, in PR order.

    python3 tools/trajectory.py [BENCH_FILE ...]

Reads the ``BENCH_<pr>.json`` files given (by default every one at the
root of the repository), orders them by PR number, and prints one line
per anchored ``tools/lockstep.py --anchor`` entry, grouped by workload
and operation: the PR, the anchor, the steps, the median change/anchor
time ratio and its 95% bootstrap interval.  Entries timed against a
parent rather than an anchor are left out: only ratios to one fixed tree
compare across PRs.

Then, per PR, the ``src/`` line counts that its ``tools/bench_pairs.py``
entries carry, parent -> change: all lines (``src_lines``) and lines
that hold code (``src_code_lines``, "-" where an older entry lacks it).
A PR whose entries timed more than one tree gets a line per tree.
"""

import argparse
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pr_number(path: str) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    if match is None:
        raise ValueError(f"{path}: not a BENCH_<pr>.json file")
    return int(match.group(1))


def entries(paths) -> list:
    """(pr, entry) of every entry of the files, in PR order."""
    out = []
    for pr, path in sorted((pr_number(path), path) for path in paths):
        with open(path, encoding="utf-8") as fh:
            out += [(pr, entry) for entry in json.load(fh)]
    return out


def rows(records: list) -> list:
    """(workload, op, pr, anchor, steps, median ratio, (lo, hi)) of every
    anchored entry, sorted by workload, op and PR."""
    out = []
    for pr, entry in records:
        if entry.get("tool") != "lockstep" or "anchor" not in entry:
            continue
        for op, row in entry["ops"].items():
            out.append((entry["workload"], op, pr, entry["anchor"], row["steps"],
                        row["ratio"][1], tuple(row["ratio_ci"])))
    return sorted(out, key=lambda r: r[:3])


def line_counts(records: list) -> list:
    """(pr, src_lines, src_code_lines) of each PR's entries that carry
    line counts, each a "parent -> change" string, once per distinct
    pair of counts, in PR order."""
    out = []
    for pr, entry in records:
        if "src_lines" not in entry:
            continue
        row = (pr,) + tuple(" -> ".join(str(entry[key][side]) for side in ("parent", "change"))
                            if key in entry else "-" for key in ("src_lines", "src_code_lines"))
        if row not in out:
            out.append(row)
    return out


def report(table: list, counts: list) -> list:
    lines = [f"{'workload':<14}{'op':<8}{'PR':>4}  {'anchor':<10}{'steps':>6}{'ratio':>8}"
             "  95% interval"]
    for workload, op, pr, anchor, steps, ratio, (lo, hi) in table:
        lines.append(f"{workload:<14}{op:<8}{pr:>4}  {anchor:<10}{steps:>6}{ratio:>8.3f}"
                     f"  [{lo:.3f}, {hi:.3f}]")
    lines += ["", f"{'PR':>4}  {'src lines':<16}code lines"]
    lines += [f"{pr:>4}  {src:<16}{code}" for pr, src, code in counts]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="BENCH_<pr>.json files (default: all)")
    args = parser.parse_args(argv)
    paths = args.files or glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    records = entries(paths)
    print("\n".join(report(rows(records), line_counts(records))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
