#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seed S [--claim METRIC] [--json PATH]

Runs ``perfbench/run.py --workload W --seed S --trace 0`` N times in each
checkout, one parent run and one change run per pair, for the run length
``BENCHMARK.json`` fixes.  The side that runs first alternates, starting
with the parent.  Each run is a subprocess started in its own checkout,
so each side imports its own ``src/``.  Every run's result line is printed
as it arrives (``run <pair> <side> <json>``); then, per end-to-end
metric, each side's median and quartiles, the parent's interquartile
range (IQR) and the change's wins, losses and ties, pair by pair.

With ``--claim METRIC`` the last line says whether a gain in METRIC
holds: the change wins at least nine tenths of all pairs run (ties count
as neither), and its median is better than the parent's by more than the
parent's IQR.  The exit status is 0 when it holds and 1 when it does not.

With ``--json PATH`` the summary is also added to the list of summaries
in PATH (a new file starts the list), so one file can hold several
workloads' pairs, and ``tools/lockstep.py --json`` entries beside them.
An entry is marked ``"tool": "bench_pairs"`` and holds the workload,
seed and pair count, the claim and its verdict, per metric each side's
quartiles, the parent's IQR and the wins, losses and ties, each side's
failed and attempted operations, each checkout's ``src/`` line count
(``src_lines``) and its count of lines that hold code, not only a
docstring, a comment or blanks (``src_code_lines``), and every run's
result line.
"""

import argparse
import ast
import glob
import io
import json
import os
import subprocess
import sys
import tokenize

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def benchmark_spec() -> tuple:
    """(run seconds, {metric: "higher" or "lower"}) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["run_seconds"], {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its result JSON (the last line)."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), linearly interpolated."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(runs: dict, better: dict) -> tuple:
    """From ``runs`` {pair: {side: result}}, complete pairs only: per
    metric each side's quartiles, the parent's IQR and the change's wins,
    losses and ties; and per side, (failed, attempted) operations."""
    pairs = [runs[p] for p in sorted(runs) if set(runs[p]) == set(SIDES)]
    table = {}
    for name, direction in better.items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent = quartiles(values["parent"])
        table[name] = {
            "parent": parent, "change": quartiles(values["change"]),
            "parent_iqr": parent[2] - parent[0], "better": direction,
            "wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains), "pairs": len(pairs)}
    failures = {side: (sum(pair[side]["failed"] for pair in pairs),
                       sum(pair[side]["attempted"] for pair in pairs)) for side in SIDES}
    return table, failures


def median_gain(row: dict) -> float:
    """The change's median minus the parent's, positive when it is better."""
    gap = row["change"][1] - row["parent"][1]
    return gap if row["better"] == "higher" else -gap


def claim_holds(row: dict) -> bool:
    """The gain rule: wins in at least nine tenths of all pairs run, and a
    median better than the parent's by more than the parent's IQR."""
    return row["pairs"] > 0 and row["wins"] >= 0.9 * row["pairs"] and \
        median_gain(row) > row["parent_iqr"]


def report(table: dict, failures: dict, claim: str = None) -> list:
    """``summarize``'s results as lines; with ``claim``, the verdict last."""
    lines = [f"{'metric':<24}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}"
             f"{'median':>9}{'parent IQR':>12}  wins/losses/ties"]
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        delta = (c[1] - p[1]) / p[1] if p[1] else float("nan")
        lines.append(f"{name:<24}{'%.6g / %.6g / %.6g' % p:>32}{'%.6g / %.6g / %.6g' % c:>32}"
                     f"{delta:>+9.2%}{row['parent_iqr']:>12.4g}  "
                     f"{row['wins']}/{row['losses']}/{row['ties']} of {row['pairs']}")
    lines.append("failed operations: " + ", ".join(
        f"{side} {failures[side][0]} of {failures[side][1]}" for side in SIDES))
    if claim is not None:
        row = table[claim]
        lines.append(f"claim {claim}: {'holds' if claim_holds(row) else 'does not hold'} "
                     f"(wins {row['wins']} of {row['pairs']}, need {0.9 * row['pairs']:g}; "
                     f"median gain {median_gain(row):.6g}, parent IQR {row['parent_iqr']:.6g})")
    return lines


def src_lines(checkout: str) -> int:
    """Lines of the Python files under the checkout's ``src/``."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# Tokens that hold no code: a line of only these is blank or a comment.
LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                 tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold a token other than a comment
    or a docstring (the string that opens a module, class or function)."""
    docstrings = {(node.body[0].value.lineno, node.body[0].value.col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT_TOKENS and not (tok.type == tokenize.STRING and
                                                  tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(checkout: str) -> int:
    """``code_lines`` summed over the Python files under ``src/``."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def summary_json(args, dirs: dict, runs: dict, table: dict, failures: dict) -> dict:
    """The summary ``--json`` records for one invocation."""
    verdict = None if args.claim is None else claim_holds(table[args.claim])
    return {"tool": "bench_pairs", "workload": args.workload, "seed": args.seed,
            "pairs": args.pairs,
            "claim": args.claim, "claim_holds": verdict,
            "metrics": {name: {**row, "median_gain": median_gain(row)}
                        for name, row in table.items()},
            "failed_attempted": {side: list(failures[side]) for side in SIDES},
            "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
            "src_code_lines": {side: src_code_lines(dirs[side]) for side in SIDES},
            "runs": [{"pair": pair, "side": side, "result": runs[pair][side]}
                     for pair in sorted(runs) for side in runs[pair]]}


def append_json(path: str, summary: dict) -> None:
    """Add ``summary`` to the list in ``path``, starting one if absent."""
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    entries.append(summary)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--claim", help="end-to-end metric whose gain to test")
    parser.add_argument("--json", help="file whose list of summaries to add this one to")
    args = parser.parse_args(argv)
    seconds, better = benchmark_spec()
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must be one of {sorted(better)}")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(dirs[side], args.workload, args.seed, seconds)
            runs.setdefault(pair, {})[side] = result
            print(f"run {pair} {side} {json.dumps(result)}", flush=True)
    table, failures = summarize(runs, better)
    print("\n".join(report(table, failures, args.claim)))
    if args.json:
        append_json(args.json, summary_json(args, dirs, runs, table, failures))
    return 0 if args.claim is None or claim_holds(table[args.claim]) else 1


if __name__ == "__main__":
    sys.exit(main())
