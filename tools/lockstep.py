#!/usr/bin/env python3
"""In-process lockstep timing of two checkouts, one operation at a time.

    python3 tools/lockstep.py PARENT_DIR CHANGE_DIR --workload W \
        --ops train,eval[,decode] --steps N [--seed S] [--json PATH]
    python3 tools/lockstep.py --anchor REV CHANGE_DIR --workload W ...

Imports each checkout's ``src/lstmn`` under a package name of its own
(``lstmn_parent``, ``lstmn_change``) and loads its
``perfbench/harness.py`` and ``perfbench/workloads.py`` once, read-only,
against that package.  Both sides are set up from the same inputs at one
seed (the benchmark's model seed), and then take turns: for step i and
each operation in ``--ops``, both sides run it, the parent first when i
is even and the change first when i is odd (A B, B A, ...), so that
neither side always runs first.  An operation is a train step over the
next batch of ``harness.train_batches``, an eval batch or a B = 1 decode,
cycling over the held-out batches and sources; both sides see the same
sequence.

Per operation it prints each side's median milliseconds, the median of
the per-step change/parent time ratios with their quartiles and a 95%
percentile-bootstrap interval (steps resampled with replacement from a
fixed seed, so a rerun prints the same interval), the change's wins
(steps where it was faster), and how many steps' outputs matched
(train losses, eval NLL and hits, decodes, within the benchmark's
reference tolerance).  With ``--json PATH`` that table is also added,
as one entry marked ``"tool": "lockstep"`` with the workload, seed and
step count, to the list of summaries in PATH that ``tools/bench_pairs.py
--json`` writes (a new file starts the list).

With ``--anchor REV`` the parent is the tree of commit REV of the
repository this tool sits in, extracted by ``git archive`` into a
temporary directory for the run, and the entry is marked ``"anchor":
REV``.  Timing every change against one fixed tree gives records that
stay comparable across changes; ``tools/trajectory.py`` lists them.

Caveat: both sides share one process, so they share one heap, one
allocator state and one garbage collector.  Memory one side leaves behind
can change the other's allocation costs, and the tool measures time
only; resident memory needs separate processes (``tools/bench_pairs.py``).
BLAS is pinned to one thread, as in ``perfbench/run.py``.
"""

import os
import sys

if __name__ == "__main__":
    # Pin the BLAS pool before numpy loads, as perfbench/run.py does.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
OPS = ("train", "eval", "decode")
# Resamples and seed of the bootstrap interval of the median ratio.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def _load(name: str, path: str, package: bool = False):
    """Import the module or package at ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py") if package else path,
        submodule_search_locations=[path] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def anchor_tree(rev: str):
    """A temporary directory holding the tree of commit ``rev`` of this
    repository, from ``git archive``, removed on exit."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield tmp


def load_side(checkout: str, side: str) -> tuple:
    """(package, harness, workloads) of one checkout: its ``src/lstmn`` as
    ``lstmn_<side>``, and its perfbench modules bound to that package."""
    package = _load(f"lstmn_{side}", os.path.join(checkout, "src", "lstmn"), package=True)
    saved = sys.modules.get("lstmn")
    sys.modules["lstmn"] = package
    try:
        harness = _load(f"harness_{side}", os.path.join(checkout, "perfbench", "harness.py"))
        workloads = _load(f"workloads_{side}",
                          os.path.join(checkout, "perfbench", "workloads.py"))
    finally:
        if saved is None:
            del sys.modules["lstmn"]
        else:
            sys.modules["lstmn"] = saved
    return package, harness, workloads


def side_ops(checkout: str, side: str, workload: str, seed: int, names) -> tuple:
    """One side set up for ``workload`` at input seed ``seed``: ({op name:
    fn() -> output}, the harness).  Each call runs the op's next item."""
    package, harness, workloads = load_side(checkout, side)
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_inputs(package.synthetic, workload, seed, tmp)
        run = harness.set_up(harness.make_config(workloads.WORKLOADS[workload], paths))
    items = {"train": harness.train_batches(run),
             "eval": itertools.cycle(harness.val_batches(run)),
             "decode": itertools.cycle(harness.decode_sources(run))}
    op = {"train": lambda b: harness.train_step(run, b)[0],
          "eval": lambda b: harness.eval_batch(run, b),
          "decode": lambda s: harness.decode(run, s)[0]}
    return {name: (lambda name=name: op[name](next(items[name]))) for name in names}, harness


def alternate(ops: dict, steps: int, clock=time.perf_counter) -> dict:
    """Run ``ops`` {op name: {side: fn() -> output}} ``steps`` times each,
    both sides per step, the parent first on even steps and the change
    first on odd ones.  Returns {op name: {side: ([seconds], [outputs])}}."""
    out = {name: {side: ([], []) for side in SIDES} for name in ops}
    for i in range(steps):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name, fns in ops.items():
            for side in order:
                t0 = clock()
                result = fns[side]()
                seconds = clock() - t0
                out[name][side][0].append(seconds)
                out[name][side][1].append(result)
    return out


def same(a, b, rtol: float) -> bool:
    """Outputs equal: sequences item by item, ints exactly, floats within
    ``rtol``."""
    if isinstance(a, (list, tuple, np.ndarray)):
        return len(a) == len(b) and all(same(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return a == b
    return abs(a - b) <= rtol * abs(b)


def bootstrap_interval(ratios: np.ndarray) -> tuple:
    """The 95% percentile-bootstrap interval of the median of ``ratios``:
    the 2.5th and 97.5th percentiles of the medians of
    ``BOOTSTRAP_RESAMPLES`` resamples of the steps, drawn with replacement
    from ``BOOTSTRAP_SEED``."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    medians = np.median(rng.choice(ratios, size=(BOOTSTRAP_RESAMPLES, len(ratios))), axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return float(lo), float(hi)


def summarize(results: dict, rtol: float) -> dict:
    """Per op: each side's median seconds, the change/parent ratios'
    quartiles and the bootstrap interval of their median, wins (ratio <
    1), steps and matching outputs."""
    table = {}
    for name, sides in results.items():
        (tp, op), (tc, oc) = sides["parent"], sides["change"]
        ratios = np.asarray(tc) / np.asarray(tp)
        q1, med, q3 = np.percentile(ratios, [25, 50, 75])
        table[name] = {"parent_s": float(np.median(tp)), "change_s": float(np.median(tc)),
                       "ratio": (float(q1), float(med), float(q3)),
                       "ratio_ci": bootstrap_interval(ratios),
                       "wins": int((ratios < 1.0).sum()), "steps": len(ratios),
                       "matched": sum(same(a, b, rtol) for a, b in zip(op, oc))}
    return table


def report(table: dict) -> list:
    lines = [f"{'op':<8}{'parent ms':>11}{'change ms':>11}{'ratio':>8}  {'IQR':<16}"
             f"{'95% interval':<16}{'wins':>5}{'outputs matched':>18}"]
    for name, row in table.items():
        q1, med, q3 = row["ratio"]
        lo, hi = row["ratio_ci"]
        lines.append(f"{name:<8}{1e3 * row['parent_s']:>11.4g}{1e3 * row['change_s']:>11.4g}"
                     f"{med:>8.3f}  [{q1:.3f}, {q3:.3f}]  [{lo:.3f}, {hi:.3f}]  "
                     f"{row['wins']:>5} of {row['steps']:<3}"
                     f"{row['matched']:>9} of {row['steps']}")
    return lines


def summary_json(args, table: dict) -> dict:
    """The entry ``--json`` adds for one invocation: ``summarize``'s table
    per op, seconds as they are measured."""
    entry = {"tool": "lockstep", "workload": args.workload, "seed": args.seed,
             "steps": args.steps, "ops": table}
    return entry if args.anchor is None else {**entry, "anchor": args.anchor}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="PARENT_DIR CHANGE_DIR, or CHANGE_DIR alone with --anchor")
    parser.add_argument("--anchor", metavar="REV",
                        help="time the tree of commit REV as the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", default="train,eval",
                        help="comma-separated, from " + ", ".join(OPS))
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="input seed of the workload")
    parser.add_argument("--json", help="file whose list of summaries to add this one to")
    args = parser.parse_args(argv)
    names = args.ops.split(",")
    if not names or any(n not in OPS for n in names) or len(set(names)) != len(names):
        parser.error(f"--ops takes distinct names from {', '.join(OPS)}")
    if len(args.dirs) != (1 if args.anchor else 2):
        parser.error("give PARENT_DIR and CHANGE_DIR, or CHANGE_DIR alone with --anchor")
    with anchor_tree(args.anchor) if args.anchor else contextlib.nullcontext() as anchor:
        ops, harness = {}, None
        for side, checkout in zip(SIDES, ([anchor] if anchor else []) + args.dirs):
            fns, harness = side_ops(os.path.abspath(checkout), side, args.workload, args.seed,
                                    names)
            for name in names:
                ops.setdefault(name, {})[side] = fns[name]
        table = summarize(alternate(ops, args.steps), harness.REFERENCE_RTOL)
    print("\n".join(report(table)))
    if args.json:
        tools = os.path.dirname(os.path.abspath(__file__))
        bench_pairs = _load("bench_pairs", os.path.join(tools, "bench_pairs.py"))
        bench_pairs.append_json(args.json, summary_json(args, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
