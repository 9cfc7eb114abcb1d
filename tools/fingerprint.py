#!/usr/bin/env python3
"""Bit-identity fingerprint of the benchmark workloads.

    python3 tools/fingerprint.py [--precision float32] [workload ...]

For each workload of ``perfbench/workloads.py`` (all of them by default)
at its reference seed, prints one SHA-256 digest over the exact bytes of
the first 3 ``harness.train_step`` losses and gradient norms, every
parameter after them (name and values), the first held-out batch's eval
NLL and, for seq2seq models, one greedy ``generate``.  A refactor that
claims unchanged numbers prints the same digests before and after it; a
reordered float sum anywhere in training, eval or decoding changes them.
``--precision float32`` runs the same operations in float32 (the
workloads' default is float64), so a float32 refactor is checked too.

Run from the root of a checkout; the package is imported from its
``src/``, and ``perfbench/`` is imported read-only.  Inputs are generated
into a temporary directory.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

if __name__ == "__main__":
    # Pin the BLAS pool before numpy loads, as perfbench/run.py does.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from lstmn import synthetic  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

TRAIN_STEPS = 3


def fingerprint(name: str, precision: str = "float64") -> str:
    """The workload's digest at ``precision`` as 64 hex digits.  Set-up
    leaves the default dtype at ``precision``."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_inputs(synthetic, name, workloads.DEFAULT_SEED, tmp)
        cfg = harness.make_config(workloads.WORKLOADS[name], paths)
        run = harness.set_up(dataclasses.replace(cfg, precision=precision))
    for batch in run.batches[:TRAIN_STEPS]:
        loss, _, norm = harness.train_step(run, batch)
        digest.update(np.float64([loss, norm]).tobytes())
    for pname, tensor in run.model.params().items():
        digest.update(pname.encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    digest.update(np.float64(harness.eval_batch(run, harness.val_batches(run)[0])[0]).tobytes())
    if harness.is_seq2seq(run):
        out, _ = harness.decode(run, harness.decode_sources(run)[0])
        digest.update(np.int64(out).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Bit-identity digests of the benchmark "
                                                 "workloads.")
    parser.add_argument("workload", nargs="*", help="workload names (default: all)")
    parser.add_argument("--precision", choices=("float64", "float32"), default="float64")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(workloads.WORKLOADS):
        print(name, fingerprint(name, args.precision), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
