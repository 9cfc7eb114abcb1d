"""A fixed piece of work, independent of the package, that the benchmark
times in the same process, interleaved with the workload's operations.

On a guest that shares its host's cores (the 2-vCPU Xeon guest of the
README's figures), the same code runs 30-50% slower for minutes at a time,
then fast again, and a 30-second run lands in one state or the other.  The median time of this pass over a run
records which: the end-to-end times are scaled by ``REFERENCE_MS`` / that
median, i.e. reported at the speed where one pass takes ``REFERENCE_MS``.
The pass mixes what the workloads spend their time on: interpreter work on
small Python objects, small numpy kernels, a GEMM at the PTB shapes and a
matrix-vector product that streams a matrix larger than L2, as B=1 output
projections do.
"""

from __future__ import annotations

import time

import numpy as np

# Milliseconds of one pass at the reference speed (about one pass on a
# 2 GHz Xeon guest core in its fast state).
REFERENCE_MS = 6.0

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 64))
_SMALL_W = _rng.standard_normal((64, 64)) / 8
_GEMM_A = _rng.standard_normal((20, 300))
_GEMM_B = _rng.standard_normal((300, 1200))
_GEMV_W = _rng.standard_normal((4000, 300))     # 9.6 MB: past L2, read from L3 or memory
_GEMV_X = _rng.standard_normal(300)


def _interpreter() -> int:
    nodes = [{"value": i, "parents": (i - 1, i - 2)} for i in range(4000)]
    total = 0
    for node in reversed(nodes):
        for p in node["parents"]:
            if p >= 0:
                total += nodes[p]["value"] & 7
    return total


def _small_ops() -> float:
    x = _SMALL
    for _ in range(150):
        x = np.tanh(x @ _SMALL_W + 0.1) * 0.9
    return float(x[0, 0])


def _gemm() -> float:
    return float((_GEMM_A @ _GEMM_B)[0, 0])


def _gemv() -> float:
    return float((_GEMV_W @ _GEMV_X)[0])


PARTS = (("interpreter", _interpreter), ("small_ops", _small_ops), ("gemm", _gemm),
         ("gemv", _gemv))


def run_once(_=None) -> dict:
    """Seconds of each part of one pass."""
    out = {}
    for name, fn in PARTS:
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def summary(passes: list) -> dict:
    """Median milliseconds of each part and of the whole pass."""
    out = {k: 1e3 * float(np.median([p[k] for p in passes])) for k in passes[0]}
    out["pass"] = 1e3 * float(np.median([sum(p.values()) for p in passes]))
    return out
