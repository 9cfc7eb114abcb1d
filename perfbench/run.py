#!/usr/bin/env python3
"""lstmn benchmark: one workload per run, a closed loop from one process.

    python3 perfbench/run.py --workload lm-ptb-scale --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Inputs are generated from ``--seed``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run, and a per-layer table is printed above it.  See README.md.
"""

import os
import sys

# Pin the BLAS pool before numpy loads: OpenBLAS otherwise sizes it itself.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from itertools import cycle  # noqa: E402

import numpy as np  # noqa: E402

import lstmn  # noqa: E402
from lstmn import synthetic  # noqa: E402

import calibrate  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if not os.path.realpath(lstmn.__file__).startswith(os.path.realpath(SRC) + os.sep):
    raise SystemExit(f"error: lstmn was imported from {lstmn.__file__}, not {SRC}")

SETUP_REPEATS = 7          # set-ups timed, each in a fresh process
SETUP_SHARE = 0.07         # spreads them over the run
CALIBRATE_SHARE = 0.08     # passes of calibrate.py, interleaved with the rest
MIN_TRAIN_STEPS = 4
# Eval and decode cycle over fixed sets of held-out batches and sources,
# each item done at least once; a metric is taken over the per-item
# medians, so it does not depend on how many passes fitted in the run.
EVAL_BATCHES = 6
DECODE_SOURCES = 20        # copy-seq2seq: 100, so that 10 lie beyond p90
CHECK_EVERY = 5            # teacher-forced check of every 5th greedy output
COUNT_BATCHES = 2          # batches in the forward-only counting pass
COUNT_DECODES = 5
PROBE_REPS = 2             # repetitions of each layer probe (median)
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def child_setup_seconds(workload: str, data_dir: str) -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), workload,
                          data_dir], check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    """Versions and machine facts recorded with every run (not gated)."""
    import glob
    info = {"numpy": np.__version__, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    info["git_commit"] = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            info["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or "unavailable"
        except OSError:
            pass
    lines = 0
    for path in glob.glob(os.path.join(SRC, "lstmn", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    info["src_lines"] = lines
    return info


def _blas_threads():
    """The loaded OpenBLAS's own thread count, or None if it cannot be asked."""
    import ctypes
    import re
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = set(re.findall(r"\S*openblas\S*\.so\S*", fh.read()))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def reference_check(wl, work: str, write: bool, say) -> tuple:
    """Run the workload at the default seed and compare its per-step losses,
    eval NLL and B=1 outputs with reference.json.  Returns (ops, misses)."""
    paths = workloads.write_inputs(synthetic, wl.name, workloads.DEFAULT_SEED,
                                   os.path.join(work, "ref"))
    got = harness.reference_outputs(
        harness.set_up(harness.make_config(wl, paths)))
    if write:
        stored = {}
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored[wl.name] = got
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
        say(f"wrote reference values for {wl.name}")
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[wl.name]
    misses = harness.reference_mismatches(got, want)
    say(f"reference seed {workloads.DEFAULT_SEED}: "
        + ("match" if not misses else "MISMATCH " + ", ".join(misses)))
    return harness.reference_ops(want), len(misses)


def count_pass(run) -> dict:
    """Kernel calls and tape slots of fixed inputs, forward only, untimed."""
    counter = tracing.Tracer(tracing.kernels() + [(tracing.cells, "intra_attend")])
    with counter:
        for b in run.batches[:COUNT_BATCHES]:
            run.model.loss(b, training=False)
    tapes = [s[4] for s in counter.spans if s[0] == "cells.intra_attend"]
    out = {"kernel_calls_per_step": counter.count("autodiff.") / COUNT_BATCHES,
           "tape_slots_per_step": sum(tapes) / COUNT_BATCHES,
           "tape_len_mean": sum(tapes) / max(len(tapes), 1)}
    counter.clear()
    decoded = 0
    with counter:
        for s in harness.decode_sources(run)[:COUNT_DECODES]:
            decoded += harness.decode(run, s)[1]
    out["kernel_calls_per_decoded_tok"] = counter.count("autodiff.") / decoded
    return out


def properties(run, counts: dict) -> dict:
    seq2seq = harness.is_seq2seq(run)
    targets = [int(b.mask2.sum()) + b.size if seq2seq else int(b.mask[:, 1:].sum())
               for b in run.batches]
    padded = [b.tokens.shape[1] + (b.tokens2.shape[1] if seq2seq else 0) for b in run.batches]
    return {"V": len(run.vocab), "parameters": int(sum(t.data.size for t in run.tensors)),
            "batch_size": run.cfg.batch_size, "tokens_per_step": float(np.mean(targets)),
            "padded_len_mean": float(np.mean(padded)), "padded_len_max": int(max(padded)),
            "tape_len_mean_at_intra_attention": counts["tape_len_mean"]}


def measure(args, work: str) -> dict:
    wl = workloads.WORKLOADS[args.workload]

    def say(line: str) -> None:
        print(line, flush=True)

    say(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    say("env " + json.dumps(environment()))

    # The reference run at the default seed also warms the allocator and BLAS
    # at the workload's shapes before anything is timed.
    attempted, failed = reference_check(wl, work, args.write_reference, say)

    data_dir = os.path.join(work, "run")
    cfg = harness.make_config(wl, workloads.write_inputs(synthetic, wl.name, args.seed, data_dir))
    layer = {}
    if args.trace:
        setup_tracer = tracing.Tracer(tracing.TIMED)
        for _ in range(3):
            with setup_tracer:
                run = harness.set_up(cfg)
        for key, name in tracing.SETUP_METRICS:
            layer[key] = (1e3 * sum(setup_tracer.durations(name)) / 3, 3, "loop")
    else:
        run = harness.set_up(cfg)
    # Eval and decode use the initial weights, so their outputs and work do
    # not depend on how many train steps fitted in the run.
    frozen = harness.set_up(cfg)
    counts = count_pass(frozen)
    say("properties " + json.dumps(properties(run, counts)))
    if args.trace:
        probe_batch = run.batches[0]
        train_peak, eval_peak = tracing.memory_peaks(run, probe_batch,
                                                     harness.val_batches(frozen)[0])
        probes = tracing.layer_probes(run, probe_batch, reps=PROBE_REPS)

    seq2seq = harness.is_seq2seq(run)
    sources = harness.decode_sources(frozen)[:100 if seq2seq else DECODE_SOURCES]
    val = harness.val_batches(frozen)[:EVAL_BATCHES]
    batches = harness.train_batches(run)
    tracer_for = {}
    Phase = harness.Phase
    phases = [
        Phase("setup", lambda _: child_setup_seconds(wl.name, data_dir), cycle([None]),
              SETUP_SHARE, SETUP_REPEATS, max_ops=SETUP_REPEATS),
        Phase("calibrate", calibrate.run_once, cycle([None]), CALIBRATE_SHARE, 20),
        Phase("decode", lambda s: harness.decode(frozen, s), cycle(sources), wl.decode_share,
              len(sources)),
        Phase("eval", lambda b: harness.eval_batch(frozen, b), cycle(val), wl.eval_share,
              len(val)),
        Phase("train", lambda b: harness.train_step(run, b), batches,
              wl.train_share / (2 if args.trace else 1), MIN_TRAIN_STEPS),
    ]
    if args.trace:
        phases.append(Phase("train_traced", lambda b: harness.train_step(run, b), batches,
                            wl.train_share / 2, MIN_TRAIN_STEPS))
        for p in phases:
            if p.name in ("decode", "eval", "train_traced"):
                p.tracer = tracer_for[p.name] = tracing.Tracer(tracing.TIMED)
    harness.interleave(phases, args.seconds)
    by = {p.name: p for p in phases}

    cal_ms = calibrate.summary(by["calibrate"].results)
    # End-to-end times are reported at the reference machine speed.
    slowdown = cal_ms["pass"] / calibrate.REFERENCE_MS
    say(f"calibration {json.dumps(cal_ms)} slowdown {slowdown:.4f} "
        f"(n={len(by['calibrate'].seconds)} passes)")

    # Output checks: every operation must succeed with finite outputs.
    bad = 0
    per_tok = {}           # source index -> ms per token of each request
    for i, (sec, res) in enumerate(zip(by["decode"].seconds, by["decode"].results)):
        if res is None:
            bad += 1
            continue
        out, n = res
        per_tok.setdefault(i % len(sources), []).append(1e3 * sec / n)
        if seq2seq:
            if i % CHECK_EVERY == 0:
                bad += not harness.greedy_consistent(frozen, sources[i % len(sources)], out)
        else:
            bad += not harness.finite(out[0])
    ev = by["eval"]
    eval_tok_s = {}        # batch index -> tokens/s of each pass
    for i, (sec, r) in enumerate(zip(ev.seconds, ev.results)):
        if r is not None and harness.finite(r[0]) and 0 <= r[2] <= r[1]:
            eval_tok_s.setdefault(i % len(val), []).append(r[1] / sec)
        else:
            bad += 1
    train_ok = {}
    for name in ("train", "train_traced"):
        if name in by:
            p = by[name]
            train_ok[name] = [(s, r) for s, r in zip(p.seconds, p.results)
                              if r is not None and harness.finite(r[0], r[2])]
            bad += len(p.seconds) - len(train_ok[name])
    bad += sum(1 for r in by["setup"].results if r is None)
    attempted += sum(len(p.seconds) for p in phases if p.name != "calibrate")
    failed += bad

    # With every operation of a phase failed, its metrics read 0 and
    # ``correct`` is false.
    train = train_ok["train"] or [(1.0, (0.0, 0, 0.0))]
    evals = [statistics.median(v) for v in eval_tok_s.values()] or [0.0]
    per_tok = [statistics.median(v) for v in per_tok.values()] or [0.0]
    setups = [r for r in by["setup"].results if r is not None] or [0.0]
    e2e = {
        "train_tok_s": (statistics.median(r[1] / s for s, r in train), "1/s", len(train), "steps"),
        "train_step_ms_p50": (1e3 * statistics.median(s for s, _ in train), "ms", len(train),
                              "steps"),
        "eval_tok_s": (statistics.median(evals), "1/s", len(evals),
                       f"batches, {len(ev.seconds)} evaluations"),
        "decode_ms_per_tok_p50": (float(np.percentile(per_tok, 50)), "ms", len(per_tok),
                                  f"sources, {len(by['decode'].seconds)} requests"),
        "decode_ms_per_tok_p90": (float(np.percentile(per_tok, 90)), "ms", len(per_tok),
                                  f"sources, {len(by['decode'].seconds)} requests"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
                        "process"),
        "setup_s": (statistics.median(setups), "s", len(setups), "set-ups"),
    }
    untraced_tok_s = e2e["train_tok_s"][0]
    scale = {"ms": 1 / slowdown, "s": 1 / slowdown, "1/s": slowdown, "MB": 1.0}
    for name, (value, unit, n, what) in e2e.items():
        note = ""
        if name.startswith("decode") and not seq2seq:
            note = "  (no generate: B=1 greedy next-token prediction via model.evaluate)"
        raw = f", measured {value:.6g}" if unit != "MB" else ""
        e2e[name] = (value * scale[unit], unit, n, what)
        say(f"e2e {name} {e2e[name][0]:.6g} {unit} (n={n} {what}{raw}){note}")
    say(f"e2e failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if not args.trace:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    else:
        traced_train = train_ok["train_traced"] or [(1.0, (0.0, 0, 0.0))]
        layer.update(tracing.loop_metrics(tracer_for, len(by["train_traced"].seconds),
                                          len(ev.seconds), type(run.opt).__name__, seq2seq))
        layer.update(tracing.fill_in(layer, probes, run, PROBE_REPS))
        layer["autodiff.train_step_peak_mb"] = (train_peak / 2**20, 1, "tracemalloc")
        layer["autodiff.eval_batch_peak_mb"] = (eval_peak / 2**20, 1, "tracemalloc")
        layer["cells.tape_slots_per_step"] = (counts["tape_slots_per_step"], COUNT_BATCHES,
                                              "count")
        layer["autodiff.kernel_calls_per_step"] = (counts["kernel_calls_per_step"],
                                                   COUNT_BATCHES, "count")
        layer["autodiff.kernel_calls_per_decoded_tok"] = (
            counts["kernel_calls_per_decoded_tok"], COUNT_DECODES, "count")
        layer["trace.overhead_ratio"] = (
            statistics.median(r[1] / s for s, r in traced_train) / untraced_tok_s,
            len(traced_train), "traced / untraced")
        say(tracing.format_table(wl.name, layer))
        metrics = {k: {"value": layer[k][0], "unit": unit}
                   for k, (unit, _) in tracing.PER_LAYER.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's default-seed outputs as the reference")
    args = parser.parse_args(argv)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))   # only when no other run uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
