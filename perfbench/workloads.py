"""The benchmark's workloads: a run config plus seeded input files.

The paper's corpora (PTB, SNLI, SST) are not in the repository, so every
workload's text is synthesised from the workload seed.  The program only
ever sees the generated files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Seed whose per-step losses, eval NLL and greedy outputs are stored in
# reference.json and checked on every run.
DEFAULT_SEED = 0

# Seed of the line lengths, fixed whatever the workload seed.
SHAPE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    # Shares of --seconds given to each timed phase.
    decode_share: float
    eval_share: float
    train_share: float


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lm-ptb-scale",
        why="1-layer lstmn LM at the PTB config's shapes (H=300, E=150, V=10,004) with B=20: "
            "output projection, NLL, embeddings and the optimizer dominate",
        # Shapes and optimizer of configs/ptb-lm-lstmn-1layer.cfg; batch 20
        # instead of 40 keeps resident memory near 1 GB.
        overrides=dict(task="lm", model="lstmn", hidden=300, embedding=150, attention=300,
                       layers=1, optimizer="sgd", lr=0.65, lr_decay=0.85, grad_clip=5.0,
                       dropout=0.0, batch_size=20, vocab_size=10000),
        decode_share=0.30, eval_share=0.25, train_share=0.45,
    ),
    Workload(
        name="lm-long-tape",
        why="2-layer lstmn-stack with skip connections, H=E=64, on 72-128 token bracket lines: "
            "tape re-stacking and attention over long tapes dominate",
        overrides=dict(task="lm", model="lstmn-stack", hidden=64, embedding=64, layers=2,
                       skip_connections=True, optimizer="sgd", lr=0.65, grad_clip=5.0,
                       batch_size=16),
        decode_share=0.30, eval_share=0.20, train_share=0.50,
    ),
    Workload(
        name="copy-seq2seq",
        why="seq2seq-deep, H=E=64, Adam, on copy pairs of length 10-30: the only workload "
            "running fusion, in batched training, forward-only eval and B=1 greedy decode",
        overrides=dict(task="lm", model="seq2seq-deep", hidden=64, embedding=64, layers=1,
                       optimizer="adam", lr=1e-3, grad_clip=5.0, batch_size=16),
        decode_share=0.30, eval_share=0.20, train_share=0.50,
    ),
)}


def zipf_sentences(rng: np.random.Generator, lengths: np.ndarray, types: int = 30000) -> list:
    """Zipf-Mandelbrot word draws, one sentence per entry of ``lengths``."""
    ranks = np.arange(1, types + 1)
    p = 1.0 / (ranks + 2.7)
    p /= p.sum()
    words = rng.choice(types, size=int(lengths.sum()), p=p)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    return [" ".join(f"w{w}" for w in words[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def ptb_lengths(rng: np.random.Generator, count: int) -> np.ndarray:
    """PTB-like sentence lengths (gamma, mean about 21 words), capped at 40
    words so that padded batches of 20 are 36-42 tokens wide."""
    return np.clip(np.rint(rng.gamma(4.0, 5.5, size=count)), 1, 40).astype(int)


def long_tape_lines(synthetic, rng: np.random.Generator, lengths: np.ndarray) -> list:
    """Bracket sentences joined into lines, each cut to its entry of ``lengths``."""
    lines = []
    for n in lengths:
        tokens = []
        while len(tokens) < n:
            tokens += synthetic.bracket_sentence(rng)
        lines.append(" ".join(tokens[:n]))
    return lines


def copy_lines(synthetic, rng: np.random.Generator, lengths: np.ndarray,
               vocab_size: int = 32) -> list:
    """Copy pairs in the format of ``synthetic.copy_pairs``, one per entry of
    ``lengths``."""
    lines = []
    for n in lengths:
        seq = " ".join(f"s{t}" for t in rng.integers(0, vocab_size, size=n))
        lines.append(f"{synthetic.COPY_LABEL}\t{seq}\t{seq}")
    return lines


def write_inputs(synthetic, name: str, seed: int, out_dir: str) -> dict:
    """Generate the workload's train/validation files from ``seed`` and
    return the config keys that point at them.

    Line lengths come from ``SHAPE_SEED`` and only the tokens from ``seed``,
    so every seed gives batches of the same shapes and the same work.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 7919])
    shape = np.random.default_rng([SHAPE_SEED, 7907])
    if name == "lm-ptb-scale":
        train = zipf_sentences(rng, ptb_lengths(shape, 3000))
        val = zipf_sentences(rng, ptb_lengths(shape, 400))
        if len({w for line in train for w in line.split()}) < 10000:
            raise RuntimeError("synthetic PTB-scale corpus has fewer than 10,000 types")
    elif name == "lm-long-tape":
        train = long_tape_lines(synthetic, rng, shape.integers(72, 129, size=400))
        val = long_tape_lines(synthetic, rng, shape.integers(72, 129, size=120))
    elif name == "copy-seq2seq":
        train = copy_lines(synthetic, rng, shape.integers(10, 31, size=800))
        val = copy_lines(synthetic, rng, shape.integers(10, 31, size=200))
    else:
        raise KeyError(name)
    paths = {"train_data": os.path.join(out_dir, "train.txt"),
             "val_data": os.path.join(out_dir, "valid.txt")}
    synthetic.write_lines(paths["train_data"], train)
    synthetic.write_lines(paths["val_data"], val)
    return paths
