"""Task heads and losses: next-token NLL with perplexity, mean-pooled
sentence classification, and two-encoder pair inference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import cells, fusion, optim
from .autodiff import Tensor
from .cells import StackWeights, TapeError


@dataclass
class EvalMetrics:
    """One evaluation record.  PPL = exp(NLL / T)."""
    nll: float = 0.0
    tokens: int = 0
    accuracy: Optional[float] = None
    dataset: str = ""
    split: str = ""

    @property
    def ppl(self) -> float:
        if self.tokens == 0:
            raise ValueError("perplexity undefined with zero tokens")
        return math.exp(self.nll / self.tokens)

    def record(self) -> str:
        parts = [f"dataset={self.dataset or '-'}", f"split={self.split or '-'}",
                 f"nll={self.nll:.6f}", f"tokens={self.tokens}"]
        parts.append(f"ppl={self.ppl:.4f}" if self.tokens else "ppl=-")
        parts.append(f"accuracy={self.accuracy:.4f}" if self.accuracy is not None
                     else "accuracy=-")
        return " ".join(parts)


@dataclass
class OutputProjection:
    """Affine map from hidden states to vocabulary logits."""
    w: Tensor       # (V, h)
    b: Tensor       # (V,)

    def named(self, prefix: str = "output") -> dict:
        return {f"{prefix}.W": self.w, f"{prefix}.b": self.b}

    def __call__(self, h: Tensor) -> Tensor:
        return ad.add(ad.linear(h, self.w), self.b)


def init_output_projection(rng, vocab: int, hidden: int) -> OutputProjection:
    return OutputProjection(w=cells.glorot(rng, vocab, hidden),
                            b=cells.zeros_param(vocab))


@dataclass
class ClassifierHead:
    """Two affine layers with a ReLU between; dropout hits the pooled
    input while training."""
    w1: Tensor      # (d, in)
    b1: Tensor      # (d,)
    w2: Tensor      # (labels, d)
    b2: Tensor      # (labels,)
    dropout: float = 0.5

    def named(self, prefix: str = "head") -> dict:
        return {f"{prefix}.W1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.W2": self.w2, f"{prefix}.b2": self.b2}


def init_classifier_head(rng, in_size: int, hidden: int, labels: int,
                         dropout: float = 0.5) -> ClassifierHead:
    if hidden < 1:
        raise ValueError(f"head hidden width must be >= 1, got {hidden}")
    return ClassifierHead(
        w1=cells.glorot(rng, hidden, in_size), b1=cells.zeros_param(hidden),
        w2=cells.glorot(rng, labels, hidden), b2=cells.zeros_param(labels),
        dropout=dropout)


def _lm_logits(hidden_states: list, targets: np.ndarray, mask: Optional[np.ndarray],
               proj: OutputProjection):
    """Logits of all B*T positions from one projection, with targets and
    mask flattened to match.  Rows run step-major, (t, b), so that each
    step's (B, h) gradient is a contiguous block of the backward."""
    targets = np.asarray(targets)
    steps = len(hidden_states)
    if targets.shape[1] != steps:
        raise ad.ShapeMismatchError(
            f"lm_loss: {steps} hidden states vs targets {targets.shape}")
    if mask is None:
        mask = np.ones_like(targets, dtype=np.float64)
    logits = proj(ad.concat(hidden_states, axis=0))
    return logits, targets.T.reshape(-1), np.asarray(mask).T.reshape(-1)


def lm_loss(hidden_states: list, targets: np.ndarray, mask: Optional[np.ndarray],
            proj: OutputProjection):
    """Summed NLL of targets[:, t] under the projection of h_t.

    ``hidden_states`` is the per-step list of (B, h); targets and mask
    are (B, T).  Masked positions contribute to neither the NLL nor the
    token count.  Returns (nll scalar Tensor, token count).

    The whole batch is projected at once, so the (B*T, V) logits are
    materialised, along with same-sized softmax and gradient arrays: at
    the PTB shape (B=20, T up to 41, V=10,004) each is about 66 MB in
    float64.
    """
    logits, targets, mask = _lm_logits(hidden_states, targets, mask, proj)
    return ad.masked_nll(logits, targets, mask), int(mask.sum())


def lm_correct(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> int:
    """Greedy next-token hits over the unmasked rows of (N, V) logits."""
    return int(((logits.data.argmax(axis=1) == targets) & (mask != 0)).sum())


def lm_eval(hidden_states: list, targets: np.ndarray, mask: Optional[np.ndarray],
            proj: OutputProjection) -> tuple:
    """(NLL, token count, greedy next-token hits) over unmasked positions,
    all from one projection of the batch (evaluation only)."""
    logits, targets, mask = _lm_logits(hidden_states, targets, mask, proj)
    nll = ad.masked_nll(logits, targets, mask).item()
    return nll, int(mask.sum()), lm_correct(logits, targets, mask)


def mean_pool(stacked: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mask-aware average over the slot axis of (B, T, h)."""
    b, t, _ = stacked.data.shape
    if t == 0:
        raise TapeError("cannot pool an empty tape")
    if mask is None:
        weights = np.full((b, t), 1.0 / t)
    else:
        mask = np.asarray(mask, dtype=stacked.data.dtype)
        counts = mask.sum(axis=1, keepdims=True)
        if np.any(counts == 0):
            raise TapeError("cannot pool a row with no unmasked positions")
        weights = mask / counts
    return ad.attend(Tensor(weights), stacked)


def classify_sentence(tape_h: list, mask: Optional[np.ndarray],
                      head: ClassifierHead, training: bool = False,
                      rng=None) -> Tensor:
    """Label logits from the mean-pooled hidden tape."""
    if not tape_h:
        raise TapeError("cannot classify from an empty tape")
    pooled = mean_pool(ad.stack_slots(tape_h), mask)
    return head_logits(pooled, head, training, rng)


def head_logits(features: Tensor, head: ClassifierHead, training: bool = False,
                rng=None) -> Tensor:
    x = optim.dropout(features, head.dropout, training, rng)
    hidden = ad.relu(ad.add(ad.linear(x, head.w1), head.b1))
    return ad.add(ad.linear(hidden, head.w2), head.b2)


def infer_pair(premise_xs: list, hypothesis_xs: list,
               premise_encoder: StackWeights, hypothesis_encoder: StackWeights,
               head: ClassifierHead,
               premise_mask: Optional[np.ndarray] = None,
               hypothesis_mask: Optional[np.ndarray] = None,
               capacity: Optional[int] = None,
               training: bool = False, rng=None) -> Tensor:
    """Three-way logits from two encoders: each sentence's hidden tape is
    mean-pooled and the two averages are concatenated into the head."""
    if not premise_xs or not hypothesis_xs:
        raise TapeError("pair inference needs two non-empty sentences")
    src_p, _ = fusion.encode(premise_xs, premise_encoder, capacity, premise_mask)
    src_h, _ = fusion.encode(hypothesis_xs, hypothesis_encoder, capacity, hypothesis_mask)
    features = ad.concat([mean_pool(src_p.y, premise_mask),
                          mean_pool(src_h.y, hypothesis_mask)], axis=1)
    return head_logits(features, head, training, rng)
