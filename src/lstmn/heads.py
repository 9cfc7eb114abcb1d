"""Task heads and losses: next-token NLL with perplexity and greedy hits,
mask-aware mean pooling, and the classifier head over pooled features.
Both losses return ``autodiff.affine_nll``'s greedy hits with the NLL,
so training and evaluation share one path.  ``lm_loss`` takes per-step
states as full rows, or packed (step t's B_t live rows, longest first),
as the language models give them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import cells, optim
from .autodiff import Tensor
from .cells import TapeError


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
        return ad.linear(h, self.w, self.b)


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

    def loss(self, features: Tensor, labels, training: bool = False, rng=None):
        """(summed NLL node, hits record) of ``labels``; the last affine
        map is applied by ``autodiff.affine_nll`` with the loss."""
        x = optim.dropout(features, self.dropout, training, rng)
        hidden = ad.relu(ad.linear(x, self.w1, self.b1))
        return ad.affine_nll(hidden, self.w2, self.b2, labels)


def init_classifier_head(rng, in_size: int, hidden: int, labels: int,
                         dropout: float = 0.5) -> ClassifierHead:
    if hidden < 1:
        raise ValueError(f"head hidden width must be >= 1, got {hidden}")
    return ClassifierHead(
        w1=cells.glorot(rng, hidden, in_size), b1=cells.zeros_param(hidden),
        w2=cells.glorot(rng, labels, hidden), b2=cells.zeros_param(labels),
        dropout=dropout)


def lm_loss(hidden_states: list, targets: np.ndarray, mask: Optional[np.ndarray],
            proj: OutputProjection):
    """Summed NLL of targets[:, t] under the projection of h_t.

    ``hidden_states`` is the per-step list of states; targets and mask
    are (B, T).  Masked positions contribute to neither the NLL nor the
    token count.  Returns (nll scalar Tensor, token count, greedy hits).

    Step t's states are full rows (B, h), or packed: the first B_t rows,
    which must be exactly the rows the mask marks live at step t (rows
    sorted longest first, as ``models.pack`` orders them).  Only the live
    positions are projected, all at once by ``autodiff.affine_nll``: one
    (live, V) buffer serves the logits, the softmax and the gradient.
    Packed states, step-major, are those positions already; full rows
    around padding are gathered to them from the step-major (t, b)
    concat, so padded states get an exact zero gradient.
    """
    targets = np.asarray(targets)
    batch, steps = targets.shape
    if steps != len(hidden_states):
        raise ad.ShapeMismatchError(
            f"lm_loss: {len(hidden_states)} hidden states vs targets {targets.shape}")
    rows = np.array([h.data.shape[0] for h in hidden_states])
    if (rows != batch).any() and (mask is None or not np.array_equal(
            np.asarray(mask) != 0, np.arange(batch)[:, None] < rows)):
        raise ad.ShapeMismatchError(f"lm_loss: packed states of {rows.tolist()} rows need "
                                    "a mask live in exactly those rows of each step")
    targets = targets.T.reshape(-1)
    live = np.arange(targets.size) if mask is None \
        else np.flatnonzero(np.asarray(mask).T.reshape(-1))
    h = ad.concat(hidden_states, axis=0)
    if h.data.shape[0] != live.size:
        h = ad.lookup(h, live)
    nll, hits = ad.affine_nll(h, proj.w, proj.b, targets[live])
    return nll, live.size, lm_correct(hits)


def lm_correct(hits: np.ndarray) -> int:
    """Greedy next-token hits in ``affine_nll``'s record of live rows."""
    return int(hits.sum())


def mean_pool(states: list, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mask-aware average of the per-step (B, h) states: an ``attend``
    under constant weights built in the states' dtype."""
    if not states:
        raise TapeError("cannot pool an empty tape")
    dtype = states[0].data.dtype
    mask = np.ones((states[0].data.shape[0], len(states)), dtype) if mask is None \
        else np.asarray(mask, dtype=dtype)
    counts = mask.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise TapeError("cannot pool a row with no unmasked positions")
    return ad.attend(mask / counts, states)
