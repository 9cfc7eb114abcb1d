"""Task heads and losses: next-token NLL with perplexity and greedy hits,
mean pooling, and the classifier head over pooled features.  Both losses
return ``autodiff.affine_nll``'s greedy hits with the NLL, so training
and evaluation share one path.  Every model hands a head its states as
one packed, step-major block of the live positions (step t's B_t live
rows, longest first): ``lm_loss`` projects it, and ``mean_pool`` pools
it in one product.  ``lm_loss`` also takes a per-step list of full (B, h)
rows, which only tests and the benchmark's probes pass."""

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
    """One evaluation record.  PPL = exp(NLL / T), inf on overflow."""
    nll: float = 0.0
    tokens: int = 0
    accuracy: Optional[float] = None
    dataset: str = ""
    split: str = ""

    @property
    def ppl(self) -> float:
        if self.tokens == 0:
            raise ValueError("perplexity undefined with zero tokens")
        try:
            return math.exp(self.nll / self.tokens)
        except OverflowError:
            return math.inf

    def record(self) -> str:
        parts = [f"dataset={self.dataset or '-'}", f"split={self.split or '-'}",
                 f"nll={self.nll:.6f}", f"tokens={self.tokens}"]
        parts.append(f"ppl={self.ppl:.4f}" if self.tokens else "ppl=-")
        parts.append(f"accuracy={self.accuracy:.4f}" if self.accuracy is not None
                     else "accuracy=-")
        return " ".join(parts)


@dataclass
class OutputProjection:
    """Affine map from hidden states to vocabulary logits.

    ``w`` keeps the (V, h) shape and the ``output.W`` checkpoint name, but
    its data is stored column-major (Fortran order), so that
    ``autodiff.backward`` forms its gradient zᵀh (``affine_nll``'s
    ``Outer``, z the (N, V) softmax gradient, h the (N, h) states) in W's
    own layout, which BLAS computes as the plain row-major product hᵀz.  A row-major zᵀh takes OpenBLAS's
    transposed path: at the PTB shapes (V = 10,004, h = 300) about half
    again as long, with some 17 MB of extra working memory.
    """
    w: Tensor       # (V, h), column-major
    b: Tensor       # (V,)

    def named(self, prefix: str = "output") -> dict:
        return {f"{prefix}.W": self.w, f"{prefix}.b": self.b}

    def __call__(self, h: Tensor) -> Tensor:
        return ad.linear(h, self.w, self.b)


def init_output_projection(rng, vocab: int, hidden: int) -> OutputProjection:
    """The seeded values of a row-major draw, drawn straight into
    column-major W."""
    return OutputProjection(w=cells.glorot(rng, vocab, hidden, order="F"),
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


def lm_loss(hidden_states, targets: np.ndarray, mask: np.ndarray, proj: OutputProjection):
    """Summed NLL of targets[:, t] under the projection of h_t.

    Targets and mask are (B, T).  Masked positions (mask 0) contribute to
    neither the NLL nor the token count.  Returns (nll scalar Tensor,
    token count, greedy hits).

    ``hidden_states`` is one packed (live, h) block, the live positions
    in step-major order (step t's B_t rows, longest first, as
    ``models.pack`` orders them, so the mask must be live in a prefix of
    each step's rows), or the per-step list of full (B, h) rows.  Only the
    live positions are projected, in one ``autodiff.affine_nll`` node:
    while a graph is recorded, one (live, V) buffer serves the logits, the
    softmax and the gradient; under ``no_grad`` the logits are formed one
    row block at a time and never held whole.  Full rows around padding
    are gathered to the live positions from the step-major (t, b) concat,
    so padded states get an exact zero gradient.
    """
    targets, mask = np.asarray(targets), np.asarray(mask) != 0
    batch, steps = targets.shape
    block = isinstance(hidden_states, Tensor)
    states = [hidden_states] if block else hidden_states
    if mask.shape != targets.shape or \
            (not block and [h.data.shape[0] for h in states] != [batch] * steps):
        raise ad.ShapeMismatchError(f"lm_loss: hidden states {[h.data.shape for h in states]} "
                                    f"and mask {mask.shape} vs targets {targets.shape}")
    targets, live = targets.T.reshape(-1), np.flatnonzero(mask.T.reshape(-1))
    h = hidden_states if block else ad.concat(states, axis=0)
    if block and (h.data.shape[0] != live.size or
                  not np.array_equal(mask, np.arange(batch)[:, None] < mask.sum(axis=0))):
        raise ad.ShapeMismatchError(f"lm_loss: {h.data.shape[0]} packed states need a mask "
                                    f"live in a prefix of each step's rows, {live.size} in all")
    if h.data.shape[0] != live.size:
        h = ad.lookup(h, live)
    nll, hits = ad.affine_nll(h, proj.w, proj.b, targets[live])
    return nll, live.size, lm_correct(hits)


def lm_correct(hits: np.ndarray) -> int:
    """Greedy next-token hits in ``affine_nll``'s record of live rows."""
    return int(hits.sum())


def mean_pool(states: Tensor, rows: list, order: np.ndarray) -> Tensor:
    """Each sequence's mean state, from a packed, step-major (sum B_t, h)
    block whose step t holds sorted rows 0..B_t - 1 (``rows`` = [B_t],
    longest first), with ``order[i]`` the batch row of sorted row i: one
    ``attend`` whose constant weights, in the states' dtype, hold 1/len_i
    at each of sorted row i's positions and are placed at output row
    ``order[i]``, so the means come back in batch order."""
    if not rows or rows[0] < len(order):
        raise TapeError("cannot pool a row with no live token")
    ranks = np.concatenate([np.arange(b) for b in rows])
    weights = np.zeros((len(order), ranks.size), dtype=states.data.dtype)
    inverse = 1 / np.bincount(ranks).astype(weights.dtype)
    weights[np.asarray(order)[ranks], np.arange(ranks.size)] = inverse[ranks]
    return ad.attend(weights, states)
