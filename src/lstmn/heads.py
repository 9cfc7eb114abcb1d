"""Task heads and losses: next-token NLL with perplexity and greedy hits,
mean pooling, and the classifier head over pooled features.  Both losses
return ``autodiff.affine_nll``'s greedy hits with the NLL, so training
and evaluation share one path.  ``lm_loss`` takes its states in one of
three forms: one packed, step-major block of the live positions, as the
models give it, or a per-step list, packed (step t's B_t live rows,
longest first) or full rows; ``mean_pool`` takes them per step, packed."""

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
    ``affine_nll`` forms its gradient zᵀh (z the (N, V) softmax gradient,
    h the (N, h) states) in W's own layout, which BLAS computes as the
    plain row-major product hᵀz.  A row-major zᵀh takes OpenBLAS's
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
    ``models.pack`` orders them, so the mask is live in a prefix of each
    step's rows), or the per-step list of states: full rows (B, h), or
    packed, step t's first B_t rows, which must be exactly the rows the
    mask marks live at step t.  Only the live positions are projected, in
    one ``autodiff.affine_nll`` node: while a graph is recorded, one
    (live, V) buffer serves the logits, the softmax and the gradient;
    under ``no_grad`` the logits are formed one row block at a time and
    never held whole.  A packed list, joined step-major, is those
    positions already; full rows around padding are gathered to them from
    the step-major (t, b) concat, so padded states get an exact zero
    gradient.
    """
    targets, mask = np.asarray(targets), np.asarray(mask) != 0
    batch, steps = targets.shape
    block = isinstance(hidden_states, Tensor)
    states = [hidden_states] if block else hidden_states
    if mask.shape != targets.shape or (not block and steps != len(states)):
        raise ad.ShapeMismatchError(f"lm_loss: hidden states {[h.data.shape for h in states]} "
                                    f"and mask {mask.shape} vs targets {targets.shape}")
    rows = mask.sum(axis=0) if block else np.array([h.data.shape[0] for h in states])
    if (block or (rows != batch).any()) and \
            not np.array_equal(mask, np.arange(batch)[:, None] < rows):
        raise ad.ShapeMismatchError(f"lm_loss: packed states of {rows.tolist()} rows need "
                                    "a mask live in exactly those rows of each step")
    targets, live = targets.T.reshape(-1), np.flatnonzero(mask.T.reshape(-1))
    h = hidden_states if block else ad.concat(states, axis=0)
    if h.data.shape[0] != live.size:
        if block:
            raise ad.ShapeMismatchError(f"lm_loss: {h.data.shape[0]} packed states for "
                                        f"{live.size} live positions")
        h = ad.lookup(h, live)
    nll, hits = ad.affine_nll(h, proj.w, proj.b, targets[live])
    return nll, live.size, lm_correct(hits)


def lm_correct(hits: np.ndarray) -> int:
    """Greedy next-token hits in ``affine_nll``'s record of live rows."""
    return int(hits.sum())


def mean_pool(states: list) -> Tensor:
    """Each row's mean over its steps of packed (B_t, h) states (row i is
    in the steps with B_t > i): an ``attend`` under constant weights built
    in the states' dtype."""
    if not states:
        raise TapeError("cannot pool an empty tape")
    rows = [s.data.shape[0] for s in states]
    live = (np.arange(rows[0])[:, None] < rows).astype(states[0].data.dtype)
    return ad.attend(live / live.sum(axis=1, keepdims=True), states)
