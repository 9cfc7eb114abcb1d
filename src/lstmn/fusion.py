"""Encoder-decoder composition of two tape cells with inter-attention.

The encoder is a (possibly stacked) tape cell; its final top-layer tapes
become the source hidden tape Y and memory tape A.  The decoder is a
single tape cell that additionally attends over the source at every
step.  Both couplings run the same tape-cell step, ``cells.lstmn_step``:

* shallow fusion: the decoder update is the plain tape-cell step; the
  source context vector only joins the prediction input, concatenated
  with h_t.
* deep fusion: a transfer gate r over [gamma~, x] writes the aligned
  source memory into the target memory update, passed to the step as
  its ``transfer`` term r * a~: c_t = r * a~ + f * c~ + i * c-hat, one
  term of the fused gate cell (``autodiff.gate_cell``).

Inter-attention uses the same fused kernel as the tape cell
(``autodiff.tape_attend``): the source is packed once per decoded
sequence into a (B, m, 2h + a) slot memory [y_j | a_j | W_gamma y_j]
(``source_projection``), and each decode step reads all of it in one
node.

``DecoderState.step`` is the one decode step (inter-attention, the
transfer gate, the tape-cell step): teacher-forced training
(``run_decoder``) and greedy decoding (``models.Seq2SeqModel.generate``)
both drive it.  The decoder may run packed, the batch sorted by target
length, longest first: step t takes the B_t live rows, cuts its carried
summary and context to them, and reads the same rows of a source
encoded over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import cells
from .autodiff import Tensor
from .cells import CellState, LstmnLayerWeights, StackWeights, TapeError, Tapes


@dataclass
class SourceTapes:
    """Stacked source-side tapes: y (B, m, h) hidden, a (B, m, h) memory,
    and a (B, m) validity mask for padded batching."""
    y: Tensor
    a: Tensor
    mask: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return self.y.data.shape[1]


@dataclass
class InterAttentionWeights:
    u: Tensor            # (a,)
    w_gamma: Tensor      # (a, h)  source-slot projection
    w_x: Tensor          # (a, e)  target-input projection
    w_gammatilde: Tensor  # (a, h) previous-context projection
    w_r: Tensor          # (h, h + e) transfer gate over [gamma~, x], no bias

    def named(self, prefix: str = "inter") -> dict:
        return {f"{prefix}.u": self.u,
                f"{prefix}.W_gamma": self.w_gamma,
                f"{prefix}.W_x": self.w_x,
                f"{prefix}.W_gammatilde": self.w_gammatilde,
                f"{prefix}.W_r": self.w_r}


@dataclass
class InterAttention:
    """One decode step's alignment over the source: the distribution as a
    plain array, both adaptive summaries, and the transfer gate (deep
    fusion only)."""
    weights: np.ndarray         # (B, m)
    gamma_tilde: Tensor         # (B, h)
    alpha_tilde: Tensor         # (B, h)
    gate: Optional[Tensor] = None   # (B, h)


@dataclass
class DecoderWeights:
    cell: LstmnLayerWeights
    inter: InterAttentionWeights

    def named(self, prefix: str = "") -> dict:
        out = self.cell.named(f"{prefix}layer1")
        out.update(self.inter.named(f"{prefix}inter"))
        return out


def init_inter_attention(rng, attn_size: int, hidden: int, embed: int) -> InterAttentionWeights:
    return InterAttentionWeights(
        u=cells.zeros_param(attn_size),
        w_gamma=cells.glorot(rng, attn_size, hidden),
        w_x=cells.glorot(rng, attn_size, embed),
        w_gammatilde=cells.glorot(rng, attn_size, hidden),
        w_r=cells.glorot(rng, hidden, hidden + embed),
    )


def init_decoder(rng, hidden: int, embed: int, attn_size: int,
                 attention_bias: bool = True) -> DecoderWeights:
    return DecoderWeights(
        cell=cells.init_lstmn_layer(rng, hidden, embed, attn_size, attention_bias),
        inter=init_inter_attention(rng, attn_size, hidden, embed),
    )


def encode(xs: list, w: StackWeights, capacity: Optional[int] = None,
           mask: Optional[np.ndarray] = None):
    """Run the encoder over source embeddings, left to right.

    Returns (SourceTapes, per-step top-layer IntraAttention traces).  The
    source tapes are the h and c columns of the encoder's top tape, which
    holds every step's state; ``capacity`` only bounds how far back the
    encoder's own attention may look.
    """
    if not xs:
        raise TapeError("cannot encode an empty source")
    run = cells.run_stack(xs, w, capacity=capacity)
    y, a = run.tape_states()
    return SourceTapes(y=y, a=a, mask=mask), run.traces


def source_projection(src: SourceTapes, w: InterAttentionWeights) -> Tensor:
    """Pack the source into the slot memory inter-attention reads, per
    slot [y_j | a_j | W_gamma y_j], once per decoded sequence; reused by
    all decode steps."""
    return ad.concat([src.y, src.a, ad.linear(src.y, w.w_gamma)], axis=2)


def inter_attend(x: Tensor, src: SourceTapes, gamma_tilde_prev: Tensor,
                 w: InterAttentionWeights,
                 src_proj: Optional[Tensor] = None) -> InterAttention:
    """Align the current target input against the whole source.
    ``src_proj`` is ``source_projection(src, w)``, computed here if not
    given."""
    if src.length < 1:
        raise TapeError("inter-attention needs a non-empty source")
    memory = src_proj if src_proj is not None else source_projection(src, w)
    summary, weights = ad.tape_attend(
        memory, 0, src.length, x, w.w_x, gamma_tilde_prev, w.w_gammatilde, w.u,
        mask=src.mask)
    hidden = src.y.data.shape[2]
    return InterAttention(weights, ad.slice_cols(summary, 0, hidden),
                          ad.slice_cols(summary, hidden, 2 * hidden))


class DecoderState:
    """Decoding state for one batch: the target tapes, the carried intra
    summary block [h~ | c~] and context gamma~, the latest cell state, and
    the source packed once for inter-attention.  ``length`` preallocates
    that many tape slots."""

    def __init__(self, src: SourceTapes, w: DecoderWeights, mode: str,
                 capacity: Optional[int] = None, length: Optional[int] = None):
        if mode not in ("deep", "shallow"):
            raise ValueError(f"unknown fusion mode {mode!r}")
        self.src, self.w, self.mode = src, w, mode
        self.tapes = Tapes(capacity, length=length)
        self.summary = None   # unused while the target tape is empty
        self.gamma_tilde = Tensor(np.zeros((src.y.data.shape[0], w.cell.gates.hidden_size)))
        self.state: Optional[CellState] = None
        self.src_proj = source_projection(src, w.inter)

    def step(self, x: Tensor):
        """One decoder step: inter-attention, the transfer gate (deep
        fusion only), then the tape-cell step.  Returns (prediction input,
        intra, inter): h_t for deep fusion, [h_t, gamma~_t] for shallow.

        ``x`` holds the first B_t rows of the batch, those still live in a
        packed batch (never more than the step before); the carried intra
        summary and context are cut to them, and inter-attention reads
        the same rows of the source."""
        rows = x.data.shape[0]
        if rows != self.gamma_tilde.data.shape[0]:
            self.summary = cells.live_rows(self.summary, rows)
            self.gamma_tilde = cells.live_rows(self.gamma_tilde, rows)
        w = self.w.inter
        inter = inter_attend(x, self.src, self.gamma_tilde, w, self.src_proj)
        transfer = None
        if self.mode == "deep":
            inter.gate = ad.sigmoid(
                ad.linear(ad.concat([inter.gamma_tilde, x], axis=1), w.w_r))
            transfer = ad.mul(inter.gate, inter.alpha_tilde)
        self.state, intra = cells.lstmn_step(x, self.tapes, self.summary, self.w.cell, transfer)
        self.summary, self.gamma_tilde = intra.summary, inter.gamma_tilde
        if self.mode == "deep":
            return self.state.h, intra, inter
        return ad.concat([self.state.h, inter.gamma_tilde], axis=1), intra, inter


@dataclass
class DecodeRun:
    """Per-step decoder outputs: prediction inputs (h_t for deep fusion,
    [h_t, gamma~_t] for shallow), plus both attention trace streams."""
    outputs: list
    intra: list
    inter: list


def run_decoder(xs: list, src: SourceTapes, w: DecoderWeights, mode: str,
                capacity: Optional[int] = None) -> DecodeRun:
    if not xs:
        raise TapeError("cannot decode an empty target")
    decoder = DecoderState(src, w, mode, capacity, length=len(xs))
    run = DecodeRun([], [], [])
    for x in xs:
        out, intra, inter = decoder.step(x)
        run.outputs.append(out)
        run.intra.append(intra)
        run.inter.append(inter)
    return run
