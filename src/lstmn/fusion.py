"""Encoder-decoder composition of two tape cells with inter-attention.

The encoder is a (possibly stacked) tape cell; its final top-layer tapes
become the source hidden tape Y and memory tape A.  The decoder is a
single tape cell that additionally attends over the source at every
step.  Both couplings run the same tape-cell step, ``cells.lstmn_step``:

* shallow fusion: the decoder update is the plain tape-cell step; the
  source context vector only joins the prediction input, concatenated
  with h_t.
* deep fusion: a transfer gate r over [gamma~, x] writes the aligned
  source memory into the target memory update,
  c_t = r * a~ + f * c~ + i * c-hat.  The step hands the inter-attention
  summary block [gamma~ | alpha~] and W_r to the fused gate cell
  (``autodiff.gate_cell``), which forms r and its term in the same node.

Inter-attention uses the same fused kernel as the tape cell
(``autodiff.tape_attend``): the source is packed once per decoded
sequence into one tape of m slots, the values [y_j | a_j] and the keys
W_gamma y_j, by one ``autodiff.tape_write`` (``source_projection``), and
each decode step reads all of it, up to that tape's written end, in one
node; the decoder keeps that tape and the source mask.  Intra and inter
reads thus take one backward path: each read logs its weights, output
gradient and key gradient, and the source write forms the whole source's
value gradient in one batched product and takes its keys' gradient from
the log; a read keeps no tanh activations, and its backward recomputes
them from the keys.

``DecoderState.step`` is the one decode step (inter-attention, then
the tape-cell step, with the transfer gate for deep fusion): five graph
nodes per step once the target tape holds a slot, the inter read and
the four of a tape step.  Teacher-forced training (``run_decoder``)
reads every step's input from one packed, step-major block, and greedy
decoding (``models.Seq2SeqModel.generate``) passes a one-row block per
step; the prediction input is formed apart from the step
(``DecoderState.features``, ``DecodeRun.packed``), so a greedy token adds
only its embedding lookup and the output projection: seven nodes for
deep fusion.  The decoder may run packed, the batch sorted by target
length, longest first: step t takes the B_t live rows, and its kernels
read the same rows of the carried summary and context and of a source
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


def encode(xs, w: StackWeights, capacity: Optional[int] = None,
           mask: Optional[np.ndarray] = None, rows: Optional[list] = None):
    """Run the encoder over source embeddings, left to right: a packed
    block with its step ``rows``, or per-step inputs (``cells.run_stack``).

    Returns (SourceTapes, the top layer's per-step attention weights, as
    ``StackRun.traces``).  The source tapes are the h and c columns of the
    encoder's top tape, which holds every step's state; ``capacity`` only
    bounds how far back the encoder's own attention may look.
    """
    run = cells.run_stack(xs, w, capacity=capacity, rows=rows)
    y, a = run.tape_states()
    return SourceTapes(y=y, a=a, mask=mask), run.traces


def source_projection(src: SourceTapes, w: InterAttentionWeights) -> Tensor:
    """Pack the source into the tape inter-attention reads, once per
    decoded sequence and reused by all decode steps: the values
    [y_j | a_j] and the keys W_gamma y_j of all m slots in one
    ``tape_write``, so the backward forms the whole source's value
    gradient in one product.  An empty source is a ``TapeError``."""
    if src.length < 1:
        raise TapeError("inter-attention needs a non-empty source")
    return ad.tape_write(None, (src.y, src.a), ad.linear(src.y, w.w_gamma), src.length)


def inter_attend(x: Tensor, source: Tensor, gamma_tilde_prev: Tensor,
                 w: InterAttentionWeights, mask: Optional[np.ndarray],
                 span: Optional[tuple] = None) -> tuple:
    """Align the current target input, rows ``span`` of the input block
    ``x`` (all of it by default), against the whole source, read from
    ``source``, the tape ``source_projection`` made, under the source
    ``mask``: (the summary block [gamma~ | alpha~] (B, 2h), the weights as
    a plain (B, m) array).  ``gamma_tilde_prev`` is the previous gamma~,
    or the previous summary block, whose gamma~ columns the query reads."""
    return ad.tape_attend(source, 0, x, w.w_x, gamma_tilde_prev, w.w_gammatilde, w.u,
                          mask=mask, span=span)


class DecoderState:
    """Decoding state for one batch: the target tapes, the carried intra
    summary block [h~ | c~] and inter summary block [gamma~ | alpha~]
    (``gamma_tilde``; a zero gamma~ before the first step), the latest cell
    state, and the source tape packed once for inter-attention with the
    source mask.  ``length`` preallocates that many tape slots."""

    def __init__(self, src: SourceTapes, w: DecoderWeights, mode: str,
                 capacity: Optional[int] = None, length: Optional[int] = None):
        if mode not in ("deep", "shallow"):
            raise ValueError(f"unknown fusion mode {mode!r}")
        self.w, self.mode = w, mode
        self.tapes = Tapes(capacity, length=length)
        self.summary = None   # unused while the target tape is empty
        self.gamma_tilde = Tensor(np.zeros((src.y.data.shape[0], w.cell.gates.hidden_size)))
        self.state: Optional[CellState] = None
        self.source, self.mask = source_projection(src, w.inter), src.mask

    def step(self, x: Tensor, span: Optional[tuple] = None) -> tuple:
        """One decoder step over the rows ``span`` of the input block ``x``
        (all of it by default): inter-attention, then the tape-cell step,
        for deep fusion with the transfer gate over the inter summary
        block.  Returns (intra weights, inter weights).

        The rows are the first B_t, those still live in a packed batch
        (never more than the step before); the kernels read the same rows
        of the carried summary blocks and of the source."""
        w, deep = self.w.inter, self.mode == "deep"
        self.gamma_tilde, inter = inter_attend(x, self.source, self.gamma_tilde, w, self.mask,
                                               span)
        self.state, self.summary, intra = cells.lstmn_step(
            x, self.tapes, self.summary, self.w.cell, self.gamma_tilde if deep else None,
            w.w_r if deep else None, span)
        return intra, inter

    def features(self) -> Tensor:
        """The latest step's prediction input for the output projection:
        [h_t | c_t] for deep fusion, which the projection reads in its
        first columns, h_t; [h_t, gamma~_t] for shallow."""
        if self.mode == "deep":
            return self.state.hc
        return _shallow_features(self.state.h, self.gamma_tilde)


def _shallow_features(h: Tensor, gamma: Tensor) -> Tensor:
    """[h, gamma~] from h and the inter summary block [gamma~ | alpha~]."""
    return ad.concat([h, ad.slice_cols(gamma, 0, h.data.shape[1])], axis=1)


@dataclass
class DecodeRun:
    """Per-step decoder states, inter summary blocks [gamma~ | alpha~]
    and both attention weight streams (intra as in ``StackRun.traces``,
    inter (B, m) over the whole source), with the target tapes, the
    steps' row counts and the fusion mode."""
    top: list             # [T] of CellState
    gammas: list          # [T] of (B_t, 2h)
    intra: list
    inter: list
    tapes: Tapes
    rows: list
    mode: str

    @property
    def outputs(self) -> list:
        """Per-step prediction inputs, new nodes on every read: h_t for
        deep fusion, [h_t, gamma~_t] for shallow.  Only the benchmark's
        probes and tests read them per step; the models read ``packed``."""
        if self.mode == "deep":
            return [s.h for s in self.top]
        return [_shallow_features(s.h, g) for s, g in zip(self.top, self.gammas)]

    def packed(self) -> Tensor:
        """Every step's prediction input as one packed, step-major block:
        the target tape's h columns, gathered once, joined for shallow
        fusion to the gamma~ columns of the joined inter summaries."""
        hidden = self.tapes.memory.data.shape[2] // 2
        h = ad.slice_cols(self.tapes.memory, 0, hidden, rows=self.rows)
        if self.mode == "deep":
            return h
        return _shallow_features(h, ad.concat(self.gammas, axis=0))


def run_decoder(xs, src: SourceTapes, w: DecoderWeights, mode: str,
                capacity: Optional[int] = None, rows: Optional[list] = None) -> DecodeRun:
    """Teacher-forced decoding of a packed, step-major input block with its
    step ``rows``, or of per-step inputs joined into one
    (``cells.run_stack``)."""
    block, rows, spans = cells.packed_input(xs, rows)
    decoder = DecoderState(src, w, mode, capacity, length=len(rows))
    run = DecodeRun([], [], [], [], decoder.tapes, rows, mode)
    for span in spans:
        intra, inter = decoder.step(block, span)
        run.top.append(decoder.state)
        run.gammas.append(decoder.gamma_tilde)
        run.intra.append(intra)
        run.inter.append(inter)
    return run
