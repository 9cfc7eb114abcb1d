"""Gated recurrent cells: the standard LSTM step and the memory-tape step.

The tape cell keeps every past (h_i, c_i) pair in a per-sequence tape
and, at each step, addresses them with an attention distribution to form
adaptive summaries (h~, c~) that replace the single recurrent state.

A state is one (B, 2h) block [h | c], the node that one
``autodiff.gate_cell`` makes from the block before: the LSTM's own
[h | c] or, in the tape cell, the summary block [h~ | c~] that the
attention read returns.
h is read from the block, by the slot key's ``linear`` in its first
columns, and gets a ``slice_cols`` node of its own only where a caller
asks for it (``StackRun.top_h``).  ``lstmn_step`` is the one tape-cell
step: every tape layer and both fusion decoders (``fusion.DecoderState``)
run it, deep fusion passing its inter-attention summary block [g~ | a~]
and transfer gate ``W_r``, from which the gate cell forms the source
memory term r * a~.  A tape step is four nodes: the read
(``tape_attend``), ``gate_cell``, the slot's key (``linear``) and the
slot's ``tape_write``; an LSTM step is one ``gate_cell``.

``run_stack`` is the one layer stack: a layer without intra-attention
weights is a plain LSTM layer (model ``lstm``), and layer k+1 reads layer
k's outputs over the whole sequence, one layer at a time, optionally
with a skip connection from the token embedding.  Each layer reads one
packed, step-major input block, step t's input in its rows [o_t, o_t +
B_t), and an upper layer's block is formed once: one gather of the
lower tape's h columns, which hold every step (``StackRun.packed``),
joined to the embedding block when skip connections are on.

A tape layer keeps one tape, whose slots hold the values [h | c] and
their attention keys, to which each step appends in place through one
``autodiff.tape_write`` (``Tapes``); the attention read, which ends at
the tape's written end, and both summaries are a single fused node
(``autodiff.tape_attend``), and the backward hands one gradient buffer
down the chain of writes, so a step costs the same graph work at any
tape length.  Each write's backward adds its slot's value gradient from
the reads that the chain's read log holds, in one product, and takes its
key's gradient from the log; a read keeps no tanh activations, and its
backward recomputes them from the keys.

All step functions are batch-first: an input block is (N, in), read in
a step's row range ``span`` (all of it by default), state blocks (B,
2h).  A batch may be packed (``autodiff``'s row rules): step t runs only
its B_t live rows, and the kernels read those rows of the blocks and
tapes carried from earlier steps, so padded steps cost nothing and
cannot leak into a row's state.  Weights are immutable
during forward/backward; tapes belong to one sequence, never shared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import TapeError, Tensor


@dataclass
class IntraAttentionWeights:
    v: Tensor            # (a,)
    w_h: Tensor          # (a, h)   tape-slot projection
    w_x: Tensor          # (a, in)  current-input projection
    w_htilde: Tensor     # (a, h)   previous-summary projection
    bias: Optional[Tensor] = None   # (a,) shared inside the tanh


@dataclass
class LstmnLayerWeights:
    """One stack layer: the gate block W, mapping [recurrent-input,
    token-input] to the four gate pre-activations stacked row-wise in (i,
    f, o, c-hat) order, and its bias; a tape layer, or a plain LSTM layer
    when ``attn`` is None."""
    w: Tensor            # (4h, h + in)
    bias: Tensor         # (4h,)
    attn: Optional[IntraAttentionWeights] = None

    @property
    def hidden_size(self) -> int:
        return self.w.data.shape[0] // 4

    def named(self, prefix: str, upper: bool = False) -> dict:
        """Checkpoint tensors for one layer.  Upper layers store their
        input projection as W_l (it projects the layer below's output)."""
        out = {f"{prefix}.W": self.w, f"{prefix}.bias": self.bias}
        if self.attn is not None:
            out[f"{prefix}.v"] = self.attn.v
            out[f"{prefix}.W_h"] = self.attn.w_h
            out[f"{prefix}.W_l" if upper else f"{prefix}.W_x"] = self.attn.w_x
            out[f"{prefix}.W_htilde"] = self.attn.w_htilde
            if self.attn.bias is not None:
                out[f"{prefix}.attn_bias"] = self.attn.bias
        return out


@dataclass
class StackWeights:
    layers: list          # of LstmnLayerWeights
    skip: bool = False    # append the token embedding to upper-layer inputs

    def named(self, prefix: str = "") -> dict:
        out = {}
        for k, layer in enumerate(self.layers):
            name = f"{prefix}layer{k + 1}"
            out.update(layer.named(name, upper=k > 0))
        return out


class Tapes:
    """Per-sequence hidden and memory tapes, with cached attention keys:
    one tape (``autodiff.tape_write``) whose slot i holds the values
    [h_i | c_i] and the key W_h h_i.

    The key is projected once, when the slot is appended, and reused by
    every later step, and a read of the values gives a summary block
    [h~ | c~].  ``append`` writes the next slot by one ``tape_write``,
    which allocates the tape for ``length`` slots (or ``INITIAL_SLOTS``),
    doubles it when full and checks each slot's shapes; ``memory`` is the
    tape node after the latest write, the end of the chain of writes that
    the backward runs back, whose written end counts the slots written.

    With a capacity, attention reads only the newest ``capacity`` slots:
    the read window is [n - capacity, n) over the n slots written, and
    ``len`` counts the slots in it (FIFO eviction, without moving data).
    """

    INITIAL_SLOTS = 16

    def __init__(self, capacity: Optional[int] = None, length: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise TapeError(f"tape capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.length = length
        self.memory: Optional[Tensor] = None

    def __len__(self) -> int:
        written = 0 if self.memory is None else self.memory.end
        return written if self.capacity is None else min(written, self.capacity)

    def append(self, *parts: Tensor) -> None:
        """Write the next slot from ``parts``: ([h | c], key) or (h, c,
        key), the value parts of one width; ``tape_write`` checks the
        rest against the tape."""
        if len({p.data.shape[-1] for p in parts[:-1]}) != 1:
            raise TapeError(f"tape slot shapes differ: parts {[p.data.shape for p in parts]}")
        self.memory = ad.tape_write(self.memory, parts[:-1], parts[-1],
                                    self.length or self.INITIAL_SLOTS)


# Values per ``rng.uniform`` call when ``glorot`` fills a matrix.
GLOROT_BLOCK = 1 << 16


def glorot(rng: np.random.Generator, rows: int, cols: int, order: str = "C") -> Tensor:
    """Uniform(-b, b), b = sqrt(6 / (rows + cols)), drawn in row-major
    order, block by block of rows, into a matrix of the memory layout
    ``order``: a column-major matrix gets the same values as a row-major
    one with no row-major copy of it made."""
    bound = np.sqrt(6.0 / (rows + cols))
    w = np.empty((rows, cols), order=order)
    step = max(1, GLOROT_BLOCK // max(cols, 1))
    for lo in range(0, rows, step):
        w[lo:lo + step] = rng.uniform(-bound, bound, size=(min(step, rows - lo), cols))
    return Tensor(w, requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_lstmn_layer(rng, hidden: int, in_size: int, attn_size: Optional[int],
                     attention_bias: bool = True) -> LstmnLayerWeights:
    """A layer with Glorot W and zero bias, then for a tape layer (an
    ``attn_size``) Glorot W_h, W_x and W_htilde, drawn in that order, and
    zero v and attention bias (None without ``attention_bias``)."""
    layer = LstmnLayerWeights(glorot(rng, 4 * hidden, hidden + in_size), zeros_param(4 * hidden))
    if attn_size is not None:
        layer.attn = IntraAttentionWeights(
            v=zeros_param(attn_size),
            w_h=glorot(rng, attn_size, hidden),
            w_x=glorot(rng, attn_size, in_size),
            w_htilde=glorot(rng, attn_size, hidden),
            bias=zeros_param(attn_size) if attention_bias else None)
    return layer


def init_stack(rng, num_layers: int, hidden: int, embed: int, attn_size: Optional[int],
               skip: bool = False, attention_bias: bool = True) -> StackWeights:
    """Tape layers, or plain LSTM layers when ``attn_size`` is None."""
    if num_layers < 1:
        raise ValueError(f"layer count must be >= 1, got {num_layers}")
    layers = []
    for k in range(num_layers):
        in_size = embed if k == 0 else hidden + (embed if skip else 0)
        layers.append(init_lstmn_layer(rng, hidden, in_size, attn_size, attention_bias))
    return StackWeights(layers=layers, skip=skip)


def zero_state(batch: int, hidden: int) -> Tensor:
    """The (B, 2h) zero block, in the default dtype: the LSTM's first
    [h | c] and the tape cell's first-step summary [h~ | c~]."""
    return Tensor(np.zeros((batch, 2 * hidden)))


def intra_attend(x: Tensor, tapes: Tapes, htilde_prev: Tensor,
                 w: IntraAttentionWeights, span: Optional[tuple] = None) -> tuple:
    """Attention over the tape's read window: (summary block [h~ | c~],
    weights as a plain (B, len(tapes)) array), from one fused
    ``autodiff.tape_attend`` node over the rows ``span`` of the input
    block ``x``.  ``htilde_prev`` is the previous h~, or the previous
    summary block (whose h~ columns are read).

    The tape must be non-empty; the first-step convention is
    ``lstmn_step``'s concern.
    """
    if len(tapes) == 0:
        raise TapeError("attention over an empty tape")
    return ad.tape_attend(tapes.memory, tapes.memory.end - len(tapes), x, w.w_x, htilde_prev,
                          w.w_htilde, w.v, w.bias, span=span)


def lstmn_step(x: Tensor, tapes: Tapes, summary_prev: Optional[Tensor],
               layer: LstmnLayerWeights, inter: Optional[Tensor] = None,
               w_r: Optional[Tensor] = None, span: Optional[tuple] = None):
    """One memory-tape update over the rows ``span`` of the input block
    ``x`` (all of it by default); appends the new [h | c] and its key
    W_h h to ``tapes``.  ``summary_prev`` is the previous step's summary
    block [h~ | c~] (or its h~ alone), whose h~ the attention query
    reads.  Returns (the state block [h | c], the summary block, the
    attention weights or None).

    The one tape-cell step of the encoder layers and of both fusion
    decoders: four nodes once the tape holds a slot.  Deep fusion passes
    its inter-attention summary block ``inter`` = [g~ | a~] and transfer
    gate ``w_r``, for the extra memory term r * a~: c_t = (r * a~ + f * c~)
    + i * c-hat.

    Empty-tape convention: at the first step the summary is the zero
    block (and ``summary_prev`` is unused), so the gate block sees
    [0, x_t] and c_t reduces to [r * a~ +] i * c-hat.
    """
    if len(tapes) == 0:
        batch = x.data.shape[0] if span is None else span[1] - span[0]
        summary, weights = zero_state(batch, layer.hidden_size), None
    else:
        summary, weights = intra_attend(x, tapes, summary_prev, layer.attn, span)
    state = ad.gate_cell(summary, x, layer.w, layer.bias, inter, w_r, span=span)
    tapes.append(state, ad.linear(state, layer.attn.w_h))
    return state, summary, weights


@dataclass
class StackRun:
    """Full-sequence result: per-step top-layer state blocks [h | c]
    (kept for every step even when a capacity bound keeps attention from
    reading them; the models read them as one block, ``packed``),
    per-step top-layer attention weights (None for an LSTM top layer or
    an empty tape; step t's n columns are slots t-n..t-1), the top
    layer's tapes and the steps' row counts B_t."""
    top: list             # [T] of (B_t, 2h) [h | c]
    traces: list          # [T] of (B, n) weights or None
    tapes: Tapes
    rows: list            # [T] of B_t

    @property
    def top_h(self) -> list:
        """[T] of (B_t, h), new slice nodes on every read; only the
        benchmark's probes and tests read states per step."""
        return [ad.slice_cols(s, 0, s.data.shape[1] // 2) for s in self.top]

    @property
    def top_c(self) -> list:
        """[T] of (B_t, h), new slice nodes on every read; only the
        benchmark's probes and tests read them."""
        return [ad.slice_cols(s, s.data.shape[1] // 2, s.data.shape[1]) for s in self.top]

    def packed(self) -> Tensor:
        """Every step's top-layer h as one packed, step-major (sum B_t, h)
        block: one gather of the top tape's h columns, which hold every
        step, or for an LSTM layer, which keeps no tape, the h columns of
        its joined states."""
        hidden = self.top[0].data.shape[1] // 2
        if self.tapes.memory is None:
            return ad.slice_cols(ad.concat(self.top, axis=0), 0, hidden)
        return ad.slice_cols(self.tapes.memory, 0, hidden, rows=self.rows)


def packed_input(xs, rows: Optional[list]) -> tuple:
    """(input block, [B_t], each step's row range [o_t, o_t + B_t)) of a
    packed, step-major block with its step ``rows``, or of a list of
    per-step (B_t, in) inputs, joined once into one: B_t never growing,
    none empty, and summing to the block's rows."""
    if not isinstance(xs, Tensor):
        rows = [x.data.shape[0] for x in xs]
    if not rows:
        raise TapeError("cannot run over an empty sequence")
    if list(rows) != sorted(rows, reverse=True) or rows[-1] < 1:
        raise TapeError(f"steps of {rows} rows: packed rows must be sorted longest first "
                        "and never empty")
    block = xs if isinstance(xs, Tensor) else ad.concat(xs, axis=0)
    if block.data.ndim != 2 or sum(rows) != block.data.shape[0]:
        raise ad.ShapeMismatchError(f"an input block {block.data.shape} for steps of "
                                    f"{rows} rows")
    ends = list(itertools.accumulate(rows))
    return block, list(rows), list(zip([0] + ends[:-1], ends))


def run_stack(xs, w: StackWeights, capacity: Optional[int] = None,
              rows: Optional[list] = None) -> StackRun:
    """Process a token-embedding sequence left to right, one layer at a
    time: layer 1 over every step, then layer k+1 over layer k's outputs
    (joined with the embeddings when skip connections are on).  A tape
    layer carries its summary block [h~ | c~] between steps, an LSTM layer
    its [h | c].  ``capacity`` bounds only how far back attention may look.

    ``xs`` is the packed, step-major (sum B_t, in) input block, step t's
    B_t = ``rows[t]`` rows after step t - 1's, those still live at step t,
    with B_t never growing (rows sorted longest first); step t's states
    and tape slot then have B_t rows.  A list of per-step (B_t, in) inputs
    is joined into one block first."""
    block, rows, spans = packed_input(xs, rows)
    x, run = block, None
    for layer in w.layers:
        if run is not None:
            # Dropping the layer below here frees its tape under no_grad.
            below, run = run.packed(), None
            x = ad.concat([below, block], axis=1) if w.skip else below
        tapes, states, traces = Tapes(capacity, length=len(rows)), [], []
        carried = zero_state(rows[0], layer.hidden_size) if layer.attn is None else None
        for span in spans:
            if layer.attn is None:
                state = carried = ad.gate_cell(carried, x, layer.w, layer.bias, span=span)
                weights = None
            else:
                state, carried, weights = lstmn_step(x, tapes, carried, layer, span=span)
            states.append(state)
            traces.append(weights)
        run = StackRun(top=states, traces=traces, tapes=tapes, rows=rows)
    return run
