"""Gated recurrent cells: the standard LSTM step and the memory-tape step.

The tape cell keeps every past (h_i, c_i) pair in a per-sequence tape
and, at each step, addresses them with an attention distribution to form
adaptive summaries (h~, c~) that replace the single recurrent state.

A state is one (B, 2h) block [h | c].  ``lstm_step`` maps a block to
the next through one fused node (``autodiff.gate_cell``): the LSTM's
own [h | c], or, in the tape cell, the summary block [h~ | c~] that the
attention read returns.  Only h gets a node of its own.  ``lstmn_step``
is the one tape-cell step: every tape layer and both fusion decoders
(``fusion.DecoderState``) run it, deep fusion passing its gated source
memory as the extra ``transfer`` term.

``run_stack`` is the one layer stack: a layer without intra-attention
weights is a plain LSTM layer (model ``lstm``), and layer k+1 reads layer
k's output, optionally with a skip connection from the token embedding.

A tape is one preallocated buffer that each step writes in place
(``Tapes``); the attention read and both summaries are a single fused
node (``autodiff.tape_attend``), and the backward hands one gradient
buffer per tape down the chain of writes, so a step costs the same graph
work at any tape length.

All step functions are batch-first: token inputs are (B, in), state
blocks (B, 2h).  A batch may be packed: rows sorted longest first, and
at step t only B_t rows, the live prefix, run; ``run_stack`` cuts each
carried block to them (``live_rows``), so padded steps cost nothing and
cannot leak into a row's state.  Weights are immutable during
forward/backward; tapes belong to one sequence and are never shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class TapeError(ValueError):
    """A tape invariant (matching slot shapes, non-empty read) was violated."""


class CellState(NamedTuple):
    """One step's output: the (B, 2h) block [h | c] from
    ``autodiff.gate_cell``, and h as a node of its own."""
    hc: Tensor
    h: Tensor

    @property
    def c(self) -> Tensor:
        """c, as a new slice node of ``hc`` on every read."""
        hidden = self.h.data.shape[1]
        return ad.slice_cols(self.hc, hidden, 2 * hidden)


@dataclass
class GateWeights:
    """Gate block mapping [recurrent-input, token-input] to the four gate
    pre-activations, stacked row-wise in (i, f, o, c-hat) order."""
    w: Tensor            # (4h, h + in)
    bias: Tensor         # (4h,)

    @property
    def hidden_size(self) -> int:
        return self.w.data.shape[0] // 4


@dataclass
class IntraAttentionWeights:
    v: Tensor            # (a,)
    w_h: Tensor          # (a, h)   tape-slot projection
    w_x: Tensor          # (a, in)  current-input projection
    w_htilde: Tensor     # (a, h)   previous-summary projection
    bias: Optional[Tensor] = None   # (a,) shared inside the tanh


@dataclass
class LstmnLayerWeights:
    """One stack layer: a tape layer, or a plain LSTM layer when ``attn``
    is None."""
    gates: GateWeights
    attn: Optional[IntraAttentionWeights] = None

    def named(self, prefix: str, upper: bool = False) -> dict:
        """Checkpoint tensors for one layer.  Upper layers store their
        input projection as W_l (it projects the layer below's output)."""
        out = {f"{prefix}.W": self.gates.w, f"{prefix}.bias": self.gates.bias}
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
    """Per-sequence hidden and memory tapes, with cached attention keys,
    in one (B, T, 2h + a) buffer.

    Slot i holds [h_i | c_i | W_h h_i]: the key is projected once, when
    the slot is appended, and reused by every later step, and a read of
    the values gives a summary block [h~ | c~].  ``append`` writes the
    next slot in place and ``memory`` is the graph node of the
    tape after the latest write (``autodiff.tape_write``); in the
    backward one gradient buffer runs back through that chain of writes.
    With ``length`` the buffer is allocated for that many slots at the
    first write; without it, it starts at ``INITIAL_SLOTS`` and doubles
    when full.  The buffer takes the dtype of the first slot.

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
        self.written = 0
        self.rows = 0    # rows of the latest slot; later slots may have fewer

    def __len__(self) -> int:
        if self.capacity is None:
            return self.written
        return min(self.written, self.capacity)

    def window(self) -> tuple:
        """Slots [lo, hi) that attention reads."""
        return self.written - len(self), self.written

    def append(self, *parts: Tensor) -> None:
        """Write the next slot from ``parts`` side by side: ([h | c], key)
        or (h, c, key).  The parts share one batch size, at most the
        previous slot's (a packed batch's rows only end), the value parts
        before the key one width, and together they fill the slot."""
        shapes = [p.data.shape for p in parts]
        batch, width = shapes[0][0], sum(s[1] for s in shapes)
        buf = None if self.memory is None else self.memory.data
        if len(parts) < 2 or any(s[0] != batch for s in shapes) or \
                len({s[1] for s in shapes[:-1]}) != 1 or \
                (buf is not None and (buf.shape[2] != width or batch > self.rows)):
            raise TapeError(f"tape slot shapes differ: parts {shapes}, "
                            f"tape {None if buf is None else buf.shape}")
        if buf is None:
            buf = np.zeros((batch, self.length or self.INITIAL_SLOTS, width),
                           dtype=parts[0].data.dtype)
        elif self.written == buf.shape[1]:
            grown = np.zeros((buf.shape[0], 2 * buf.shape[1], width), dtype=buf.dtype)
            grown[:, :self.written] = buf
            buf = grown
        self.memory = ad.tape_write(self.memory, buf, self.written, parts)
        self.written += 1
        self.rows = batch


@dataclass
class IntraAttention:
    """Attention record for one step: the distribution over the read
    window as a plain array (None at the first step, when the tape is
    empty), and the adaptive summary block that the state update reads."""
    weights: Optional[np.ndarray]   # (B, len(tapes))
    summary: Tensor             # (B, 2h) [h~ | c~]


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_gate_weights(rng, hidden: int, in_size: int) -> GateWeights:
    return GateWeights(w=glorot(rng, 4 * hidden, hidden + in_size), bias=zeros_param(4 * hidden))


def init_intra_attention(rng, attn_size: int, hidden: int, in_size: int,
                         bias: bool = True) -> IntraAttentionWeights:
    return IntraAttentionWeights(
        v=zeros_param(attn_size),
        w_h=glorot(rng, attn_size, hidden),
        w_x=glorot(rng, attn_size, in_size),
        w_htilde=glorot(rng, attn_size, hidden),
        bias=zeros_param(attn_size) if bias else None,
    )


def init_lstmn_layer(rng, hidden: int, in_size: int, attn_size: Optional[int],
                     attention_bias: bool = True) -> LstmnLayerWeights:
    gates = init_gate_weights(rng, hidden, in_size)
    return LstmnLayerWeights(gates, None if attn_size is None else
                             init_intra_attention(rng, attn_size, hidden, in_size,
                                                  bias=attention_bias))


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


def lstm_step(x: Tensor, prev: Tensor, w: GateWeights,
              transfer: Optional[Tensor] = None) -> CellState:
    """One LSTM update from the block ``prev`` = [rec | carried]: the gate
    block over [rec, x] and c = [transfer +] f * carried + i * c-hat,
    h = o * tanh(c)."""
    hc = ad.gate_cell(prev, x, w.w, w.bias, transfer)
    return CellState(hc, ad.slice_cols(hc, 0, w.hidden_size))


def intra_attend(x: Tensor, tapes: Tapes, htilde_prev: Tensor,
                 w: IntraAttentionWeights) -> IntraAttention:
    """Attention over the tape's read window and the summary block
    [h~ | c~] it gives, from one fused ``autodiff.tape_attend`` node.
    ``htilde_prev`` is the previous h~, or the previous summary block
    (whose h~ columns are read).

    The tape must be non-empty; the first-step convention is
    ``lstmn_step``'s concern.
    """
    if len(tapes) == 0:
        raise TapeError("attention over an empty tape")
    lo, hi = tapes.window()
    summary, weights = ad.tape_attend(
        tapes.memory, lo, hi, x, w.w_x, htilde_prev, w.w_htilde, w.v, w.bias)
    return IntraAttention(weights, summary)


def lstmn_step(x: Tensor, tapes: Tapes, summary_prev: Optional[Tensor],
               w: LstmnLayerWeights, transfer: Optional[Tensor] = None):
    """One memory-tape update; appends the new [h | c] and its key to
    ``tapes``.  ``summary_prev`` is the previous step's summary block
    [h~ | c~] (or its h~ alone), whose h~ the attention query reads.

    The one tape-cell step of the encoder layers and of both fusion
    decoders.  ``transfer`` is an extra memory term, deep fusion's
    r * a~: c_t = (transfer + f * c~) + i * c-hat.

    Empty-tape convention: at the first step the summary is the zero
    block (and ``summary_prev`` is unused), so the gate block sees
    [0, x_t] and c_t reduces to [transfer +] i * c-hat.
    """
    if len(tapes) == 0:
        attn = IntraAttention(None, zero_state(x.data.shape[0], w.gates.hidden_size))
    else:
        attn = intra_attend(x, tapes, summary_prev, w.attn)
    state = lstm_step(x, attn.summary, w.gates, transfer)
    tapes.append(state.hc, ad.linear(state.h, w.attn.w_h))
    return state, attn


@dataclass
class StackRun:
    """Full-sequence result: per-step top-layer states (kept for every
    step even when a capacity bound keeps attention from reading them),
    per-step top-layer attention traces (None for an LSTM top layer) and
    the top layer's tapes."""
    top: list             # [T] of CellState
    traces: list          # [T] of IntraAttention or None
    tapes: Tapes

    @property
    def top_h(self) -> list:
        """[T] of (B, h)."""
        return [s.h for s in self.top]

    @property
    def top_c(self) -> list:
        """[T] of (B, h), new slice nodes on every read."""
        return [s.c for s in self.top]

    def tape_states(self) -> tuple:
        """Every step's top-layer h and c, as two (B, T, h) column slices
        of the top tape's [h | c | key] slots (``run_stack`` sizes the tape
        to the sequence): two nodes at any length.  Tape layers only."""
        mem = self.tapes.memory
        if mem is None:
            raise TapeError("an LSTM top layer keeps no tape")
        hidden = self.top[0].h.data.shape[1]
        return ad.slice_cols(mem, 0, hidden), ad.slice_cols(mem, hidden, 2 * hidden)


def live_rows(block: Optional[Tensor], rows: int) -> Optional[Tensor]:
    """The first ``rows`` rows of a carried (B, n) block: the block itself
    while no row has ended, a row-prefix ``lookup`` once the packed
    batch's shorter rows have.  Rows never come back: asking for more
    than the block has is a ``TapeError``."""
    if block is None or block.data.shape[0] == rows:
        return block
    if rows > block.data.shape[0]:
        raise TapeError(f"a step has {rows} rows after a step with {block.data.shape[0]}; "
                        "packed rows must be sorted longest first")
    return ad.lookup(block, np.arange(rows))


def run_stack(xs: list, w: StackWeights, capacity: Optional[int] = None) -> StackRun:
    """Process a token-embedding sequence left to right; layer k+1
    consumes layer k's output (concatenated with x when skip connections
    are on).  A tape layer carries its summary block [h~ | c~] between
    steps, an LSTM layer its [h | c].  ``capacity`` bounds only how far
    back the attention may look.

    The batch may be packed: ``xs[t]`` holds the first B_t rows, those
    still live at step t, with B_t never growing (rows sorted longest
    first).  Each layer's carried block is then cut to those rows
    (``live_rows``), and step t's states and tape slot have B_t rows."""
    if not xs:
        raise TapeError("cannot run over an empty sequence")
    batch = xs[0].data.shape[0]
    tapes = [Tapes(capacity, length=len(xs)) for _ in w.layers]
    carried = [zero_state(batch, layer.gates.hidden_size) if layer.attn is None else None
               for layer in w.layers]
    run = StackRun(top=[], traces=[], tapes=tapes[-1])
    for x in xs:
        if x.data.shape[0] != batch:
            batch = x.data.shape[0]
            carried = [live_rows(c, batch) for c in carried]
        inp = x
        for k, layer in enumerate(w.layers):
            if k > 0:
                inp = ad.concat([state.h, x], axis=1) if w.skip else state.h
            if layer.attn is None:
                state, attn = lstm_step(inp, carried[k], layer.gates), None
                carried[k] = state.hc
            else:
                state, attn = lstmn_step(inp, tapes[k], carried[k], layer)
                carried[k] = attn.summary
        run.top.append(state)
        run.traces.append(attn)
    return run
