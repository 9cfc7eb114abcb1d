"""Reverse-mode automatic differentiation over dense numpy tensors.

The graph is implicit: every operation returns a new Tensor holding
references to its parents and a closure that maps the output gradient to
parent gradients.  Node ids increase monotonically with creation, so the
recorded graph is replayed exactly in reverse creation order by
``backward``.  Gradients accumulate additively when a node feeds several
consumers.  A kernel whose gradient touches only part of an input (row
gathers, column slices) returns it as a ``Partial``, which ``backward``
adds into the input's gradient buffer in place.  A weight's gradient
from ``linear``, ``gate_cell``, ``tape_attend`` and ``affine_nll`` is
an ``Outer`` (lhs, rhs), meaning lhs.T @ rhs: ``backward`` keeps a
leaf's terms until the leaf's last consumer has run and then forms their
sum in one product over their joined rows, in a buffer laid out like the
leaf, so a recurrence pays one weight-gradient product per weight, not
one per step, and a layer's terms are gone before the layer below it
runs backward.  A graph runs backward once: each node frees its closure,
and with it the forward state the closure held, and its parents as soon
as it has run, and a later backward that reaches it is a
``GraphStateError``.

The kernel set is small, one kernel per job: ``add`` (same shapes),
``mul``, ``relu``, ``sum_all``, ``concat``, ``slice_cols`` (last axis,
optionally over a tape's packed rows), ``linear`` (the one affine map:
optional bias, any leading axes),
``lookup``, ``attend`` (a block's rows under constant weights),
``gate_cell``, ``tape_write``, ``tape_attend`` and ``affine_nll``.
``add`` and ``sum_all`` serve only tests and the benchmark's probe loss:
the models' losses end in ``affine_nll``, and training keeps the L2
penalty out of the graph.
Shapes are batch-first: (B, n) per step, (B, T, n) for tape slots.  A
recurrent cell's state is one (B, 2h) block [h | c]: ``gate_cell`` maps
such a block (the LSTM's [h_{t-1} | c_{t-1}] or a tape summary
[h~ | c~]) and the step input to the next [h | c] in one node, gate
block and memory update together, and with deep fusion's
inter-attention summary [g~ | a~] it forms the transfer gate and its
memory term in the same node.  Each kernel pays a fixed cost per call
that dominates at B = 1 (greedy decoding), so the kernels call the
ufunc reductions directly and write their nonlinearities in place.

A memory tape is one chain of nodes that ``tape_write`` makes, each
holding the tape's two buffers after a write: the slot values (B, T, d)
as its data and their keys (T, B, a) beside them, laid out slot-major
so that a read's window of keys is one contiguous run of B_t a values
per slot.  A write allocates, grows and fills both in place, one slot
per step or several slots at once (the source that inter-attention
reads).  Each node knows its written end: a write appends at the end
of the node it is given, and ``tape_attend`` reads a window that ends
there, in one node (its attention weights a plain array), so a
recurrent step adds a fixed number of nodes however long the tape.
``tape_attend`` reads only tapes: a memory that no ``tape_write`` made
is a ``TapeError``, and so is a write from a node that is not its
chain's last, which would change a slot written before.
A recorded read keeps for its backward only its query, its weights and
views of the tape; the backward recomputes tanh(key + q) from the keys,
so no read holds a (B_t, window, a) activation, and a T-step sequence
holds O(B T (d + a) + B T^2) for its reads, not O(B T^2 a).  A read's
backward returns a ``ReadTerm``, its weights, output gradient and key
gradient, which ``backward`` files in the read log that the chain of
writes shares: the weights and output gradients in arrays sized to the
reads the forward counted, the key gradient added at once into the
log's key-gradient buffer.  Each write's backward then adds the value
gradient of its slots, sum_r weights_r g_r, as one batched product over
the log, and takes its key's gradient from that buffer; the chain's
first write, which runs backward last, then drops the log's arrays.

Every loss ends in ``affine_nll``, the output affine map and softmax NLL
in one node over the rows it is given;
it forms the logits in row blocks of at most ``NLL_BLOCK_BYTES``, so
the (N, V) logits exist only while a graph is recorded, for the backward.
Like every leaf's product, its weight gradient comes in the weight's own
memory layout, so the column-major output projection
(``heads.OutputProjection``) gets a column-major gradient.  Every other
parameter, and so its gradient, is row-major.
Batches of variable-length rows are packed, and only the kernels keep
the row rules: rows sorted longest first, step t's tensors hold the B_t
live rows, B_t never growing.  A layer's inputs for every step are one
step-major block, step t's in rows [o_t, o_t + B_t), and ``gate_cell``
and ``tape_attend`` read step t's range of it and return its gradient
as a row-range ``Partial``; ``slice_cols`` gathers a tape's slots back
into that order.  An operand carried from an earlier step (a tape,
``gate_cell``'s state and inter-attention summary, ``tape_attend``'s
prev) may have more rows: the kernel reads its first B_t and returns its
gradient as a row-prefix ``Partial``; fewer rows is an error.  Columns
follow one rule too: ``linear`` and ``tape_attend`` read the first k
columns of an operand wider than their weight, so a state block [h | c]
passes whole where h is wanted.

Inside a ``no_grad()`` block no graph is recorded: every node is made
with no parents and no backward closure, and ``requires_grad`` False,
so each intermediate is freed as soon as the forward pass drops it, and
``affine_nll`` reuses one block-sized logits buffer.  The
forward arithmetic, the NaN/Inf screen and every shape check are the
same in both modes, so outputs are bit-identical.  Evaluation, greedy
decoding and attention tracing run in this mode.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# Bytes of logits that ``affine_nll`` forms at once: 96 rows at the PTB
# vocabulary (V = 10,004) in float64, so small vocabularies and single
# sentences stay one block.
NLL_BLOCK_BYTES = 8 << 20

# glibc's malloc gives a block of at least its mmap threshold its own
# mapping, which free returns to the system; smaller blocks come from the
# heap, whose freed space stays resident.  Left alone, the threshold rises
# to the size of each mapped block freed (up to 32 MiB), so after the first
# train steps a step's (N, V) logits and its output-weight and embedding
# gradients come from the heap, and the resident peak depends on the holes
# that earlier steps of other shapes, evaluations and decodes left there:
# 241 or 276-279 MB from one 30 s ``lm-ptb-scale`` benchmark run to the
# next (2-vCPU Xeon guest), with the same work.  Pinned, every block of at
# least this size is mapped and unmapped on its own, whatever came before;
# a step's per-step arrays, far smaller, stay on the heap.
# Setting it also freezes glibc's trim threshold at its 128 KiB default, as
# glibc then adjusts neither: the heap top is handed back and refaulted far
# more often, and ``lm-long-tape`` took about 7,300 minor faults per train
# step against 4,500 unpinned (in-process, same guest).
MMAP_THRESHOLD_BYTES = 4 << 20
_M_MMAP_THRESHOLD = -3      # glibc's <malloc.h>


def _pin_mmap_threshold() -> None:
    """Fix the C library's mmap threshold at ``MMAP_THRESHOLD_BYTES`` for
    the process (which also stops glibc moving it); a no-op where the C
    library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


_pin_mmap_threshold()

# Additive mask surrogate: large enough that exp underflows to exactly 0
# after max subtraction.
MASK_FILL = -1e30

_node_ids = itertools.count()

# The reductions the kernels call on every node, bound once: the ufunc
# methods themselves, without ``ndarray.sum``'s and ``.max``'s wrappers.
_sum, _max = np.add.reduce, np.maximum.reduce

_default_dtype = np.float64

# False inside a ``no_grad()`` block: ``_make`` records no graph.
_grad_enabled = True


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float64 or float32)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"unsupported dtype {dtype}; use float64 or float32")
    _default_dtype = dtype.type


@contextlib.contextmanager
def no_grad():
    """Run the block, or the decorated function, without recording a
    backward graph; the previous mode is restored on exit, also when the
    block raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested kernel."""


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf from finite inputs."""


class GraphStateError(RuntimeError):
    """The graph is in a state that forbids the requested traversal."""


class TapeError(ValueError):
    """A tape invariant (matching slot shapes, non-empty read, a memory
    made by ``tape_write``, writes from the chain's last node only) was
    violated."""


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # Every new tensor and kernel output passes this screen.  Single
    # pass: any NaN/Inf makes the sum non-finite.  (A sum
    # overflowing on finite inputs would need ~1e308 values.)
    if not math.isfinite(_sum(arr, None)):
        if np.all(np.isfinite(arr)):
            return arr
        raise NonFiniteError(f"{op} produced non-finite values")
    return arr


class Tensor:
    """Dense array node in the differentiation graph.

    ``data`` is the value, ``grad`` the same-shaped gradient buffer
    (allocated lazily by ``backward``), ``requires_grad`` marks leaves to
    differentiate and propagates to op outputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_nid", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_default_dtype)
        _finite(arr, "tensor creation")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._nid = next(_node_ids)
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents, backward_fn, op: str, screen: bool = True,
          cls: type = Tensor) -> Tensor:
    out = cls.__new__(cls)
    out.data = _finite(data, op) if screen else data
    out.grad = None
    out._nid = next(_node_ids)
    out._backward_done = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


class Partial(NamedTuple):
    """Gradient of ``parent[index]`` alone; the rest of the parent gets
    none.  Integer-array indices may repeat, and their rows are summed."""
    index: object
    values: np.ndarray


class Outer(NamedTuple):
    """The gradient ``lhs.T @ rhs`` (rows of both are summed over), left
    unformed so that ``backward`` can join a leaf's terms into one product,
    formed when the leaf's last consumer has run, in the leaf's own memory
    layout.  Both arrays must stay as they are until then, so neither may
    alias another gradient the kernel returns."""
    lhs: np.ndarray
    rhs: np.ndarray


def _unique_rows(index) -> bool:
    """True for a basic index, a tuple index (the kernels make one only
    of distinct positions), or a 1-D integer index that is strictly
    increasing and so cannot name a row twice."""
    if not isinstance(index, np.ndarray):
        return True
    return index.ndim == 1 and bool((index[1:] > index[:-1]).all())


def _accumulate(parent: Tensor, g, free: bool) -> None:
    """Add ``g`` into ``parent.grad``; a ``free`` array, held by no one
    else, may become the buffer itself.  A ``ReadTerm`` goes to the
    parent tape's read log, and the tape gets a zeroed buffer for the
    value gradient that its writes add."""
    if isinstance(g, ReadTerm):
        parent.log.record(parent, *g)
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
    elif isinstance(g, Partial):
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        if _unique_rows(g.index):
            parent.grad[g.index] += g.values
        else:   # repeated ids: a fancy-index += would keep only one of them
            np.add.at(parent.grad, g.index, g.values)
    elif parent.grad is None:
        parent.grad = g if free else np.array(g)
    else:
        parent.grad += g


def _outer_sum(leaf: Tensor, terms: list) -> np.ndarray:
    """The sum of a leaf's ``Outer`` terms in one product over their joined
    rows (a single term as it is), in a buffer laid out like the leaf.  A
    function of its own, so the terms are dropped when it returns."""
    lhs, rhs = terms[0] if len(terms) == 1 else map(np.concatenate, zip(*terms))
    return np.matmul(lhs.T, rhs, out=np.empty_like(leaf.data))


def backward(loss: Tensor, params=()) -> None:
    """Populate .grad for every leaf tensor the scalar ``loss`` depends on.

    Tensors in ``params`` that the loss does not reach get zero-filled
    gradients.  The graph walk counts each leaf's consumer edges (a node
    that names a leaf twice counts twice).  A leaf's ``Outer`` terms are
    kept until its last consumer has run, so after every other term of
    its gradient, a seed set before backward included; then they are
    summed in one product over their joined rows (a single term as it
    is), in a buffer laid out like the leaf, added to the rest of its
    gradient, and dropped.  An ``Outer`` for an interior node is formed
    at once.  Each node runs backward once: after its closure has run, its
    gradient (unless it is the loss), closure and parents are dropped,
    which frees the forward state the closure held, and the node is
    spent.  A backward whose graph reaches a spent node, the loss again
    or any node an earlier backward ran, is a ``GraphStateError``.  So is
    a loss with no graph (made under ``no_grad`` or from constants only),
    which would otherwise zero-fill every gradient without a word.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphStateError("loss has no graph (made under no_grad or from constants "
                              "only); there is nothing to differentiate")

    nodes = []
    seen = set()
    consumers = {}      # leaf -> its consumer edges that have not run yet
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        if t._backward_done:
            raise GraphStateError("a graph runs backward once, and this one reaches a node "
                                  "that already has; rebuild the graph")
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
        for p in t._parents:
            if p._backward_fn is None and p.requires_grad:
                consumers[p] = consumers.get(p, 0) + 1
    # Creation order is a topological order (an op is created after its
    # inputs), so descending node id replays the tape in reverse.
    nodes.sort(key=lambda t: t._nid, reverse=True)

    outers = {}
    loss.grad = np.ones_like(loss.data)
    for node in nodes:
        if node._backward_fn is None:
            continue
        # Closures return fresh arrays, their incoming gradient, or views
        # of it.  A fresh array, or the incoming gradient of a node other
        # than the loss (dropped below), is free for the first parent that
        # receives it; views, and arrays handed out before, are copied.
        # A node that got no gradient (a tape's last key, which no read
        # reached) has nothing to hand on, and is spent all the same.
        held = [loss.grad]
        grads = () if node.grad is None else node._backward_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if isinstance(g, Outer):
                if parent._backward_fn is None:
                    outers.setdefault(parent, []).append(g)
                    continue
                g = g.lhs.T @ g.rhs
            free = isinstance(g, np.ndarray) and g.base is None \
                and not any(g is h for h in held)
            _accumulate(parent, g, free)
            held.append(g)
        # A leaf whose last consumer has now run gets its product, and its
        # terms go.
        for parent in node._parents:
            left = consumers.get(parent)
            if left is not None:
                consumers[parent] = left - 1
                if left == 1 and parent in outers:
                    _accumulate(parent, _outer_sum(parent, outers.pop(parent)), True)
        if node is not loss:
            node.grad = None
        node._backward_fn, node._parents, node._backward_done = None, (), True

    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# kernels


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shaped tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"add: shapes {a.data.shape} and {b.data.shape} do not conform")
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product (same shapes), or scaling by a python scalar."""
    if not isinstance(b, Tensor):
        c = float(b)
        return _make(a.data * c, (a,), lambda g: (g * c,), "mul")
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"mul: shapes {a.data.shape} and {b.data.shape} do not conform")
    return _make(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data), "mul")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x (..., n) @ w (m, k)^T [+ b (m,)] -> (..., m) over any leading
    axes; weights stored row-per-output.  x is read in its first k <= n
    columns, so a state block [h | c] passes whole as h, and its gradient
    is then a ``Partial`` over those columns."""
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2 or xd.shape[-1] < wd.shape[1] or \
            (b is not None and b.data.shape != (wd.shape[0],)):
        raise ShapeMismatchError(f"linear: shapes {xd.shape}, {wd.shape} and bias "
                                 f"{b if b is None else b.data.shape} do not conform")
    k = wd.shape[1]
    cut = xd.shape[-1] > k
    if cut:
        xd = xd[..., :k]
    out = xd @ wd.T
    if b is not None:
        out += b.data

    def bwd(g):
        rows = g.reshape(-1, g.shape[-1])
        gx = g @ wd
        grads = (Partial((..., slice(0, k)), gx) if cut else gx, Outer(rows, xd.reshape(-1, k)))
        return grads if b is None else grads + (rows.sum(axis=0),)

    return _make(out, (x, w) if b is None else (x, w, b), bwd, "linear")


def concat(tensors, axis: int = -1) -> Tensor:
    """The tensors joined along ``axis``; no tensors, unequal ranks, shapes
    that differ off the axis or an axis out of range are a
    ``ShapeMismatchError``."""
    tensors = list(tensors)
    datas = [t.data for t in tensors]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError as err:   # numpy's AxisError is a ValueError too
        raise ShapeMismatchError(f"concat: shapes {[d.shape for d in datas]} along axis "
                                 f"{axis}: {err}") from None
    splits = list(itertools.accumulate(d.shape[axis] for d in datas[:-1]))

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tensors, bwd, "concat")


def slice_cols(x: Tensor, start: int, stop: int, rows=None) -> Tensor:
    """Columns [start:stop) of the last axis, at any rank.

    With ``rows``, the row counts B_t of a packed batch's steps, x is a
    (B, T, n) tape of slots and only its live rows are taken: step t's
    first B_t rows, step after step, as one (sum B_t, stop - start)
    block, the packed step-major order every core's input block has.
    Each position is taken once, so the gradient is a ``Partial`` that
    ``backward`` adds in one indexed pass."""
    xd = x.data
    if xd.ndim < 1 or (rows is not None and (
            xd.ndim != 3 or not 0 < len(rows) <= xd.shape[1] or
            not 0 <= min(rows) <= max(rows) <= xd.shape[0])):
        raise ShapeMismatchError(f"slice_cols: x {xd.shape} and step rows "
                                 f"{None if rows is None else list(rows)} do not conform")
    cols = (..., slice(start, stop))
    if rows is None:
        out = xd[cols].copy()
    else:
        steps = np.repeat(np.arange(len(rows)), rows)
        firsts = np.repeat(np.cumsum(rows) - rows, rows)
        cols = (np.arange(steps.size) - firsts, steps, slice(start, stop))
        out = xd[cols]
    return _make(out, (x,), lambda g: (Partial(cols, g),), "slice_cols")


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    """z becomes sigmoid(z) in place, in the clip-free stable form
    0.5 * (1 + tanh(z / 2)); seeded runs depend on its rounding."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _span(xd: np.ndarray, span) -> tuple:
    """The rows [start, stop) of an input block that one step reads:
    ``span``, or every row."""
    return (0, xd.shape[0] if xd.ndim else 0) if span is None else span


def gate_cell(state: Tensor, x: Tensor, w: Tensor, bias: Tensor,
              inter: Optional[Tensor] = None, w_r: Optional[Tensor] = None,
              span: Optional[tuple] = None) -> Tensor:
    """The LSTM gate block and memory update in one node, with deep
    fusion's transfer term when ``inter`` and ``w_r`` are given.

    ``x`` (N, in) is the input block, read in its rows ``span`` = (start,
    stop), B = stop - start of them (by default all N): a packed step's
    rows of a layer's step-major block.  ``state`` (>= B, 2h) is [rec |
    carried], read in its first B rows,
    ``w`` (4h, h + in) the gate rows in (i, f, o, c-hat) order and ``bias``
    (4h,).  ``inter`` (>= B, 2h) is the inter-attention summary block
    [g~ | a~], read like ``state``, and ``w_r`` (h, h + in) the transfer
    gate over [g~, x]:

        i, f, o = sigmoid(z), c-hat = tanh(z)   with z = w [rec, x] + bias
        c = f * carried + i * c-hat             (plain)
        c = (r * a~ + f * carried) + i * c-hat  with r = sigmoid(w_r [g~, x])
        h = o * tanh(c)

    Returns [h | c] (B, 2h).  Every sigmoid is 0.5 (1 + tanh(z / 2)), and
    c sums in the order written; seeded runs depend on both.  x's
    gradient is a ``Partial`` over the rows read, unless they are all.
    """
    sd, xd, wd = state.data, x.data, w.data
    hid = wd.shape[0] // 4
    start, stop = _span(xd, span)
    batch = stop - start
    deep = inter is not None or w_r is not None
    if sd.ndim != 2 or wd.ndim != 2 or wd.shape[0] != 4 * hid or sd.shape[1] != 2 * hid or \
            xd.ndim != 2 or not 0 <= start < stop <= xd.shape[0] or sd.shape[0] < batch or \
            xd.shape[1] != wd.shape[1] - hid or bias.data.shape != (4 * hid,) or \
            (deep and (inter is None or w_r is None or inter.data.ndim != 2 or
                       inter.data.shape[0] < batch or inter.data.shape[1] != 2 * hid or
                       w_r.data.shape != (hid, wd.shape[1]))):
        raise ShapeMismatchError(
            f"gate_cell: state {sd.shape}, x {xd.shape} rows [{start}, {stop}), W {wd.shape}, "
            f"bias {bias.data.shape}, inter {inter if inter is None else inter.data.shape}, "
            f"W_r {w_r if w_r is None else w_r.data.shape} do not conform")
    cut, sd = sd.shape[0] > batch, sd[:batch]
    xcut, xd = batch < xd.shape[0], xd[start:stop]
    carried = sd[:, hid:]
    inp = np.concatenate([sd[:, :hid], xd], axis=1)
    z = inp @ wd.T
    z += bias.data
    gates, chat = _sigmoid_(z[:, :3 * hid]), z[:, 3 * hid:]
    np.tanh(chat, out=chat)
    i, f, o = gates[:, :hid], gates[:, hid:2 * hid], gates[:, 2 * hid:]
    out = np.empty((batch, 2 * hid), dtype=z.dtype)
    h, c = out[:, :hid], out[:, hid:]
    if deep:
        icut, idata = inter.data.shape[0] > batch, inter.data[:batch]
        alpha, wrd = idata[:, hid:], w_r.data
        inp_r = np.concatenate([idata[:, :hid], xd], axis=1)
        r = _sigmoid_(inp_r @ wrd.T)
        np.multiply(r, alpha, out=c)
        c += f * carried
    else:
        np.multiply(f, carried, out=c)
    c += i * chat
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=h)

    def bwd(g):
        gh = g[:, :hid]
        dc = gh * o * (1.0 - tanh_c * tanh_c) + g[:, hid:]
        dgates = np.concatenate([dc * chat, dc * carried, gh * tanh_c], axis=1)
        gz = np.concatenate([dgates * gates * (1.0 - gates), dc * i * (1.0 - chat * chat)],
                            axis=1)
        ginp = gz @ wd
        gstate = np.concatenate([ginp[:, :hid], dc * f], axis=1)
        gx, rows, transfer = ginp[:, hid:], (slice(0, batch),), ()
        if deep:
            gzr = dc * alpha * r * (1.0 - r)
            ginp_r = gzr @ wrd
            gx = gx + ginp_r[:, hid:]
            ginter = np.concatenate([ginp_r[:, :hid], dc * r], axis=1)
            transfer = (Partial(rows, ginter) if icut else ginter, Outer(gzr, inp_r))
        return (Partial(rows, gstate) if cut else gstate,
                Partial((slice(start, stop),), gx) if xcut else gx, Outer(gz, inp),
                gz.sum(axis=0)) + transfer

    parents = (state, x, w, bias) + ((inter, w_r) if deep else ())
    return _make(out, parents, bwd, "gate_cell")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _make(out, (x,), lambda g: (g * (x.data > 0),), "relu")


def softmax(z: np.ndarray, mask=None) -> np.ndarray:
    """Softmax over the last axis of an array (a helper, not a graph node),
    with max-subtraction stabilization.

    ``mask`` (same shape, 1 = attend, 0 = ignore) drives the additive
    MASK_FILL surrogate; masked outputs are exactly 0.  A fully-masked
    row is an error: there is nothing to normalize over.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=z.dtype)
        if mask.shape != z.shape:
            raise ShapeMismatchError(f"softmax: mask {mask.shape} vs logits {z.shape}")
        z = z + (1.0 - mask) * MASK_FILL
    e = z - _max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    if mask is not None:
        e *= mask  # exactness: kill any surviving underflow residue
    denom = _sum(e, axis=-1, keepdims=True)
    # Each row's maximum adds exp(0) = 1, so only a mask can empty a row.
    if mask is not None and not denom.all():
        raise ShapeMismatchError("softmax: a row has no unmasked positions")
    e /= denom
    return e


def attend(weights: np.ndarray, x: Tensor) -> Tensor:
    """Constant (B, N) weights times an (N, n) block, in one product: each
    output row a weighted sum of x's rows; x's gradient is weights.T @ g."""
    if weights.ndim != 2 or x.data.ndim != 2 or weights.shape[1] != x.data.shape[0]:
        raise ShapeMismatchError(f"attend: weights {weights.shape} and x {x.data.shape} "
                                 "do not conform")
    return _make(weights @ x.data, (x,), lambda g: (weights.T @ g,), "attend")


class _Tape(Tensor):
    """A tape node, made by ``tape_write``: the slot values after a write
    as its data, their slot-major keys beside them (``keys``), the rows
    that write covered, the slots written [0, ``end``) at this node (where
    the next write starts and every read of this node ends), and the read
    log of its chain of writes."""
    __slots__ = ("keys", "log", "rows", "end")


class ReadTerm(NamedTuple):
    """A read's share of its tape's gradient, filed in the tape's read log
    by ``backward``: the read's weights over slots [lo, hi), hi the read
    tape node's written end, and its output gradient g, from which each
    write of those slots forms their value gradient sum_r weights_r g_r
    (``tape_write``), and the read's key gradient (hi - lo, B_t, a), which
    the log adds at once."""
    lo: int
    weights: np.ndarray
    g: np.ndarray
    key_grad: np.ndarray


class _ReadLog:
    """The state one chain of tape writes shares: its written end, and the
    reads of its slots, filed by ``backward`` (``ReadTerm``) so that each
    write can form its slots' gradients at once.

    ``end`` is the end of the slots the chain has written: every write
    starts there.  ``tape_attend``'s forward counts the chain's reads in
    ``reads``.  Read r keeps its weights in ``weights[:, lo:hi, r]``
    (B, slots, R), laid out per slot, and its output gradient in
    ``grads[:, r]`` (B, R, d); the entries of rows and slots it did not
    read stay 0.  Its key gradient is added at once into ``key_grads``,
    laid out like the keys (slots, B, a); ``read_end`` is the end of the
    slots read.  The arrays are made at the first record, for the slots
    the chain has written, in the rows and dtype of its tape, with R =
    ``reads``.  Each read and write runs backward once (``backward``), so
    the log fills once and no record outruns the count.  Every read of the
    chain is made after its first write, so runs backward before it: that
    write, the last of the chain's nodes to run, drops the three arrays
    once it has used them, and the log lives on only as counts.
    """

    __slots__ = ("weights", "grads", "key_grads", "reads", "count", "end", "read_end")

    def __init__(self):
        self.weights = self.grads = self.key_grads = None
        self.reads = self.count = self.end = self.read_end = 0

    def record(self, tape: "_Tape", lo: int, weights: np.ndarray, g: np.ndarray,
               key_grad: np.ndarray) -> None:
        r, hi = self.count, tape.end
        if self.weights is None:
            batch = tape.data.shape[0]
            self.weights = np.zeros((batch, self.end, self.reads), dtype=tape.data.dtype)
            self.grads = np.zeros((batch, self.reads, g.shape[1]), dtype=tape.data.dtype)
            self.key_grads = np.zeros((self.end,) + tape.keys.shape[1:], tape.keys.dtype)
        self.weights[:weights.shape[0], lo:hi, r] = weights
        self.grads[:g.shape[0], r] = g
        self.key_grads[lo:hi, :key_grad.shape[1]] += key_grad
        self.count, self.read_end = r + 1, max(self.read_end, hi)

    def add_value_grad(self, g: np.ndarray, rows: int, start: int, stop: int) -> None:
        """Add sum_r weights_r[:, j] g_r, over every read recorded so far,
        into slots [start, stop) of the value gradient ``g``: one batched
        product."""
        if self.count:
            g[:rows, start:stop] += np.matmul(
                self.weights[:rows, start:stop, :self.count], self.grads[:rows, :self.count])


def tape_write(prev: Optional[Tensor], parts, key: Tensor, slots: int) -> Tensor:
    """Append m slots to a tape at ``prev``'s written end (0 for the
    first write), their values from the (B_n, m, k_i) ``parts``, side by
    side, and their keys from the (B_n, m, a) ``key``, into the first B_n
    rows (a (B_n, k) part is m = 1), and return the tape node after the
    write: the one code that allocates, grows, checks and fills a tape.

    A tape node holds the values (B, T, sum k_i) as its data, a slot's
    values per row, as the read's weighted sum wants them, and the keys
    (T, B, a), slot-major, so that a read's window of keys is one
    contiguous run of B_t a values per slot.  ``prev`` is the node before
    the write, None for the first, which allocates both zeroed, with
    max(``slots``, m) slots and B_n rows in the parts' dtype, and the
    read log (``_ReadLog``) that the chain shares.  A write past the end
    copies both into buffers of twice the slots (at least the new end), so
    ``prev``'s buffers are this node's or the shorter ones they grew
    from.  The parts and the key share their leading shape; a later write
    fills the tape's widths and covers no more rows than the write before
    it (in a packed batch, the rows still live; a slot's other rows stay
    zero and are never read).  Slots are written once: a write from a
    node that is not its chain's last would change a slot that a read
    (whose backward reads it again) may have seen, and is a
    ``TapeError``, raised before anything is written.

    Backward first adds the value gradient of the slots written, formed
    from the log of the reads that ran backward before it: every read of
    those slots, as reads are made after the write.  It then hands this
    node's gradient to ``prev`` unchanged (cut to its length after a
    growth), so one gradient buffer runs back through the whole chain,
    gives each part its columns of the written rows and slots, and gives
    the key those rows and slots of the log's key gradient, or none when
    no read reached them.  The first write (``prev`` None) runs last and
    drops the log's arrays.  The buffers are not screened for NaN/Inf: only
    those rows changed, and the kernels that made the parts screened them.
    """
    n = 0 if prev is None else prev.end
    shapes = [p.data.shape for p in parts] + [key.data.shape]
    lead, a = shapes[0][:-1], shapes[-1][-1]
    rows, stop = lead[0] if lead else 0, n + (lead[1] if len(lead) == 2 else 1)
    cols, width = [], 0
    for s in shapes[:-1]:
        cols.append(slice(width, width + s[-1]))
        width += s[-1]
    if len(lead) not in (1, 2) or stop <= n or any(s[:-1] != lead for s in shapes) or \
            (prev is not None and ((width, a) != (prev.data.shape[2], prev.keys.shape[2]) or
                                   rows > prev.rows)):
        raise TapeError(f"tape_write: slot shapes differ: parts and key {shapes} "
                        f"into slot {n} of tape {None if prev is None else prev.data.shape}")
    if prev is not None and n != prev.log.end:
        raise TapeError(f"tape_write: a write from the node at slot {n} of a chain written "
                        f"to slot {prev.log.end}: slots are written once, in order, from "
                        "the chain's last node")
    if prev is None:
        size, log, dtype = max(slots, stop), _ReadLog(), parts[0].data.dtype
        buf, keys = np.zeros((rows, size, width), dtype), np.zeros((size, rows, a), dtype)
    else:
        buf, keys, log = prev.data, prev.keys, prev.log
        size = buf.shape[1]
        if stop > size:
            more = max(size, stop - size)
            buf = np.pad(buf, ((0, 0), (0, more), (0, 0)))
            keys = np.pad(keys, ((0, more), (0, 0), (0, 0)))
    # The written slot, or slots [n, stop); the keys are written, and their
    # gradient read, through a (B, T, a) view of their slot-major buffer.
    at = n if len(lead) == 1 else slice(n, stop)
    for p, c in zip(parts, cols):
        buf[:rows, at, c] = p.data
    keys.swapaxes(0, 1)[:rows, at] = key.data
    log.end = stop

    def bwd(g):
        log.add_value_grad(g, rows, n, stop)
        gk = log.key_grads.swapaxes(0, 1)[:rows, at] if n < log.read_end else None
        if prev is None:    # the chain's first write runs backward last
            log.weights = log.grads = log.key_grads = None
        grads = tuple(g[:rows, at, c] for c in cols) + (gk,)
        return grads if prev is None else (g if prev.data is buf else g[:, :size],) + grads

    parents = (() if prev is None else (prev,)) + tuple(parts) + (key,)
    node = _make(buf, parents, bwd, "tape_write", screen=False, cls=_Tape)
    node.keys, node.log, node.rows, node.end = keys, log, rows, stop
    return node


def tape_attend(tape: Tensor, lo: int, x: Tensor, w_x: Tensor,
                prev: Tensor, w_prev: Tensor, v: Tensor,
                bias: Optional[Tensor] = None, mask=None, span: Optional[tuple] = None):
    """Additive attention over slots [lo, hi) of a tape, one node, where
    hi is the tape node's written end.

    ``tape``, a tape node that ``tape_write`` made (any other tensor is a
    ``TapeError``), holds per slot a value (B, T, d) and its key (T, B,
    a), already projected into the a = len(v) attention columns.  A read
    of a node that later writes followed covers only the slots written
    at that node.  ``x`` (N, in) is the input block, read in its rows
    ``span`` = (start, stop), B_t = stop - start of them (by default all
    N), like ``gate_cell``'s; the read covers the first B_t rows of the
    tape, no more than the node's write covered, and of ``prev``: in a
    packed batch, the rows still live.  With
    q = W_x x + W_prev prev + bias:

        scores_j  = v . tanh(key_j + q)           (B_t, hi - lo)
        weights   = softmax(scores), 0 where ``mask`` is 0
        out       = sum_j weights_j value_j       (B_t, d)

    ``mask`` is (B, hi - lo) and is cut to the same rows.  ``prev`` is
    read in its first k = W_prev-width columns, so a summary block
    [h~ | c~] passes whole as h~.  Returns (out, weights): the one graph
    node, and the softmax as a plain array in the tape's dtype (screened
    for NaN/Inf through ``out``).

    A recorded read keeps for its backward only q (B_t, a), its weights
    and views of the tape: the backward recomputes tanh(key_j + q) from
    the keys, which no write may change after the read (``tape_write``),
    so no (B_t, hi - lo, a) activation outlives the forward.  The tape's
    gradient is a ``ReadTerm``: the weights and g, from which the write of
    each slot forms its value gradient weights_j g, and the key gradient
    over the window and rows read, formed in the recomputed buffer, which
    backward adds into the read log at once.  ``prev``'s gradient is a
    ``Partial`` over its first B_t rows and k columns, and x's over the
    rows read, unless they are all.
    """
    if not isinstance(tape, _Tape):
        raise TapeError("tape_attend: the memory must be a tape node made by tape_write")
    hi = tape.end
    vals, kd, xd, wxd, pd, wpd, vd = (tape.data, tape.keys, x.data, w_x.data, prev.data,
                                      w_prev.data, v.data)
    start, stop = _span(xd, span)
    batch = stop - start
    a, k = vd.shape[0], wpd.shape[1]
    if xd.ndim != 2 or not 0 <= start < stop <= xd.shape[0] or batch > tape.rows or \
            kd.shape[2] != a or not 0 <= lo < hi or xd.shape[1] != wxd.shape[1] or \
            wxd.shape[0] != a or pd.ndim != 2 or pd.shape[0] < batch or pd.shape[1] < k or \
            wpd.shape[0] != a:
        raise ShapeMismatchError(
            f"tape_attend: values {vals.shape} written in {tape.rows} rows, keys {kd.shape} "
            f"window [{lo}, {hi}), x {xd.shape} rows [{start}, {stop}), W_x {wxd.shape}, "
            f"prev {pd.shape}, W_prev {wpd.shape}, v {vd.shape} do not conform")
    xcut, xd = batch < xd.shape[0], xd[start:stop]
    if mask is not None:
        mask = np.asarray(mask)[:batch]
    vals, kd = vals[:batch, lo:hi], kd[lo:hi, :batch]
    pd = pd[:batch, :k]
    q = xd @ wxd.T
    q += pd @ wpd.T
    if bias is not None:
        q += bias.data
    z = kd + q
    np.tanh(z, out=z)
    weights = softmax((z.reshape(-1, a) @ vd).reshape(hi - lo, batch).T, mask)
    out = np.matmul(weights[:, None, :], vals)[:, 0]

    def bwd(g):
        # dL/dscores = w * (dL/dw - sum(dL/dw * w)); zero at masked slots.
        gw = np.matmul(vals, g[:, :, None])[:, :, 0]
        gs = (weights * (gw - (gw * weights).sum(axis=1, keepdims=True))).T
        z = kd + q
        np.tanh(z, out=z)
        gv = gs.reshape(-1) @ z.reshape(-1, a)
        # z becomes the key gradient (1 - z^2) * v * gs, in place.
        np.multiply(z, z, out=z)
        np.subtract(1.0, z, out=z)
        np.multiply(z, vd, out=z)
        np.multiply(z, gs[:, :, None], out=z)
        gq = _sum(z, 0)
        gx = gq @ wxd
        grads = (ReadTerm(lo, weights, g, z), Partial((slice(start, stop),), gx) if xcut else gx,
                 Outer(gq, xd), Partial((slice(0, batch), slice(0, k)), gq @ wpd),
                 Outer(gq, pd), gv)
        return grads if bias is None else grads + (gq.sum(axis=0),)

    parents = (tape, x, w_x, prev, w_prev, v) + (() if bias is None else (bias,))
    node = _make(out, parents, bwd, "tape_attend")
    if _grad_enabled and tape.requires_grad:    # a refused read is not counted
        tape.log.reads += 1
    return node, weights


def sum_all(x: Tensor) -> Tensor:
    """Sum of every entry; x's gradient comes in x's own memory layout."""
    return _make(np.asarray(x.data.sum()), (x,), lambda g: (np.full_like(x.data, g),),
                 "sum_all")


def lookup(table: Tensor, idx) -> Tensor:
    """Row gather from an embedding table; the gradient is a ``Partial``
    over the gathered rows, so no table-sized array is built per call."""
    idx, td = np.asarray(idx), table.data
    if td.ndim != 2:
        raise ShapeMismatchError(f"lookup: table must be 2-D, got {td.shape}")
    # One comparison: a negative id cast to unsigned is past every table.
    if not (idx.astype(np.uint64) < td.shape[0]).all():
        raise IndexError(f"lookup: index out of range for table with {td.shape[0]} rows")
    return _make(td[idx], (table,), lambda g: (Partial(idx, g),), "lookup")


def _row_blocks(n: int, row_bytes: int) -> list:
    """Bounds [0, ..., n] of the row blocks ``affine_nll`` forms its logits
    in: as many rows of ``row_bytes`` as fit in ``NLL_BLOCK_BYTES``,
    rounded down to a multiple of 12, except that a last row left alone
    joins the block before it.  Single-threaded OpenBLAS then rounds every
    block's logits exactly as one product over all rows: its Haswell-class
    kernels form output rows 12 at a time, and a one-row product as a
    GEMV."""
    size = max(1, NLL_BLOCK_BYTES // row_bytes)
    if size >= 12:
        size -= size % 12
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def affine_nll(h: Tensor, w: Tensor, b: Tensor, targets):
    """Summed NLL of ``targets`` under the row softmaxes of the logits
    h (N, n) @ w (V, n)^T + b (V,), in one node over every row given.

    Returns (nll, hits); ``hits`` is a boolean (N,) record outside the
    graph, true where the target is the row's argmax.  The logits are
    formed block by block, in one buffer: each block is screened for
    NaN/Inf (a ``NonFiniteError`` naming ``affine_nll``) and gives its
    rows' hits, maxima, target logits and exponential sums, from which
    the NLL is formed once.  When the node records its graph, one block
    holds every row: the (N, V) buffer keeps the exponentials for the
    backward and then its g (softmax minus one-hot), scaled in one pass.
    Otherwise the blocks are ``_row_blocks`` of at most
    ``NLL_BLOCK_BYTES``, so evaluation never holds (N, V) logits.

    W's gradient is ``Outer(z, h)``, which ``backward`` forms in W's own
    layout: a column-major W (``heads.OutputProjection``) gets the product
    BLAS forms fastest, hᵀz, and a row-major W exactly the product zᵀh.
    h's gradient is formed as (Wᵀzᵀ)ᵀ, which is faster for a column-major
    W, and comes back row-major.
    """
    hd, wd = h.data, w.data
    if hd.ndim != 2 or wd.ndim != 2 or hd.shape[1] != wd.shape[1] or \
            b.data.shape != (wd.shape[0],):
        raise ShapeMismatchError(f"affine_nll: h {hd.shape}, W {wd.shape} and b "
                                 f"{b.data.shape} do not conform")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (hd.shape[0],):
        raise ShapeMismatchError(f"affine_nll: targets {targets.shape} vs h {hd.shape}")
    out_of_range = (targets < 0) | (targets >= wd.shape[0])
    if np.any(out_of_range):
        raise IndexError(f"affine_nll: target index {targets[out_of_range][0]} "
                         f"out of range for vocab {wd.shape[0]}")

    n, vocab, dtype = hd.shape[0], wd.shape[0], np.result_type(hd, wd)
    # A recorded graph keeps all N rows for its backward anyway, and one
    # product over them packs W once, not once per block.
    record = _grad_enabled and (h.requires_grad or w.requires_grad or b.requires_grad)
    bounds = [0, n] if record else _row_blocks(n, vocab * dtype.itemsize)
    z = np.empty((max(np.diff(bounds), default=0), vocab), dtype)
    rows, hits = np.arange(n), np.empty(n, dtype=bool)
    m, picked, total = np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype)
    for lo, hi in zip(bounds, bounds[1:]):
        zb = z[:hi - lo]
        np.matmul(hd[lo:hi], wd.T, out=zb)
        zb += b.data
        _finite(zb, "affine_nll")
        top, at = zb.argmax(axis=1), rows[:hi - lo]
        hits[lo:hi] = top == targets[lo:hi]
        m[lo:hi] = zb[at, top]
        picked[lo:hi] = zb[at, targets[lo:hi]]
        zb -= m[lo:hi, None]
        np.exp(zb, out=zb)
        total[lo:hi] = zb.sum(axis=1)
    nll = float((np.log(total) + m - picked).sum())

    def bwd(g):
        g = float(g)
        np.multiply(z, (g / total)[:, None], out=z)
        z[rows, targets] -= g
        gh = np.ascontiguousarray(np.matmul(wd.T, z.T).T)
        return gh, Outer(z, hd), z.sum(axis=0)

    return _make(np.asarray(nll), (h, w, b), bwd, "affine_nll"), hits


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list
    tolerance: float
    fd_step: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def __str__(self):
        lines = [f"grad check (fd_step={self.fd_step:g}, tol={self.tolerance:g})"]
        for e in self.entries:
            flag = "ok  " if e.passed else "FAIL"
            lines.append(f"  {flag} {e.name}: max rel err {e.max_rel_error:.3e}")
        return "\n".join(lines)


def grad_check(loss_fn, params, fd_step: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the graph from the current parameter values
    on every call and be deterministic; ``params`` maps names to leaf
    tensors.  Per-entry relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, r / tolerance), where
    r = eps * max(1, |L|) / fd_step bounds the central difference's
    round-off (two loss values, each rounded by about eps * |L|, over
    2 fd_step): a gradient within r of its difference passes, as the
    difference resolves it no closer, and larger ones are held to the
    relative tolerance.
    """
    if tolerance <= 0:
        raise ValueError(f"grad_check tolerance must be positive, got {tolerance}")
    if hasattr(params, "items"):
        items = list(params.items())
    else:
        items = list(params)
    for name, t in items:
        if t.data.dtype != np.float64:
            raise GraphStateError(f"grad_check requires float64 parameters ({name})")

    first = float(loss_fn().data)
    second = float(loss_fn().data)
    if first != second:
        raise GraphStateError(
            "loss is not deterministic (two identical evaluations differ); check refused")

    floor = np.finfo(np.float64).eps * max(1.0, abs(first)) / fd_step / tolerance
    tensors = [t for _, t in items]
    zero_grad(tensors)
    backward(loss_fn(), params=tensors)
    analytic = {name: t.grad.copy() for name, t in items}

    entries = []
    for name, t in items:
        # Each entry is perturbed in place, in the tensor's own array and
        # whatever its memory layout, so every perturbation reaches it.
        numeric = np.zeros_like(t.data)
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + fd_step
            hi = float(loss_fn().data)
            t.data[i] = orig - fd_step
            lo = float(loss_fn().data)
            t.data[i] = orig
            numeric[i] = (hi - lo) / (2.0 * fd_step)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        rel = float((np.abs(a - numeric) / denom).max()) if a.size else 0.0
        entries.append(GradCheckEntry(name, rel, rel <= tolerance))
    return GradCheckReport(entries, tolerance, fd_step)
