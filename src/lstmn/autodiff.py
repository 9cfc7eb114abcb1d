"""Reverse-mode automatic differentiation over dense numpy tensors.

The graph is implicit: every operation returns a new Tensor holding
references to its parents and a closure that maps the output gradient to
parent gradients.  Node ids increase monotonically with creation, so the
recorded graph is replayed exactly in reverse creation order by
``backward``.  Gradients accumulate additively when a node feeds several
consumers.  A kernel whose gradient touches only part of an input (row
gathers, column slices) returns it as a ``Partial``, which ``backward``
adds into the input's gradient buffer in place.

The kernel set is small, one kernel per job: ``add`` (same shapes),
``mul``, ``sigmoid``, ``relu``, ``sum_all``, ``concat``, ``slice_cols``
(last axis), ``linear`` (the one affine map: optional bias, any leading
axes), ``lookup``, ``attend`` (per-step slots under constant weights),
``gate_cell``, ``tape_write``, ``tape_attend`` and ``affine_nll``.
Shapes are batch-first: (B, n) per step, (B, T, n) for tape slots.  A
recurrent cell's state is one (B, 2h) block [h | c]: ``gate_cell`` maps
such a block (the LSTM's [h_{t-1} | c_{t-1}] or a tape summary
[h~ | c~]) and the step input to the next [h | c] in one node, gate
block and memory update together.  A memory tape is one (B, T, n)
buffer written in place, one slot per step, by ``tape_write``;
``tape_attend`` reads a window of it in one node (its attention weights
a plain array), so a recurrent step adds a fixed number of nodes however
long the tape.  Batches of
variable-length rows are packed: rows sorted longest first, step t's
tensors hold B_t rows, the live prefix of the batch, and both tape
kernels write and read only that row prefix of the (B, T, n) buffer,
their gradients ``Partial``s over it.  Every loss
ends in ``affine_nll``, the output affine map and softmax NLL in one
node over the rows it is given.

Inside a ``no_grad()`` block no graph is recorded: every node is made
with no parents and no backward closure, and ``requires_grad`` False,
so each intermediate is freed as soon as the forward pass drops it.  The
forward arithmetic, the NaN/Inf screen and every shape check are the
same in both modes, so outputs are bit-identical.  Evaluation, greedy
decoding and attention tracing run in this mode.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# Additive mask surrogate: large enough that exp underflows to exactly 0
# after max subtraction.
MASK_FILL = -1e30

_node_ids = itertools.count()

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


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # Every new tensor and kernel output passes this screen.  Single
    # pass: any NaN/Inf makes the sum non-finite.  (A sum
    # overflowing on finite inputs would need ~1e308 values.)
    if not np.isfinite(arr.sum()):
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


def _make(data: np.ndarray, parents, backward_fn, op: str, screen: bool = True) -> Tensor:
    out = Tensor.__new__(Tensor)
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


def _unique_rows(index) -> bool:
    """True for a basic index, or a 1-D integer index that is strictly
    increasing and so cannot name a row twice."""
    if not isinstance(index, np.ndarray):
        return True
    return index.ndim == 1 and bool((index[1:] > index[:-1]).all())


def _accumulate(parent: Tensor, g, free: bool) -> None:
    """Add ``g`` into ``parent.grad``; a ``free`` array, held by no one
    else, may become the buffer itself."""
    if isinstance(g, Partial):
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


def backward(loss: Tensor, params=()) -> None:
    """Populate .grad for every leaf tensor the scalar ``loss`` depends on.

    Tensors in ``params`` that the loss does not reach get zero-filled
    gradients.  An interior node's gradient is dropped once it has been
    passed to the node's inputs; ``loss.grad`` and leaf gradients stay.
    Calling backward twice on the same loss node is an error: the replay
    consumes the recorded graph semantics.  So is a loss with no graph
    (made under ``no_grad`` or from constants only), which would
    otherwise zero-fill every gradient without a word.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss._backward_done:
        raise GraphStateError("backward already ran for this loss; rebuild the graph")
    if not loss.requires_grad:
        raise GraphStateError("loss has no graph (made under no_grad or from constants "
                              "only); there is nothing to differentiate")

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    # Creation order is a topological order (an op is created after its
    # inputs), so descending node id replays the tape in reverse.
    nodes.sort(key=lambda t: t._nid, reverse=True)

    loss.grad = np.ones_like(loss.data)
    for node in nodes:
        if node._backward_fn is None or node.grad is None:
            continue
        # Closures return fresh arrays, their incoming gradient, or views
        # of it.  A fresh array, or the incoming gradient of a node other
        # than the loss (dropped below), is free for the first parent that
        # receives it; views, and arrays handed out before, are copied.
        held = [loss.grad]
        for parent, g in zip(node._parents, node._backward_fn(node.grad)):
            if g is not None and parent.requires_grad:
                free = isinstance(g, np.ndarray) and g.base is None \
                    and not any(g is h for h in held)
                _accumulate(parent, g, free)
                held.append(g)
        if node is not loss:
            node.grad = None
    loss._backward_done = True

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
    """x (..., n) @ w (m, n)^T [+ b (m,)] -> (..., m) over any leading
    axes; weights stored row-per-output."""
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2 or xd.shape[-1] != wd.shape[1] or \
            (b is not None and b.data.shape != (wd.shape[0],)):
        raise ShapeMismatchError(f"linear: shapes {xd.shape}, {wd.shape} and bias "
                                 f"{b if b is None else b.data.shape} do not conform")
    out = xd @ wd.T
    if b is not None:
        out += b.data

    def bwd(g):
        rows = g.reshape(-1, g.shape[-1])
        grads = (g @ wd, rows.T @ xd.reshape(-1, xd.shape[-1]))
        return grads if b is None else grads + (rows.sum(axis=0),)

    return _make(out, (x, w) if b is None else (x, w, b), bwd, "linear")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatchError("concat: needs at least one tensor")
    datas = [t.data for t in tensors]
    ref = list(datas[0].shape)
    for d in datas[1:]:
        s = list(d.shape)
        s[axis] = ref[axis]
        if s != ref:
            raise ShapeMismatchError(
                f"concat: shapes {datas[0].shape} and {d.shape} differ off axis {axis}")
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate(datas, axis=axis), tensors, bwd, "concat")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start:stop) of the last axis, at any rank."""
    if x.data.ndim < 1:
        raise ShapeMismatchError("slice_cols: a scalar has no columns")
    cols = (..., slice(start, stop))
    return _make(x.data[cols].copy(), (x,), lambda g: (Partial(cols, g),), "slice_cols")


def sigmoid(x: Tensor) -> Tensor:
    # Clip-free stable form: 0.5 * (1 + tanh(x/2)).
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return _make(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def gate_cell(state: Tensor, x: Tensor, w: Tensor, bias: Tensor,
              transfer: Optional[Tensor] = None) -> Tensor:
    """The LSTM gate block and memory update in one node.

    ``state`` (B, 2h) is [rec | carried], ``x`` (B, in) the step input,
    ``w`` (4h, h + in) the gate rows in (i, f, o, c-hat) order, ``bias``
    (4h,) and ``transfer`` (B, h) an extra memory term:

        i, f, o = sigmoid(z), c-hat = tanh(z)   with z = w [rec, x] + bias
        c = (transfer + f * carried) + i * c-hat
        h = o * tanh(c)

    Returns [h | c] (B, 2h).  The sigmoid is ``sigmoid``'s
    0.5 (1 + tanh(z / 2)) and c sums in the order written; seeded runs
    depend on both.
    """
    sd, xd, wd = state.data, x.data, w.data
    hid = wd.shape[0] // 4
    batch = sd.shape[0] if sd.ndim == 2 else -1
    if sd.ndim != 2 or wd.ndim != 2 or wd.shape[0] != 4 * hid or sd.shape[1] != 2 * hid or \
            xd.shape != (batch, wd.shape[1] - hid) or bias.data.shape != (4 * hid,) or \
            (transfer is not None and transfer.data.shape != (batch, hid)):
        raise ShapeMismatchError(
            f"gate_cell: state {sd.shape}, x {xd.shape}, W {wd.shape}, bias {bias.data.shape}, "
            f"transfer {transfer if transfer is None else transfer.data.shape} do not conform")
    carried = sd[:, hid:]
    inp = np.concatenate([sd[:, :hid], xd], axis=1)
    z = inp @ wd.T
    z += bias.data
    gates = 0.5 * (1.0 + np.tanh(0.5 * z[:, :3 * hid]))
    i, f, o = gates[:, :hid], gates[:, hid:2 * hid], gates[:, 2 * hid:]
    chat = np.tanh(z[:, 3 * hid:])
    c = f * carried
    if transfer is not None:
        c = transfer.data + c
    c += i * chat
    tanh_c = np.tanh(c)
    out = np.concatenate([o * tanh_c, c], axis=1)

    def bwd(g):
        gh = g[:, :hid]
        dc = gh * o * (1.0 - tanh_c * tanh_c) + g[:, hid:]
        dgates = np.concatenate([dc * chat, dc * carried, gh * tanh_c], axis=1)
        gz = np.concatenate([dgates * gates * (1.0 - gates), dc * i * (1.0 - chat * chat)],
                            axis=1)
        ginp = gz @ wd
        grads = (np.concatenate([ginp[:, :hid], dc * f], axis=1), ginp[:, hid:], gz.T @ inp,
                 gz.sum(axis=0))
        return grads if transfer is None else grads + (dc,)

    parents = (state, x, w, bias) + (() if transfer is None else (transfer,))
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
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    if mask is not None:
        e *= mask  # exactness: kill any surviving underflow residue
    denom = e.sum(axis=-1, keepdims=True)
    if np.any(denom == 0.0):
        raise ShapeMismatchError("softmax: a row has no unmasked positions")
    e /= denom
    return e


def attend(weights: np.ndarray, slots) -> Tensor:
    """Weighted sum of T same-shaped (B, n) slots with a constant (B, T)
    weights array: sum_t weights[:, t] * slots[t] -> (B, n)."""
    slots = list(slots)
    shapes = {s.data.shape for s in slots}
    if len(shapes) != 1 or slots[0].data.ndim != 2 or \
            weights.shape != (slots[0].data.shape[0], len(slots)):
        raise ShapeMismatchError(
            f"attend: weights {weights.shape} and slots {sorted(shapes)} do not conform")
    x3 = np.stack([s.data for s in slots], axis=1)
    return _make(np.einsum("bt,btn->bn", weights, x3), slots,
                 lambda g: tuple(weights[:, t, None] * g for t in range(len(slots))), "attend")


def tape_write(prev: Optional[Tensor], buf: np.ndarray, n: int, parts) -> Tensor:
    """Write slot ``n`` of the (B, T, k) buffer ``buf`` in place from the
    (B_n, k_i) ``parts``, side by side, into its first B_n <= B rows;
    returns the node of the tape after the write, whose data is ``buf``
    itself.  In a packed batch B_n is the rows still live at step n, and
    the slot's other rows stay as allocated (zero) and are never read.

    ``prev`` is the node before the write (None for the first).  Its data
    is ``buf``, or the shorter buffer ``buf`` was grown from.  Backward
    hands this node's gradient to ``prev`` unchanged (cut to its length
    after a growth), so one gradient buffer runs back through the whole
    chain of writes, and gives each part its columns of the written rows
    of slot ``n``.  The buffer is not screened for NaN/Inf: only those
    rows changed, and the kernels that made the parts screened them.
    """
    rows = parts[0].data.shape[0]
    bounds = np.cumsum([0] + [p.data.shape[1] for p in parts])
    if buf.ndim != 3 or bounds[-1] != buf.shape[2] or not 0 <= n < buf.shape[1] or \
            rows > buf.shape[0] or any([p.data.shape[0] != rows for p in parts]):
        raise ShapeMismatchError(
            f"tape_write: parts {[p.data.shape for p in parts]} into slot {n} of {buf.shape}")
    for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
        buf[:rows, n, lo:hi] = p.data

    def bwd(g):
        slot = g[:rows, n]
        grads = tuple(slot[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        if prev is None:
            return grads
        return (g if prev.data is buf else g[:, :prev.data.shape[1]],) + grads

    parents = tuple(parts) if prev is None else (prev,) + tuple(parts)
    return _make(buf, parents, bwd, "tape_write", screen=False)


def tape_attend(memory: Tensor, lo: int, hi: int, x: Tensor, w_x: Tensor,
                prev: Tensor, w_prev: Tensor, v: Tensor,
                bias: Optional[Tensor] = None, mask=None):
    """Additive attention over slots [lo, hi) of a slot memory, one node.

    ``memory`` (B, T, d + a) holds per slot a value (the first d columns)
    and its key, already projected into the a = len(v) attention columns
    (the last a).  The read covers the first rows = B_t <= B rows of the
    memory, as many as ``x`` (B_t, in) has: in a packed batch, the rows
    still live.  With q = W_x x + W_prev prev + bias:

        scores_j  = v . tanh(key_j + q)           (B_t, hi - lo)
        weights   = softmax(scores), 0 where ``mask`` is 0
        out       = sum_j weights_j value_j       (B_t, d)

    ``mask`` is (B, hi - lo) and is cut to the same rows.  ``prev`` is
    read in its first k = W_prev-width columns, so a summary block
    [h~ | c~] passes whole as h~.  Returns (out, weights): the one graph
    node, and the softmax as a plain array in the memory's dtype (screened
    for NaN/Inf through ``out``).  The gradients to
    ``memory`` and ``prev`` are ``Partial``s over the rows, window and
    columns read, so a read costs nothing outside them.
    """
    md = memory.data
    batch = x.data.shape[0] if x.data.ndim == 2 else -1
    if md.ndim == 3:
        md = md[:batch]
    a = v.data.shape[0]
    if md.ndim != 3 or md.shape[0] != batch or md.shape[2] <= a or \
            not 0 <= lo < hi <= md.shape[1] or \
            x.data.shape != (batch, w_x.data.shape[1]) or w_x.data.shape[0] != a or \
            prev.data.ndim != 2 or prev.data.shape[0] != batch or \
            prev.data.shape[1] < w_prev.data.shape[1] or w_prev.data.shape[0] != a:
        raise ShapeMismatchError(
            f"tape_attend: memory {memory.data.shape} window [{lo}, {hi}), x {x.data.shape}, "
            f"W_x {w_x.data.shape}, prev {prev.data.shape}, W_prev {w_prev.data.shape}, "
            f"v {v.data.shape} do not conform")
    if mask is not None:
        mask = np.asarray(mask)[:batch]
    d = md.shape[2] - a
    values = md[:, lo:hi, :d]
    k = w_prev.data.shape[1]
    pd = prev.data[:, :k]
    q = x.data @ w_x.data.T
    q += pd @ w_prev.data.T
    if bias is not None:
        q += bias.data
    z = md[:, lo:hi, d:] + q[:, None, :]
    np.tanh(z, out=z)
    scores = z @ v.data
    weights = softmax(scores, mask)
    out = np.matmul(weights[:, None, :], values)[:, 0]

    def bwd(g):
        # dL/dscores = w * (dL/dw - sum(dL/dw * w)); zero at masked slots.
        gw = np.matmul(values, g[:, :, None])[:, :, 0]
        gs = weights * (gw - (gw * weights).sum(axis=1, keepdims=True))
        gmem = np.empty((batch, hi - lo, d + a), dtype=md.dtype)
        np.multiply(weights[:, :, None], g[:, None, :], out=gmem[:, :, :d])
        gpre = gmem[:, :, d:]
        np.multiply(gs[:, :, None], v.data, out=gpre)
        gpre *= 1.0 - z * z
        gq = gpre.sum(axis=1)
        grads = (Partial((slice(0, batch), slice(lo, hi)), gmem),
                 gq @ w_x.data, gq.T @ x.data,
                 Partial((slice(None), slice(0, k)), gq @ w_prev.data), gq.T @ pd,
                 gs.reshape(-1) @ z.reshape(-1, a))
        return grads if bias is None else grads + (gq.sum(axis=0),)

    parents = (memory, x, w_x, prev, w_prev, v) + (() if bias is None else (bias,))
    return _make(out, parents, bwd, "tape_attend"), weights


def sum_all(x: Tensor) -> Tensor:
    return _make(np.asarray(x.data.sum()), (x,),
                 lambda g: (np.broadcast_to(g, x.data.shape).copy(),), "sum_all")


def lookup(table: Tensor, idx) -> Tensor:
    """Row gather from an embedding table; the gradient is a ``Partial``
    over the gathered rows, so no table-sized array is built per call."""
    idx = np.asarray(idx)
    if table.data.ndim != 2:
        raise ShapeMismatchError(f"lookup: table must be 2-D, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"lookup: index out of range for table with {table.data.shape[0]} rows")

    return _make(table.data[idx], (table,), lambda g: (Partial(idx, g),), "lookup")


def affine_nll(h: Tensor, w: Tensor, b: Tensor, targets):
    """Summed NLL of ``targets`` under the row softmaxes of the logits
    h (N, n) @ w (V, n)^T + b (V,), in one node over every row given.

    Returns (nll, hits); ``hits`` is a boolean (N,) record outside the
    graph, true where the target is the row's argmax.  One (N, V) buffer
    holds the logits, then their exponentials, then the backward's
    softmax minus one-hot.  A NaN/Inf logit raises ``NonFiniteError``.
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

    rows = np.arange(hd.shape[0])
    z = hd @ wd.T
    z += b.data
    _finite(z, "affine_nll")
    top = z.argmax(axis=1)
    hits = top == targets
    m = z[rows, top]
    picked = z[rows, targets]
    z -= m[:, None]
    np.exp(z, out=z)
    total = z.sum(axis=1)
    nll = float((np.log(total) + m - picked).sum())

    def bwd(g):
        np.divide(z, total[:, None], out=z)
        z[rows, targets] -= 1.0
        np.multiply(z, float(g), out=z)
        return z @ wd, z.T @ hd, z.sum(axis=0)

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
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            hi = float(loss_fn().data)
            flat[i] = orig - fd_step
            lo = float(loss_fn().data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * fd_step)
        numeric = numeric.reshape(t.data.shape)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        rel = float((np.abs(a - numeric) / denom).max()) if a.size else 0.0
        entries.append(GradCheckEntry(name, rel, rel <= tolerance))
    return GradCheckReport(entries, tolerance, fd_step)
