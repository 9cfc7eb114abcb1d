"""Reverse-mode automatic differentiation over dense numpy tensors.

The graph is implicit: every operation returns a new Tensor holding
references to its parents and a closure that maps the output gradient to
parent gradients.  Node ids increase monotonically with creation, so the
recorded graph is replayed exactly in reverse creation order by
``backward``.  Gradients accumulate additively when a node feeds several
consumers.  A kernel whose gradient touches only part of an input (row
gathers, column slices) returns it as a ``Partial``, which ``backward``
adds into the input's gradient buffer in place.

The kernel set is deliberately small: just what gated recurrences with
tape attention, fusion decoders, and their losses need.  Shapes follow a
batch-first convention, (B, n) for per-step vectors and (B, T, n) for
stacked tape slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Additive mask surrogate: large enough that exp underflows to exactly 0
# after max subtraction.
MASK_FILL = -1e30

_node_ids = itertools.count()

_default_dtype = np.float64

# Forward kernels raise NonFiniteError when an output contains NaN/Inf.
# Left on by default; training loops may disable it for speed.
check_finite = True


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float64 or float32)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"unsupported dtype {dtype}; use float64 or float32")
    _default_dtype = dtype.type


def get_default_dtype():
    return _default_dtype


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested kernel."""


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf from finite inputs."""


class GraphStateError(RuntimeError):
    """The graph is in a state that forbids the requested traversal."""


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # Single-pass screen: any NaN/Inf makes the sum non-finite.  (A sum
    # overflowing on finite inputs would need ~1e308 values.)
    if check_finite and not np.isfinite(arr.sum()):
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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other if isinstance(other, Tensor) else Tensor(other)))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = _finite(data, op)
    out.grad = None
    out._nid = next(_node_ids)
    out._backward_done = False
    if any(p.requires_grad for p in parents):
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


def _accumulate(parent: Tensor, g, free: bool) -> None:
    """Add ``g`` into ``parent.grad``; a ``free`` array, held by no one
    else, may become the buffer itself."""
    if isinstance(g, Partial):
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        if isinstance(g.index, np.ndarray):
            np.add.at(parent.grad, g.index, g.values)
        else:
            parent.grad[g.index] += g.values
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
    consumes the recorded graph semantics.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss._backward_done:
        raise GraphStateError("backward already ran for this loss; rebuild the graph")

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


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; also accepts a python scalar or a bias vector
    broadcast over the leading batch axis."""
    if not isinstance(b, Tensor):
        c = float(b)
        return _make(a.data + c, (a,), lambda g: (g,), "add")
    if a.data.shape == b.data.shape:
        return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")
    if a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        return _make(a.data + b.data, (a, b),
                     lambda g: (g, g.sum(axis=0)), "add")
    raise ShapeMismatchError(f"add: shapes {a.data.shape} and {b.data.shape} do not conform")


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product (same shapes), or scaling by a python scalar."""
    if not isinstance(b, Tensor):
        c = float(b)
        return _make(a.data * c, (a,), lambda g: (g * c,), "mul")
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"mul: shapes {a.data.shape} and {b.data.shape} do not conform")
    return _make(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data), "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics for 1-D/2-D operands."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeMismatchError(f"matmul: shapes {ad.shape} and {bd.shape} do not conform")
        return _make(ad @ bd, (a, b),
                     lambda g: (g @ bd.T, ad.T @ g), "matmul")
    if ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeMismatchError(f"matmul: shapes {ad.shape} and {bd.shape} do not conform")
        return _make(ad @ bd, (a, b),
                     lambda g: (np.outer(g, bd), ad.T @ g), "matmul")
    if ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeMismatchError(f"matmul: shapes {ad.shape} and {bd.shape} do not conform")
        return _make(ad @ bd, (a, b),
                     lambda g: (bd @ g, np.outer(ad, g)), "matmul")
    if ad.ndim == 1 and bd.ndim == 1:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeMismatchError(f"matmul: shapes {ad.shape} and {bd.shape} do not conform")
        return _make(ad @ bd, (a, b),
                     lambda g: (g * bd, g * ad), "matmul")
    raise ShapeMismatchError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x (B, n) @ w (m, n)^T -> (B, m); weights stored row-per-output."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatchError(f"linear: shapes {x.data.shape} and {w.data.shape} do not conform")
    return _make(x.data @ w.data.T, (x, w),
                 lambda g: (g @ w.data, g.T @ x.data), "linear")


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
    """Columns [start:stop) of a 2-D tensor (gate block extraction)."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"slice_cols: expected 2-D, got shape {x.data.shape}")

    cols = (slice(None), slice(start, stop))
    return _make(x.data[cols].copy(), (x,), lambda g: (Partial(cols, g),), "slice_cols")


def sigmoid(x: Tensor) -> Tensor:
    # Clip-free stable form: 0.5 * (1 + tanh(x/2)).
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return _make(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _make(out, (x,), lambda g: (g * (x.data > 0),), "relu")


def masked_softmax(logits: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis with max-subtraction stabilization.

    ``mask`` (same shape, 1 = attend, 0 = ignore) drives the additive
    MASK_FILL surrogate; masked outputs are exactly 0.  A fully-masked
    row is an error: there is nothing to normalize over.
    """
    z = logits.data
    if mask is not None:
        mask = np.asarray(mask, dtype=z.dtype)
        if mask.shape != z.shape:
            raise ShapeMismatchError(f"masked_softmax: mask {mask.shape} vs logits {z.shape}")
        z = z + (1.0 - mask) * MASK_FILL
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    if mask is not None:
        e = e * mask  # exactness: kill any surviving underflow residue
    denom = e.sum(axis=-1, keepdims=True)
    if np.any(denom == 0.0):
        raise ShapeMismatchError("masked_softmax: a row has no unmasked positions")
    p = e / denom

    def bwd(g):
        # dL/dz = p * (g - sum(g * p)); zero at masked slots since p = 0.
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (logits,), bwd, "masked_softmax")


def stack_slots(slots) -> Tensor:
    """Stack T tensors of shape (B, n) into (B, T, n)."""
    slots = list(slots)
    if not slots:
        raise ShapeMismatchError("stack_slots: empty slot list")
    ref = slots[0].data.shape
    for s in slots[1:]:
        if s.data.shape != ref:
            raise ShapeMismatchError(f"stack_slots: shapes {ref} and {s.data.shape} differ")
    out = np.stack([s.data for s in slots], axis=1)

    def bwd(g):
        return tuple(g[:, i, :] for i in range(len(slots)))

    return _make(out, slots, bwd, "stack_slots")


def bcast_add_slots(x3: Tensor, q: Tensor) -> Tensor:
    """(B, T, n) + (B, n) broadcast over the slot axis."""
    if x3.data.ndim != 3 or q.data.ndim != 2 or \
            x3.data.shape[0] != q.data.shape[0] or x3.data.shape[2] != q.data.shape[1]:
        raise ShapeMismatchError(
            f"bcast_add_slots: shapes {x3.data.shape} and {q.data.shape} do not conform")
    return _make(x3.data + q.data[:, None, :], (x3, q),
                 lambda g: (g, g.sum(axis=1)), "bcast_add_slots")


def slot_dot(x3: Tensor, v: Tensor) -> Tensor:
    """Per-slot inner product with a shared vector: (B, T, n) . (n,) -> (B, T)."""
    if x3.data.ndim != 3 or v.data.ndim != 1 or x3.data.shape[2] != v.data.shape[0]:
        raise ShapeMismatchError(
            f"slot_dot: shapes {x3.data.shape} and {v.data.shape} do not conform")
    return _make(x3.data @ v.data, (x3, v),
                 lambda g: (g[:, :, None] * v.data,
                            np.einsum("bt,btn->n", g, x3.data)), "slot_dot")


def slot_linear(x3: Tensor, w: Tensor) -> Tensor:
    """Apply a (m, n) projection to every slot: (B, T, n) -> (B, T, m)."""
    if x3.data.ndim != 3 or w.data.ndim != 2 or x3.data.shape[2] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"slot_linear: shapes {x3.data.shape} and {w.data.shape} do not conform")
    return _make(x3.data @ w.data.T, (x3, w),
                 lambda g: (g @ w.data,
                            np.einsum("btm,btn->mn", g, x3.data)), "slot_linear")


def attend(weights: Tensor, x3: Tensor) -> Tensor:
    """Weighted sum over slots: (B, T) x (B, T, n) -> (B, n)."""
    if weights.data.ndim != 2 or x3.data.ndim != 3 or \
            weights.data.shape != x3.data.shape[:2]:
        raise ShapeMismatchError(
            f"attend: shapes {weights.data.shape} and {x3.data.shape} do not conform")
    return _make(np.einsum("bt,btn->bn", weights.data, x3.data), (weights, x3),
                 lambda g: (np.einsum("bn,btn->bt", g, x3.data),
                            weights.data[:, :, None] * g[:, None, :]), "attend")


def mean(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _make(x.data.mean(axis=axis), (x,), bwd, "mean")


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


def masked_nll(logits: Tensor, targets, mask=None) -> Tensor:
    """Summed negative log likelihood of ``targets`` under row softmaxes.

    logits (B, V), targets (B,) integer class ids; rows where ``mask`` is
    0 contribute nothing.  Fused log-softmax keeps the backward to a
    single (softmax - onehot) expression.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeMismatchError(f"masked_nll: logits must be 2-D, got {z.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (z.shape[0],):
        raise ShapeMismatchError(f"masked_nll: targets {targets.shape} vs logits {z.shape}")
    if mask is None:
        mask = np.ones(z.shape[0], dtype=z.dtype)
    else:
        mask = np.asarray(mask, dtype=z.dtype)
    live = mask != 0
    if np.any(targets[live] >= z.shape[1]) or np.any(targets[live] < 0):
        bad = targets[live][(targets[live] >= z.shape[1]) | (targets[live] < 0)][0]
        raise IndexError(f"masked_nll: target index {bad} out of range for vocab {z.shape[1]}")

    m = z.max(axis=1, keepdims=True)
    e = z - m
    np.exp(e, out=e)
    lse = np.log(e.sum(axis=1)) + m[:, 0]
    picked = z[np.arange(z.shape[0]), targets]
    nll = float(((lse - picked) * mask).sum())

    def bwd(g):
        # One (B, V) array: softmax, minus one-hot, scaled in place.
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(z.shape[0]), targets] -= 1.0
        p *= (mask * float(g))[:, None]
        return (p,)

    return _make(np.asarray(nll), (logits,), bwd, "masked_nll")


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
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
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
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        rel = float((np.abs(a - numeric) / denom).max()) if a.size else 0.0
        entries.append(GradCheckEntry(name, rel, rel <= tolerance))
    return GradCheckReport(entries, tolerance, fd_step)
