"""Training mechanics: gradient renormalization, SGD with validation-driven
decay, Adam, inverted dropout, and the two embedding-gradient policies."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .config import ConfigError


def global_grad_norm(params) -> float:
    """L2 norm over all gradients; raises on NaN/Inf.  When finite
    gradients' squares overflow, the norm is taken again over the
    gradients divided by their largest magnitude, so it stays finite.
    Each gradient is read as a flat view in its own memory order, so a
    column-major one is not copied."""
    grads = [p.grad.ravel(order="K") for p in params if p.grad is not None]
    with np.errstate(over="ignore"):
        total = sum(float(g @ g) for g in grads)
    if np.isfinite(total):
        return float(np.sqrt(total))
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise NonFiniteError("gradient contains non-finite values")
    top = max(float(np.abs(g).max()) for g in grads)
    return top * float(np.sqrt(sum(float((g / top) @ (g / top)) for g in grads)))


def renorm_gradients(params, threshold: float = 5.0) -> float:
    """Scale all gradients by threshold/norm when the global L2 norm
    exceeds the threshold; returns the pre-scaling norm."""
    norm = global_grad_norm(params)
    if norm > threshold:
        scale = threshold / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Sgd:
    """Plain SGD whose learning rate decays at epoch end unless the
    validation metric improved by at least ``improvement_threshold``
    relative (lower metric is better)."""

    def __init__(self, params, lr: float = 0.65, decay: float = 0.85,
                 improvement_threshold: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.decay = decay
        self.improvement_threshold = improvement_threshold
        self.best = None

    def step(self) -> None:
        """p -= lr * grad for every parameter with a gradient.  Consumes
        the gradients: each is scaled by lr in place, so no
        parameter-sized temporary is allocated."""
        for p in self.params:
            if p.grad is not None:
                p.grad *= self.lr
                p.data -= p.grad

    def end_epoch(self, val_metric: float) -> bool:
        """Returns True when the learning rate was decayed."""
        improved = self.best is None or \
            (self.best - val_metric) >= self.improvement_threshold * abs(self.best)
        if self.best is None or val_metric < self.best:
            self.best = val_metric
        if improved:
            return False
        self.lr *= self.decay
        return True


class Adam:
    """Bias-corrected adaptive-moment update."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """The moments update in place and the step is built in two
        scratch arrays, in the operation order of
        p -= lr * m_hat / (sqrt(v_hat) + eps), so it rounds the same."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            num = (1 - b2) * g
            num *= g
            v += num
            np.divide(m, c1, out=num)
            num *= self.lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p.data -= num


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scaled Bernoulli mask while training, identity
    in evaluation so expected activations match."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return ad.mul(x, Tensor(keep / (1.0 - rate)))


def scale_embedding_grads(grad: np.ndarray, epoch: int, policy: str,
                          pretrained_mask: np.ndarray,
                          scale: float = 0.35) -> np.ndarray:
    """First-epoch handling of pretrained embedding rows, in place.

    ``scale-first-epoch`` damps pretrained-row gradients by ``scale`` in
    epoch 1; ``freeze-pretrained-first-epoch`` zeroes them so only OOV
    rows move.  Later epochs pass through untouched.
    """
    if policy == "none":
        return grad
    if policy not in ("scale-first-epoch", "freeze-pretrained-first-epoch"):
        raise ConfigError(f"unknown embedding-gradient policy {policy!r}")
    if epoch == 1:
        rows = np.asarray(pretrained_mask, dtype=bool)
        if policy == "scale-first-epoch":
            grad[rows] *= scale
        else:
            grad[rows] = 0.0
    return grad
