"""Independent straight-line reimplementations used as test oracles.

Everything here is plain numpy on single (unbatched) vectors, written
directly from the update equations with no shared code, caching, or
stabilization tricks, so it stays independent of the package internals
it checks.
"""

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def softmax(z):
    e = np.exp(np.asarray(z, dtype=np.float64))
    return e / e.sum()


def gate_blocks(rec, x, W, b):
    z = W @ np.concatenate([rec, x])
    if b is not None:
        z = z + b
    h = len(z) // 4
    return (sigmoid(z[:h]), sigmoid(z[h:2 * h]), sigmoid(z[2 * h:3 * h]),
            np.tanh(z[3 * h:]))


def lstm_step_ref(x, h_prev, c_prev, W, b):
    i, f, o, chat = gate_blocks(h_prev, x, W, b)
    c = f * c_prev + i * chat
    h = o * np.tanh(c)
    return h, c


def intra_scores_ref(x, H, htilde_prev, v, w_h, w_x, w_ht, bias):
    scores = []
    for h_i in H:
        pre = w_h @ h_i + w_x @ x + w_ht @ htilde_prev
        if bias is not None:
            pre = pre + bias
        scores.append(v @ np.tanh(pre))
    return np.asarray(scores)


def intra_summaries_ref(x, H, C, htilde_prev, v, w_h, w_x, w_ht, bias, hidden):
    """Attention weights plus the two adaptive summaries; zero summaries
    over an empty tape."""
    if len(H) == 0:
        return np.zeros(0), np.zeros(hidden), np.zeros(hidden)
    weights = softmax(intra_scores_ref(x, H, htilde_prev, v, w_h, w_x, w_ht, bias))
    htilde = sum(s * h_i for s, h_i in zip(weights, H))
    ctilde = sum(s * c_i for s, c_i in zip(weights, C))
    return weights, htilde, ctilde


def read_memory_grads_ref(values, keys, q, v, weights, g):
    """Gradients of g . out with respect to one row's read slots, values
    (T, d) and keys (T, a): out = sum_j weights_j values_j, with weights
    the softmax of v . tanh(key_j + q) (0 at masked slots)."""
    z = np.tanh(keys + q)
    gw = values @ g
    gs = weights * (gw - gw @ weights)
    return np.outer(weights, g), gs[:, None] * v * (1.0 - z * z)


def tape_read_ref(values, keys, x, w_x, prev, w_prev, v, bias, mask, g):
    """One row of a tape read and the gradients of g . out with respect to
    everything it reads: values (T, d) and keys (T, a) the slots read,
    q = w_x x + w_prev prev [+ bias], weights the softmax of
    v . tanh(key_j + q) over the slots ``mask`` (or None) keeps, 0
    elsewhere, and out = sum_j weights_j values_j.  Returns (out, weights,
    {name: gradient}) for values, keys, x, w_x, prev, w_prev, v and bias."""
    q = w_x @ x + w_prev @ prev
    if bias is not None:
        q = q + bias
    z = np.tanh(keys + q)
    keep = np.ones(len(keys), dtype=bool) if mask is None else np.asarray(mask) != 0
    weights = np.zeros(len(keys))
    weights[keep] = softmax((z @ v)[keep])
    gval, gkey = read_memory_grads_ref(values, keys, q, v, weights, g)
    gq = gkey.sum(axis=0)    # key_j and q enter the tanh as one sum
    gw = values @ g
    gs = weights * (gw - gw @ weights)
    return weights @ values, weights, dict(
        values=gval, keys=gkey, x=w_x.T @ gq, w_x=np.outer(gq, x), prev=w_prev.T @ gq,
        w_prev=np.outer(gq, prev), v=gs @ z, bias=gq)


def lstmn_step_ref(x, H, C, htilde_prev, W, b, v, w_h, w_x, w_ht, bias):
    """Returns (h, c, weights, htilde, ctilde); H/C lists of past vectors."""
    hidden = W.shape[0] // 4
    weights, htilde, ctilde = intra_summaries_ref(
        x, H, C, htilde_prev, v, w_h, w_x, w_ht, bias, hidden)
    i, f, o, chat = gate_blocks(htilde, x, W, b)
    c = f * ctilde + i * chat
    h = o * np.tanh(c)
    return h, c, weights, htilde, ctilde


def inter_attend_ref(x, Y, A, gtilde_prev, u, w_g, w_x, w_gt):
    """Returns (weights, gtilde, atilde) over source slots Y/A."""
    scores = []
    for gamma_j in Y:
        scores.append(u @ np.tanh(w_g @ gamma_j + w_x @ x + w_gt @ gtilde_prev))
    p = softmax(np.asarray(scores))
    gtilde = sum(pj * gamma_j for pj, gamma_j in zip(p, Y))
    atilde = sum(pj * alpha_j for pj, alpha_j in zip(p, A))
    return p, gtilde, atilde


def deep_fusion_cell_ref(x, htilde, ctilde, gtilde, atilde, W, b, w_r):
    """The deep-fusion memory update from the summaries: (h, c, r)."""
    i, f, o, chat = gate_blocks(htilde, x, W, b)
    r = sigmoid(w_r @ np.concatenate([gtilde, x]))
    c = r * atilde + f * ctilde + i * chat
    h = o * np.tanh(c)
    return h, c, r


def deep_decode_step_ref(x, H, C, htilde_prev, Y, A, gtilde_prev,
                         W, b, v, w_h, w_x, w_ht, bias_a,
                         u, w_g, w_xg, w_gt, w_r):
    """Target-memory update with the gated source-alignment term."""
    hidden = W.shape[0] // 4
    weights, htilde, ctilde = intra_summaries_ref(
        x, H, C, htilde_prev, v, w_h, w_x, w_ht, bias_a, hidden)
    p, gtilde, atilde = inter_attend_ref(x, Y, A, gtilde_prev, u, w_g, w_xg, w_gt)
    h, c, r = deep_fusion_cell_ref(x, htilde, ctilde, gtilde, atilde, W, b, w_r)
    return h, c, weights, p, r, htilde, gtilde, atilde
