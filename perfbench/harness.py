"""Set-up and the operations the benchmark times: train steps, eval
batches and B=1 decodes, each built only from the package's public
functions and mirroring what ``lstmn.train.run_train`` does."""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from lstmn import autodiff as ad
from lstmn import config, data, models, optim, train

# Relative tolerance for the stored reference values: float64 rounding
# noise from a reordered sum passes, a changed model does not.
REFERENCE_RTOL = 1e-10


@dataclass
class Run:
    cfg: config.RunConfig
    vocab: data.Vocabulary
    model: object
    tensors: list
    opt: object
    dropout_rng: np.random.Generator
    train_prepared: tuple
    val_prepared: tuple
    batches: list          # epoch-1 training batches


# Seed of the weights and the batch order.  It stays fixed, so that only the
# inputs change with the workload seed: untrained weights from another seed
# would stop greedy decoding at other lengths.
MODEL_SEED = 0


def make_config(workload, paths: dict) -> config.RunConfig:
    return config.build_config(overrides={**workload.overrides, **paths, "seed": MODEL_SEED})


def batchify(cfg, prepared, seed: int) -> list:
    seqs, seqs2, labels, _ = prepared
    return data.batchify(seqs, cfg.batch_size, seed=seed, pad_index=0, labels=labels,
                         seqs2=seqs2, bucketing=cfg.bucketing)


def set_up(cfg) -> Run:
    """Everything ``run_train`` does before its first step: load, vocabulary,
    ``prepare_examples``, ``build_model``, the optimizer, the first batches."""
    if cfg.l2 > 0 or cfg.embeddings_path:
        raise ValueError("the benchmark's train step does not mirror l2 or pretrained embeddings")
    ad.set_default_dtype(np.float64 if cfg.precision == "float64" else np.float32)
    kind = config.data_kind(cfg)
    train_set = data.load_dataset(cfg.train_data, kind)
    vocab = data.build_vocab(train_set.tokens(), min_freq=cfg.min_freq,
                             max_size=cfg.vocab_size or None)
    train_prepared = train.prepare_examples(cfg, train_set, vocab)
    val_prepared = train.prepare_examples(cfg, data.load_dataset(cfg.val_data, kind), vocab)
    model = models.build_model(cfg, vocab, np.random.default_rng([cfg.seed, 0]))
    tensors = list(model.params().values())
    if cfg.optimizer == "sgd":
        opt = optim.Sgd(tensors, lr=cfg.lr, decay=cfg.lr_decay,
                        improvement_threshold=cfg.improvement_threshold)
    else:
        opt = optim.Adam(tensors, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                         eps=cfg.adam_eps)
    return Run(cfg, vocab, model, tensors, opt, np.random.default_rng([cfg.seed, 1]),
               train_prepared, val_prepared, batchify(cfg, train_prepared, cfg.seed + 1))


def train_batches(run: Run):
    """The batches ``run_train`` visits, epoch after epoch, without end."""
    batches, epoch = run.batches, 1
    while True:
        yield from batches
        epoch += 1
        batches = batchify(run.cfg, run.train_prepared, run.cfg.seed + epoch)


def val_batches(run: Run) -> list:
    return batchify(run.cfg, run.val_prepared, run.cfg.seed)


def train_step(run: Run, batch) -> tuple:
    """One step of ``run_train``'s loop; returns (loss, target tokens, grad norm)."""
    ad.zero_grad(run.tensors)
    loss, info = run.model.loss(batch, training=True, rng=run.dropout_rng)
    ad.backward(loss, params=run.tensors)
    if run.cfg.grad_clip > 0:
        norm = optim.renorm_gradients(run.tensors, run.cfg.grad_clip)
    else:
        norm = optim.global_grad_norm(run.tensors)
    run.opt.step()
    return loss.item(), info["tokens"], norm


def eval_batch(run: Run, batch) -> tuple:
    """(NLL, tokens, greedy hits) of one held-out batch via ``model.evaluate``."""
    m = run.model.evaluate([batch])
    return m.nll, m.tokens, round(m.accuracy * m.tokens)


def is_seq2seq(run: Run) -> bool:
    return isinstance(run.model, models.Seq2SeqModel)


def decode_sources(run: Run) -> list:
    """Held-out sequences for the B=1 closed loop: sources for greedy
    ``generate``, whole sentences for language models."""
    return list(run.val_prepared[0])


def decode(run: Run, seq: np.ndarray) -> tuple:
    """One B=1 request; returns (output, tokens the request processed).

    Seq2seq: greedy ``generate`` with a cap of twice the source length,
    output = the token ids, tokens = source tokens encoded plus decode
    steps.  (Untrained weights emit </s> at arbitrary steps, so a cost per
    generated token alone would mostly measure where </s> fell.)  A
    language model has no ``generate``; its request is greedy next-token
    prediction over one sentence through ``model.evaluate``, output =
    (NLL, hits), tokens = positions predicted.
    """
    if is_seq2seq(run):
        max_len = 2 * len(seq)
        out = run.model.generate(seq, max_len=max_len)
        return out, len(seq) + min(len(out) + 1, max_len)
    nll, tokens, hits = eval_batch(run, batchify(run.cfg, ([seq], None, None, 0), 0)[0])
    return (nll, hits), tokens


def greedy_consistent(run: Run, src: np.ndarray, out: list) -> bool:
    """Teacher-forced ``evaluate`` on (src, out) must predict every generated
    token, and </s> after it when generation stopped on </s>."""
    b = data.Batch(tokens=src[None, :], mask=np.ones((1, len(src))), labels=np.zeros(1, int),
                   tokens2=np.asarray(out, dtype=np.int64).reshape(1, -1),
                   mask2=np.ones((1, len(out))))
    _, tokens, hits = eval_batch(run, b)
    stopped = len(out) < 2 * len(src)
    return tokens == len(out) + 1 and (hits == len(out) + 1 if stopped else hits >= len(out))


def timed(op, item) -> tuple:
    """Wall seconds and result of one operation; an operation that raises
    has result None and is counted as failed by the caller."""
    t0 = time.perf_counter()
    try:
        result = op(item)
    except Exception:   # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        result = None
    return time.perf_counter() - t0, result


@dataclass
class Phase:
    """One kind of operation in the closed loop, with its share of the time."""
    name: str
    op: object
    items: object
    share: float
    min_ops: int
    max_ops: int = 0                 # 0: no limit
    tracer: object = None
    spent: float = 0.0
    seconds: list = field(default_factory=list)
    results: list = field(default_factory=list)


def interleave(phases: list, seconds: float) -> None:
    """Run one operation at a time for ``seconds``, always from the phase
    furthest below its share of the time spent, so that every phase samples
    the whole run; then top up phases below their minimum count."""
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        todo = [p for p in phases if not (p.max_ops and len(p.seconds) >= p.max_ops)
                and (not over or len(p.seconds) < p.min_ops)]
        if not todo:
            return
        p = min(todo, key=lambda p: p.spent / p.share)
        item = next(p.items)
        with p.tracer or nullcontext():
            sec, result = timed(p.op, item)
        p.spent += sec
        p.seconds.append(sec)
        p.results.append(result)


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def reference_outputs(run: Run, steps: int = 2, decodes: int = 3) -> dict:
    """Per-step losses, the first held-out batch's NLL and hits, and the
    first B=1 outputs, from a freshly set-up run."""
    losses = [train_step(run, b)[0] for b in run.batches[:steps]]
    nll, _, hits = eval_batch(run, val_batches(run)[0])
    outs = [decode(run, s)[0] for s in decode_sources(run)[:decodes]]
    return {"losses": losses, "eval_nll": nll, "eval_hits": hits,
            "decode": [list(map(int, o)) if is_seq2seq(run) else [o[0], int(o[1])]
                       for o in outs]}


def reference_ops(want: dict) -> int:
    """Operations behind the reference values: train steps, one eval batch, decodes."""
    return len(want["losses"]) + 1 + len(want["decode"])


def reference_mismatches(got: dict, want: dict) -> list:
    """One label per operation whose output differs from the reference
    beyond float64 rounding."""
    def close(a, b):
        if isinstance(a, list) or isinstance(b, list):
            return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return abs(a - b) <= REFERENCE_RTOL * abs(b)
    misses = [f"loss[{i}]" for i, (a, b) in enumerate(zip(got["losses"], want["losses"]))
              if not close(a, b)]
    if not (close(got["eval_nll"], want["eval_nll"]) and got["eval_hits"] == want["eval_hits"]):
        misses.append("eval")
    misses += [f"decode[{i}]" for i, (a, b) in enumerate(zip(got["decode"], want["decode"]))
               if not close(a, b)]
    return misses
