"""Train / eval / attention-dump workflows over a RunConfig.

``run_train`` writes everything needed to reproduce or reuse a run into
the output directory: the resolved config, the vocabulary, the
best-validation checkpoint, a per-step training log, and per-epoch
metrics records.  All randomness (init, shuffling, dropout, OOV rows)
derives from the config seed, so identical configs give bit-identical
trajectories on one platform.

Note: these entry points set the process-wide default dtype from
``cfg.precision`` and leave it set (one command per process).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint, data, models, optim, synthetic
from .config import SEQ2SEQ_MODELS, ConfigError, RunConfig, data_kind, format_config
from .data import Vocabulary
from .heads import EvalMetrics
from .models import NLI_LABELS


@dataclass
class TrainResult:
    out_dir: str
    checkpoint_path: str
    losses: list = field(default_factory=list)        # per-step mean loss
    val_metrics: list = field(default_factory=list)   # per-epoch EvalMetrics
    steps: int = 0


def _apply_precision(cfg: RunConfig) -> None:
    ad.set_default_dtype(np.float64 if cfg.precision == "float64" else np.float32)


def _map_sentiment_label(value: int, num_labels: int):
    """The 0..4 label that ``data.load_dataset`` read, for the task."""
    if num_labels == 5:
        return value
    if value == 2:
        return None          # neutral rows leave the binary task
    return 0 if value < 2 else 1


def prepare_examples(cfg: RunConfig, dataset: data.LoadedDataset, vocab: Vocabulary):
    """Encode a loaded split into batchify inputs.

    Returns (seqs, seqs2, labels, dropped).  LM rows carry sentence
    boundary tokens; classification rows are raw; unknown labels drop.
    """
    kind = dataset.kind
    seqs, seqs2, labels = [], [], []
    dropped = 0
    for ex in dataset.examples:
        if kind == "lm-text":
            ids = vocab.encode(ex)
            seqs.append(np.concatenate(([vocab.bos], ids, [vocab.eos])))
        elif kind == "labeled-sentences":
            label = _map_sentiment_label(ex[0], cfg.num_labels)
            if label is None:
                dropped += 1
                continue
            seqs.append(vocab.encode(ex[1]))
            labels.append(label)
        else:
            if cfg.task == "nli":
                if ex[0] not in NLI_LABELS:
                    dropped += 1
                    continue
                labels.append(NLI_LABELS.index(ex[0]))
            else:
                labels.append(0)   # conditional LM: the pair label is unused
            seqs.append(vocab.encode(ex[1]))
            seqs2.append(vocab.encode(ex[2]))
    if not seqs:
        raise data.DataFormatError(f"{dataset.path}: no usable examples after label filtering")
    return seqs, (seqs2 or None), (labels or None), dropped


def _batches(cfg: RunConfig, prepared, seed: int):
    seqs, seqs2, labels, _ = prepared
    return data.batchify(seqs, cfg.batch_size, seed=seed, pad_index=0,
                         labels=labels, seqs2=seqs2, bucketing=cfg.bucketing)


def _load_split(cfg: RunConfig, path: str, vocab: Vocabulary):
    dataset = data.load_dataset(path, data_kind(cfg))
    return prepare_examples(cfg, dataset, vocab)


def _build_vocab(cfg: RunConfig, train_set: data.LoadedDataset) -> Vocabulary:
    return data.build_vocab(train_set.tokens(), min_freq=cfg.min_freq,
                            max_size=cfg.vocab_size or None)


def _validation_score(cfg: RunConfig, metrics: EvalMetrics) -> float:
    """Lower is better: PPL for LM tasks, error rate for classification."""
    if cfg.task == "lm":
        return metrics.ppl
    return 1.0 - (metrics.accuracy or 0.0)


def run_train(cfg: RunConfig, out_dir: str) -> TrainResult:
    _apply_precision(cfg)
    if not cfg.train_data:
        raise ConfigError("train_data is required for training")
    train_set = data.load_dataset(cfg.train_data, data_kind(cfg))
    vocab = _build_vocab(cfg, train_set)
    train_prepared = prepare_examples(cfg, train_set, vocab)
    val_prepared = _load_split(cfg, cfg.val_data, vocab) if cfg.val_data else None
    embeddings = None
    if cfg.embeddings_path:
        embeddings = data.load_pretrained(cfg.embeddings_path, vocab, seed=cfg.seed)
        if embeddings.dim != cfg.embedding:
            raise ConfigError(
                f"embeddings_path has dimension {embeddings.dim}, "
                f"config says embedding = {cfg.embedding}")

    # The first write comes after every check, so a failed run leaves no
    # config or vocabulary for eval and dump-attention to pick up.
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    vocab.save(os.path.join(out_dir, "vocab.txt"))

    init_rng = np.random.default_rng([cfg.seed, 0])
    dropout_rng = np.random.default_rng([cfg.seed, 1])
    model = models.build_model(cfg, vocab, init_rng, embeddings)
    params = model.params()
    tensors = list(params.values())

    if cfg.optimizer == "sgd":
        opt = optim.Sgd(tensors, lr=cfg.lr, decay=cfg.lr_decay,
                        improvement_threshold=cfg.improvement_threshold)
    else:
        opt = optim.Adam(tensors, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                         eps=cfg.adam_eps)

    ckpt_path = os.path.join(out_dir, "checkpoint.npz")
    result = TrainResult(out_dir=out_dir, checkpoint_path=ckpt_path)
    best_score = None
    log = open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8")
    metrics_fh = open(os.path.join(out_dir, "metrics.txt"), "w", encoding="utf-8")
    try:
        step = 0
        stop = False
        for epoch in range(1, cfg.epochs + 1):
            batches = _batches(cfg, train_prepared, seed=cfg.seed + epoch)
            for index, batch in enumerate(batches, start=1):
                try:
                    value, grad_norm = _train_step(cfg, model, tensors, opt, batch, epoch,
                                                   dropout_rng)
                except ad.NonFiniteError as err:
                    raise ad.NonFiniteError(
                        f"{err} (epoch {epoch}, batch {index}, step {step + 1})") from err
                step += 1
                result.losses.append(value)
                record = (f"step={step} loss={value:.6f} "
                          f"grad_norm={grad_norm:.6f} lr={opt.lr:.6f}")
                log.write(record + "\n")
                log.flush()
                if step % cfg.log_every == 0:
                    print(record)
                if cfg.max_steps and step >= cfg.max_steps:
                    stop = True
                    break

            if val_prepared is not None:
                metrics = model.evaluate(_batches(cfg, val_prepared, seed=cfg.seed),
                                         dataset=_stem(cfg.val_data), split="val")
                result.val_metrics.append(metrics)
                line = f"epoch={epoch} {metrics.record()}"
                metrics_fh.write(line + "\n")
                metrics_fh.flush()
                print(line)
                score = _validation_score(cfg, metrics)
                if best_score is None or score < best_score:
                    best_score = score
                    checkpoint.save_checkpoint(params, ckpt_path)
                if isinstance(opt, optim.Sgd):
                    opt.end_epoch(score)
            if stop:
                break
        result.steps = step
        if best_score is None:
            # No validation split: the final (or initial, 0-epoch) weights.
            checkpoint.save_checkpoint(params, ckpt_path)
    finally:
        log.close()
        metrics_fh.close()
    return result


def _train_step(cfg: RunConfig, model, tensors: list, opt, batch, epoch: int, rng) -> tuple:
    """One optimizer step on ``batch``: loss, backward, the embedding
    gradient policy, clipping and the update.  Returns (loss, grad norm)."""
    ad.zero_grad(tensors)
    loss, _ = model.loss(batch, training=True, rng=rng)
    if cfg.l2 > 0:
        loss = ad.add(loss, ad.mul(_sum_squares(model.l2_params()), cfg.l2))
    ad.backward(loss, params=tensors)
    if cfg.embedding_grad_policy != "none":
        emb = model.embeddings
        optim.scale_embedding_grads(emb.weights.grad, epoch, cfg.embedding_grad_policy,
                                    emb.pretrained, scale=cfg.embedding_grad_scale)
    if cfg.grad_clip > 0:
        grad_norm = optim.renorm_gradients(tensors, cfg.grad_clip)
    else:
        grad_norm = optim.global_grad_norm(tensors)
    opt.step()
    return loss.item(), grad_norm


def _sum_squares(tensors):
    total = None
    for t in tensors:
        term = ad.sum_all(ad.mul(t, t))
        total = term if total is None else ad.add(total, term)
    return total


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0] or "-"


def _rebuild(cfg: RunConfig, checkpoint_path: str):
    _apply_precision(cfg)
    vocab_path = os.path.join(os.path.dirname(checkpoint_path) or ".", "vocab.txt")
    vocab = Vocabulary.load(vocab_path)
    model = models.build_model(cfg, vocab, np.random.default_rng([cfg.seed, 0]))
    checkpoint.load_into(model.params(), checkpoint_path)
    return model, vocab


def run_eval(cfg: RunConfig, checkpoint_path: str) -> EvalMetrics:
    model, vocab = _rebuild(cfg, checkpoint_path)
    split_path = {"train": cfg.train_data, "val": cfg.val_data,
                  "test": cfg.test_data}[cfg.split]
    if not split_path:
        raise ConfigError(f"no data path configured for split {cfg.split!r}")
    prepared = _load_split(cfg, split_path, vocab)
    metrics = model.evaluate(_batches(cfg, prepared, seed=cfg.seed),
                             dataset=_stem(split_path), split=cfg.split)
    return metrics


def run_dump_attention(cfg: RunConfig, checkpoint_path: str, input_path: str,
                       out_path: str) -> str:
    """Trace attention over one input line and write a TSV dump.

    Single-sequence models take a line of tokens; pair models take
    ``source<TAB>target``.  The input is embedded exactly as given (no
    boundary tokens), so a 1-token input yields a header-only file.
    """
    model, vocab = _rebuild(cfg, checkpoint_path)
    line = next((l.rstrip("\n") for _, l in data.text_lines(input_path, data.DataFormatError)
                 if l.strip()), None)
    if line is None:
        raise ConfigError(f"{input_path}: no input text")

    pair_model = cfg.model in SEQ2SEQ_MODELS or cfg.task == "nli"
    lines = []
    if pair_model:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError("pair models need 'source<TAB>target' input")
        # Pair data (sentence-pairs) is lowercased on load, for every pair model.
        src_tokens, tgt_tokens = parts[0].lower().split(), parts[1].lower().split()
        traces = model.attention_traces(vocab.encode(src_tokens),
                                        vocab.encode(tgt_tokens))
        lines.append("# source-tokens\t" + "\t".join(src_tokens))
        lines.append("# target-tokens\t" + "\t".join(tgt_tokens))
        for name, stream in traces.items():
            lines.append(f"# section\t{name}")
            lines.extend(_format_stream(stream, intra=name != "inter"))
    else:
        tokens = line.split()
        traces = model.attention_traces(vocab.encode(tokens))
        lines.append("# tokens\t" + "\t".join(tokens))
        lines.extend(_format_stream(traces["intra"]))

    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out_path


def _format_stream(stream, intra: bool = True) -> list:
    """Rows ``t<TAB>i<TAB>weight`` (1-based) under a column header; steps
    without a distribution (t=1 intra) emit nothing.  An n-slot intra
    window ends at slot t-1; inter weights span the source from slot 1."""
    lines = ["t\ti\tweight"]
    for t, weights in enumerate(stream, start=1):
        if weights is None:
            continue
        for i, w in enumerate(weights[0], start=t - weights.shape[1] if intra else 1):
            lines.append(f"{t}\t{i}\t{w:.10g}")
    return lines
